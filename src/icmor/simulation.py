"""Time-domain simulation, the reduced online phase, and signal norms.

Propagation uses the exact first-order-hold discretization: the state map
``x_{k+1} = E x_k + F0 u_k + F1 u_{k+1}`` with the weights extracted from
an augmented matrix exponential, so the scheme is exact for piecewise
linear inputs.  Dirac inputs are realized as state jumps, never as narrow
pulses.
"""

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NonFinite, TailWarning
from .linalg import _as_matrix, matrix_exponential
from .model import StateSpaceModel, coordinates_of

__all__ = [
    "INPUT_KINDS",
    "InputSignal",
    "SimulationTrace",
    "foh_weights",
    "suggest_grid",
    "simulate",
    "online_phase",
    "l2_norm",
    "linf_norm",
]


# the InputSignal constructors a config may name; the first is the default
INPUT_KINDS = ("decaying_pulses", "decaying_sinusoid", "zero")
_CHUNK = 1024  # the input samples InputSignal.l2_norm evaluates at a time


@dataclass(frozen=True)
class InputSignal:
    """Finite-energy input on [0, T] with ``m`` channels; ``f``, built by its
    constructor, maps times ``t`` to ``(len(t), m)`` samples (None: zero)."""

    m: int
    f: object = None

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def decaying_pulses(cls, m, amplitude=1.0, decay=0.05, period=15.0,
                        width=1.0, start=1.0):
        """Train of triangular pulses with exponentially decaying heights,
        identical in every channel; ``period`` and ``width`` must be > 0."""
        for key, value in (("period", period), ("width", width)):
            if not value > 0:
                raise InvalidParameter(f"{key}: must be > 0, got {value!r}")
        amplitude, decay, period, start = map(float, (amplitude, decay, period, start))
        w = float(width) / 2.0  # the half-width of each pulse

        def f(t):
            sig = np.zeros_like(t)
            for tc in np.arange(start, t.max(initial=start) + period, period):
                amp = amplitude * np.exp(-decay * tc)
                sig += amp * np.clip(1.0 - np.abs(t - tc) / w, 0.0, None)
            return np.repeat(sig[:, None], m, axis=1)
        return cls(m, f)

    @classmethod
    def decaying_sinusoid(cls, m, amplitude=1.0, decay=0.05, freq=0.2,
                          freq_spread=0.5):
        """Exponentially decaying sinusoids, one frequency per channel."""
        amplitude, decay = float(amplitude), float(decay)
        freqs = [float(freq) * (1.0 + float(freq_spread) * j / max(m - 1, 1)) for j in range(m)]

        def f(t):
            env = amplitude * np.exp(-decay * t)
            return np.column_stack([env * np.sin(2.0 * np.pi * fj * t) for fj in freqs])
        return cls(m, f)

    @classmethod
    def sampled(cls, t, values):
        t = np.asarray(t, dtype=float)
        values = _as_matrix(values, "values")
        if values.shape[0] != t.shape[0]:
            values = values.T
        if values.shape[0] != t.shape[0]:
            raise InvalidParameter("sample count mismatch")
        if not (np.all(np.diff(t) > 0) and np.all(np.isfinite(t))):
            raise InvalidParameter("t: sample times must be finite and strictly increasing")
        return cls(values.shape[1],
                   lambda s: np.column_stack([np.interp(s, t, v) for v in values.T]))

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.f is None or self.m == 0:
            return np.zeros((t.shape[0], self.m))
        return self.f(t)

    def l2_norm(self, t_f, dt):
        """L2 norm over [0, t_f] by trapezoidal quadrature at ``dt / 10``, its
        terms summed as ``np.trapezoid`` sums them, from the input sampled in
        chunks of ``_CHUNK`` steps: no samples x m array is formed."""
        with _grid_steps(t_f, dt) as N:
            t = np.linspace(0.0, t_f, 10 * N + 1)
            terms = np.empty(len(t) - 1)
        for i in range(0, len(terms), _CHUNK):
            sq = np.sum(np.square(self(t[i:i + _CHUNK + 1])), axis=1)
            terms[i:i + _CHUNK] = np.diff(t[i:i + _CHUNK + 1]) * (sq[1:] + sq[:-1]) / 2.0
        return float(np.sqrt(terms.sum()))


@dataclass(eq=False)
class SimulationTrace:
    """Output samples on a uniform grid; ``y`` is (samples, outputs)."""

    t: np.ndarray
    y: np.ndarray
    components: dict = None
    provenance: dict = field(default_factory=dict)


def foh_weights(A, B, dt):
    """Exact first-order-hold step matrices (E, F0, F1) for step ``dt``, from the
    exponential of ``[[A, B, 0], [0, 0, I], [0, 0, 0]]``, passed as a temporary."""
    n, m = A.shape[0], B.shape[1]
    Eb = matrix_exponential(np.block([[A, B, np.zeros((n, m))], [np.zeros((m, n + m)), np.eye(m)],
                                      [np.zeros((m, n + 2 * m))]]), dt)
    F1 = Eb[:n, n + m:] / dt
    return Eb[:n, :n], Eb[:n, n:n + m] - F1, F1


GRID_SAMPLES = 4000
_DECAY_TARGET = 1e-8


def suggest_grid(M: StateSpaceModel, horizon=None, dt=None):
    """Horizon and step: the horizon over which ``exp(abscissa t)`` decays to
    ``_DECAY_TARGET``, or the given ``horizon``, with ``GRID_SAMPLES`` steps;
    a given ``dt`` is rounded to a whole number of steps on the horizon.  The
    pair is checked by ``_grid_steps``, whose error names ``horizon`` or ``dt``."""
    t_f = float(np.log(1.0 / _DECAY_TARGET) / max(-M.abscissa, 1e-12)
                if horizon is None else horizon)
    with _grid_steps(t_f, t_f / GRID_SAMPLES if dt is None else dt) as N:
        return t_f, t_f / N


@contextmanager
def _grid_steps(t_f, dt):
    """``round(t_f / dt)`` for a block that allocates the grid's samples: the
    one check of a grid.  A horizon or step that is not finite and > 0, a
    count that rounds to 0 or overflows, or a ``MemoryError`` in the block
    raises ``InvalidParameter`` naming ``horizon`` or ``dt``."""
    t_f, dt = float(t_f), float(dt)
    for key, value in (("horizon", t_f), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise InvalidParameter(f"{key}: must be a finite number > 0, got {value!r}")
    steps = t_f / dt  # inf when the quotient overflows
    if not 0.5 < steps < math.inf:  # round(steps) >= 1 iff steps > 0.5
        why = "no step" if steps <= 0.5 else "a step count that overflows"
        raise InvalidParameter(f"dt: {dt!r} gives {why} on the horizon t_f = {t_f!r}")
    try:
        yield round(steps)
    except MemoryError:
        raise InvalidParameter(f"dt: {dt!r} gives {steps:.3g} steps on the horizon "
                               f"t_f = {t_f!r}, too many to allocate") from None


def _flush(Z):
    """Set the entries of ``Z`` below ``1e-150 max|Z|``, and the subnormal
    ones, to 0, in place; returns ``Z``.  Products of two entries below
    about 1e-154 underflow and put a GEMM with ``Z`` on its slow path; a
    flushed entry moves a product only at 1e-150 of its largest entries."""
    absZ = np.abs(Z)
    Z[absZ < max(1e-150 * absZ.max(initial=0.0), np.finfo(float).tiny)] = 0.0
    return Z


def _power(E, L):
    """``E^L`` for ``L >= 1`` by binary powering, flushing every product."""
    P = None
    while True:
        if L & 1:
            P = E if P is None else _flush(P @ E)
        L >>= 1
        if not L:
            return P
        E = _flush(E @ E)


def simulate(M: StateSpaceModel, u, x0, t_f, dt):
    """Propagate the system and sample the output on a uniform grid.

    ``u`` may be None (zero input); ``x0`` may be None (zero state).  When
    both are given, the input response from rest and the response to
    ``x0`` are stepped side by side, as the two columns of one ``n x 2``
    state, and the trace carries them as ``components`` (``y_u``,
    ``y_x0``, as ``online_phase`` does); ``y`` is their sum.  The grid has
    the ``N`` steps of ``_grid_steps``, of ``t_f / N`` each, so it ends at
    ``t_f``; one FOH step is taken per output sample.

    In ``xi_k = x_k - F1 u_k`` the recursion reads ``xi_{k+1} = E xi_k + G
    u_k``, ``G = E F1 + F0``, ``y_k = C xi_k + C F1 u_k``.  It is stepped in
    blocks of ``L ~ sqrt(N / (m + p))`` steps: ``xi`` moves by ``Phi = E^L``
    (by squaring) plus a map of the block's ``L`` input samples, and the
    block's outputs are ``C E^l xi`` plus a block-Toeplitz map (``C E^l G``,
    ``C F1``) of them; the sample maps of all blocks are one GEMM each.
    """
    A, B, C = M.A, M.B, M.C
    n, m = A.shape[0], B.shape[1]
    with _grid_steps(t_f, dt) as N:
        dt = float(t_f) / N
        t = np.arange(N + 1) * dt
    split = u is not None and x0 is not None
    if u is None:
        u = InputSignal.zero(m)
    if u.m != m:
        raise InvalidParameter(f"input has {u.m} channels, model expects {m}")
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != n:
        raise InvalidParameter(f"x0 has length {x0.shape[0]}, expected {n}")
    # one row per run: the input run starts at rest, the x0 run unforced
    X0 = np.stack([np.zeros(n), x0]) if split else x0[None]
    ys = _lifted_steps(A, B, C, u, X0, t, dt)
    components = {"y_u": ys[0], "y_x0": ys[1]} if split else None
    return SimulationTrace(t=t, y=ys.sum(axis=0), components=components,
                           provenance={"order": n, "substeps": 1})


def _lifted_steps(A, B, C, u, X0, t, dt):
    """Outputs ``(S, N + 1, p)`` from the ``S`` initial states, the rows of
    ``X0``; ``u`` drives the first only."""
    S, n, p = X0.shape[0], A.shape[0], C.shape[0]
    N = t.shape[0] - 1
    if u.f is None:
        B = B[:, :0]
    m = B.shape[1]
    L = max(1, int(np.ceil(np.sqrt(N / max(m + p, 1)))))
    nb = -(-N // L)
    E, F0, F1 = foh_weights(A, B, dt)
    Phi = _power(_flush(E), L)
    EG, CE = [E @ F1 + F0], [C]  # E^l G and C E^l for l < L
    for _ in range(1, L):
        EG.append(E @ EG[-1])
        CE.append(CE[-1] @ E)
    EG, CE = np.array(EG), np.array(CE)
    # Theta[i, j] = H[i - j] with H[d] = C E^{d-1} G, H[0] = C F1, 0 for d < 0
    H = np.concatenate([np.zeros((L, p, m)), [C @ F1], C @ EG])
    Theta = H[L + np.arange(L)[:, None] - np.arange(L)].transpose(0, 2, 1, 3)

    # samples past t_f are zero: no output up to t_f depends on them
    U = np.zeros((nb * L + 1, m))
    if m:
        U[:N + 1] = u(t)
    U_blocks = U[:-1].reshape(nb, L * m)
    X = np.empty((nb + 1, S, n))
    X[0] = X0
    X[0, 0] -= F1 @ U[0]
    GU = U_blocks @ EG[::-1].transpose(1, 0, 2).reshape(n, L * m).T
    for b in range(nb):
        X[b + 1] = X[b] @ Phi.T
        X[b + 1, 0] += GU[b]
    Y = (X[:-1].reshape(nb * S, n) @ CE.reshape(L * p, n).T).reshape(nb, S, L * p)
    Y[:, 0] += U_blocks @ Theta.reshape(L * p, L * m).T
    y_end = X[-1] @ C.T
    y_end[0] += U[-1] @ (C @ F1).T
    ys = np.concatenate([Y.reshape(nb, S, L, p).transpose(1, 0, 2, 3).reshape(S, nb * L, p),
                         y_end[:, None]], axis=1)[:, :N + 1]
    if not np.all(np.isfinite(ys)):
        raise NonFinite("simulation produced non-finite output")
    return ys


def online_phase(S, u, x0, t_f, dt) -> SimulationTrace:
    """Reconstruct the reduced output: input response from ``suy`` plus the
    initial-condition response from ``sxy``, whose input matrix is the
    projected basis, with the Dirac input applied as the exact state jump
    ``sxy.sys.B z0``.  Both run on the one grid of ``t_f`` and ``dt``; the
    trace carries them as ``components`` and ``y`` is their sum."""
    z0 = coordinates_of(x0, S.basis)
    tr_u = simulate(S.suy.sys, u, None, t_f, dt)
    tr_x0 = simulate(S.sxy.sys, None, S.sxy.sys.B @ z0, t_f, dt)
    return SimulationTrace(t=tr_u.t, y=tr_u.y + tr_x0.y,
                           components={"y_u": tr_u.y, "y_x0": tr_x0.y})


def l2_norm(tr: SimulationTrace) -> float:
    """Trapezoidal L2 norm of the sampled output over its horizon."""
    mag = np.sqrt(np.sum(tr.y * tr.y, axis=1))
    peak = mag.max(initial=0.0)
    if peak > 0 and mag[-1] > 1e-6 * peak:
        warnings.warn(
            f"trace has not decayed at the horizon (last/peak = {mag[-1] / peak:.1e})",
            TailWarning,
        )
    return float(np.sqrt(np.trapezoid(mag * mag, tr.t)))


def linf_norm(tr: SimulationTrace) -> float:
    return float(np.max(np.abs(tr.y), initial=0.0))
