"""Time-domain simulation, the reduced online phase, and signal norms.

Propagation uses the exact first-order-hold discretization: the state map
``x_{k+1} = E x_k + F0 u_k + F1 u_{k+1}`` with the weights extracted from
an augmented matrix exponential, so the scheme is exact for piecewise
linear inputs.  Dirac inputs are realized as state jumps, never as narrow
pulses.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NonFinite, TailWarning
from .linalg import matrix_exponential
from .model import StateSpaceModel, coordinates_of

__all__ = [
    "InputSignal",
    "SimulationTrace",
    "foh_weights",
    "suggest_grid",
    "simulate",
    "online_phase",
    "l2_norm",
    "linf_norm",
]


@dataclass(frozen=True)
class InputSignal:
    """Finite-energy input on [0, T]; evaluated pointwise on demand."""

    kind: str
    m: int
    params: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, m):
        return cls("zero", m)

    @classmethod
    def decaying_pulses(cls, m, amplitude=1.0, decay=0.05, period=15.0,
                        width=1.0, start=1.0):
        """Train of triangular pulses with exponentially decaying heights,
        identical in every channel; ``period`` and ``width`` must be > 0."""
        for key, value in (("period", period), ("width", width)):
            if not value > 0:
                raise InvalidParameter(f"{key}: must be > 0, got {value!r}")
        return cls("decaying_pulses", m, dict(
            amplitude=float(amplitude), decay=float(decay),
            period=float(period), width=float(width), start=float(start)))

    @classmethod
    def decaying_sinusoid(cls, m, amplitude=1.0, decay=0.05, freq=0.2,
                          freq_spread=0.5):
        """Exponentially decaying sinusoids, one frequency per channel."""
        return cls("decaying_sinusoid", m, dict(
            amplitude=float(amplitude), decay=float(decay),
            freq=float(freq), freq_spread=float(freq_spread)))

    @classmethod
    def sampled(cls, t, values):
        t = np.asarray(t, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != t.shape[0]:
            values = values.T
        if values.shape[0] != t.shape[0]:
            raise InvalidParameter("sample count mismatch")
        return cls("sampled", values.shape[1], dict(t=t, values=values))

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.shape[0], self.m))
        if self.kind == "zero" or self.m == 0:
            return out
        p = self.params
        if self.kind == "decaying_pulses":
            # triangular bump of half-width w around each pulse center
            w = p["width"] / 2.0
            centers = np.arange(p["start"], t.max() + p["period"], p["period"])
            sig = np.zeros_like(t)
            for tc in centers:
                amp = p["amplitude"] * np.exp(-p["decay"] * tc)
                sig += amp * np.clip(1.0 - np.abs(t - tc) / w, 0.0, None)
            out[:] = sig[:, None]
            return out
        if self.kind == "decaying_sinusoid":
            env = p["amplitude"] * np.exp(-p["decay"] * t)
            for j in range(self.m):
                f = p["freq"] * (1.0 + p["freq_spread"] * j / max(self.m - 1, 1))
                out[:, j] = env * np.sin(2.0 * np.pi * f * t)
            return out
        if self.kind == "sampled":
            for j in range(self.m):
                out[:, j] = np.interp(t, p["t"], p["values"][:, j])
            return out
        raise InvalidParameter(f"unknown input kind '{self.kind}'")

    def l2_norm(self, t_f, dt):
        """L2 norm over [0, t_f] by trapezoidal quadrature at ``dt / 10``."""
        t = np.linspace(0.0, t_f, 10 * max(int(round(t_f / dt)), 1) + 1)
        u = self(t)
        return float(np.sqrt(np.trapezoid(np.sum(u * u, axis=1), t)))


@dataclass
class SimulationTrace:
    """Output samples on a uniform grid; ``y`` is (samples, outputs)."""

    t: np.ndarray
    y: np.ndarray
    components: dict = None
    provenance: dict = field(default_factory=dict)


def foh_weights(A, B, dt):
    """Exact first-order-hold step matrices (E, F0, F1) for step ``dt``."""
    n, m = A.shape[0], B.shape[1]
    blk = np.zeros((n + 2 * m, n + 2 * m))
    blk[:n, :n] = A
    blk[:n, n:n + m] = B
    blk[n:n + m, n + m:] = np.eye(m)
    Eb = matrix_exponential(blk, dt)
    E = Eb[:n, :n]
    P1 = Eb[:n, n:n + m]
    P2 = Eb[:n, n + m:]
    F1 = P2 / dt
    F0 = P1 - F1
    return E, F0, F1


GRID_SAMPLES = 4000
_DECAY_TARGET = 1e-8


def suggest_grid(M: StateSpaceModel):
    """Horizon over which ``exp(abscissa t)`` decays to ``_DECAY_TARGET``,
    and the step that divides it into ``GRID_SAMPLES`` steps."""
    t_f = np.log(1.0 / _DECAY_TARGET) / max(-M.abscissa, 1e-12)
    return float(t_f), float(t_f / GRID_SAMPLES)


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
    ``y_x0``, as ``online_phase`` does); ``y`` is their sum.  One FOH step
    is taken per output sample.

    In ``xi_k = x_k - F1 u_k`` the recursion reads ``xi_{k+1} = E xi_k + G
    u_k``, ``G = E F1 + F0``, ``y_k = C xi_k + C F1 u_k``.  It is stepped in
    blocks of ``L ~ sqrt(N / (m + p))`` steps: ``xi`` moves by ``Phi = E^L``
    (by squaring) plus a map of the block's ``L`` input samples, and the
    block's outputs are ``C E^l xi`` plus a block-Toeplitz map (``C E^l G``,
    ``C F1``) of them; the sample maps of all blocks are one GEMM each.
    """
    A, B, C = M.A, M.B, M.C
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    if t_f <= 0 or dt <= 0:
        raise InvalidParameter("need positive horizon and step")
    N = int(round(t_f / dt))
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
    S = X0.shape[0]

    if n == 0:
        ys, provenance = np.zeros((S, N + 1, p)), {"order": 0}
    else:
        ys, provenance = _lifted_steps(A, B, C, u, X0, t, dt), {"order": n, "substeps": 1}
    components = {"y_u": ys[0], "y_x0": ys[1]} if split else None
    return SimulationTrace(t=t, y=ys.sum(axis=0), components=components, provenance=provenance)


def _lifted_steps(A, B, C, u, X0, t, dt):
    """Outputs ``(S, N + 1, p)`` from the ``S`` initial states, the rows of
    ``X0``; ``u`` drives the first only."""
    S, n, p = X0.shape[0], A.shape[0], C.shape[0]
    N = t.shape[0] - 1
    if u.kind == "zero":
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
                           components={"y_u": tr_u.y, "y_x0": tr_x0.y},
                           provenance={"superposition": [tr_u.provenance, tr_x0.provenance]})


def l2_norm(tr: SimulationTrace) -> float:
    """Trapezoidal L2 norm of the sampled output over its horizon."""
    mag = np.sqrt(np.sum(tr.y * tr.y, axis=1))
    peak = mag.max() if mag.size else 0.0
    if peak > 0 and mag[-1] > 1e-6 * peak:
        warnings.warn(
            f"trace has not decayed at the horizon (last/peak = {mag[-1] / peak:.1e})",
            TailWarning,
        )
    return float(np.sqrt(np.trapezoid(mag * mag, tr.t)))


def linf_norm(tr: SimulationTrace) -> float:
    if tr.y.size == 0:
        return 0.0
    return float(np.max(np.abs(tr.y)))
