"""Time-domain simulation, superposition reconstruction, and signal norms.

Propagation uses the exact first-order-hold discretization: the state map
``x_{k+1} = E x_k + F0 u_k + F1 u_{k+1}`` with the weights extracted from
an augmented matrix exponential, so the scheme is exact for piecewise
linear inputs.  Dirac inputs are realized as state jumps, never as narrow
pulses.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateReference,
    GridMismatch,
    InvalidParameter,
    NonFinite,
    StepTooLarge,
    TailWarning,
)
from .linalg import matrix_exponential, stability_margin
from .model import StateSpaceModel, coordinates_of

__all__ = [
    "InputSignal",
    "SimulationTrace",
    "foh_weights",
    "suggest_grid",
    "simulate",
    "superpose",
    "online_phase",
    "l2_norm",
    "linf_norm",
    "relative_errors",
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
        identical in every channel."""
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
        """L2 norm over [0, t_f] by fine trapezoidal quadrature."""
        t = np.arange(0.0, t_f + dt / 2, dt / 10.0)
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
    if m == 0:
        return matrix_exponential(A, dt), np.zeros((n, 0)), np.zeros((n, 0))
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


def suggest_grid(M: StateSpaceModel, decay_target=1e-8, samples=4000):
    """Horizon covering the full transient decay, with a default step."""
    margin = stability_margin(M.A)
    t_f = np.log(1.0 / decay_target) / max(-margin, 1e-12)
    return float(t_f), float(t_f / samples)


def simulate(M: StateSpaceModel, u, x0, t_f, dt):
    """Propagate the system and sample the output on a uniform grid.

    ``u`` may be None (zero input); ``x0`` may be None (zero state).  If
    ``||A|| dt`` exceeds 0.5 the step is internally subdivided (the scheme
    stays exact for piecewise-linear inputs but input sampling benefits).
    """
    A, B, C = M.A, M.B, M.C
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    if t_f <= 0 or dt <= 0:
        raise InvalidParameter("need positive horizon and step")
    N = int(round(t_f / dt))
    t = np.arange(N + 1) * dt
    if u is None:
        u = InputSignal.zero(m)
    if u.m != m:
        raise InvalidParameter(f"input has {u.m} channels, model expects {m}")
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != n:
        raise InvalidParameter(f"x0 has length {x0.shape[0]}, expected {n}")

    if n == 0:
        y = np.zeros((N + 1, p))
        return SimulationTrace(t=t, y=y, provenance={"order": 0})

    anorm = np.linalg.norm(A, 2)
    sub = 1
    if anorm * dt > 0.5:
        sub = int(np.ceil(anorm * dt / 0.5))
        warnings.warn(
            f"||A|| dt = {anorm * dt:.2f}; substepping x{sub}", StepTooLarge
        )
    h = dt / sub
    E, F0, F1 = foh_weights(A, B, h)
    tt = np.arange(N * sub + 1) * h
    U = u(tt) if m else np.zeros((N * sub + 1, 0))
    x = x0.copy()
    y = np.zeros((N + 1, p))
    y[0] = C @ x
    for k in range(N * sub):
        x = E @ x + F0 @ U[k] + F1 @ U[k + 1]
        if (k + 1) % sub == 0:
            y[(k + 1) // sub] = C @ x
    if not np.all(np.isfinite(y)):
        raise NonFinite("simulation produced non-finite output")
    return SimulationTrace(t=t, y=y, provenance={"order": n, "substeps": sub})


def superpose(tr_a: SimulationTrace, tr_b: SimulationTrace) -> SimulationTrace:
    """Pointwise sum of two traces on identical grids."""
    if tr_a.t.shape != tr_b.t.shape or not np.allclose(tr_a.t, tr_b.t, rtol=1e-12, atol=0.0):
        raise GridMismatch("traces live on different time grids")
    if tr_a.y.shape != tr_b.y.shape:
        raise GridMismatch("traces have different output dimensions")
    return SimulationTrace(
        t=tr_a.t,
        y=tr_a.y + tr_b.y,
        components={"y_u": tr_a.y, "y_x0": tr_b.y},
        provenance={"superposition": [tr_a.provenance, tr_b.provenance]},
    )


def online_phase(S, u, x0, t_f, dt) -> SimulationTrace:
    """Reconstruct the reduced output: input response from ``suy`` plus the
    initial-condition response from ``sxy``, whose input matrix is the
    projected basis, with the Dirac input applied as the exact state jump
    ``sxy.sys.B z0``."""
    z0 = coordinates_of(x0, S.basis)
    tr_u = simulate(S.suy.sys, u, None, t_f, dt)
    tr_x0 = simulate(S.sxy.sys, None, S.sxy.sys.B @ z0, t_f, dt)
    return superpose(tr_u, tr_x0)


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


def relative_errors(y_full: SimulationTrace, y_red: SimulationTrace) -> dict:
    """Relative L2 and Linf output errors of a reduced trace."""
    if y_full.t.shape != y_red.t.shape or not np.allclose(y_full.t, y_red.t, rtol=1e-12, atol=0.0):
        raise GridMismatch("traces live on different time grids")
    diff = SimulationTrace(t=y_full.t, y=y_full.y - y_red.y)
    ref_l2 = l2_norm(y_full)
    ref_linf = linf_norm(y_full)
    if ref_l2 < 1e-300 or ref_linf < 1e-300:
        raise DegenerateReference("reference trace is numerically zero")
    return {
        "rel_l2": l2_norm(diff) / ref_l2,
        "rel_linf": linf_norm(diff) / ref_linf,
    }
