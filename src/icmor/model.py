"""State-space model types, benchmark generators, and file ingestion."""

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._mmio import read_matrix, write_matrix
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonFinite,
    NotInSubspace,
    NotStable,
)
from .linalg import _is_stable, solve_lyapunov, stability_margin

__all__ = [
    "StateSpaceModel",
    "InitialConditionBasis",
    "ValidationReport",
    "validate_model",
    "coordinates_of",
    "build_msd",
    "load_model",
    "save_model",
    "unit_vector_basis",
]


def _mat(x, name):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class StateSpaceModel:
    """Continuous-time LTI system ``x' = A x + B u``, ``y = C x``.

    ``A`` must be asymptotically stable; this is checked on construction.
    Instances are immutable and safe to share.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    labels: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        A = _mat(self.A, "A")
        B = _mat(self.B, "B")
        C = _mat(self.C, "C")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if n > 0 and B.size and B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if n > 0 and C.size and C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} cols, expected {n}")
        if B.size == 0:
            B = B.reshape(n, B.shape[1] if B.ndim == 2 else 0)
        if C.size == 0:
            C = C.reshape(C.shape[0] if C.ndim == 2 else 0, n)
        if n > 0:
            margin = stability_margin(A)
            if not _is_stable(A, margin):
                raise NotStable(f"A has stability margin {margin:.3e}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class InitialConditionBasis:
    """Full-column-rank basis ``X0`` of the admissible initial conditions."""

    X0: np.ndarray

    def __post_init__(self):
        X0 = _mat(self.X0, "X0")
        if X0.shape[1] > 0:
            sv = np.linalg.svd(X0, compute_uv=False)
            if sv[-1] <= 1e-12 * sv[0]:
                raise InvalidParameter(
                    f"X0 is numerically rank deficient (sv ratio {sv[-1] / sv[0]:.2e})"
                )
        object.__setattr__(self, "X0", X0)

    @property
    def n(self):
        return self.X0.shape[0]

    @property
    def n0(self):
        return self.X0.shape[1]


@dataclass
class ValidationReport:
    stability_margin: float
    stable: bool
    reach_eigs: np.ndarray
    obs_eigs: np.ndarray
    controllable: bool
    observable: bool
    weak_reach_directions: list
    weak_obs_directions: list


def validate_model(A, B=None, C=None, rank_tol=1e-10):
    """Diagnose stability and numerical controllability/observability.

    Accepts a ``StateSpaceModel`` or raw ``(A, B, C)`` matrices so that
    unstable candidates can be examined too.  Report-only; never raises for
    a deficient model.
    """
    if isinstance(A, StateSpaceModel):
        M = A
        A, B, C = M.A, M.B, M.C
    A = _mat(A, "A")
    B = _mat(B, "B")
    C = _mat(C, "C")
    margin = stability_margin(A)
    stable = _is_stable(A, margin)
    if stable and A.size:
        P = solve_lyapunov(A, B @ B.T)
        Q = solve_lyapunov(A.T, C.T @ C)
        pw, pv = np.linalg.eigh(P)
        qw, qv = np.linalg.eigh(Q)
        pref = max(pw.max(), 0.0)
        qref = max(qw.max(), 0.0)
        weak_p = [pv[:, i] for i in range(len(pw)) if pw[i] <= rank_tol * max(pref, 1e-300)]
        weak_q = [qv[:, i] for i in range(len(qw)) if qw[i] <= rank_tol * max(qref, 1e-300)]
    else:
        pw = qw = np.zeros(0)
        weak_p = weak_q = []
    return ValidationReport(
        stability_margin=margin,
        stable=stable,
        reach_eigs=pw,
        obs_eigs=qw,
        controllable=stable and not weak_p,
        observable=stable and not weak_q,
        weak_reach_directions=weak_p,
        weak_obs_directions=weak_q,
    )


def coordinates_of(x0, basis, rtol=1e-8):
    """Coordinates ``z0`` with ``x0 = X0 z0``, by QR least squares.

    Raises ``NotInSubspace`` if the residual exceeds ``rtol * ||x0||``.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    X0 = basis.X0
    if x0.shape[0] != X0.shape[0]:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, basis is {X0.shape}")
    if X0.shape[1] == 0:
        if np.linalg.norm(x0) > 0:
            raise NotInSubspace("nonzero x0 with empty basis")
        return np.zeros(0)
    z0, _, _, _ = sla.lstsq(X0, x0, lapack_driver="gelsy")
    resid = np.linalg.norm(X0 @ z0 - x0)
    if resid > rtol * max(np.linalg.norm(x0), 1e-300):
        raise NotInSubspace(
            f"x0 is not in span(X0): relative residual {resid / max(np.linalg.norm(x0), 1e-300):.2e}"
        )
    return z0


def build_msd(n_masses, mass=1.0, stiffness=2.0, damping=0.1, m_inputs=10):
    """Chain of coupled mass-spring-dampers in interleaved (q_i, p_i) state
    coordinates, giving order ``n = 2 n_masses``.

    Each mass is tied to ground and to its neighbours by springs of the
    given stiffness and damped proportionally to its velocity.  Inputs force
    the first ``m_inputs`` masses; the single output is the momentum of the
    first mass, so state index ``2i`` is the momentum of mass ``i`` (1-based).
    """
    if n_masses < 1 or m_inputs < 1 or m_inputs > n_masses:
        raise InvalidParameter("need 1 <= m_inputs <= n_masses")
    if mass <= 0 or stiffness <= 0 or damping <= 0:
        raise InvalidParameter("mass, stiffness, damping must be positive")
    N = n_masses
    n = 2 * N
    A = np.zeros((n, n))
    for i in range(N):
        q, p = 2 * i, 2 * i + 1
        A[q, p] = 1.0 / mass
        k_total = stiffness  # ground spring
        if i > 0:
            k_total += stiffness
            A[p, 2 * (i - 1)] = stiffness
        if i < N - 1:
            k_total += stiffness
            A[p, 2 * (i + 1)] = stiffness
        A[p, q] = -k_total
        A[p, p] = -damping / mass
    B = np.zeros((n, m_inputs))
    for j in range(m_inputs):
        B[2 * j + 1, j] = 1.0
    C = np.zeros((1, n))
    C[0, 1] = 1.0
    return StateSpaceModel(A, B, C, labels={"kind": "msd", "n_masses": N})


def unit_vector_basis(n, indices):
    """Basis whose columns are the requested standard unit vectors (1-based)."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise InvalidParameter("indices must be distinct")
    for i in indices:
        if not (1 <= i <= n):
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    X0 = np.zeros((n, len(indices)))
    for j, i in enumerate(indices):
        X0[i - 1, j] = 1.0
    return InitialConditionBasis(X0)


def load_model(path):
    """Load ``A.mtx``, ``B.mtx``, ``C.mtx`` (and optional ``X0.mtx``) from a
    directory; returns ``(StateSpaceModel, InitialConditionBasis or None)``."""
    def p(name):
        return os.path.join(path, name)

    A = read_matrix(p("A.mtx"))
    B = read_matrix(p("B.mtx"))
    C = read_matrix(p("C.mtx"))
    M = StateSpaceModel(A, B, C)
    basis = None
    if os.path.exists(p("X0.mtx")):
        X0 = read_matrix(p("X0.mtx"))
        if X0.shape[0] != M.n:
            raise DimensionMismatch(
                f"X0 has {X0.shape[0]} rows, model order is {M.n}"
            )
        basis = InitialConditionBasis(X0)
    return M, basis


def save_model(M, path, basis=None):
    """Write a model (and optional basis) as Matrix Market files."""
    os.makedirs(path, exist_ok=True)
    write_matrix(os.path.join(path, "A.mtx"), M.A)
    write_matrix(os.path.join(path, "B.mtx"), M.B)
    write_matrix(os.path.join(path, "C.mtx"), M.C)
    if basis is not None:
        write_matrix(os.path.join(path, "X0.mtx"), basis.X0)
