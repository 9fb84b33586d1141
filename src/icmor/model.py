"""State-space model types, benchmark generators, and file ingestion."""

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._mmio import read_matrix, write_matrix
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NotInSubspace,
    NotStable,
)
from .linalg import (
    _as_matrix, _as_square, _flapack, _is_stable, _real_schur, _sqrt_factor, solve_lyapunov,
)

__all__ = [
    "StateSpaceModel",
    "InitialConditionBasis",
    "coordinates_of",
    "build_msd",
    "load_model",
    "save_model",
    "unit_vector_basis",
]


class _Shared:
    """The real Schur form of ``A``, the spectral abscissa read off it and
    its stability verdict, and the observability factor ``L`` of ``(A, C)``,
    for a model and those ``with_input`` derives from it.  It refers to no
    model, so a dropped model is freed at once (no cycle)."""

    def __init__(self, A, C):
        self.A, self.C, self.L = A, C, None
        self.real_schur = _real_schur(A)
        # a standardized form's diagonal holds the spectrum's real parts
        self.abscissa = float(np.max(np.diag(self.real_schur[0]), initial=-np.inf))
        if not _is_stable(self.abscissa, A):
            raise NotStable(f"A has stability margin {self.abscissa:.3e}", self.abscissa)


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Continuous-time LTI system ``x' = A x + B u``, ``y = C x``.

    ``A`` must be asymptotically stable: on construction its real Schur
    form, kept as ``real_schur``, is computed, and the spectral abscissa read
    off its diagonal, kept as ``abscissa``, must lie below ``-1e-12 max(1,
    ||A||_F)``.  Instances are immutable and safe to share.  The Gramian
    factors ``reach_factor`` and ``L`` (``obs_factor``) are computed on first
    use and kept.  Nothing guards that first use: two threads may each
    compute a factor, and one is kept.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    _shared: _Shared = field(default=None, repr=False)
    abscissa: float = field(init=False, repr=False)

    def __post_init__(self):
        A = _as_square(self.A)
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        n = A.shape[0]
        if B.shape == (1, 0):  # B = []: no inputs
            B = B.reshape(n, 0)
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} cols, expected {n}")
        shared = self._shared
        if shared is None or shared.A is not A or shared.C is not C:
            shared = _Shared(A, C)
        for name, value in (("A", A), ("B", B), ("C", C), ("_shared", shared),
                            ("abscissa", shared.abscissa)):
            object.__setattr__(self, name, value)

    def with_input(self, B):
        """``(A, B, C)`` on this model's ``A`` and ``C``: checks ``B`` and
        shares this model's spectral abscissa, the real Schur form of ``A``
        and ``obs_factor``."""
        return StateSpaceModel(self.A, B, self.C, _shared=self._shared)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def real_schur(self):
        """``(T, U) = linalg._real_schur(A)``, computed on construction and
        shared with the models ``with_input`` derives from this one."""
        return self._shared.real_schur

    @cached_property
    def reach_factor(self):
        """``U`` (n x k) with ``P = U U^T``, ``A P + P A^T + B B^T = 0`` solved
        on the shared real Schur form of ``A``."""
        return _sqrt_factor(solve_lyapunov(self.A, self.B, self.real_schur), "reachability")

    def drop_reach_factor(self):
        """Forget the kept ``reach_factor``; its next use solves it again."""
        self.__dict__.pop("reach_factor", None)

    @property
    def obs_factor(self):
        """``L`` (n x k) with ``Q = L L^T``, ``A^T Q + Q A + C^T C = 0``,
        solved on the real Schur form of ``A^T``."""
        S = self._shared
        if S.L is None:
            S.L = _sqrt_factor(solve_lyapunov(self.A.T, self.C.T), "observability")
        return S.L


@dataclass(frozen=True, eq=False)
class InitialConditionBasis:
    """Full-column-rank basis ``X0`` of the admissible initial conditions."""

    X0: np.ndarray

    def __post_init__(self):
        X0 = _as_matrix(self.X0, "X0")
        if X0.shape[1] > 0:
            sv = np.linalg.svd(X0, compute_uv=False)
            if sv[-1] <= 1e-12 * sv[0]:
                raise InvalidParameter(f"X0 is numerically rank deficient (singular "
                                       f"values {sv[0]:.2e} down to {sv[-1]:.2e})")
        object.__setattr__(self, "X0", X0)

    @property
    def n(self):
        return self.X0.shape[0]

    @property
    def n0(self):
        return self.X0.shape[1]


def coordinates_of(x0, basis, rtol=1e-8):
    """Coordinates ``z0`` with ``x0 = X0 z0``, by QR least squares (``dgelsy``, as in
    ``scipy.linalg.lstsq``).

    Raises ``NotInSubspace`` if the residual exceeds ``rtol * ||x0||``.
    """
    x0 = _as_matrix(x0, "x0").ravel()
    X0 = basis.X0
    if x0.shape[0] != X0.shape[0]:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, basis is {X0.shape}")
    n, n0 = X0.shape
    if n0 == 0:
        if np.linalg.norm(x0) > 0:
            raise NotInSubspace("nonzero x0 with empty basis")
        return np.zeros(0)
    eps = np.finfo(float).eps
    lwork = int(_flapack.dgelsy_lwork(n, n0, 1, eps)[0])
    z0 = _flapack.dgelsy(X0, x0, np.zeros((n0, 1), np.int32), eps, lwork, 0, 0)[1][:n0]
    resid = np.linalg.norm(X0 @ z0 - x0)
    if resid > rtol * max(np.linalg.norm(x0), 1e-300):
        raise NotInSubspace(
            f"x0 is not in span(X0): relative residual {resid / max(np.linalg.norm(x0), 1e-300):.2e}"
        )
    return z0


def build_msd(n_masses=150, mass=1.0, stiffness=2.0, damping=0.1, m_inputs=10):
    """Chain of coupled mass-spring-dampers in interleaved (q_i, p_i) state
    coordinates, giving order ``n = 2 n_masses``.

    Each mass is tied to ground and to its neighbours by springs of the
    given stiffness and damped proportionally to its velocity.  Inputs force
    the first ``m_inputs`` masses; the single output is the momentum of the
    first mass, so state index ``2i`` is the momentum of mass ``i`` (1-based).
    """
    if n_masses < 1:
        raise InvalidParameter(f"n_masses: must be >= 1, got {n_masses!r}")
    if not 1 <= m_inputs <= n_masses:
        raise InvalidParameter(f"m_inputs: must lie in 1..n_masses = {n_masses}, "
                               f"got {m_inputs!r}")
    for key, value in (("mass", mass), ("stiffness", stiffness), ("damping", damping)):
        if not value > 0:
            raise InvalidParameter(f"{key}: must be > 0, got {value!r}")
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
    return StateSpaceModel(A, B, C)


def unit_vector_basis(n, indices):
    """Basis whose columns are the requested standard unit vectors (1-based)."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise InvalidParameter(f"indices: must be distinct, got {indices!r}")
    for i in indices:
        if not (1 <= i <= n):
            raise IndexOutOfRange(f"indices: index {i} outside 1..{n}")
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
