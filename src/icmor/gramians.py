"""Gramian square-root factors, Hankel spectra, balancing, H2 norms."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, FactorizationFailure, IllConditionedBalancing
from .linalg import solve_lyapunov
from .model import StateSpaceModel

__all__ = [
    "GramianFactors",
    "HankelSpectrum",
    "BalancedRealization",
    "gramian_factors",
    "hankel_spectrum",
    "balance_realization",
    "h2_norm",
    "h2_error_norm",
]


@dataclass(frozen=True)
class GramianFactors:
    """Square-root factors ``P = U U^T`` (reachability), ``Q = L L^T``
    (observability)."""

    U: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class HankelSpectrum:
    """SVD of ``U^T L``: descending singular values and orthogonal factors."""

    sigma: np.ndarray
    Z: np.ndarray
    Y: np.ndarray


@dataclass(frozen=True)
class BalancedRealization:
    """System in coordinates where both Gramians equal ``diag(Theta)``.

    ``Tbal`` maps balanced to original coordinates (x = Tbal x_b); if the
    model had a numerically unreachable/unobservable tail, that tail was
    deflated and ``Tbal`` is n x k with k < n.
    """

    Ab: np.ndarray
    Bb: np.ndarray
    Cb: np.ndarray
    Theta: np.ndarray
    Tbal: np.ndarray
    Tbal_inv: np.ndarray
    cond: float


def _sqrt_factor(P, name):
    """Lower-triangular-ish factor U with P = U U^T, tolerant of
    numerically semidefinite P."""
    if P.shape[0] == 0:
        return np.zeros((0, 0))
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        pass
    # Eigendecomposition fallback with negative eigenvalues clipped at zero:
    # semidefinite Gramians (uncontrollable or unobservable directions) get
    # exactly-zero factor columns this way, which keeps the corresponding
    # Hankel values at zero instead of at noise level.
    w, V = np.linalg.eigh((P + P.T) / 2.0)
    if np.all(np.isfinite(w)) and w.min() >= -1e-8 * max(abs(w.max()), 1e-300):
        w = np.clip(w, 0.0, None)
        order = np.argsort(w)[::-1]
        return V[:, order] * np.sqrt(w[order])
    # Last resort: a single diagonal jitter before giving up.
    jitter = 1e-14 * abs(np.trace(P)) / max(P.shape[0], 1)
    if np.isfinite(jitter) and jitter > 0:
        try:
            return np.linalg.cholesky(P + jitter * np.eye(P.shape[0]))
        except np.linalg.LinAlgError:
            pass
    raise FactorizationFailure(f"{name} Gramian is indefinite")


def gramian_factors(M: StateSpaceModel) -> GramianFactors:
    """Solve both Lyapunov equations and return square-root factors."""
    P = solve_lyapunov(M.A, M.B @ M.B.T)
    Q = solve_lyapunov(M.A.T, M.C.T @ M.C)
    return GramianFactors(U=_sqrt_factor(P, "reachability"),
                          L=_sqrt_factor(Q, "observability"))


def hankel_spectrum(F: GramianFactors) -> HankelSpectrum:
    """Hankel singular values as the SVD of ``U^T L``."""
    if F.U.shape[0] != F.L.shape[0]:
        raise DimensionMismatch("factors come from different state dimensions")
    Z, s, Yt = np.linalg.svd(F.U.T @ F.L)
    return HankelSpectrum(sigma=s, Z=Z, Y=Yt.T)


def balance_realization(M: StateSpaceModel, deflation_tol=1e-12) -> BalancedRealization:
    """Contragredient balancing transform from the Gramian factors.

    Numerically-zero Hankel values (``sigma_i <= deflation_tol * sigma_1``)
    are truncated first, so non-minimal models come back at their numerical
    minimal order.
    """
    F = gramian_factors(M)
    spec = hankel_spectrum(F)
    s = spec.sigma
    if s.size == 0 or s[0] == 0.0:
        k = 0
    else:
        k = int(np.sum(s > deflation_tol * s[0]))
    sk = s[:k]
    Zk, Yk = spec.Z[:, :k], spec.Y[:, :k]
    d = 1.0 / np.sqrt(sk)
    T = (F.U @ Zk) * d          # n x k
    Tinv = (d[:, None] * (Yk.T @ F.L.T))  # k x n
    Ab = Tinv @ M.A @ T
    Bb = Tinv @ M.B
    Cb = M.C @ T
    cond = float(np.linalg.norm(T, 2) * np.linalg.norm(Tinv, 2)) if k else 1.0
    if cond > 1e8:
        warnings.warn(
            f"balancing transform condition {cond:.2e}", IllConditionedBalancing
        )
    return BalancedRealization(Ab=Ab, Bb=Bb, Cb=Cb, Theta=sk,
                               Tbal=T, Tbal_inv=Tinv, cond=cond)


def _h2(A, B, C):
    """``sqrt(trace(C P C^T))`` with ``A P + P A^T + B B^T = 0``."""
    if A.shape[0] == 0 or B.shape[1] == 0 or C.shape[0] == 0:
        return 0.0
    P = solve_lyapunov(A, B @ B.T)
    val = float(np.trace(C @ P @ C.T))
    return float(np.sqrt(max(val, 0.0)))


def h2_norm(M: StateSpaceModel) -> float:
    """H2 norm, computed Gramian-side as ``sqrt(trace(C P C^T))``."""
    return _h2(M.A, M.B, M.C)


def h2_error_norm(M: StateSpaceModel, R: StateSpaceModel) -> float:
    """H2 norm of the error system between ``M`` and a reduced model ``R``.

    The block-diagonal error system is stable whenever both models are, so
    its Lyapunov equation is solved directly.
    """
    if R.m != M.m or R.p != M.p:
        raise DimensionMismatch("input/output dimensions differ between models")
    n, r = M.n, R.n
    Ae = np.zeros((n + r, n + r))
    Ae[:n, :n] = M.A
    Ae[n:, n:] = R.A
    return _h2(Ae, np.vstack([M.B, R.B]), np.hstack([M.C, -R.C]))
