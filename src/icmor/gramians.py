"""Gramian square-root factors, Hankel spectra, balancing, H2 norms."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IllConditionedBalancing
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


def gramian_factors(M: StateSpaceModel) -> GramianFactors:
    """Square-root factors of both Gramians, solved on first use and kept:
    ``P`` per model, ``Q`` per ``A`` and ``C``."""
    return GramianFactors(U=M.reach_factor, L=M.obs_factor)


def hankel_spectrum(F: GramianFactors) -> HankelSpectrum:
    """Hankel singular values as the SVD of ``U^T L``."""
    if F.U.shape[0] != F.L.shape[0]:
        raise DimensionMismatch("factors come from different state dimensions")
    Z, s, Yt = np.linalg.svd(F.U.T @ F.L)
    return HankelSpectrum(sigma=s, Z=Z, Y=Yt.T)


def _numerical_rank(sigma):
    """Number of Hankel values above ``1e-12 sigma_1``."""
    if len(sigma) == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > 1e-12 * sigma[0]))


def balance_realization(M: StateSpaceModel) -> BalancedRealization:
    """Contragredient balancing transform from the Gramian factors.

    Hankel values beyond the numerical rank (``_numerical_rank``) are
    truncated first, so non-minimal models come back at their numerical
    minimal order.
    """
    F = gramian_factors(M)
    spec = hankel_spectrum(F)
    k = _numerical_rank(spec.sigma)
    sk = spec.sigma[:k]
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


def h2_norm(M: StateSpaceModel) -> float:
    """H2 norm, computed Gramian-side as ``sqrt(trace(C P C^T))``."""
    return float(np.sqrt(max(M.h2_squared, 0.0)))


def h2_error_norm(M: StateSpaceModel, R: StateSpaceModel) -> float:
    """H2 norm of the error system between ``M`` and a reduced model ``R``:
    ``||H||^2 - 2 tr(C X Cr^T) + ||Hr||^2`` from the models' ``h2_squared``
    and ``A X + X Ar^T + B Br^T = 0`` on their complex Schur forms; relative
    accuracy about ``eps ||C||^2 ||P|| / ||H - Hr||^2`` (README)."""
    if R.m != M.m or R.p != M.p:
        raise DimensionMismatch("input/output dimensions differ between models")
    cross = M.schur.gramian_trace(M.B, M.C, R.schur, R.B, R.C)
    return float(np.sqrt(max(M.h2_squared - 2.0 * cross + R.h2_squared, 0.0)))
