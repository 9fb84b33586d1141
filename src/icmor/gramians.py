"""Gramian square-root factors, Hankel spectra, balancing, H2 norms."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import StateSpaceModel

__all__ = [
    "GramianFactors",
    "HankelSpectrum",
    "gramian_factors",
    "hankel_spectrum",
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


def _balancing_transform(F: GramianFactors, spec: HankelSpectrum, k):
    """The first ``k`` columns of the balancing transform, ``T = U Z_k
    S^{-1/2}`` (x = T x_b), and ``W = L Y_k S^{-1/2}``, whose transpose is
    the first ``k`` rows of its inverse; ``S = diag(sigma_1..sigma_k)``."""
    d = 1.0 / np.sqrt(spec.sigma[:k])
    return (F.U @ spec.Z[:, :k]) * d, (F.L @ spec.Y[:, :k]) * d


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
