"""Gramian square-root factors, Hankel spectra, balancing, the projected H2
error."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import solve_sylvester
from .model import StateSpaceModel

__all__ = [
    "GramianFactors",
    "HankelSpectrum",
    "gramian_factors",
    "hankel_spectrum",
]


@dataclass(frozen=True, eq=False)
class GramianFactors:
    """Square-root factors ``P = U U^T`` (reachability), ``Q = L L^T``
    (observability)."""

    U: np.ndarray
    L: np.ndarray


@dataclass(frozen=True, eq=False)
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
    the first ``k`` rows of its inverse; ``S = diag(sigma_1..sigma_k)``; the
    largest-magnitude entry of each column of ``T`` is positive (README)."""
    d = 1.0 / np.sqrt(spec.sigma[:k])
    T = F.U @ spec.Z[:, :k]
    if k:
        d *= np.copysign(1.0, T[np.argmax(np.abs(T), axis=0), np.arange(k)])
    return T * d, (F.L @ spec.Y[:, :k]) * d


def projected_h2_error(M: StateSpaceModel, V, Mr: StateSpaceModel) -> float:
    """H2 norm of the error between ``M`` and the projected model ``Mr =
    (Ar, Br, C V)``, from the error system in ``z = x - V x_r`` coordinates,
    so no ``||H||^2`` is subtracted: with ``Bp = B - V Br`` and ``R = A V - V
    Ar``, ``||L^T Bp||_F^2 + 2 tr(Bp^T Q12 Br) + tr(Br^T Q22 Br)``, where
    ``A^T Q12 + Q12 Ar + L L^T R = 0`` and ``Ar^T Q22 + Q22 Ar + R^T Q12 +
    Q12^T R = 0`` read the forms ``M`` and ``Mr`` hold, so no Schur form is
    computed (Wolf, Panzer and Lohmann, IFAC 2011).  0.0 when ``V`` spans the state space."""
    if V.shape[1] == M.n:
        return 0.0
    L, Ar, Br = M.obs_factor, Mr.A, Mr.B
    Bp = M.B - V @ Br
    R = M.A @ V - V @ Ar
    Q12 = solve_sylvester(M.A, Ar, L @ (L.T @ R), M.real_schur, Mr.real_schur)
    G = R.T @ Q12
    Q22 = solve_sylvester(Ar, Ar, G + G.T, Mr.real_schur, Mr.real_schur)
    LBp = L.T @ Bp
    total = np.sum(LBp * LBp) + 2.0 * np.sum(Bp * (Q12 @ Br)) + np.sum(Br * (Q22 @ Br))
    return float(np.sqrt(max(total, 0.0)))
