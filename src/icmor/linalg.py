"""Dense matrix-equation solvers and the matrix exponential.

Lyapunov and Sylvester equations are solved Bartels-Stewart style: reduce
to real Schur form, solve the quasi-triangular equation with LAPACK
``*trsyl`` (which handles the 2x2 blocks), and transform back.  Intended
for dense problems up to n of a few hundred.
"""

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DimensionMismatch, NonFinite, NotStable, SpectraOverlap

__all__ = [
    "solve_lyapunov",
    "solve_sylvester",
    "matrix_exponential",
    "stability_margin",
]


def _as_square(A, name="A"):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFinite(f"{name} contains non-finite entries")
    return A


def stability_margin(A):
    """Largest real part of the spectrum of ``A`` (negative for stable A)."""
    A = _as_square(A)
    if A.size == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def _is_stable(A, abscissa):
    """Whether the spectral abscissa of ``A`` clears the stability
    tolerance, ``-1e-12 max(1, ||A||_2)``."""
    return abscissa < -1e-12 * max(1.0, np.linalg.norm(A, 2))


def solve_lyapunov(A, G):
    """Solve ``A P + P A^T + G = 0`` for symmetric PSD ``P``.

    ``A`` must be asymptotically stable and ``G`` symmetric.  The result is
    symmetrized before returning.
    """
    A = _as_square(A)
    G = _as_square(G, "G")
    if A.shape != G.shape:
        raise DimensionMismatch(f"A is {A.shape}, G is {G.shape}")
    if A.size == 0:
        return np.zeros((0, 0))
    T, U = sla.schur(A, output="real")
    # LAPACK returns the standardized real Schur form: each 2x2 block has
    # equal diagonal entries, so the diagonal holds the real parts of the
    # whole spectrum and is the stability verdict.
    abscissa = float(np.max(np.diag(T)))
    if not _is_stable(A, abscissa):
        raise NotStable(f"matrix has an eigenvalue with real part {abscissa:.3e}")
    Gt = U.T @ G @ U
    # T Y + Y T^T = -Gt
    trsyl = lapack.dtrsyl
    Y, scale, info = trsyl(T, T, -Gt, tranb="T")
    if info < 0:
        raise NonFinite(f"trsyl failed with info={info}")
    P = U @ (Y / scale) @ U.T
    return (P + P.T) / 2.0


def solve_sylvester(A, M, K):
    """Solve ``A^T Y + Y M + K = 0`` for ``Y`` (n x r).

    Requires the spectra of ``-A^T`` and ``M`` to be disjoint, which holds
    automatically when both ``A`` and ``M`` are stable.
    """
    A = _as_square(A)
    M = _as_square(M, "M")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n, r = A.shape[0], M.shape[0]
    if K.shape != (n, r):
        raise DimensionMismatch(f"K must be {(n, r)}, got {K.shape}")
    if n == 0 or r == 0:
        return np.zeros((n, r))
    Ta, Ua = sla.schur(A.T, output="real")
    Tm, Um = sla.schur(M, output="real")
    ea = np.linalg.eigvals(Ta)
    em = np.linalg.eigvals(Tm)
    sep = np.min(np.abs(ea[:, None] + em[None, :]))
    scale_ref = max(np.linalg.norm(A, 2), np.linalg.norm(M, 2), 1.0)
    if sep < 1e-12 * scale_ref:
        raise SpectraOverlap(
            f"spectra of -A^T and M nearly intersect (separation {sep:.3e})"
        )
    Kt = Ua.T @ K @ Um
    # Ta Z + Z Tm = -Kt  with Ta quasi-triangular (Schur of A^T)
    Z, scale, info = lapack.dtrsyl(Ta, Tm, -Kt)
    if info < 0:
        raise NonFinite(f"trsyl failed with info={info}")
    return Ua @ (Z / scale) @ Um.T


def matrix_exponential(A, t=1.0):
    """Compute ``exp(A t)`` by scaling-and-squaring with Pade approximants."""
    A = _as_square(A)
    if not np.isfinite(t):
        raise NonFinite("t must be finite")
    if A.size == 0:
        return np.zeros((0, 0))
    E = sla.expm(A * float(t))
    if not np.all(np.isfinite(E)):
        raise NonFinite("matrix exponential overflowed")
    return E
