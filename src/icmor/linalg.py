"""Dense matrix-equation solvers and the matrix exponential.

Lyapunov and Sylvester equations are solved Bartels-Stewart style: reduce
to real Schur form, solve the quasi-triangular equation with LAPACK
``*trsyl`` (which handles the 2x2 blocks), and transform back.  Intended
for dense problems up to n of a few hundred.
"""

import ctypes
import os
import threading
from importlib import machinery, util
from math import factorial

import numpy as np

from .errors import DimensionMismatch, FactorizationFailure, NonFinite, NotStable, SpectraOverlap

__all__ = [
    "shifted_solve",
    "solve_lyapunov",
    "solve_sylvester",
    "matrix_exponential",
]


def _load_flapack():
    """scipy's LAPACK wrappers, ``scipy.linalg._flapack``, loaded from its file: the
    ``scipy.linalg`` package also imports scipy's array-API layer (0.2 s, 20 MB)."""
    where = os.path.join(util.find_spec("scipy").submodule_search_locations[0], "linalg")
    for suffix in machinery.EXTENSION_SUFFIXES:
        spec = util.spec_from_file_location("scipy.linalg._flapack", f"{where}/_flapack{suffix}")
        if os.path.isfile(spec.origin):
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no scipy LAPACK module _flapack in {where}")


def _openblas_releases():
    """``blas_thread_shutdown_`` of every loaded library whose path names
    OpenBLAS, found in ``/proc/self/maps``; empty when there is none (another
    BLAS, or no ``/proc``)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].rstrip("\n") for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return ()
    releases = []
    for path in sorted(paths):
        try:
            release = ctypes.CDLL(path).blas_thread_shutdown_
        except (OSError, AttributeError):
            continue
        release.argtypes, release.restype = [], ctypes.c_int
        releases.append(release)
    return tuple(releases)


# numpy and scipy each load an OpenBLAS copy with its own worker pool;
# scipy's is mapped with _flapack, so load that before looking them up
_flapack = _load_flapack()
_BLAS_RELEASES = _openblas_releases()


def _release_blas_threads():
    """Join the worker threads of every OpenBLAS pool, unless another Python
    thread runs, which could be inside a BLAS call.  OpenBLAS registers the
    same function with ``pthread_atfork``, and starts the workers again, at
    the same count, on the pool's next threaded call."""
    if threading.active_count() == 1:
        for release in _BLAS_RELEASES:
            release()


def _real_schur(A):
    """``(T, U)``, ``A = U T U^T``, by ``dgees`` as in ``scipy.linalg.schur``, with the OpenBLAS
    pools released before and after.  Schur forms run on scipy's pool and the GEMMs around
    them on numpy's; a pool left idle spins beside the other's work.  Releasing changes no
    thread count and no arithmetic.  ``dgees`` rejects n = 0, so 0 x 0 is its own form."""
    if A.size == 0:
        return np.empty((0, 0)), np.empty((0, 0))
    _release_blas_threads()
    try:
        lwork = int(_flapack.dgees(lambda x: None, A, lwork=-1)[-2][0])
        T, _, _, _, U, _, info = _flapack.dgees(lambda x: None, A, lwork=lwork)
    finally:
        _release_blas_threads()
    if info:
        raise np.linalg.LinAlgError(f"dgees: no Schur form found (info = {info})")
    return T, U


def _as_matrix(x, name):
    """``x`` as a 2-D float array of finite entries; errors name ``name``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"{name} contains non-finite entries")
    return x


def _as_square(A, name="A"):
    A = _as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    return A


def _is_stable(abscissa, A):
    """Whether the spectral abscissa of ``A`` clears the stability
    tolerance ``-1e-12 max(1, ||A||_F)``; ``A`` may be any orthogonally
    similar matrix, such as its real Schur form.  Both sides are divided by
    ``s = max(1, max |a_ij|)``, so ``||A / s||_F`` does not overflow."""
    s = max(1.0, A.max(initial=0.0), -A.min(initial=0.0))
    return abscissa / s < -1e-12 * max(1.0 / s, np.linalg.norm(A / s))


def _trsyl(A, B, C, **kwargs):
    """``X / scale`` of ``_flapack.dtrsyl(A, B, C, **kwargs)``, ``op(A) X + isgn X op(B) =
    scale C``; ``SpectraOverlap`` when ``info = 1`` (``A`` and ``-isgn B`` (nearly) share an
    eigenvalue, which LAPACK perturbed), ``ValueError`` naming the illegal argument if < 0.
    An empty ``C``, which LAPACK rejects, is its own solution."""
    if C.size == 0:
        return C
    X, scale, info = _flapack.dtrsyl(A, B, C, **kwargs)
    if info < 0:
        arg = ("trana", "tranb", "isgn", "m", "n", "a", "lda", "b", "ldb", "c", "ldc")[-info - 1]
        raise ValueError(f"dtrsyl: argument {arg} has an illegal value")
    if info == 1:
        raise SpectraOverlap("dtrsyl: the spectra (nearly) intersect, so LAPACK perturbed them")
    # scale is 1 unless trsyl had to avoid overflow; skip the n x n copy
    return X if scale == 1.0 else X / scale


def _schur_spectrum(T):
    """Eigenvalues of a standardized real Schur form, read off its diagonal
    blocks: a 2x2 block ``[[a, b], [c, a]]`` holds ``a +- i sqrt(-bc)``."""
    ev = np.diag(T).astype(complex)
    i = np.flatnonzero(np.diag(T, -1))
    ev[np.stack([i, i + 1])] += np.array([[1j], [-1j]]) * np.sqrt(-T[i, i + 1] * T[i + 1, i])
    return ev


def _first_columns(shifts):
    """Which shifts are complex (real columns Re, Im; Re alone if real), and where each starts."""
    two = np.asarray(shifts).imag != 0
    return two, np.arange(len(two)) + np.cumsum(two) - two


def _real_columns(R, shifts):
    """``[Re r_k, Im r_k]`` for each complex ``shifts[k]``, ``Re r_k`` for
    each real one: the right-hand side of ``shifted_solve``."""
    two, j = _first_columns(shifts)
    X = np.empty((R.shape[0], len(two) + two.sum()))
    X[:, j], X[:, j[two] + 1] = R.real, R.imag[:, two]
    return X


def _complex_columns(X, shifts):
    """The columns ``x_k`` whose real columns ``_real_columns`` gives."""
    two, j = _first_columns(shifts)
    return X[:, j] + 1j * np.where(two, X[:, j + two], 0.0)


def shifted_solve(T, shifts, K, transpose=False):
    """``Y`` with ``op(T) Y - Y S = -K``, ``op(T) = T`` or ``T^T`` when
    ``transpose``, by one ``dtrsyl`` call in real arithmetic.  ``S`` is block
    diagonal: ``s`` for a real shift, ``[[a, b], [-b, a]]`` for a complex
    ``s = a + ib``, which stands for its conjugate pair.  For ``(T, U)``, the
    real Schur form of ``A``, and ``K = U^T _real_columns(R, shifts)``, ``U
    Y`` holds the real columns ``[Re x_k, Im x_k]`` (``[Re x_k]`` for a real
    shift) of ``x_k = (s_k I - op(A))^{-1} r_k``."""
    two, j = _first_columns(shifts)
    S, c = np.diag(np.repeat(shifts.real, 1 + two)), j[two]
    S[c, c + 1], S[c + 1, c] = shifts.imag[two], -shifts.imag[two]
    return _trsyl(T, S, -K, trana="T" if transpose else "N", isgn=-1)


def _sqrt_factor(P, name):
    """``U = V diag(sqrt(w))`` from ``eigh``, ``P = V diag(w) V^T = U U^T``,
    ``w`` descending; negative ``w`` of rounding size are clipped to 0."""
    w, V = np.linalg.eigh(P)
    if np.all(np.isfinite(w)) and w.min(initial=0.0) >= -1e-8 * max(w.max(initial=0.0), 1e-300):
        w = np.clip(w, 0.0, None)
        order = np.argsort(w)[::-1]
        return V[:, order] * np.sqrt(w[order])
    raise FactorizationFailure(f"{name} Gramian is indefinite")


def solve_lyapunov(A, G, schur=None):
    """Solve ``A P + P A^T + G = 0`` (``A`` stable, ``G`` symmetric) for
    the symmetrized ``P``.  ``schur``, the real Schur form ``(T, U)`` of
    ``A``, is computed by ``_real_schur`` when not given.  ``NotStable`` is
    raised off ``diag(T)``, with the tolerance ``-1e-12 max(1, ||T||_F)``.
    """
    A = _as_square(A)
    G = _as_square(G, "G")
    if A.shape != G.shape:
        raise DimensionMismatch(f"A is {A.shape}, G is {G.shape}")
    T, U = _real_schur(A) if schur is None else schur
    # LAPACK returns the standardized real Schur form: each 2x2 block has
    # equal diagonal entries, so the diagonal holds the real parts of the
    # whole spectrum and is the stability verdict.
    abscissa = float(np.max(np.diag(T), initial=-np.inf))
    if not _is_stable(abscissa, T):
        raise NotStable(f"matrix has an eigenvalue with real part {abscissa:.3e}")
    Gt = U.T @ G @ U
    # T Y + Y T^T = -Gt
    P = U @ _trsyl(T, T, -Gt, tranb="T") @ U.T
    return (P + P.T) / 2.0


def solve_sylvester(A, M, K, schur=None, schur_m=None):
    """Solve ``A^T Y + Y M + K = 0`` for ``Y`` (n x r).

    ``SpectraOverlap`` is raised when the spectra of ``-A^T`` and ``M`` are
    closer than ``1e-12 max(||Ta||_F, ||M||_F, 1)``.  ``schur = (Ta, Ua)``
    (of ``A``, not ``A^T``) and ``schur_m = (Tm, Um)`` (of ``M``) are as in
    ``solve_lyapunov``; ``dtrsyl`` takes ``Ta`` transposed.
    """
    A = _as_square(A)
    M = _as_square(M, "M")
    K = _as_matrix(K, "K")
    n, r = A.shape[0], M.shape[0]
    if K.shape != (n, r):
        raise DimensionMismatch(f"K must be {(n, r)}, got {K.shape}")
    Ta, Ua = _real_schur(A) if schur is None else schur
    Tm, Um = _real_schur(M) if schur_m is None else schur_m
    ea = _schur_spectrum(Ta)
    em = _schur_spectrum(Tm)
    sep = np.min(np.abs(ea[:, None] + em[None, :]), initial=np.inf)
    if sep < 1e-12 * max(np.linalg.norm(Ta), np.linalg.norm(M), 1.0):
        raise SpectraOverlap(
            f"spectra of -A^T and M nearly intersect (separation {sep:.3e})"
        )
    Kt = Ua.T @ K @ Um
    # Ta^T Z + Z Tm = -Kt  with Ta quasi-triangular (Schur of A)
    return Ua @ _trsyl(Ta, Tm, -Kt, trana="T") @ Um.T


# Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3: theta_m, the
# largest ||A||_1 at which the degree-m Pade approximant to exp(A) has
# backward error below unit roundoff
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}


def _poly(c0, coeffs, powers, out=None):
    """``out + c0 I + sum_k coeffs[k] powers[k]``, accumulated in ``out``
    (zeros when not given)."""
    if out is None:
        out = np.zeros_like(powers[0])
    for c, P in zip(coeffs, powers):
        out += c * P
    out.flat[::out.shape[0] + 1] += c0
    return out


def _pade(A, m):
    """The degree-``m`` Pade approximant ``(V - U)^{-1} (V + U)`` to
    ``exp(A)``: ``U`` holds the odd terms of the numerator, ``V`` the even
    ones, from the even powers of ``A`` (Higham 2005, (2.2), (2.10) and, for
    ``m = 13``, (2.11))."""
    b = [float(factorial(2 * m - j) // (factorial(j) * factorial(m - j)))
         for j in range(m + 1)]
    A2 = A @ A
    powers = [A2]
    # A^2, A^4, ..., A^{m-1}; degree 13 stops at A^6
    for _ in range(2 if m == 13 else (m - 3) // 2):
        powers.append(powers[-1] @ A2)
    if m < 13:
        U = A @ _poly(b[1], b[3::2], powers)
        V = _poly(b[0], b[2::2], powers)
    else:
        A6 = powers[2]
        U = A @ _poly(b[1], b[3:9:2], powers, out=A6 @ _poly(0.0, b[9::2], powers))
        V = _poly(b[0], b[2:8:2], powers, out=A6 @ _poly(0.0, b[8::2], powers))
        del A6
    # free the powers before the solve, and form V + U and V - U in place
    del A2, powers
    V += U
    U *= -2.0
    U += V
    return np.linalg.solve(U, V)


def matrix_exponential(A, t=1.0):
    """Compute ``exp(A t)`` by scaling and squaring with Pade approximants,
    Higham (2005), Algorithm 2.3: the degree ``m`` is the lowest of 3, 5,
    7, 9 and 13 whose ``theta_m`` bounds ``||A t||_1``; past ``theta_13``,
    the degree-13 approximant of ``A t / 2^s``, ``s = ceil(log2(||A t||_1 /
    theta_13))``, is squared ``s`` times.  ``NonFinite`` is raised when ``A
    t`` or the result overflows."""
    A = _as_square(A)
    if not np.isfinite(t):
        raise NonFinite("t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        At = A * float(t)
        norm = np.linalg.norm(At, 1)
        if not np.isfinite(norm):
            raise NonFinite("matrix exponential overflowed")
        m = next((m for m, theta in _PADE_THETA.items() if norm <= theta), 13)
        s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13])))) if m == 13 else 0
        At *= 2.0 ** -s
        E = _pade(At, m)
        for _ in range(s):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise NonFinite("matrix exponential overflowed")
    return E
