"""Reduction algorithms: balanced truncation, augmented BT, IRKA, and the
split reduction that treats the input map and the initial-condition map
independently."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, MaxItersExceeded, NonFinite, NotStable, UnstableReduction
from .gramians import (
    GramianFactors,
    _balancing_transform,
    _numerical_rank,
    gramian_factors,
    hankel_spectrum,
    projected_h2_error,
)
from .linalg import _complex_columns, _real_columns, shifted_solve
from .model import InitialConditionBasis, StateSpaceModel

__all__ = [
    "OrderSelection",
    "ReducedModel",
    "SplitReducedModel",
    "order_from_tolerance",
    "bt_reduce",
    "abt_reduce",
    "irka_reduce",
    "split_reduce",
    "split_from_bt",
]


@dataclass(frozen=True)
class OrderSelection:
    """Either a fixed reduced order or a relative tolerance on the Hankel
    value decay."""

    order: int = None
    tol: float = None

    def __post_init__(self):
        if (self.order is None) == (self.tol is None):
            raise InvalidParameter("give exactly one of order, tol")
        if self.order is not None and self.order < 0:
            raise InvalidParameter("order must be >= 0")
        if self.tol is not None and not (0.0 < self.tol < 1.0):
            raise InvalidParameter("tol must lie in (0, 1)")

    @classmethod
    def fixed(cls, r):
        return cls(order=int(r))

    @classmethod
    def tolerance(cls, tau):
        return cls(tol=float(tau))

    def resolve(self, sigma):
        """The selected order, clamped to the numerical rank of ``sigma``
        (past it, the balancing transform's inverse scaling blows up)."""
        r = self.order if self.tol is None else order_from_tolerance(sigma, self.tol)
        return min(r, _numerical_rank(sigma))


@dataclass(eq=False)
class ReducedModel:
    """Projected realization ``sys`` plus the data needed by the error bounds.

    ``hankel`` holds the full Hankel spectrum of the system ``sys`` was
    reduced from (``sigma`` for BT, ``eta`` for augmented BT); the
    truncated tail is ``spectrum_tail``.  Augmented-BT models additionally
    carry the projected basis ``X0til``, the basis scaling and ``obs_x0 =
    L^T A X0s`` (augmented ``Q = L L^T``), which the a-priori bound needs.
    ``h2_error`` is the H2 norm of the error against the reduced system, set
    by ``bt_reduce`` and ``irka_reduce``; the split bound's ``e2`` reads it.
    """

    sys: StateSpaceModel
    X0til: np.ndarray = None
    method: str = "bt"
    hankel: np.ndarray = None
    obs_x0: np.ndarray = None
    x0_scale: float = 1.0
    interp_residuals: dict = field(default_factory=dict)
    converged: bool = True
    h2_error: float = None

    @property
    def r(self):
        return self.sys.n

    @property
    def spectrum_tail(self):
        if self.hankel is None:
            return np.zeros(0)
        return self.hankel[self.r:]


@dataclass(eq=False)
class SplitReducedModel:
    """Independent reductions of the input map (``suy``) and of the
    initial-condition map (``sxy``), recombined by superposition."""

    suy: ReducedModel
    sxy: ReducedModel
    basis: InitialConditionBasis


def order_from_tolerance(sigma, tau):
    """Smallest order whose truncated Hankel values fall below
    ``tau * sigma_1``, pushed past any ties at the cut so that the retained
    and truncated values are strictly separated."""
    sigma = np.asarray(sigma, dtype=float)
    n = len(sigma)
    if not (0.0 < tau < 1.0):
        raise InvalidParameter("tau must lie in (0, 1)")
    if n == 0 or sigma[0] == 0.0:
        return 0
    r = n
    for i in range(n - 1):
        if sigma[i + 1] / sigma[0] < tau:
            r = i + 1
            break
    tie_tol = 1e-12 * sigma[0]
    while r < n:
        strict_cut = sigma[r - 1] > sigma[r] + tie_tol
        strict_below = (r + 1 >= n) or (sigma[r] > sigma[r + 1] + tie_tol)
        if strict_cut and strict_below:
            break
        r += 1
    return r


def _truncate(M: StateSpaceModel, F: GramianFactors, sel: OrderSelection, name="input"):
    """``V``, ``W``, ``(W^T A V, W^T B, C V)`` and the Hankel values of the
    balanced truncation of ``M`` from its Gramian factors ``F``; one that is
    not stable raises ``UnstableReduction`` naming the ``name`` map."""
    spec = hankel_spectrum(F)
    V, W = _balancing_transform(F, spec, r := sel.resolve(spec.sigma))
    try:
        return V, W, StateSpaceModel(W.T @ M.A @ V, W.T @ M.B, M.C @ V), spec.sigma
    except NotStable as exc:
        raise UnstableReduction(f"the {name} map's balanced truncation at order {r} is not "
                                f"stable (spectral abscissa {exc.abscissa:.3e})", name) from None


def bt_reduce(M: StateSpaceModel, sel: OrderSelection, name="input") -> ReducedModel:
    """Balanced truncation of ``M``, the ``name`` map, at the selected order, with its H2 error."""
    V, _, sys, sigma = _truncate(M, gramian_factors(M), sel, name)
    return ReducedModel(sys=sys, method="bt", hankel=sigma,
                        h2_error=projected_h2_error(M, V, sys))


def _x0_scale(B, X0, scaling):
    """``gamma`` that brings ``||X0||_2`` to the largest column norm of
    ``B`` with ``scaling`` on; 1 otherwise, or when either side is empty or
    zero."""
    if scaling and X0.shape[1] > 0 and B.shape[1] > 0:
        bmax = float(np.max(np.linalg.norm(B, axis=0)))
        xnorm = float(np.linalg.norm(X0, 2))
        if bmax > 0 and xnorm > 0:
            return bmax / xnorm
    return 1.0


def abt_reduce(M: StateSpaceModel, aux: StateSpaceModel,
               sel: OrderSelection, scaling=True) -> ReducedModel:
    """Balanced truncation of the system with augmented input ``[B, gamma
    X0]`` (``gamma`` from ``_x0_scale``), from ``M = (A, B, C)`` and the x0
    map ``aux = (A, X0, C)``.  ``P_aug = P_B + gamma^2 P_X0 = R^T R`` with
    ``R`` from one QR of ``[U_B, gamma U_X0]^T``, so no Gramian is formed;
    ``X0til`` projects the unscaled basis.
    """
    X0 = aux.B
    if not (np.array_equal(aux.A, M.A) and np.array_equal(aux.C, M.C)):
        raise InvalidParameter("the x0 map does not share the model's A and C")
    gamma = _x0_scale(M.B, X0, scaling)
    G = np.hstack([M.reach_factor, aux.reach_factor]).T
    G[M.reach_factor.shape[1]:] *= gamma
    # dropped, M's factor is not part of the QR's and Hankel SVD's memory peak
    M.drop_reach_factor()
    F = GramianFactors(U=np.linalg.qr(G, mode="r").T, L=M.obs_factor)
    del G
    _, W, sys, eta = _truncate(M, F, sel, "augmented")
    return ReducedModel(sys=sys, X0til=W.T @ X0, method="abt", hankel=eta,
                        obs_x0=F.L.T @ (M.A @ (gamma * X0)), x0_scale=gamma)


def _gershgorin_shift_range(A):
    d = np.diag(A)
    radii = np.sum(np.abs(A), axis=1) - np.abs(d)
    hi = float(np.max(np.abs(d) + radii))
    lo = float(np.min(np.maximum(np.abs(d) - radii, 0.0)))
    hi = max(hi, 1e-12)
    lo = max(lo, 1e-6 * hi)
    return lo, hi


def _one_per_pair(shifts):
    """Indices of the real shifts and of the first shift of each conjugate
    pair, and those shifts, a real one with its imaginary part set to 0."""
    keep, kept = [], []
    used = np.zeros(len(shifts), dtype=bool)
    for k in range(len(shifts)):
        if used[k]:
            continue
        used[k] = True
        s = shifts[k]
        keep.append(k)
        if abs(s.imag) > 1e-12 * max(abs(s.real), 1.0):
            # consume the conjugate partner
            rest = np.where(~used)[0]
            if len(rest):
                j = rest[np.argmin(np.abs(shifts[rest] - np.conj(s)))]
                used[j] = True
        else:
            s = s.real
        kept.append(s)
    return keep, np.array(kept, dtype=complex)


def _tangential_basis(real_schur, Bmat, s, dirs, r, transpose=False):
    """Orthonormal basis of the span of (s_k I - A)^{-1} B b_k (``A^T`` when
    ``transpose``), conjugate pairs merged into real/imaginary columns, on
    ``(T, U)``, the real Schur form of ``A``, and ``Y``, that solve in Schur
    coordinates.  ``s`` and ``dirs`` hold one shift of each conjugate pair
    and its direction, as ``_one_per_pair`` keeps them.  The basis has fewer
    than ``r`` columns when the solve is ill-conditioned; ``NonFinite`` is
    raised when it is not finite.  Singular values up to ``eps max(n, k)
    sigma_1`` count as 0, the rule of ``scipy.linalg.orth``, on numpy's SVD."""
    T, U = real_schur
    Y = shifted_solve(T, s, U.T @ _real_columns(Bmat @ dirs, s), transpose)
    X = (U @ Y)[:, :r]
    if not np.all(np.isfinite(X)):
        raise NonFinite("non-finite tangential basis")
    Q, sv, _ = np.linalg.svd(X, full_matrices=False)
    return Q[:, :np.sum(sv > np.finfo(float).eps * max(X.shape) * sv[0])], Y


def _full_samples(M: StateSpaceModel, s, Yv, Yw):
    """``H(s_k) b_k`` (columns of ``H``) and ``c_k^T H'(s_k) b_k = -w_k^T v_k``
    (``Hd``, no conjugation) from ``_tangential_basis``' solves for ``v_k = (s_k
    I - A)^{-1} B b_k`` (``Yv``) and ``w_k = (s_k I - A^T)^{-1} C^T c_k`` (``Yw``)
    on ``M.real_schur``, whose ``U`` is orthogonal."""
    H = _complex_columns(M.C @ M.real_schur[1] @ Yv, s)
    return H, -np.sum(_complex_columns(Yw, s) * _complex_columns(Yv, s), axis=0)


def tangential_residuals(M: StateSpaceModel, R: StateSpaceModel, s, Yv, Yw, bdirs, cdirs):
    """Relative Hermite interpolation residuals of ``R`` against ``M`` at the
    shifts ``s`` and directions ``bdirs``, ``cdirs``, one of each conjugate pair
    (the other's are the conjugates); ``R``'s side from two batched solves."""
    H, Hd = _full_samples(M, s, Yv, Yw)
    K = np.broadcast_to(-R.A, (len(s), R.n, R.n)).astype(complex)
    K[:, range(R.n), range(R.n)] += s[:, None]
    xr = np.linalg.solve(K, (R.B @ bdirs).T[:, :, None])
    Hr, Hr2 = ((R.C @ x)[:, :, 0].T for x in (xr, np.linalg.solve(K, xr)))
    val = np.linalg.norm(H - Hr, axis=0) / np.maximum(np.linalg.norm(H, axis=0), 1e-300)
    der = np.abs(Hd + np.sum(cdirs * Hr2, axis=0)) / np.maximum(np.abs(Hd), 1e-300)
    return {"value": float(val.max(initial=0.0)), "derivative": float(der.max(initial=0.0))}


def _pole_data(Ar, Br, Cr):
    """From one eigendecomposition of a reduced state matrix: the matrix
    with its unstable poles reflected (and whether any were), and the next
    shifts and tangential directions: mirrored poles, residue directions
    normalized."""
    lam, X = np.linalg.eig(Ar)
    Xi = np.linalg.inv(X)
    reflected = bool(np.max(lam.real) >= 0)
    Ars = Ar
    if reflected:
        Ars = np.real(X @ np.diag(np.where(lam.real >= 0, -np.conj(lam), lam)) @ Xi)
    shifts = -lam
    floor = 1e-8 * max(np.max(np.abs(shifts)), 1e-300)
    re = np.where(np.abs(shifts.real) < floor, floor, np.abs(shifts.real))
    shifts = re + 1j * shifts.imag
    bdirs = np.conj(Xi @ Br).T
    cdirs = Cr @ X
    nb = np.linalg.norm(bdirs, axis=0)
    nc = np.linalg.norm(cdirs, axis=0)
    bdirs = bdirs / np.where(nb > 0, nb, 1.0)
    cdirs = cdirs / np.where(nc > 0, nc, 1.0)
    return Ars, reflected, (shifts, bdirs, cdirs)


_STALL_SCORINGS = 3
_SHIFT_TOL = 1e-6
# the interp_residuals of an IRKA model that interpolates nothing: the
# fallback and the order-0 model; every exit fills these four keys
_NO_INTERPOLATION = {"value": None, "derivative": None, "pole_reflection": False,
                     "fallback": False}


def irka_reduce(M: StateSpaceModel, r, max_iters=100,
                warm_start: ReducedModel = None) -> ReducedModel:
    """H2-targeted reduction by iterated tangential interpolation.

    The shifts move to the mirrored reduced poles until their relative
    change drops below ``_SHIFT_TOL``, starting from the mirrored poles of
    ``warm_start``, or else from three log-spaced sets over the Gershgorin
    range of the spectrum.  IRKA has no descent guarantee, so each stable
    iterate (unstable poles reflected) is scored by its H2 error
    (``projected_h2_error`` on its tangential basis) and, without a fixed
    point, the best one wins; its score is kept as ``h2_error``.  A start
    also ends at an ill-conditioned basis, of numerical rank < ``r``, or
    after ``_STALL_SCORINGS`` scorings in a row that do not beat its own
    best.  A candidate whose solves raise ``NotStable`` goes unscored.
    With no scored iterate the warm start is returned, with its
    ``h2_error`` and flagged by ``interp_residuals['fallback']``, or else
    ``UnstableReduction`` is raised; warnings and errors name each start's
    stop.  At ``r = n`` ``M`` itself is returned at once (H2 error 0).
    """
    if r < 1 or r > M.n:
        raise InvalidParameter(f"need 1 <= r <= n, got r={r}, n={M.n}")
    if warm_start is not None and warm_start.r != r:
        raise InvalidParameter(
            f"warm start has order {warm_start.r}, requested {r}")
    if r == M.n:
        return ReducedModel(sys=M, method="irka", h2_error=0.0, interp_residuals={
            "value": 0.0, "derivative": 0.0, "pole_reflection": False, "fallback": False})
    A, B, C = M.A, M.B, M.C
    if warm_start is not None:
        ws = warm_start.sys
        starts = [_pole_data(ws.A, ws.B, ws.C)[2]]
    else:
        # the fixed point is only locally attractive, so without a warm
        # start several deterministic initial shift sets are tried and the
        # converged result with the smallest measured H2 error wins
        rng = np.random.default_rng(0)
        lo, hi = _gershgorin_shift_range(A)
        mid = np.sqrt(lo * hi)
        starts = []
        if r == 1:
            # logspace collapses to its left endpoint at r = 1, so pick
            # three distinct single shifts spanning the range instead
            shift_sets = [np.array([v], dtype=complex) for v in (lo, mid, hi)]
        else:
            shift_sets = [
                np.logspace(np.log10(a), np.log10(b), r).astype(complex)
                for a, b in ((lo, hi), (lo, mid), (mid, hi))
            ]
        for sh in shift_sets:
            bd = np.ones((M.m, r), dtype=complex) if M.m == 1 \
                else rng.standard_normal((M.m, r)).astype(complex)
            cd = np.ones((M.p, r), dtype=complex) if M.p == 1 \
                else rng.standard_normal((M.p, r)).astype(complex)
            starts.append((sh, bd, cd))

    # the returned iterate: a fixed point before any other, then the
    # smallest H2 error; an unscored candidate (error inf) never wins
    best_key, best = (True, np.inf), None
    stops = []
    for shifts, bdirs, cdirs in starts:
        prev_change = np.inf
        start_best, stale = np.inf, 0
        stop = f"no fixed point in {max_iters} iterations"
        for it in range(1, max_iters + 1):
            keep, s = _one_per_pair(shifts)
            bk, ck = bdirs[:, keep], cdirs[:, keep]
            try:
                V, Yv = _tangential_basis(M.real_schur, B, s, bk, r)
                W, Yw = _tangential_basis(M.real_schur, C.T, s, ck, r, transpose=True)
            except NonFinite:
                stop = f"non-finite basis at iteration {it}"
                break
            rank = min(V.shape[1], W.shape[1])
            if rank < r:
                # the solve columns are too ill-conditioned to give r
                # orthonormal directions: this start ends
                stop = (f"ill-conditioned basis (numerical rank {rank} < r = {r}) "
                        f"at iteration {it}")
                break
            # structurally symmetric systems can make the projection pencil
            # exactly singular even when both subspaces are fine
            Einv = np.linalg.pinv(W.T @ V, rtol=1e-13)
            Ar = Einv @ (W.T @ A @ V)
            Br = Einv @ (W.T @ B)
            Cr = C @ V
            if not np.all(np.isfinite(Ar)):
                stop = f"non-finite reduced matrix at iteration {it}"
                break
            Ars, reflected, (new_shifts, new_b, new_c) = _pole_data(Ar, Br, Cr)
            sys, err = None, np.inf
            try:
                sys = StateSpaceModel(Ars, Br, Cr)
                err = projected_h2_error(M, V, sys)
            except (NonFinite, NotStable, np.linalg.LinAlgError):
                pass
            if sys is not None:
                stale = 0 if err < start_best else stale + 1
                start_best = min(start_best, err)
            order_old = np.lexsort((shifts.imag, shifts.real))
            order_new = np.lexsort((new_shifts.imag, new_shifts.real))
            change = np.linalg.norm(
                new_shifts[order_new] - shifts[order_old]
            ) / max(np.linalg.norm(shifts[order_old]), 1e-300)
            fixed = change < _SHIFT_TOL
            if np.isfinite(err) and (not fixed, err) < best_key:
                best_key, best = (not fixed, err), (sys, reflected, s, Yv, Yw, bk, ck)
            if fixed:
                stop = f"fixed point at iteration {it}"
                break
            if stale == _STALL_SCORINGS:
                stop = (f"no fixed point in {it} iterations: "
                        f"no gain in {stale} scorings at iteration {it}")
                break
            # the plain fixed-point map can be locally repelling (shift
            # oscillation); damp the update whenever the change stops
            # shrinking
            if change >= 0.5 * prev_change:
                new_shifts = new_shifts.copy()
                new_shifts[order_new] = 0.5 * (
                    new_shifts[order_new] + shifts[order_old])
            prev_change = change
            shifts, bdirs, cdirs = new_shifts, new_b, new_c
        stops.append(stop)

    why = "; ".join(dict.fromkeys(stops))
    if best is None:
        if warm_start is None:
            raise UnstableReduction(
                f"IRKA found no stable iterate ({why}) and has no warm start to "
                "fall back on")
        warnings.warn(
            f"IRKA found no stable iterate ({why}); falling back to the "
            "warm-start model",
            MaxItersExceeded,
        )
        return ReducedModel(sys=warm_start.sys, method="irka", converged=False,
                            h2_error=warm_start.h2_error,
                            interp_residuals={**_NO_INTERPOLATION, "fallback": True})
    (unconverged, h2_error), (sys, reflected, *samples) = best_key, best
    if unconverged:
        warnings.warn(
            f"IRKA stopped ({why}); returning the stable iterate with the "
            "smallest H2 error",
            MaxItersExceeded,
        )
    res = tangential_residuals(M, sys, *samples)
    return ReducedModel(sys=sys, method="irka", converged=not unconverged, h2_error=h2_error,
                        interp_residuals={**res, "pole_reflection": bool(reflected),
                                          "fallback": False})


def split_reduce(M: StateSpaceModel, basis: InitialConditionBasis,
                 sel_u: OrderSelection, sel_x0: OrderSelection,
                 x0_method="bt") -> SplitReducedModel:
    """The input map and the x0 map ``(A, X0, C)`` reduced independently, each
    by BT, and combined by ``split_from_bt``."""
    aux = M.with_input(basis.X0)
    return split_from_bt(bt_reduce(M, sel_u), aux, bt_reduce(aux, sel_x0, "x0"),
                         basis, x0_method)


def split_from_bt(suy: ReducedModel, aux: StateSpaceModel, sxy: ReducedModel,
                  basis, x0_method="bt") -> SplitReducedModel:
    """The split model from BT reductions (not modified) of the input map
    and of ``aux``; with ``x0_method`` "irka", ``sxy`` warm-starts IRKA on
    ``aux`` at its order.  The reduced x0 map takes ``z0`` through its B."""
    if x0_method not in ("bt", "irka"):
        raise InvalidParameter(f"unknown x0_method '{x0_method}'")
    if x0_method == "irka":
        if sxy.r == 0:
            sxy = ReducedModel(sys=sxy.sys, method="irka", h2_error=sxy.h2_error,
                               interp_residuals=dict(_NO_INTERPOLATION))
        else:
            sxy = irka_reduce(aux, sxy.r, warm_start=sxy)
    return SplitReducedModel(suy=suy, sxy=sxy, basis=basis)
