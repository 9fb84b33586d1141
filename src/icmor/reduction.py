"""Reduction algorithms: balanced truncation, augmented BT, IRKA, and the
split reduction that treats the input map and the initial-condition map
independently."""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InvalidParameter, MaxItersExceeded, NonFinite, NotStable, UnstableReduction
from .gramians import (
    GramianFactors,
    _balancing_transform,
    _numerical_rank,
    gramian_factors,
    h2_error_norm,
    hankel_spectrum,
)
from .linalg import _sqrt_factor
from .model import InitialConditionBasis, StateSpaceModel

__all__ = [
    "OrderSelection",
    "ReducedModel",
    "SplitReducedModel",
    "augmented_system",
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
        if self.order is not None:
            return min(self.order, len(sigma))
        return order_from_tolerance(sigma, self.tol)


@dataclass
class ReducedModel:
    """Projected realization ``sys`` plus the data needed by the error bounds.

    ``hankel`` holds the full Hankel spectrum of the system ``sys`` was
    reduced from (``sigma`` for BT, ``eta`` for augmented BT); the
    truncated tail is ``spectrum_tail``.  Augmented-BT models additionally
    carry the projected basis ``X0til``, the basis scaling and ``obs_x0 =
    L^T A X0s`` (augmented ``Q = L L^T``), which the a-priori bound needs.
    """

    sys: StateSpaceModel
    X0til: np.ndarray = None
    method: str = "bt"
    hankel: np.ndarray = None
    obs_x0: np.ndarray = None
    x0_scale: float = 1.0
    interp_residuals: dict = field(default_factory=dict)
    converged: bool = True

    @property
    def r(self):
        return self.sys.n

    @property
    def spectrum_tail(self):
        if self.hankel is None:
            return np.zeros(0)
        return self.hankel[self.r:]


@dataclass
class SplitReducedModel:
    """Independent reductions of the input map (``suy``) and of the
    initial-condition map (``sxy``), recombined by superposition.

    ``aux_system`` is the full-order system driven by the basis columns,
    kept so bounds can be evaluated after the fact.
    """

    suy: ReducedModel
    sxy: ReducedModel
    basis: InitialConditionBasis
    aux_system: StateSpaceModel = None


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


def _project(M: StateSpaceModel, V, W) -> StateSpaceModel:
    return StateSpaceModel(W.T @ M.A @ V, W.T @ M.B, M.C @ V)


def bt_reduce(M: StateSpaceModel, sel: OrderSelection) -> ReducedModel:
    """Balanced truncation of ``M`` at the selected order.

    A requested order beyond the numerical rank of the Hankel spectrum is
    clamped to that rank (the corresponding directions carry no
    input-output energy and their inverse scaling would blow up).
    """
    F = gramian_factors(M)
    spec = hankel_spectrum(F)
    r = min(sel.resolve(spec.sigma), _numerical_rank(spec.sigma))
    V, W = _balancing_transform(F, spec, r)
    return ReducedModel(sys=_project(M, V, W), method="bt", hankel=spec.sigma)


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


def augmented_system(M: StateSpaceModel, X0, scaling=True):
    """The system with input ``[B, gamma X0]``, and ``gamma``, as in
    ``abt_reduce``, which sums this system's Gramian instead of solving it."""
    gamma = _x0_scale(M.B, X0, scaling)
    return M.with_input(np.hstack([M.B, gamma * X0])), gamma


def abt_reduce(M: StateSpaceModel, aux: StateSpaceModel,
               sel: OrderSelection, scaling=True) -> ReducedModel:
    """Balanced truncation of the system with augmented input ``[B, gamma
    X0]``, from ``M = (A, B, C)`` and the x0 map ``aux = (A, X0, C)``.

    ``P_aug = P_B + gamma^2 P_X0`` is summed from ``M.reach_factor`` and
    ``aux.reach_factor``, not solved, and ``M``'s factor is dropped after
    the sum.  With ``scaling`` on, ``gamma`` brings ``||X0||_2`` to the
    largest column norm of ``B``; ``X0til`` projects the unscaled basis.
    """
    X0 = aux.B
    if not (np.array_equal(aux.A, M.A) and np.array_equal(aux.C, M.C)):
        raise InvalidParameter("the x0 map does not share the model's A and C")
    gamma = _x0_scale(M.B, X0, scaling)
    Ux = aux.reach_factor
    P = Ux @ Ux.T
    P *= gamma * gamma
    P += M.reach_factor @ M.reach_factor.T
    # M's factor is not needed past the sum: dropped, it is not part of the
    # Hankel SVD's memory peak
    M.drop_reach_factor()
    F = GramianFactors(U=_sqrt_factor(P, "reachability"), L=M.obs_factor)
    del P
    spec = hankel_spectrum(F)
    r = min(sel.resolve(spec.sigma), _numerical_rank(spec.sigma))
    V, W = _balancing_transform(F, spec, r)
    return ReducedModel(
        sys=_project(M, V, W),
        X0til=W.T @ X0,
        method="abt",
        hankel=spec.sigma,
        obs_x0=F.L.T @ M.A @ (gamma * X0),
        x0_scale=gamma,
    )


def _gershgorin_shift_range(A):
    d = np.diag(A)
    radii = np.sum(np.abs(A), axis=1) - np.abs(d)
    hi = float(np.max(np.abs(d) + radii))
    lo = float(np.min(np.maximum(np.abs(d) - radii, 0.0)))
    hi = max(hi, 1e-12)
    lo = max(lo, 1e-6 * hi)
    return lo, hi


def _tangential_basis(schur, Bmat, shifts, dirs, r, transpose=False):
    """Orthonormal basis of the span of (s_k I - A)^{-1} B b_k (``A^T`` when
    ``transpose``), conjugate pairs merged into real/imaginary columns.  It
    has fewer than ``r`` columns when that span has collapsed."""
    keep, pair = [], []
    used = np.zeros(len(shifts), dtype=bool)
    for k in range(len(shifts)):
        if used[k]:
            continue
        used[k] = True
        s = shifts[k]
        keep.append(k)
        pair.append(abs(s.imag) > 1e-12 * max(abs(s.real), 1.0))
        if pair[-1]:
            # consume the conjugate partner
            rest = np.where(~used)[0]
            if len(rest):
                j = rest[np.argmin(np.abs(shifts[rest] - np.conj(s)))]
                used[j] = True
    X = schur.shifted_solve(shifts[keep], Bmat @ dirs[:, keep], transpose)
    cols = []
    for x, is_pair in zip(X.T, pair):
        cols += [x.real, x.imag] if is_pair else [x.real]
    return sla.orth(np.column_stack(cols)[:, :r])


def tangential_residuals(M: StateSpaceModel, R: StateSpaceModel, shifts, bdirs, cdirs):
    """Relative Hermite interpolation residuals of ``R`` against ``M`` at
    the given shifts and tangential directions (``M`` solves on ``M.schur``)."""
    X = M.schur.shifted_solve(shifts, M.B @ bdirs)
    X2 = M.schur.shifted_solve(shifts, X)
    Ar, Br, Cr = R.A, R.B, R.C
    Ir = np.eye(Ar.shape[0])
    val = der = 0.0
    for k in range(len(shifts)):
        s, b, c = shifts[k], bdirs[:, k], cdirs[:, k]
        xr = np.linalg.solve(s * Ir - Ar, Br @ b)
        hb, hrb = M.C @ X[:, k], Cr @ xr
        ref = max(np.linalg.norm(hb), 1e-300)
        val = max(val, np.linalg.norm(hb - hrb) / ref)
        # Hermite condition: c^T H'(s) b with H'(s) = -C (sI-A)^{-2} B
        xr2 = np.linalg.solve(s * Ir - Ar, xr)
        hd, hrd = -(c @ (M.C @ X2[:, k])), -(c @ (Cr @ xr2))
        dref = max(abs(hd), 1e-300)
        der = max(der, abs(hd - hrd) / dref)
    return {"value": float(val), "derivative": float(der)}


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


def _regularized_inverse(E, rel_tol=1e-13):
    """Pseudo-inverse of the projection pencil with small singular values
    dropped.  Structurally symmetric systems can make the pencil exactly
    singular even when both subspaces are individually fine."""
    U, s, Vt = np.linalg.svd(E)
    keep = s > rel_tol * max(s[0], 1e-300)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


_STALL_SCORINGS = 3
_SHIFT_TOL = 1e-6


def irka_reduce(M: StateSpaceModel, r, max_iters=100,
                warm_start: ReducedModel = None) -> ReducedModel:
    """H2-targeted reduction by iterated tangential interpolation.

    The shifts move to the mirrored reduced poles until their relative
    change drops below ``_SHIFT_TOL``, starting from the mirrored poles of
    ``warm_start``, or else from three log-spaced sets over the Gershgorin
    range of the spectrum.  IRKA has no descent guarantee, so each stable
    iterate (unstable poles reflected) is scored by its H2 error and,
    without a fixed point, the best one wins.  A start also ends at a basis
    of rank < ``r``, or after ``_STALL_SCORINGS`` scorings in a row that do
    not beat its own best.  A candidate whose Lyapunov solve raises
    ``NotStable`` goes unscored.  With no scored iterate the warm start is
    returned, flagged by ``interp_residuals['fallback']``, or else
    ``UnstableReduction`` is raised; warnings and errors name each start's
    stop.  At ``r = n`` ``M`` itself is returned at once (H2 error 0).
    """
    if r < 1 or r > M.n:
        raise InvalidParameter(f"need 1 <= r <= n, got r={r}, n={M.n}")
    if warm_start is not None and warm_start.r != r:
        raise InvalidParameter(
            f"warm start has order {warm_start.r}, requested {r}")
    if r == M.n:
        return ReducedModel(sys=M, method="irka", interp_residuals={
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

    best = final = None
    best_err = final_err = np.inf
    stops = []
    for shifts, bdirs, cdirs in starts:
        prev_change = np.inf
        start_best, stale = np.inf, 0
        stop = f"no fixed point in {max_iters} iterations"
        for it in range(1, max_iters + 1):
            V = _tangential_basis(M.schur, B, shifts, bdirs, r)
            W = _tangential_basis(M.schur, C.T, shifts, cdirs, r, transpose=True)
            rank = min(V.shape[1], W.shape[1])
            if rank < r:
                # the tangential directions no longer span r dimensions, so
                # no order-r model interpolates them: this start ends
                stop = f"basis rank {rank} < r = {r} at iteration {it}"
                break
            Einv = _regularized_inverse(W.T @ V)
            Ar = Einv @ (W.T @ A @ V)
            Br = Einv @ (W.T @ B)
            Cr = C @ V
            if not np.all(np.isfinite(Ar)):
                stop = f"non-finite reduced matrix at iteration {it}"
                break
            Ars, reflected, (new_shifts, new_b, new_c) = _pole_data(Ar, Br, Cr)
            candidate, err = None, np.inf
            try:
                candidate = (StateSpaceModel(Ars, Br, Cr), reflected,
                             shifts.copy(), bdirs.copy(), cdirs.copy())
                err = h2_error_norm(M, candidate[0])
            except (NonFinite, NotStable, np.linalg.LinAlgError):
                pass
            if candidate is not None:
                stale = 0 if err < start_best else stale + 1
                start_best = min(start_best, err)
                if err < best_err:
                    best, best_err = candidate, err
            order_old = np.lexsort((shifts.imag, shifts.real))
            order_new = np.lexsort((new_shifts.imag, new_shifts.real))
            change = np.linalg.norm(
                new_shifts[order_new] - shifts[order_old]
            ) / max(np.linalg.norm(shifts[order_old]), 1e-300)
            if change < _SHIFT_TOL:
                if candidate is not None and err < final_err:
                    final, final_err = candidate, err
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
    converged = final is not None
    if converged:
        sys, reflected, shifts, bdirs, cdirs = final
    elif best is not None:
        warnings.warn(
            f"IRKA stopped ({why}); returning the stable iterate with the "
            "smallest H2 error",
            MaxItersExceeded,
        )
        sys, reflected, shifts, bdirs, cdirs = best
    elif warm_start is not None:
        warnings.warn(
            f"IRKA found no stable iterate ({why}); falling back to the "
            "warm-start model",
            MaxItersExceeded,
        )
        return ReducedModel(sys=warm_start.sys, method="irka", converged=False,
                            interp_residuals={"fallback": True})
    else:
        raise UnstableReduction(
            f"IRKA found no stable iterate ({why}) and has no warm start to "
            "fall back on")

    R = ReducedModel(sys=sys, method="irka", converged=converged)
    R.interp_residuals = tangential_residuals(M, sys, shifts, bdirs, cdirs)
    R.interp_residuals["pole_reflection"] = bool(reflected)
    R.interp_residuals["fallback"] = False
    return R


def split_reduce(M: StateSpaceModel, basis: InitialConditionBasis,
                 sel_u: OrderSelection, sel_x0: OrderSelection,
                 x0_method="bt") -> SplitReducedModel:
    """Reduce the input map and the initial-condition map independently.

    The input map is always reduced by balanced truncation.  The auxiliary
    system driven by the basis columns (state matrix ``A``, input ``X0``,
    output ``C``) is reduced by BT, then combined by ``split_from_bt``.
    """
    aux = M.with_input(basis.X0)
    return split_from_bt(bt_reduce(M, sel_u), aux, bt_reduce(aux, sel_x0),
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
            sxy = ReducedModel(sys=sxy.sys, method="irka")
        else:
            sxy = irka_reduce(aux, sxy.r, warm_start=sxy)
    return SplitReducedModel(suy=suy, sxy=sxy, basis=basis, aux_system=aux)
