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
    HankelSpectrum,
    gramian_factors,
    h2_error_norm,
    hankel_spectrum,
)
from .model import InitialConditionBasis, StateSpaceModel

__all__ = [
    "OrderSelection",
    "ProjectionPair",
    "ReducedModel",
    "SplitReducedModel",
    "augmented_system",
    "order_from_tolerance",
    "bt_reduce",
    "abt_reduce",
    "irka_reduce",
    "split_reduce",
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


@dataclass(frozen=True)
class ProjectionPair:
    V: np.ndarray
    W: np.ndarray


@dataclass
class ReducedModel:
    """Projected realization ``sys`` plus the data needed by the error bounds.

    ``hankel`` holds the full Hankel spectrum of the system the projection
    was computed from (``sigma`` for BT, ``eta`` for augmented BT); the
    truncated tail is ``spectrum_tail``.  Augmented-BT models additionally
    carry the projected basis ``X0til``, the observability factor of the
    augmented system and the basis scaling, which the a-priori bound needs.
    """

    sys: StateSpaceModel
    X0til: np.ndarray = None
    method: str = "bt"
    hankel: np.ndarray = None
    projection: ProjectionPair = None
    aug_obs_factor: np.ndarray = None
    x0_scale: float = 1.0
    shifts: np.ndarray = None
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


def _numerical_rank(sigma, tol=1e-12):
    if len(sigma) == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > tol * sigma[0]))


def _bt_projection(F: GramianFactors, spec: HankelSpectrum, r):
    d = 1.0 / np.sqrt(spec.sigma[:r])
    V = (F.U @ spec.Z[:, :r]) * d
    W = (F.L @ spec.Y[:, :r]) * d
    return ProjectionPair(V=V, W=W)


def _project(M: StateSpaceModel, proj: ProjectionPair) -> StateSpaceModel:
    V, W = proj.V, proj.W
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
    proj = _bt_projection(F, spec, r)
    return ReducedModel(sys=_project(M, proj), method="bt",
                        hankel=spec.sigma, projection=proj)


def augmented_system(M: StateSpaceModel, X0, scaling=True):
    """The system with input ``[B, gamma X0]``, and ``gamma``.

    With ``scaling`` on, ``gamma`` brings ``||X0||_2`` to the largest
    input-column norm; it is 1 otherwise, or when either side is empty or
    zero.
    """
    gamma = 1.0
    if scaling and X0.shape[1] > 0 and M.m > 0:
        bmax = float(np.max(np.linalg.norm(M.B, axis=0)))
        xnorm = float(np.linalg.norm(X0, 2))
        if bmax > 0 and xnorm > 0:
            gamma = bmax / xnorm
    return StateSpaceModel(M.A, np.hstack([M.B, gamma * X0]), M.C), gamma


def abt_reduce(M: StateSpaceModel, basis: InitialConditionBasis,
               sel: OrderSelection, scaling=True) -> ReducedModel:
    """Balanced truncation of the system with augmented input ``[B X0]``.

    With ``scaling`` on, ``X0`` is rescaled so its 2-norm matches the
    largest input-column norm before augmenting; the returned ``X0til`` is
    the projection of the unscaled basis.
    """
    X0 = basis.X0
    if X0.shape[0] != M.n:
        raise InvalidParameter("basis dimension does not match the model")
    Maug, gamma = augmented_system(M, X0, scaling)
    F = gramian_factors(Maug)
    spec = hankel_spectrum(F)
    r = min(sel.resolve(spec.sigma), _numerical_rank(spec.sigma))
    proj = _bt_projection(F, spec, r)
    return ReducedModel(
        sys=_project(M, proj),
        X0til=proj.W.T @ X0,
        method="abt",
        hankel=spec.sigma,
        projection=proj,
        aug_obs_factor=F.L,
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


def _tangential_basis(A, Bmat, shifts, dirs, r):
    """Real basis spanning (s_k I - A)^{-1} B b_k, conjugate pairs merged
    into real/imaginary columns."""
    n = A.shape[0]
    I = np.eye(n)
    cols = []
    used = np.zeros(len(shifts), dtype=bool)
    for k in range(len(shifts)):
        if used[k]:
            continue
        used[k] = True
        s = shifts[k]
        x = np.linalg.solve(s * I - A, Bmat @ dirs[:, k])
        if abs(s.imag) > 1e-12 * max(abs(s.real), 1.0):
            # consume the conjugate partner
            rest = np.where(~used)[0]
            if len(rest):
                j = rest[np.argmin(np.abs(shifts[rest] - np.conj(s)))]
                used[j] = True
            cols.append(x.real)
            cols.append(x.imag)
        else:
            cols.append(x.real)
    V = np.column_stack(cols)[:, :r]
    Q = sla.orth(V)
    if Q.shape[1] < r:
        # span collapsed; pad with deterministic complements
        pad = sla.null_space(Q.T)[:, : r - Q.shape[1]]
        Q = np.column_stack([Q, pad])
    return Q


def tangential_residuals(M: StateSpaceModel, R: StateSpaceModel, shifts, bdirs, cdirs):
    """Relative Hermite interpolation residuals of ``R`` against ``M`` at
    the given shifts and tangential directions."""
    A, B, C = M.A, M.B, M.C
    Ar, Br, Cr = R.A, R.B, R.C
    I = np.eye(A.shape[0])
    Ir = np.eye(Ar.shape[0])
    val = der = 0.0
    for k in range(len(shifts)):
        s, b, c = shifts[k], bdirs[:, k], cdirs[:, k]
        x = np.linalg.solve(s * I - A, B @ b)
        xr = np.linalg.solve(s * Ir - Ar, Br @ b)
        hb, hrb = C @ x, Cr @ xr
        ref = max(np.linalg.norm(hb), 1e-300)
        val = max(val, np.linalg.norm(hb - hrb) / ref)
        # Hermite condition: c^T H'(s) b with H'(s) = -C (sI-A)^{-2} B
        x2 = np.linalg.solve(s * I - A, x)
        xr2 = np.linalg.solve(s * Ir - Ar, xr)
        hd, hrd = -(c @ (C @ x2)), -(c @ (Cr @ xr2))
        dref = max(abs(hd), 1e-300)
        der = max(der, abs(hd - hrd) / dref)
    return {"value": float(val), "derivative": float(der)}


def _stabilize_poles(Ar):
    lam, X = np.linalg.eig(Ar)
    if np.max(lam.real) < 0:
        return Ar, False
    lam = np.where(lam.real >= 0, -np.conj(lam), lam)
    Ar_new = np.real(X @ np.diag(lam) @ np.linalg.inv(X))
    return Ar_new, True


def _mirrored_pole_data(Ar, Br, Cr):
    """Shifts and tangential directions from the eigendecomposition of a
    reduced state matrix: mirrored poles, residue directions normalized."""
    lam, X = np.linalg.eig(Ar)
    Xi = np.linalg.inv(X)
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
    return shifts, bdirs, cdirs


def _regularized_inverse(E, rel_tol=1e-13):
    """Pseudo-inverse of the projection pencil with small singular values
    dropped.  Structurally symmetric systems can make the pencil exactly
    singular even when both subspaces are individually fine."""
    U, s, Vt = np.linalg.svd(E)
    keep = s > rel_tol * max(s[0], 1e-300)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


def irka_reduce(M: StateSpaceModel, r, max_iters=100, shift_tol=1e-6, seed=0,
                warm_start: ReducedModel = None) -> ReducedModel:
    """H2-targeted reduction by iterated tangential interpolation.

    Interpolation shifts are updated to the mirrored reduced poles until
    the relative shift change drops below ``shift_tol``.  They start from
    the mirrored poles of ``warm_start`` when one is given, otherwise
    log-spaced over the Gershgorin estimate of the spectrum magnitude
    range.  The iteration has no descent guarantee, so every iterate that
    is stable (after reflecting unstable poles across the imaginary axis
    if needed) is scored by its actual H2 error and the best one wins if
    the fixed point is not reached.  If no iterate is usable the warm
    start itself is returned, flagged via ``interp_residuals['fallback']``.
    """
    if r < 1 or r > M.n:
        raise InvalidParameter(f"need 1 <= r <= n, got r={r}, n={M.n}")
    A, B, C = M.A, M.B, M.C
    if warm_start is not None:
        if warm_start.r != r:
            raise InvalidParameter(
                f"warm start has order {warm_start.r}, requested {r}")
        starts = [_mirrored_pole_data(
            warm_start.sys.A, warm_start.sys.B, warm_start.sys.C)]
    else:
        # the fixed point is only locally attractive, so without a warm
        # start several deterministic initial shift sets are tried and the
        # converged result with the smallest measured H2 error wins
        rng = np.random.default_rng(seed)
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

    best_err = np.inf
    best = None
    final = None
    final_err = np.inf
    for shifts, bdirs, cdirs in starts:
        prev_change = np.inf
        for _ in range(max_iters):
            V = _tangential_basis(A, B, shifts, bdirs, r)
            W = _tangential_basis(A.T, C.T, shifts, cdirs, r)
            Einv = _regularized_inverse(W.T @ V)
            Ar = Einv @ (W.T @ A @ V)
            Br = Einv @ (W.T @ B)
            Cr = C @ V
            if not np.all(np.isfinite(Ar)):
                break
            Ars, reflected = _stabilize_poles(Ar)
            candidate = None
            err = np.inf
            try:
                candidate = (StateSpaceModel(Ars, Br, Cr), reflected,
                             shifts.copy(), bdirs.copy(), cdirs.copy())
            except (NonFinite, NotStable):
                pass
            if candidate is not None:
                try:
                    err = h2_error_norm(M, candidate[0])
                except Exception:
                    err = np.inf
                if err < best_err:
                    best_err = err
                    best = candidate
            new_shifts, new_b, new_c = _mirrored_pole_data(Ar, Br, Cr)
            order_old = np.lexsort((shifts.imag, shifts.real))
            order_new = np.lexsort((new_shifts.imag, new_shifts.real))
            change = np.linalg.norm(
                new_shifts[order_new] - shifts[order_old]
            ) / max(np.linalg.norm(shifts[order_old]), 1e-300)
            if change < shift_tol:
                if candidate is not None and err < final_err:
                    final = candidate
                    final_err = err
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

    converged = final is not None
    if converged:
        sys, reflected, shifts, bdirs, cdirs = final
    elif best is not None:
        warnings.warn(
            f"shift fixed point not reached in {max_iters} iterations; "
            "returning the stable iterate with the smallest H2 error",
            MaxItersExceeded,
        )
        sys, reflected, shifts, bdirs, cdirs = best
    elif warm_start is not None:
        warnings.warn(
            "no stable iterate found; falling back to the warm-start model",
            MaxItersExceeded,
        )
        return ReducedModel(sys=warm_start.sys, method="irka", shifts=shifts,
                            converged=False, interp_residuals={"fallback": True})
    else:
        raise UnstableReduction(
            "no stable iterate found and no warm start to fall back on")

    R = ReducedModel(sys=sys, method="irka", shifts=shifts, converged=converged)
    R.interp_residuals = tangential_residuals(M, sys, shifts, bdirs, cdirs)
    R.interp_residuals["pole_reflection"] = bool(reflected)
    R.interp_residuals["fallback"] = False
    return R


def split_reduce(M: StateSpaceModel, basis: InitialConditionBasis,
                 sel_u: OrderSelection, sel_x0: OrderSelection,
                 x0_method="bt", irka_opts=None) -> SplitReducedModel:
    """Reduce the input map and the initial-condition map independently.

    The input map is always reduced by balanced truncation.  The auxiliary
    system driven by the basis columns (state matrix ``A``, input ``X0``,
    output ``C``) is reduced by BT or IRKA; for IRKA with a tolerance
    selection, the order comes from the auxiliary system's own Hankel
    decay, and the BT reduction at that order warm-starts the iteration.
    The reduced initial-condition map takes ``z0`` through ``sxy.sys.B``.
    """
    if x0_method not in ("bt", "irka"):
        raise InvalidParameter(f"unknown x0_method '{x0_method}'")
    suy = bt_reduce(M, sel_u)
    aux = StateSpaceModel(M.A, basis.X0, M.C)
    sxy = bt_reduce(aux, sel_x0)
    if x0_method == "irka":
        if sxy.r == 0:
            irka = ReducedModel(sys=sxy.sys, method="irka")
        else:
            irka = irka_reduce(aux, sxy.r, warm_start=sxy, **(irka_opts or {}))
        irka.hankel = sxy.hankel
        sxy = irka
    return SplitReducedModel(suy=suy, sxy=sxy, basis=basis, aux_system=aux)
