"""A-priori and a-posteriori error bounds for the reduction methods."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MissingProvenance, NegativeTrace
from .gramians import balance_realization, h2_error_norm
from .linalg import solve_sylvester
from .model import StateSpaceModel

__all__ = [
    "ErrorBudget",
    "bt_bound",
    "abt_bound",
    "aca_bound",
    "split_bound",
]


@dataclass(frozen=True)
class ErrorBudget:
    """Split-method error budget ``total = e1 ||u|| + e2 ||z0||``, with
    ``e1`` and ``e2`` as ``split_bound`` computes them."""

    e1: float
    e2: float
    e2_is_h2_error: bool = False

    def total(self, u_norm, z0_norm):
        return self.e1 * u_norm + self.e2 * z0_norm


def bt_bound(tail, u_l2):
    """Balanced truncation output bound: twice the truncated Hankel sum
    times the input energy."""
    tail = np.asarray(tail, dtype=float)
    return float(2.0 * np.sum(tail) * u_l2)


def abt_bound(R_abt, u_l2, z0_norm):
    """Evaluate the augmented-BT output bound.

    Returns ``(total, input_term, x0_term)``.  Requires a model produced by
    ``abt_reduce`` so the augmented Hankel values, the image ``L^T A X0s``
    of the scaled basis, the projected basis, and scaling are available.
    """
    if R_abt.method != "abt" or R_abt.obs_x0 is None:
        raise MissingProvenance("bound requires a model from abt_reduce")
    eta = R_abt.hankel
    r = R_abt.r
    tail_sum = float(np.sum(eta[r:]))
    term_u = bt_bound(eta[r:], u_l2)

    gamma = R_abt.x0_scale
    X0til_s = gamma * R_abt.X0til
    z0_scaled = z0_norm / gamma
    # In balanced coordinates the full-order term is Sigma^{1/2} T^{-1} A X0;
    # with Q = L L^T, Sigma^{1/2} T^{-1} = Y^T L^T for the orthogonal Hankel
    # factor Y, so its norm is that of L^T A X0 (R_abt.obs_x0).
    S_half = np.sqrt(eta[:r])
    inner = (
        np.linalg.norm(R_abt.obs_x0, 2)
        + np.linalg.norm((S_half[:, None] * (R_abt.sys.A @ X0til_s)), 2)
    )
    term_x0 = 3.0 * 2.0 ** (-1.0 / 3.0) * inner ** (1.0 / 3.0) \
        * tail_sum ** (2.0 / 3.0) * z0_scaled
    return float(term_u + term_x0), float(term_u), float(term_x0)


def aca_bound(Sx0y: StateSpaceModel, r_x0):
    """H2 norm of the balanced-truncation error, by the Hankel-trace formula.

    Balances the system, partitions at ``r_x0`` and returns the float
    ``sqrt(tr(T Theta2))``, ``T = B2 B2^T + 2 Y2 A12`` (clamped at zero),
    which is the H2 error itself (README).  The coupling equation ``Ab^T Y
    + Y A11 + Cb^T C1 = 0`` is solved as ``A^T X + X A11 + C^T C1 = 0`` on
    the Gramians' real Schur form of ``A``, ``Y = Tbal^T X``: exact when
    balancing deflated nothing, else off by terms of the size of the
    deflated Hankel values.
    """
    bal = balance_realization(Sx0y)
    k = len(bal.Theta)
    r = min(int(r_x0), k)
    A11, A12 = bal.Ab[:r, :r], bal.Ab[:r, r:]
    B2, C1, Theta2 = bal.Bb[r:], bal.Cb[:, :r], bal.Theta[r:]
    Y = bal.Tbal.T @ solve_sylvester(Sx0y.A, A11, Sx0y.C.T @ C1, Sx0y.real_schur)
    Y2 = Y[r:]
    linear = float(np.trace((B2 @ B2.T) * Theta2[None, :])) if k > r else 0.0
    quad = float(np.trace((2.0 * Y2 @ A12) * Theta2[None, :])) if k > r else 0.0
    total = linear + quad
    if total < 0.0:
        warnings.warn(
            f"trace bound came out negative ({total:.3e}); clamping to zero",
            NegativeTrace,
        )
        total = 0.0
    return float(np.sqrt(total))


def split_bound(S, u_l2, z0_norm):
    """Evaluate the split-method output bound and its budget.

    ``e1`` is twice the truncated Hankel sum of the input map; ``e2`` is
    the H2 error of the initial-condition map, by the Hankel-trace formula
    (``aca_bound``) when that map was reduced by BT and by ``h2_error_norm``
    (flagged by ``e2_is_h2_error``) when it came from IRKA.
    """
    e1 = bt_bound(S.suy.spectrum_tail, 1.0)
    if S.sxy.method == "irka":
        e2 = float(h2_error_norm(S.aux_system, S.sxy.sys))
        budget = ErrorBudget(e1=e1, e2=e2, e2_is_h2_error=True)
    else:
        e2 = aca_bound(S.aux_system, S.sxy.r)
        budget = ErrorBudget(e1=e1, e2=e2, e2_is_h2_error=False)
    return budget.total(u_l2, z0_norm), budget
