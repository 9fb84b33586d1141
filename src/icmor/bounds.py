"""A-priori and a-posteriori error bounds for the reduction methods."""

from dataclasses import dataclass

import numpy as np

from .errors import MissingProvenance

__all__ = [
    "ErrorBudget",
    "bt_bound",
    "abt_bound",
    "split_bound",
]


@dataclass(frozen=True)
class ErrorBudget:
    """Split-method error budget ``total = e1 ||u|| + e2 ||z0||``, with
    ``e1`` and ``e2`` as ``split_bound`` computes them."""

    e1: float
    e2: float

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


def split_bound(S, u_l2, z0_norm):
    """Evaluate the split-method output bound and its budget.

    ``e1`` is twice the truncated Hankel sum of the input map; ``e2`` is
    the H2 error of the reduced initial-condition map, its ``h2_error``.
    """
    budget = ErrorBudget(e1=bt_bound(S.suy.spectrum_tail, 1.0), e2=S.sxy.h2_error)
    return budget.total(u_l2, z0_norm), budget
