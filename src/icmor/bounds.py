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
    "BalancedPartition",
    "bt_bound",
    "irka_linf_bound",
    "abt_bound",
    "aca_bound",
    "split_bound",
]


@dataclass(frozen=True)
class ErrorBudget:
    """Split-method error budget: ``total = e1 ||u|| + e2 ||z0||``.

    ``e1`` is the input-map L2-gain term (twice the truncated Hankel sum);
    ``e2`` bounds the impulse-response error of the initial-condition map.
    When that map was reduced by IRKA no Hankel-trace bound is available
    and ``e2`` is the exact H2 error instead, flagged by ``e2_is_h2_error``.
    """

    e1: float
    e2: float
    e2_is_h2_error: bool = False

    def total(self, u_norm, z0_norm):
        return self.e1 * u_norm + self.e2 * z0_norm


@dataclass(frozen=True)
class BalancedPartition:
    """Blocks of a fully balanced realization partitioned at the reduced
    order, with the Sylvester solution blocks used by the trace bound."""

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    Theta1: np.ndarray
    Theta2: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    T: np.ndarray
    linear_term: float
    quadratic_term: float


def bt_bound(tail, u_l2):
    """Balanced truncation output bound: twice the truncated Hankel sum
    times the input energy."""
    tail = np.asarray(tail, dtype=float)
    return float(2.0 * np.sum(tail) * u_l2)


def irka_linf_bound(M: StateSpaceModel, R: StateSpaceModel, u_l2):
    """Linf output bound: H2 norm of the error system times input energy."""
    return float(h2_error_norm(M, R) * u_l2)


def abt_bound(M: StateSpaceModel, R_abt, basis, u_l2, z0_norm):
    """Evaluate the augmented-BT output bound.

    Returns ``(total, input_term, x0_term)``.  Requires a model produced by
    ``abt_reduce`` so the augmented Hankel values, observability factor,
    projected basis, and scaling are available.
    """
    if getattr(R_abt, "method", None) != "abt" or R_abt.aug_obs_factor is None:
        raise MissingProvenance("bound requires a model from abt_reduce")
    eta = R_abt.hankel
    r = R_abt.r
    tail_sum = float(np.sum(eta[r:]))
    term_u = bt_bound(eta[r:], u_l2)

    gamma = R_abt.x0_scale
    X0s = gamma * basis.X0
    X0til_s = gamma * R_abt.X0til
    z0_scaled = z0_norm / gamma
    # In balanced coordinates the full-order term is Sigma^{1/2} T^{-1} A X0;
    # with Q = L L^T, Sigma^{1/2} T^{-1} = Y^T L^T for the orthogonal Hankel
    # factor Y, so its norm is that of L^T A X0.
    L = R_abt.aug_obs_factor
    S_half = np.sqrt(eta[:r])
    inner = (
        np.linalg.norm(L.T @ M.A @ X0s, 2)
        + np.linalg.norm((S_half[:, None] * (R_abt.sys.A @ X0til_s)), 2)
    )
    term_x0 = 3.0 * 2.0 ** (-1.0 / 3.0) * inner ** (1.0 / 3.0) \
        * tail_sum ** (2.0 / 3.0) * z0_scaled
    return float(term_u + term_x0), float(term_u), float(term_x0)


def aca_bound(Sx0y: StateSpaceModel, r_x0):
    """Hankel-trace bound on the squared H2 error of balanced truncation.

    Balances the system, partitions at ``r_x0``, solves the coupling
    Sylvester equation, and returns ``sqrt(trace(T Theta2))`` (clamped at
    zero) together with the partition.
    """
    bal = balance_realization(Sx0y)
    Ab, Bb, Cb, theta = bal.Ab, bal.Bb, bal.Cb, bal.Theta
    k = len(theta)
    r = min(int(r_x0), k)
    A11, A12 = Ab[:r, :r], Ab[:r, r:]
    A21, A22 = Ab[r:, :r], Ab[r:, r:]
    B1, B2 = Bb[:r], Bb[r:]
    C1, C2 = Cb[:, :r], Cb[:, r:]
    Theta1, Theta2 = theta[:r], theta[r:]
    Y = solve_sylvester(Ab, A11, Cb.T @ C1)
    Y1, Y2 = Y[:r], Y[r:]
    T = B2 @ B2.T + 2.0 * Y2 @ A12
    linear = float(np.trace((B2 @ B2.T) * Theta2[None, :])) if k > r else 0.0
    quad = float(np.trace((2.0 * Y2 @ A12) * Theta2[None, :])) if k > r else 0.0
    total = linear + quad
    if total < 0.0:
        warnings.warn(
            f"trace bound came out negative ({total:.3e}); clamping to zero",
            NegativeTrace,
        )
        total = 0.0
    part = BalancedPartition(
        A11=A11, A12=A12, A21=A21, A22=A22, B1=B1, B2=B2, C1=C1, C2=C2,
        Theta1=Theta1, Theta2=Theta2, Y1=Y1, Y2=Y2, T=T,
        linear_term=linear, quadratic_term=quad,
    )
    return float(np.sqrt(total)), part


def split_bound(S, u_l2, z0_norm):
    """Evaluate the split-method output bound and its budget.

    ``e1`` comes from the BT tail of the input map; ``e2`` is the
    Hankel-trace bound when the initial-condition map was reduced by BT,
    and the exact H2 error (flagged) when it came from IRKA.
    """
    e1 = bt_bound(S.suy.spectrum_tail, 1.0)
    if S.sxy.method == "irka":
        e2 = float(h2_error_norm(S.aux_system, S.sxy.sys))
        budget = ErrorBudget(e1=e1, e2=e2, e2_is_h2_error=True)
    else:
        e2, _ = aca_bound(S.aux_system, S.sxy.r)
        budget = ErrorBudget(e1=e1, e2=e2, e2_is_h2_error=False)
    return budget.total(u_l2, z0_norm), budget
