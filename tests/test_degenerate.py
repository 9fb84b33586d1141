"""Degenerate shapes as ordinary inputs: empty matrices through the solvers,
the order-0 model, no inputs (m = 0), an empty x0 basis (n0 = 0) under each
method, a map truncated to order 0 and an empty trace.  Each case compares
what a call returns with what it must return; both run the general code."""

import warnings

import numpy as np
import pytest

from icmor import (
    InputSignal,
    OrderSelection,
    StateSpaceModel,
    abt_reduce,
    build_msd,
    bt_reduce,
    matrix_exponential,
    online_phase,
    simulate,
    solve_lyapunov,
    solve_sylvester,
    split_reduce,
    unit_vector_basis,
)
from icmor.errors import MaxItersExceeded
from icmor.gramians import projected_h2_error
from icmor.linalg import _sqrt_factor
from icmor.model import InitialConditionBasis
from icmor.simulation import SimulationTrace, l2_norm, linf_norm

TOL = OrderSelection.tolerance(1e-2)
Z = np.zeros


def _chain():
    # n = 6, m = 2, p = 1
    return build_msd(3, m_inputs=2)


def _no_states():
    return StateSpaceModel(Z((0, 0)), Z((0, 2)), Z((1, 0)))


def _no_inputs():
    M = _chain()
    return M.with_input(Z((M.n, 0)))


def _x0_map(M):
    return M.with_input(unit_vector_basis(M.n, [6]).X0)


def _no_x0(M):
    return InitialConditionBasis(Z((M.n, 0)))


def _split(M, basis, x0_method):
    S = split_reduce(M, basis, TOL, TOL, x0_method=x0_method)
    return S.suy.r, S.sxy.r, S.sxy.method, S.sxy.h2_error


def _bt(M, sel=TOL):
    R = bt_reduce(M, sel)
    return R.r, R.hankel, R.sys.B.shape, projected_h2_error(M, R.V, R.sys)


def _augbt(M, aux):
    R = abt_reduce(M, aux, TOL)
    return R.r, R.hankel, R.X0til.shape, R.x0_scale


def _bt_as_augbt(M, n0):
    # augmented BT with one empty input block is BT of the other block
    r, hankel, _, _ = _bt(M)
    return r, hankel, (r, n0), 1.0


def _simulate_no_states():
    tr = simulate(_no_states(), InputSignal.decaying_pulses(2), Z(0), 1.0, 0.25)
    return tr.t, tr.y, tr.components["y_u"], tr.components["y_x0"]


def _online_no_x0():
    M = _chain()
    tr = online_phase(split_reduce(M, _no_x0(M), TOL, TOL), InputSignal.decaying_pulses(2),
                      Z(M.n), 20.0, 0.1)
    return tr.y, tr.components["y_x0"]


def _h2_norm(M):
    return float(np.linalg.norm(M.obs_factor.T @ M.B))


# (id, call, what it must return)
CASES = [
    ("lyapunov-0x0", lambda: solve_lyapunov(Z((0, 0)), Z((0, 0))), lambda: Z((0, 0))),
    ("sylvester-0x0", lambda: solve_sylvester(Z((0, 0)), Z((0, 0)), Z((0, 0))),
     lambda: Z((0, 0))),
    ("sylvester-nx0", lambda: solve_sylvester(_chain().A, Z((0, 0)), Z((6, 0))),
     lambda: Z((6, 0))),
    ("sylvester-0xr", lambda: solve_sylvester(Z((0, 0)), -np.eye(2), Z((0, 2))),
     lambda: Z((0, 2))),
    ("expm-0x0", lambda: matrix_exponential(Z((0, 0)), 2.0), lambda: Z((0, 0))),
    ("sqrt-factor-0x0", lambda: _sqrt_factor(Z((0, 0)), "empty"), lambda: Z((0, 0))),
    ("model-n0", lambda: (*_no_states().real_schur, _no_states().abscissa),
     lambda: (Z((0, 0)), Z((0, 0)), -np.inf)),
    ("factors-n0", lambda: (_no_states().reach_factor, _no_states().obs_factor),
     lambda: (Z((0, 0)), Z((0, 0)))),
    ("simulate-n0", _simulate_no_states,
     lambda: (np.arange(5) * 0.25, Z((5, 1)), Z((5, 1)), Z((5, 1)))),
    # no inputs: the input map reduces to order 0, augmented BT to the x0 map's BT
    ("bt-m0", lambda: _bt(_no_inputs()), lambda: (0, Z(6), (0, 0), 0.0)),
    ("irka-m0", lambda: _split(_no_inputs(), unit_vector_basis(6, [6]), "irka")[:3],
     lambda: (0, _bt(_x0_map(_chain()))[0], "irka")),
    ("augbt-m0", lambda: _augbt(_no_inputs(), _x0_map(_chain())),
     lambda: _bt_as_augbt(_x0_map(_chain()), 1)),
    # no x0: the x0 map reduces to order 0, augmented BT to the input map's BT
    ("bt-n0", lambda: _split(_chain(), _no_x0(_chain()), "bt"),
     lambda: (_bt(_chain())[0], 0, "bt", 0.0)),
    # an order-0 x0 map interpolates nothing: bt-irka keeps BT's model
    ("irka-n0", lambda: _split(_chain(), _no_x0(_chain()), "irka"),
     lambda: (_bt(_chain())[0], 0, "bt", 0.0)),
    ("augbt-n0", lambda: _augbt(_chain(), _chain().with_input(Z((6, 0)))),
     lambda: _bt_as_augbt(_chain(), 0)),
    ("bt-r0", lambda: _bt(_chain(), OrderSelection.fixed(0)),
     lambda: (0, _bt(_chain())[1], (0, 2), _h2_norm(_chain()))),
    ("online-n0", _online_no_x0,
     lambda: (simulate(bt_reduce(_chain(), TOL).sys, InputSignal.decaying_pulses(2), None,
                       20.0, 0.1).y, Z((201, 1)))),
    ("empty-trace", lambda: (l2_norm(SimulationTrace(t=Z(0), y=Z((0, 1)))),
                             linf_norm(SimulationTrace(t=Z(0), y=Z((0, 1))))),
     lambda: (0.0, 0.0)),
]


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-14, strict=True)


@pytest.mark.parametrize("call, want", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_degenerate_call(call, want):
    with warnings.catch_warnings():
        # IRKA on the x0 map may stop short of a fixed point
        warnings.simplefilter("ignore", MaxItersExceeded)
        _assert_same(call(), want())
