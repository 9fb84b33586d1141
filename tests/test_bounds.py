"""Error bounds validated against simulation and direct H2 errors."""

import numpy as np
import pytest

from icmor import (
    InitialConditionBasis,
    InputSignal,
    OrderSelection,
    StateSpaceModel,
    abt_bound,
    abt_reduce,
    bt_bound,
    bt_reduce,
    build_msd,
    irka_reduce,
    split_bound,
    split_reduce,
    unit_vector_basis,
)
from icmor.bounds import ErrorBudget
from icmor.errors import MaxItersExceeded, MissingProvenance
from icmor.gramians import projected_h2_error
from icmor.simulation import (
    SimulationTrace,
    l2_norm,
    linf_norm,
    online_phase,
    simulate,
)

from conftest import h2_error_norm, h2_norm, random_system


def _error_l2(tr_full, tr_red):
    return l2_norm(SimulationTrace(t=tr_full.t, y=tr_full.y - tr_red.y))


@pytest.fixture(scope="module")
def msd20():
    # 10 masses, order 20
    return build_msd(10, m_inputs=3)


class TestBtBound:
    def test_empty_tail(self):
        assert bt_bound(np.zeros(0), 3.0) == 0.0

    def test_arithmetic(self):
        assert bt_bound(np.array([0.1, 0.05]), 2.0) == pytest.approx(0.6)

    def test_msd_simulation(self, msd20):
        M = msd20
        R = bt_reduce(M, OrderSelection.fixed(4))
        u = InputSignal.decaying_pulses(M.m)
        t_f, dt = 200.0, 0.05
        tr = simulate(M, u, None, t_f, dt)
        tr_r = simulate(R.sys, u, None, t_f, dt)
        bound = bt_bound(R.spectrum_tail, u.l2_norm(t_f, dt))
        assert _error_l2(tr, tr_r) <= bound


class TestIrkaLinfBound:
    def test_exact_copy(self, rng):
        M = random_system(rng, 4, 1, 1)
        assert h2_error_norm(M, M) * 1.0 <= 1e-10

    def test_zero_reduction(self):
        M = StateSpaceModel([[-1.0]], [[2.0]], [[3.0]])
        R = StateSpaceModel([[-1.0]], [[0.0]], [[0.0]])
        assert h2_error_norm(M, R) * 1.0 == pytest.approx(h2_norm(M))

    def test_simulated_linf_below_bound(self, rng):
        M = random_system(rng, 6, 2, 1, margin=0.5)
        R = irka_reduce(M, 2)
        u = InputSignal.decaying_sinusoid(M.m)
        t_f, dt = 60.0, 0.01
        bound = h2_error_norm(M, R.sys) * u.l2_norm(t_f, dt)
        tr = simulate(M, u, None, t_f, dt)
        tr_r = simulate(R.sys, u, None, t_f, dt)
        err = linf_norm(SimulationTrace(t=tr.t, y=tr.y - tr_r.y))
        assert err <= bound


class TestAbtBound:
    def test_zero_initial_condition_collapses(self, msd20):
        M = msd20
        basis = unit_vector_basis(M.n, [M.n])
        R = abt_reduce(M, M.with_input(basis.X0), OrderSelection.fixed(6))
        total, term_u, term_x0 = abt_bound(R, u_l2=2.0, z0_norm=0.0)
        assert term_x0 == 0.0
        assert total == pytest.approx(2.0 * np.sum(R.hankel[R.r:]) * 2.0)

    def test_full_order_zero(self, rng):
        M = random_system(rng, 5, 2, 1)
        basis = InitialConditionBasis(rng.standard_normal((5, 1)))
        R = abt_reduce(M, M.with_input(basis.X0), OrderSelection.fixed(5))
        total, _, _ = abt_bound(R, u_l2=1.0, z0_norm=1.0)
        assert total <= 1e-10

    def test_requires_provenance(self, rng):
        M = random_system(rng, 5, 1, 1)
        R = bt_reduce(M, OrderSelection.fixed(2))
        with pytest.raises(MissingProvenance):
            abt_bound(R, 1.0, 1.0)

    def test_msd_simulation(self, msd20):
        M = msd20
        basis = unit_vector_basis(M.n, [M.n])
        R = abt_reduce(M, M.with_input(basis.X0), OrderSelection.fixed(12))
        u = InputSignal.decaying_pulses(M.m)
        z0 = np.array([0.5])
        t_f, dt = 400.0, 0.1
        tr_u, tr_x0 = simulate(M, u, None, t_f, dt), simulate(M, None, basis.X0 @ z0, t_f, dt)
        tr = SimulationTrace(t=tr_u.t, y=tr_u.y + tr_x0.y)
        tr_r = simulate(R.sys, u, R.X0til @ z0, t_f, dt)
        total, _, _ = abt_bound(R, u.l2_norm(t_f, dt), float(np.linalg.norm(z0)))
        assert _error_l2(tr, tr_r) <= total


class TestBtH2Error:
    """``projected_h2_error`` of a ``bt_reduce`` model on its basis ``V``,
    the x0-map term e2 of the split bound, against the H2 error of its
    reduced model."""

    def test_reuses_the_factors_of_bt(self, lyapunov_orders):
        M = build_msd(12, m_inputs=3)
        aux = M.with_input(unit_vector_basis(M.n, [24]).X0)
        R = bt_reduce(aux, OrderSelection.tolerance(1e-2))
        del lyapunov_orders[:]
        R = bt_reduce(aux, OrderSelection.fixed(R.r))
        projected_h2_error(aux, R.V, R.sys)
        # the Gramian factors are bt_reduce's, and the error system's order-r
        # block is a Sylvester solve on the reduced model's Schur form
        assert lyapunov_orders == []

    def test_full_order_zero(self, rng):
        M = random_system(rng, 5, 1, 1)
        R = bt_reduce(M, OrderSelection.fixed(5))
        assert projected_h2_error(M, R.V, R.sys) == 0.0

    def test_diagonal_system_dominates_h2_error(self):
        M = StateSpaceModel(np.diag([-1.0, -2.0]), np.array([[1.0], [0.5]]),
                            np.array([[1.0, 1.0]]))
        R = bt_reduce(M, OrderSelection.fixed(1))
        assert projected_h2_error(M, R.V, R.sys) >= h2_error_norm(M, R.sys)

    def test_equals_h2_error_on_a_deflated_system(self):
        # the middle state is unreachable and unobservable, so the numerical
        # rank is k = 2 < n = 3 and the transform has k columns
        M = StateSpaceModel(np.diag([-1.0, -3.0, -2.0]), np.array([[1.0], [0.0], [1.0]]),
                            np.array([[1.0, 0.0, 1.0]]))
        R = bt_reduce(M, OrderSelection.fixed(1))
        h2_error = projected_h2_error(M, R.V, R.sys)
        assert h2_error == pytest.approx(h2_error_norm(M, R.sys), rel=1e-12)
        assert h2_error == pytest.approx(0.0339925223681, rel=1e-10)

    def test_monte_carlo_validity(self, rng):
        for _ in range(20):
            M = random_system(rng, 8, 1, 1, margin=0.4)
            scale = h2_norm(M)
            for r in range(1, 8):
                R = bt_reduce(M, OrderSelection.fixed(r))
                err = h2_error_norm(M, R.sys)
                # relative slack plus a floor at the cancellation noise of
                # the subtraction in h2_error_norm, which differs from
                # projected_h2_error by up to 3.7e-8 of the system norm here
                assert projected_h2_error(M, R.V, R.sys) >= err * (1.0 - 1e-6) - 5e-8 * scale

    def test_equals_h2_error_on_case2_x0_map(self):
        # the trace formula is the H2 error of BT itself, not only a bound
        # on it; case 2's x0 map (r = 20) is where the subtraction form of
        # h2_error_norm is accurate enough to show it
        M = build_msd(150, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [30]).X0)
        R = bt_reduce(aux, OrderSelection.tolerance(1e-2))
        assert R.r == 20
        assert projected_h2_error(aux, R.V, R.sys) == \
            pytest.approx(h2_error_norm(aux, R.sys), rel=1e-9)


class TestSplitBound:
    def test_pure_initial_condition(self, rng):
        M = random_system(rng, 6, 1, 1)
        basis = InitialConditionBasis(rng.standard_normal((6, 1)))
        S = split_reduce(M, basis, OrderSelection.fixed(3),
                         OrderSelection.fixed(3), x0_method="bt")
        total, budget = split_bound(S, u_l2=0.0, z0_norm=2.0)
        assert total == pytest.approx(budget.e2 * 2.0)

    def test_zero_x0_full_order_matches_bt_bound(self, rng):
        M = random_system(rng, 6, 1, 1)
        basis = InitialConditionBasis(rng.standard_normal((6, 1)))
        S = split_reduce(M, basis, OrderSelection.fixed(2),
                         OrderSelection.fixed(6), x0_method="bt")
        total, _ = split_bound(S, u_l2=1.5, z0_norm=0.0)
        assert total == pytest.approx(bt_bound(S.suy.spectrum_tail, 1.5))

    def test_msd_simulation(self, msd20):
        M = msd20
        basis = unit_vector_basis(M.n, [M.n])
        S = split_reduce(M, basis, OrderSelection.tolerance(1e-2),
                         OrderSelection.tolerance(1e-2), x0_method="bt")
        u = InputSignal.decaying_pulses(M.m)
        x0 = basis.X0 @ np.array([0.5])
        t_f, dt = 400.0, 0.1
        tr_u, tr_x0 = simulate(M, u, None, t_f, dt), simulate(M, None, x0, t_f, dt)
        tr = SimulationTrace(t=tr_u.t, y=tr_u.y + tr_x0.y)
        tr_r = online_phase(S, u, x0, t_f, dt)
        total, _ = split_bound(S, u.l2_norm(t_f, dt), 0.5)
        assert _error_l2(tr, tr_r) <= total

    def test_irka_budget_flagged(self, msd20):
        M = msd20
        basis = unit_vector_basis(M.n, [M.n])
        S = split_reduce(M, basis, OrderSelection.tolerance(1e-2),
                         OrderSelection.tolerance(1e-2), x0_method="irka")
        _, budget = split_bound(S, 1.0, 1.0)
        assert budget.e2 == S.sxy.h2_error
        aux = M.with_input(basis.X0)
        assert budget.e2 == pytest.approx(h2_error_norm(aux, S.sxy.sys))

    def test_irka_fallback_has_the_e2_of_bt(self):
        # the x0 map of the 5-mass chain, x0 at state 5: at r = 7 the first
        # tangential basis has numerical rank 6, so IRKA falls back to its
        # BT warm start, and both split methods hold the same reduced x0 model
        M = build_msd(5, m_inputs=3)
        basis = unit_vector_basis(M.n, [5])
        kwargs = dict(sel_u=OrderSelection.fixed(2), sel_x0=OrderSelection.fixed(7))
        S_bt = split_reduce(M, basis, x0_method="bt", **kwargs)
        with pytest.warns(MaxItersExceeded, match=r"\(numerical rank 6 < r = 7\) at iteration 1"):
            S_ir = split_reduce(M, basis, x0_method="irka", **kwargs)
        assert S_ir.sxy.interp_residuals["fallback"]
        assert split_bound(S_ir, 1.0, 1.0)[1].e2 == split_bound(S_bt, 1.0, 1.0)[1].e2

    def test_irka_e2_usually_below_bt_e2(self, rng):
        wins = 0
        trials = 10
        for _ in range(trials):
            M = random_system(rng, 8, 1, 1, margin=0.5)
            basis = InitialConditionBasis(rng.standard_normal((8, 1)))
            kwargs = dict(sel_u=OrderSelection.fixed(2),
                          sel_x0=OrderSelection.fixed(3))
            S_bt = split_reduce(M, basis, x0_method="bt", **kwargs)
            S_ir = split_reduce(M, basis, x0_method="irka", **kwargs)
            _, b_bt = split_bound(S_bt, 1.0, 1.0)
            _, b_ir = split_bound(S_ir, 1.0, 1.0)
            if b_ir.e2 <= b_bt.e2:
                wins += 1
        # statistic, not a theorem: the H2-targeted branch should win most runs
        assert wins >= trials // 2


class TestBoundMonotonicity:
    def test_tail_bounds_nonincreasing_in_order(self, rng):
        # the Hankel-tail bound shrinks monotonically as order grows; the H2
        # error of BT has a cross term that may wiggle locally, so only its
        # endpoint behavior is checked
        for _ in range(3):
            M = random_system(rng, 10, 2, 1)
            prev_bt = np.inf
            h2_vals = []
            for r in range(1, 10):
                R = bt_reduce(M, OrderSelection.fixed(r))
                b = bt_bound(R.spectrum_tail, 1.0)
                assert b <= prev_bt + 1e-12
                prev_bt = b
                h2_vals.append(projected_h2_error(M, R.V, R.sys))
            assert h2_vals[-1] <= h2_vals[0] + 1e-12
            R = bt_reduce(M, OrderSelection.fixed(10))
            assert projected_h2_error(M, R.V, R.sys) <= 1e-10 * max(1.0, h2_vals[0])


def test_error_budget_total():
    budget = ErrorBudget(e1=0.2, e2=0.3)
    assert budget.total(2.0, 3.0) == pytest.approx(1.3)
