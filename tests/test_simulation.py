"""Simulation engine, superposition, and signal norms."""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from icmor import (
    InitialConditionBasis,
    InputSignal,
    OrderSelection,
    StateSpaceModel,
    build_msd,
    l2_norm,
    linf_norm,
    online_phase,
    relative_errors,
    simulate,
    split_reduce,
    suggest_grid,
    superpose,
)
from icmor.errors import (
    DegenerateReference,
    GridMismatch,
    InvalidParameter,
    StepTooLarge,
    TailWarning,
)
from icmor.simulation import SimulationTrace, foh_weights

from conftest import random_system


class TestFohWeights:
    def test_scalar_against_analytic(self):
        # x' = a x + b u with u linear on the step: exact integrals known
        a, b, dt = -1.3, 0.7, 0.05
        E, F0, F1 = foh_weights(np.array([[a]]), np.array([[b]]), dt)
        assert E[0, 0] == pytest.approx(np.exp(a * dt), rel=1e-14)
        # int_0^dt e^{a(dt-s)} b (1 - s/dt) ds  and  ... (s/dt) ds
        s = np.linspace(0.0, dt, 20001)
        w0 = np.trapezoid(np.exp(a * (dt - s)) * b * (1 - s / dt), s)
        w1 = np.trapezoid(np.exp(a * (dt - s)) * b * (s / dt), s)
        assert F0[0, 0] == pytest.approx(w0, rel=1e-8)
        assert F1[0, 0] == pytest.approx(w1, rel=1e-8)


class TestSimulate:
    def test_scalar_homogeneous(self):
        M = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        tr = simulate(M, None, [1.0], 5.0, 0.01)
        assert np.allclose(tr.y[:, 0], np.exp(-tr.t), atol=1e-10)

    def test_zero_everything(self):
        M = StateSpaceModel(-np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        tr = simulate(M, InputSignal.zero(1), None, 2.0, 0.01)
        assert np.all(tr.y == 0.0)

    def test_against_adaptive_integrator(self, rng):
        M = random_system(rng, 5, 2, 1, margin=0.5)
        u = InputSignal.decaying_sinusoid(2, freq=0.3)
        x0 = rng.standard_normal(5)
        t_f, dt = 30.0, 0.005
        tr = simulate(M, u, x0, t_f, dt)

        # the engine holds the input first-order between samples, so the
        # oracle integrates the same piecewise-linear interpolant
        u_samples = u(tr.t)

        def rhs(t, x):
            ui = np.array([np.interp(t, tr.t, u_samples[:, k])
                           for k in range(u_samples.shape[1])])
            return M.A @ x + M.B @ ui

        sol = solve_ivp(rhs, (0.0, t_f), x0, t_eval=tr.t,
                        rtol=1e-11, atol=1e-12, method="DOP853")
        y_ref = (M.C @ sol.y).T
        num = np.sqrt(np.trapezoid(np.sum((tr.y - y_ref) ** 2, axis=1), tr.t))
        den = np.sqrt(np.trapezoid(np.sum(y_ref ** 2, axis=1), tr.t))
        assert num / den <= 1e-7

    def test_substepping_warns(self):
        M = build_msd(5, m_inputs=1)
        with pytest.warns(StepTooLarge):
            tr = simulate(M, InputSignal.decaying_pulses(1), None, 50.0, 1.0)
        assert np.all(np.isfinite(tr.y))

    def test_channel_mismatch(self):
        M = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(InvalidParameter):
            simulate(M, InputSignal.zero(3), None, 1.0, 0.1)

    def test_bad_grid(self):
        M = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(InvalidParameter):
            simulate(M, None, None, -1.0, 0.1)


class TestSuperpose:
    def test_zero_second_trace(self):
        t = np.linspace(0, 1, 11)
        a = SimulationTrace(t=t, y=np.ones((11, 2)))
        b = SimulationTrace(t=t, y=np.zeros((11, 2)))
        out = superpose(a, b)
        assert np.array_equal(out.y, a.y)
        assert np.array_equal(out.components["y_u"], a.y)

    def test_linearity_identity(self, rng):
        M = random_system(rng, 6, 2, 2, margin=0.5)
        u = InputSignal.decaying_pulses(2)
        x0 = rng.standard_normal(6)
        t_f, dt = 40.0, 0.01
        combined = simulate(M, u, x0, t_f, dt)
        parts = superpose(simulate(M, u, None, t_f, dt),
                          simulate(M, None, x0, t_f, dt))
        num = l2_norm(SimulationTrace(t=combined.t, y=combined.y - parts.y))
        assert num <= 1e-9 * l2_norm(combined)

    def test_grid_mismatch(self):
        a = SimulationTrace(t=np.linspace(0, 1, 11), y=np.zeros((11, 1)))
        b = SimulationTrace(t=np.linspace(0, 2, 11), y=np.zeros((11, 1)))
        with pytest.raises(GridMismatch):
            superpose(a, b)


class TestOnlinePhase:
    def _split(self, rng, n=6):
        M = random_system(rng, n, 2, 1, margin=0.5)
        basis = InitialConditionBasis(rng.standard_normal((n, 2)))
        S = split_reduce(M, basis, OrderSelection.fixed(n),
                         OrderSelection.fixed(n), x0_method="bt")
        return M, basis, S

    def test_zero_x0_equals_input_branch(self, rng):
        M, basis, S = self._split(rng)
        u = InputSignal.decaying_pulses(2)
        tr = online_phase(S, u, np.zeros(6), 30.0, 0.01)
        tr_u = simulate(S.suy.sys, u, None, 30.0, 0.01)
        assert np.allclose(tr.y, tr_u.y, atol=1e-12)

    def test_zero_input_equals_x0_branch(self, rng):
        M, basis, S = self._split(rng)
        x0 = basis.X0 @ np.array([1.0, 2.0])
        tr = online_phase(S, InputSignal.zero(2), x0, 30.0, 0.01)
        assert np.allclose(tr.y, tr.components["y_x0"], atol=1e-12)
        assert np.allclose(tr.components["y_u"], 0.0)

    def test_full_order_matches_monolithic(self, rng):
        M, basis, S = self._split(rng)
        u = InputSignal.decaying_sinusoid(2)
        x0 = basis.X0 @ np.array([0.5, -1.0])
        tr = online_phase(S, u, x0, 40.0, 0.01)
        ref = simulate(M, u, x0, 40.0, 0.01)
        num = l2_norm(SimulationTrace(t=ref.t, y=ref.y - tr.y))
        assert num <= 1e-8 * l2_norm(ref)

    def test_basis_rescaling_invariance(self, rng):
        M = random_system(rng, 6, 1, 1, margin=0.5)
        X0 = rng.standard_normal((6, 2))
        x0 = X0 @ np.array([1.0, -0.5])
        u = InputSignal.decaying_pulses(1)
        ys = []
        for scale in (1.0, 8.0):
            basis = InitialConditionBasis(X0 * scale)
            S = split_reduce(M, basis, OrderSelection.fixed(3),
                             OrderSelection.fixed(3), x0_method="bt")
            ys.append(online_phase(S, u, x0, 30.0, 0.01).y)
        assert np.allclose(ys[0], ys[1], atol=1e-10 * max(1.0, np.abs(ys[0]).max()))


class TestNorms:
    def test_analytic_exponential(self):
        t = np.arange(0.0, 40.0, 0.001)
        tr = SimulationTrace(t=t, y=np.exp(-t)[:, None])
        assert l2_norm(tr) == pytest.approx(np.sqrt(0.5), abs=1e-6)
        assert linf_norm(tr) == 1.0

    def test_zero_trace(self):
        tr = SimulationTrace(t=np.linspace(0, 1, 5), y=np.zeros((5, 1)))
        assert l2_norm(tr) == 0.0
        assert linf_norm(tr) == 0.0

    def test_grid_refinement(self, rng):
        M = random_system(rng, 5, 1, 1, margin=0.5)
        u = InputSignal.decaying_pulses(1)
        vals = []
        for dt in (0.02, 0.01):
            tr = simulate(M, u, None, 60.0, dt)
            vals.append(l2_norm(tr))
        assert abs(vals[1] - vals[0]) <= 1e-4 * abs(vals[1])

    def test_tail_warning(self):
        t = np.linspace(0.0, 1.0, 101)
        tr = SimulationTrace(t=t, y=np.ones((101, 1)))
        with pytest.warns(TailWarning):
            l2_norm(tr)


class TestRelativeErrors:
    def test_identical(self, rng):
        t = np.linspace(0, 10, 101)
        y = np.exp(-t)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailWarning)
            out = relative_errors(SimulationTrace(t=t, y=y),
                                  SimulationTrace(t=t, y=y.copy()))
        assert out == {"rel_l2": 0.0, "rel_linf": 0.0}

    def test_zero_reduction(self):
        t = np.linspace(0, 40, 401)
        y = np.exp(-t)[:, None]
        out = relative_errors(SimulationTrace(t=t, y=y),
                              SimulationTrace(t=t, y=np.zeros_like(y)))
        assert out["rel_l2"] == pytest.approx(1.0)
        assert out["rel_linf"] == pytest.approx(1.0)

    def test_degenerate_reference(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(DegenerateReference):
            relative_errors(SimulationTrace(t=t, y=np.zeros((11, 1))),
                            SimulationTrace(t=t, y=np.ones((11, 1))))


def test_suggest_grid_covers_decay(rng):
    M = random_system(rng, 5, 1, 1, margin=0.5)
    t_f, dt = suggest_grid(M)
    margin = np.max(np.linalg.eigvals(M.A).real)
    assert np.exp(margin * t_f) <= 1e-8 * 1.01
    assert dt == pytest.approx(t_f / 4000.0)
