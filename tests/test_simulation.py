"""Simulation engine, the reduced online phase, and signal norms."""

import dataclasses

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
    simulate,
    split_reduce,
    suggest_grid,
)
from icmor.errors import InvalidParameter, NonFinite, TailWarning
from icmor.linalg import matrix_exponential
from icmor.model import coordinates_of
from icmor import simulation
from icmor.simulation import SimulationTrace, _flush, _power, foh_weights

from conftest import random_system, step_simulate, traced_peak


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


class TestInputSignal:
    @pytest.mark.parametrize("u", [
        InputSignal.decaying_pulses(10), InputSignal.decaying_sinusoid(10), InputSignal.zero(10),
        InputSignal.decaying_pulses(3, amplitude=-2.0, period=7.0, start=0.0),
        InputSignal.sampled(np.linspace(0.0, 400.0, 77),
                            np.random.default_rng(0).standard_normal((77, 3))),
    ], ids=["pulses", "sinusoid", "zero", "negative-pulses", "sampled"])
    def test_l2_norm_bit_for_bit_the_whole_grid_quadrature(self, u):
        # sampled in chunks, the norm is the trapezoid of the whole grid's
        # samples: on case1's grid, one of 512 steps (5 whole chunks), one
        # shorter than a chunk and one off the grid's steps
        t_f, dt = suggest_grid(build_msd(150, m_inputs=10))
        for horizon, step in ((t_f, dt), (t_f, t_f / 512), (1.0, 0.3), (0.7 * t_f, 1.3 * dt)):
            t = np.linspace(0.0, horizon, 10 * max(int(round(horizon / step)), 1) + 1)
            samples = u(t)
            want = float(np.sqrt(np.trapezoid(np.sum(samples * samples, axis=1), t)))
            assert u.l2_norm(horizon, step) == want

    def test_l2_norm_forms_no_sample_array(self):
        # case1's grid has 40001 samples: one array of them in 10 channels is
        # 3.2 MB, the vector of the trapezoid's terms 0.32 MB
        t_f, dt = suggest_grid(build_msd(150, m_inputs=10))
        assert traced_peak(lambda: InputSignal.decaying_pulses(10).l2_norm(t_f, dt)) < 1e6

    def test_l2_norm_of_constant_input(self):
        m, t_f = 3, 10.0
        u = InputSignal.sampled([0.0, 2 * t_f], np.ones((2, m)))
        assert u.l2_norm(t_f, 0.5) == pytest.approx(np.sqrt(m * t_f), rel=1e-12)

    @pytest.mark.parametrize("t", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, np.nan, 2.0],
                                   [0.0, 1.0, np.inf]],
                             ids=["decreasing", "repeated", "nan", "inf"])
    def test_sample_times_must_increase(self, t):
        # np.interp reads unsorted times without an error: [0, 2, 1] gave 5 at t = 1.5
        with pytest.raises(InvalidParameter, match=r"^t: "):
            InputSignal.sampled(t, [0.0, 1.0, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sample_values_must_be_finite(self, bad):
        # a NaN sample made l2_norm return nan
        with pytest.raises(NonFinite, match="values"):
            InputSignal.sampled([0.0, 1.0, 2.0], [[0.0, 1.0], [bad, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("key, value", [("period", 0.0), ("period", -15.0),
                                            ("width", 0.0), ("width", np.nan)])
    def test_pulses_need_positive_period_and_width(self, key, value):
        with pytest.raises(InvalidParameter, match=rf"^{key}: must be > 0"):
            InputSignal.decaying_pulses(2, **{key: value})

    def test_is_its_channel_count_and_evaluator(self):
        # no kind string and no parameters: the constructor built f, which
        # the zero input has none of
        for u in (InputSignal.zero(2), InputSignal.decaying_pulses(2),
                  InputSignal.decaying_sinusoid(2), InputSignal.sampled([0.0, 1.0], [1.0, 2.0])):
            assert [f.name for f in dataclasses.fields(u)] == ["m", "f"]
        assert InputSignal.zero(2).f is None
        assert np.array_equal(InputSignal.zero(2)(np.arange(3.0)), np.zeros((3, 2)))

    def test_pulse_heights_at_their_centres(self):
        # amplitude exp(-decay t_c) at each centre t_c = start + k period, in
        # every channel, and 0 half a width away
        amplitude, decay, period, width, start = 2.0, 0.1, 5.0, 1.0, 1.0
        u = InputSignal.decaying_pulses(3, amplitude, decay, period, width, start)
        t_c = start + period * np.arange(4)
        y = u(np.concatenate([t_c, t_c - width / 2, t_c + width / 2]))
        assert y.shape == (12, 3) and np.all(y == y[:, :1])
        np.testing.assert_allclose(y[:4, 0], amplitude * np.exp(-decay * t_c), rtol=1e-15)
        assert np.all(y[4:] == 0.0)

    @pytest.mark.parametrize("m", [1, 4])
    def test_sinusoid_frequency_per_channel(self, m):
        # channel j oscillates at freq (1 + freq_spread j / (m - 1))
        amplitude, decay, freq, spread = 1.5, 0.05, 0.2, 0.5
        u = InputSignal.decaying_sinusoid(m, amplitude, decay, freq, spread)
        t = np.linspace(0.0, 40.0, 801)
        f = freq * (1.0 + spread * np.arange(m) / max(m - 1, 1))
        want = amplitude * np.exp(-decay * t)[:, None] * np.sin(2.0 * np.pi * f * t[:, None])
        np.testing.assert_allclose(u(t), want, rtol=1e-12, atol=1e-15)

    def test_sampled_interpolates_each_channel(self):
        t = np.array([0.0, 1.0, 3.0])
        values = np.array([[0.0, 2.0], [1.0, 0.0], [-1.0, 4.0]])
        u = InputSignal.sampled(t, values)
        s = np.array([0.5, 2.0, 3.0, 5.0])
        want = [[0.5, 1.0], [0.0, 2.0], [-1.0, 4.0], [-1.0, 4.0]]
        assert u.m == 2 and np.array_equal(u(s), want)
        # the samples of each channel as a row give the same input
        assert np.array_equal(InputSignal.sampled(t, values.T)(s), want)


    @pytest.mark.parametrize("u", [
        InputSignal.zero(2), InputSignal.decaying_pulses(2), InputSignal.decaying_sinusoid(2),
        InputSignal.sampled([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])],
        ids=["zero", "decaying_pulses", "decaying_sinusoid", "sampled"])
    def test_empty_grid_gives_no_samples(self, u):
        assert np.array_equal(u([]), np.zeros((0, 2)))


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
        # oracle integrates the same piecewise-linear interpolant, one
        # sample interval at a time: the input is linear on each, and no
        # step of the integrator crosses a kink
        u_samples = u(tr.t)
        slopes = np.diff(u_samples, axis=0) / np.diff(tr.t)[:, None]
        A, B = M.A, M.B

        def rhs(t, x, t0, u0, slope):
            return A @ x + B @ (u0 + (t - t0) * slope)

        x = np.empty((len(tr.t), M.n))
        x[0] = x0
        for k in range(len(tr.t) - 1):
            sol = solve_ivp(rhs, (tr.t[k], tr.t[k + 1]), x[k],
                            args=(tr.t[k], u_samples[k], slopes[k]),
                            rtol=1e-11, atol=1e-12, method="DOP853")
            x[k + 1] = sol.y[:, -1]
        y_ref = x @ M.C.T
        num = np.sqrt(np.trapezoid(np.sum((tr.y - y_ref) ** 2, axis=1), tr.t))
        den = np.sqrt(np.trapezoid(np.sum(y_ref ** 2, axis=1), tr.t))
        assert num / den <= 1e-10

    def test_channel_mismatch(self):
        M = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(InvalidParameter):
            simulate(M, InputSignal.zero(3), None, 1.0, 0.1)

    def test_bad_grid(self):
        M = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(InvalidParameter):
            simulate(M, None, None, -1.0, 0.1)


def _rel_l2(tr, ref):
    return np.linalg.norm(tr.y - ref.y) / max(np.linalg.norm(ref.y), 1e-300)


class TestLiftedStepping:
    """``simulate`` steps blocks of samples at once; ``step_simulate`` is
    the same FOH recursion one sample at a time."""

    def _check(self, M, u, x0, t_f, dt, tol=1e-12):
        tr = simulate(M, u, x0, t_f, dt)
        ref = step_simulate(M, u, x0, t_f, dt)
        assert tr.t.shape == ref.t.shape and tr.y.shape == ref.y.shape
        assert tr.provenance == ref.provenance
        assert _rel_l2(tr, ref) <= tol
        if u is None or x0 is None:
            assert tr.components is None
            return
        # one run steps both parts; each matches its own per-step run
        parts = {"y_u": step_simulate(M, u, None, t_f, dt),
                 "y_x0": step_simulate(M, None, x0, t_f, dt)}
        for key, part in parts.items():
            assert _rel_l2(SimulationTrace(t=tr.t, y=tr.components[key]), part) <= tol

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("with_x0", [False, True])
    def test_random_systems(self, rng, m, with_x0):
        for n in (1, 4, 9):
            M = random_system(rng, n, m, 2, margin=0.5)
            u = InputSignal.decaying_sinusoid(m, freq=0.3) if m else None
            x0 = rng.standard_normal(n) if with_x0 else None
            self._check(M, u, x0, 25.0, 0.02)

    def test_substepping_grid(self):
        # a coarse step (||A|| dt = 9.2) still takes one FOH step per sample
        M = build_msd(5, m_inputs=1)
        self._check(M, InputSignal.decaying_pulses(1), np.ones(M.n), 50.0, 1.0)

    def test_partial_last_block(self, rng):
        # 997 steps is prime: no block length between 2 and 996 divides it
        M = random_system(rng, 6, 2, 2, margin=0.5)
        self._check(M, InputSignal.decaying_pulses(2), rng.standard_normal(6),
                    997 * 0.02, 0.02)

    @pytest.mark.parametrize("steps", [3, 0])
    def test_short_horizons(self, rng, steps):
        M = random_system(rng, 5, 2, 2, margin=0.5)
        dt = 0.1
        t_f = steps * dt if steps else 0.4 * dt
        self._check(M, InputSignal.decaying_sinusoid(2), rng.standard_normal(5),
                    t_f, dt)

    def test_far_end_chain_trace(self):
        # the n = 300 chain with x0 at index 300, on its decay horizon
        M = build_msd(150, m_inputs=10)
        t_f, dt = suggest_grid(M)
        x0 = np.zeros(M.n)
        x0[299] = 1.0
        self._check(M, None, x0, t_f, dt, tol=1e-11)

    def test_far_end_chain_both_parts(self):
        M = build_msd(150, m_inputs=10)
        t_f, dt = suggest_grid(M)
        x0 = np.zeros(M.n)
        x0[299] = 1.0
        self._check(M, InputSignal.decaying_pulses(10), x0, t_f, dt, tol=1e-11)

    def test_phi_by_squaring(self):
        # the n = 600 chain at its block length, L = ceil(sqrt(4000 / 11))
        M = build_msd(300, m_inputs=10)
        t_f, dt = suggest_grid(M)
        L = 20
        Phi = _power(_flush(foh_weights(M.A, M.B, dt)[0]), L)
        ref = matrix_exponential(M.A, L * dt)
        assert np.linalg.norm(Phi - ref) <= 1e-13 * np.linalg.norm(ref)


    def test_relative_flush_moves_no_output_digit(self, monkeypatch):
        # the n = 600 chain, x0 at 600, decaying pulses: flushing the FOH
        # powers below 1e-150 max|Z| gives y bit for bit as flushing only
        # their subnormal entries, though it zeroes more of E
        M = build_msd(300, m_inputs=10)
        t_f, dt = suggest_grid(M)
        u = InputSignal.decaying_pulses(10)
        x0 = np.zeros(M.n)
        x0[599] = 1.0

        def subnormal_only(Z):
            Z[np.abs(Z) < np.finfo(float).tiny] = 0.0
            return Z

        E = foh_weights(M.A, M.B, dt)[0]
        assert np.count_nonzero(_flush(E.copy())) < np.count_nonzero(subnormal_only(E))
        y = simulate(M, u, x0, t_f, dt).y
        monkeypatch.setattr(simulation, "_flush", subnormal_only)
        assert np.array_equal(simulate(M, u, x0, t_f, dt).y, y)

class TestNoScipyExponential:
    def test_simulate_and_online_phase(self, monkeypatch):
        # the FOH step matrices come from numpy: scipy's expm never runs
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr("scipy.linalg.expm", refuse)
        M = build_msd(12, m_inputs=3)
        t_f, dt = suggest_grid(M)
        u = InputSignal.decaying_pulses(3)
        basis = InitialConditionBasis(np.eye(M.n)[:, [23]])
        x0 = basis.X0[:, 0]
        tr = simulate(M, u, x0, t_f, dt)
        assert set(tr.components) == {"y_u", "y_x0"}
        S = split_reduce(M, basis, OrderSelection.fixed(4),
                         OrderSelection.fixed(4), x0_method="bt")
        tr_r = online_phase(S, u, x0, t_f, dt)
        assert np.all(np.isfinite(tr_r.y)) and tr_r.y.shape == tr.y.shape


class TestOnlinePhase:
    def _split(self, rng, n=6):
        M = random_system(rng, n, 2, 1, margin=0.5)
        basis = InitialConditionBasis(rng.standard_normal((n, 2)))
        S = split_reduce(M, basis, OrderSelection.fixed(n),
                         OrderSelection.fixed(n), x0_method="bt")
        return M, basis, S

    def test_trace_is_the_sum_of_its_components(self, rng):
        M, basis, S = self._split(rng)
        u = InputSignal.decaying_pulses(2)
        x0 = basis.X0 @ np.array([0.5, -1.0])
        tr = online_phase(S, u, x0, 30.0, 0.01)
        assert set(tr.components) == {"y_u", "y_x0"}
        assert np.array_equal(tr.y, tr.components["y_u"] + tr.components["y_x0"])

    def test_each_component_is_its_own_simulation(self, rng):
        M, basis, S = self._split(rng)
        u = InputSignal.decaying_pulses(2)
        x0 = basis.X0 @ np.array([0.5, -1.0])
        tr = online_phase(S, u, x0, 30.0, 0.01)
        z0 = coordinates_of(x0, basis)
        tr_u = simulate(S.suy.sys, u, None, 30.0, 0.01)
        tr_x0 = simulate(S.sxy.sys, None, S.sxy.sys.B @ z0, 30.0, 0.01)
        assert np.array_equal(tr.t, tr_u.t) and np.array_equal(tr.t, tr_x0.t)
        assert np.array_equal(tr.components["y_u"], tr_u.y)
        assert np.array_equal(tr.components["y_x0"], tr_x0.y)

    def test_linearity_identity(self, rng):
        # the full model stepped once with both parts, against the plain sum
        # of its two separate runs
        M = random_system(rng, 6, 2, 2, margin=0.5)
        u = InputSignal.decaying_pulses(2)
        x0 = rng.standard_normal(6)
        t_f, dt = 40.0, 0.01
        combined = simulate(M, u, x0, t_f, dt)
        tr_u, tr_x0 = simulate(M, u, None, t_f, dt), simulate(M, None, x0, t_f, dt)
        num = l2_norm(SimulationTrace(t=combined.t, y=combined.y - (tr_u.y + tr_x0.y)))
        assert num <= 1e-9 * l2_norm(combined)

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


def test_suggest_grid_covers_decay(rng):
    M = random_system(rng, 5, 1, 1, margin=0.5)
    t_f, dt = suggest_grid(M)
    margin = np.max(np.linalg.eigvals(M.A).real)
    assert np.exp(margin * t_f) <= 1e-8 * 1.01
    assert dt == pytest.approx(t_f / 4000.0)
