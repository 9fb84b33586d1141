"""Reduction algorithms: order selection, BT, augmented BT, IRKA, split."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import minimize

from icmor import (
    InitialConditionBasis,
    OrderSelection,
    StateSpaceModel,
    abt_reduce,
    bt_reduce,
    build_msd,
    gramian_factors,
    hankel_spectrum,
    irka_reduce,
    order_from_tolerance,
    split_reduce,
    unit_vector_basis,
)
import icmor
from icmor import gramians, linalg, reduction
from icmor.gramians import GramianFactors, projected_h2_error
from icmor.errors import InvalidParameter, MaxItersExceeded, NotStable, UnstableReduction
from icmor.simulation import simulate, l2_norm, SimulationTrace

from conftest import (
    augmented_system, h2_error_norm, h2_norm, per_shift_residuals, random_system,
    second_solve_derivative,
)


class TestOrderSelection:
    def test_exactly_one_of_order_tol(self):
        with pytest.raises(InvalidParameter):
            OrderSelection(order=2, tol=0.1)
        with pytest.raises(InvalidParameter):
            OrderSelection()
        with pytest.raises(InvalidParameter):
            OrderSelection.tolerance(1.5)

    def test_fixed_clamped_to_length(self):
        assert OrderSelection.fixed(10).resolve(np.array([1.0, 0.5])) == 2

    def test_fixed_order_is_a_whole_number(self):
        # int(r) floored 2.5 to the order 2
        for r in (2.5, np.nan, np.inf):
            with pytest.raises(InvalidParameter, match="^order: must be a whole number"):
                OrderSelection.fixed(r)
        assert OrderSelection.fixed(3.0).order == 3


class TestOrderFromTolerance:
    def test_basic(self):
        assert order_from_tolerance(np.array([1.0, 0.5, 1e-3]), 1e-2) == 2

    def test_tie_pushed_past(self):
        assert order_from_tolerance(np.array([1.0, 1e-3, 1e-3]), 1e-2) == 3

    def test_no_index_qualifies(self):
        assert order_from_tolerance(np.array([1.0, 0.9, 0.8]), 1e-2) == 3

    def test_tie_at_cut_boundary(self):
        # cut would fall between two equal values: advance until separated
        sigma = np.array([1.0, 0.5, 0.5, 1e-4])
        tau = 0.6
        r = order_from_tolerance(sigma, tau)
        assert r == 3
        assert sigma[r - 1] > sigma[r]

    def test_zero_spectrum(self):
        assert order_from_tolerance(np.zeros(4), 1e-2) == 0


class TestBtReduce:
    @pytest.mark.parametrize("name", ["input", "x0", "augmented"])
    def test_unstable_truncation_names_map_order_and_abscissa(self, monkeypatch, name):
        # the reduced model's own verdict fails: the error names the map the
        # caller reduced and the order, not the reduced model's A
        def unstable(*args, **kwargs):
            raise NotStable("A has stability margin 2.500e-03", 2.5e-3)

        monkeypatch.setattr(reduction, "StateSpaceModel", unstable)
        M = build_msd(6, m_inputs=2)
        aux = M.with_input(unit_vector_basis(M.n, [12]).X0)
        reduce = {"input": lambda sel: bt_reduce(M, sel),
                  "x0": lambda sel: bt_reduce(aux, sel, "x0"),
                  "augmented": lambda sel: abt_reduce(M, aux, sel)}[name]
        with pytest.raises(UnstableReduction, match=rf"^the {name} map's balanced truncation at "
                           r"order 3 is not stable \(spectral abscissa 2\.500e-03\)$") as info:
            reduce(OrderSelection.fixed(3))
        assert info.value.map_name == name

    def test_full_order_preserves_transfer(self, rng):
        M = random_system(rng, 5, 2, 2)
        R = bt_reduce(M, OrderSelection.fixed(5))
        assert h2_error_norm(M, R.sys) <= 1e-7 * h2_norm(M)

    def test_scalar_identity(self):
        M = StateSpaceModel([[-2.0]], [[3.0]], [[1.5]])
        R = bt_reduce(M, OrderSelection.fixed(1))
        assert R.sys.A[0, 0] == pytest.approx(-2.0)
        assert abs(R.sys.B[0, 0] * R.sys.C[0, 0]) == pytest.approx(4.5)

    def test_projection_biorthogonal_and_balanced(self, rng):
        M = random_system(rng, 8, 2, 2)
        R = bt_reduce(M, OrderSelection.fixed(3))
        F = gramian_factors(R.sys)
        sig = hankel_spectrum(gramian_factors(M)).sigma
        assert np.allclose(F.U @ F.U.T, np.diag(sig[:3]), atol=1e-7)
        assert np.allclose(F.L @ F.L.T, np.diag(sig[:3]), atol=1e-7)

    def test_reduced_stable(self, rng):
        for _ in range(10):
            M = random_system(rng, 9, 2, 2)
            for r in (1, 3, 5):
                R = bt_reduce(M, OrderSelection.fixed(r))
                assert np.max(np.linalg.eigvals(R.sys.A).real) < 0

    def test_identity_on_balanced_minimal(self, rng):
        M = random_system(rng, 4, 1, 1)
        Mb = bt_reduce(M, OrderSelection.fixed(4)).sys
        R = bt_reduce(Mb, OrderSelection.fixed(4))
        # identity up to diagonal +-1 state signs, read off the output map
        D = np.diag(np.sign(R.sys.C[0]) * np.sign(Mb.C[0]))
        assert np.allclose(D @ R.sys.A @ D, Mb.A, atol=1e-7)
        assert np.allclose(D @ R.sys.B, Mb.B, atol=1e-7)
        assert np.allclose(R.sys.C @ D, Mb.C, atol=1e-7)

    def test_spectrum_tail(self, rng):
        M = random_system(rng, 6, 1, 1)
        R = bt_reduce(M, OrderSelection.fixed(2))
        sig = hankel_spectrum(gramian_factors(M)).sigma
        assert np.allclose(R.spectrum_tail, sig[2:])


class TestAbtReduce:
    def test_duplicated_columns_scale_hankel(self):
        M = build_msd(8, m_inputs=3)
        basis = InitialConditionBasis(M.B.copy())
        R = abt_reduce(M, M.with_input(basis.X0), OrderSelection.fixed(4), scaling=False)
        sig = hankel_spectrum(gramian_factors(M)).sigma
        k = min(10, len(sig))
        assert np.allclose(R.hankel[:k], np.sqrt(2.0) * sig[:k], rtol=1e-8)

    def test_empty_basis_equals_bt(self, rng):
        M = random_system(rng, 6, 2, 1)
        basis = InitialConditionBasis(np.zeros((6, 0)))
        Ra = abt_reduce(M, M.with_input(basis.X0), OrderSelection.fixed(3))
        Rb = bt_reduce(M, OrderSelection.fixed(3))
        assert np.allclose(Ra.sys.A, Rb.sys.A, atol=1e-10)
        assert np.allclose(Ra.sys.B, Rb.sys.B, atol=1e-10)
        assert np.allclose(Ra.sys.C, Rb.sys.C, atol=1e-10)

    def test_x0til_is_projected_basis(self, rng):
        # with X0 a column of B, X0til is that column of the projected B
        M = random_system(rng, 6, 2, 1)
        R = abt_reduce(M, M.with_input(M.B[:, :1]), OrderSelection.fixed(4))
        assert np.allclose(R.X0til, R.sys.B[:, :1], atol=1e-12)

    def test_case2_order_near_input_order(self, msd_small):
        M, _ = msd_small
        basis = unit_vector_basis(M.n, [M.n // 10])
        R = abt_reduce(M, M.with_input(basis.X0), OrderSelection.tolerance(1e-2))
        Ru = bt_reduce(M, OrderSelection.tolerance(1e-2))
        assert R.r <= 2 * Ru.r


class TestSummedAugmentedGramian:
    """abt_reduce factors P_B + gamma^2 P_X0 as R^T R, R from one QR of the
    two maps' stacked factors; the direct solve on conftest's
    augmented_system, with gamma from its definition, is the oracle."""

    def _check(self, M, X0, sel=OrderSelection.tolerance(1e-2), scaling=True):
        Maug, gamma = augmented_system(M, X0, scaling)
        want = hankel_spectrum(gramian_factors(Maug)).sigma
        R = abt_reduce(M, M.with_input(X0), sel, scaling)
        r = min(sel.resolve(want), reduction._numerical_rank(want))
        assert R.r == r and R.x0_scale == gamma
        assert np.allclose(R.hankel[:r], want[:r], rtol=1e-10, atol=0.0)
        return R

    @pytest.mark.parametrize("m,p,n0", [(1, 1, 1), (3, 2, 2), (2, 3, 4)])
    def test_random_mimo(self, rng, m, p, n0):
        for _ in range(5):
            M = random_system(rng, 12, m, p)
            X0 = rng.standard_normal((12, n0))
            for sel in (OrderSelection.tolerance(1e-3), OrderSelection.fixed(5)):
                self._check(M, X0, sel)

    def test_twelve_mass_chain(self):
        M = build_msd(12, m_inputs=3)
        R = self._check(M, unit_vector_basis(M.n, [24]).X0)
        assert R.r == 22

    def test_empty_basis(self, rng):
        self._check(random_system(rng, 10, 2, 2), np.zeros((10, 0)))

    def test_no_scaling(self, rng):
        M = random_system(rng, 10, 2, 1)
        R = self._check(M, 5.0 * rng.standard_normal((10, 2)), scaling=False)
        assert R.x0_scale == 1.0

    def test_no_input(self, rng):
        A = random_system(rng, 10).A
        M = StateSpaceModel(A, np.zeros((10, 0)), rng.standard_normal((2, 10)))
        self._check(M, rng.standard_normal((10, 2)))

    def test_semidefinite_gramian(self, rng):
        # the second block is reached by neither B nor X0, so P_aug is
        # singular: no Cholesky factor exists, but the QR's R still has
        # R^T R = P_aug, and the order is clamped to the numerical rank
        A = np.zeros((10, 10))
        A[:6, :6], A[6:, 6:] = random_system(rng, 6).A, random_system(rng, 4).A
        B, X0 = np.zeros((10, 2)), np.zeros((10, 1))
        B[:6], X0[:6] = rng.standard_normal((6, 2)), rng.standard_normal((6, 1))
        M = StateSpaceModel(A, B, rng.standard_normal((1, 10)))
        Ub, Ux = M.reach_factor, M.with_input(X0).reach_factor
        gamma = augmented_system(M, X0)[1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(Ub @ Ub.T + gamma**2 * Ux @ Ux.T)
        assert self._check(M, X0, OrderSelection.fixed(8)).r == 6

    def test_input_map_factor_dropped(self, rng):
        M = random_system(rng, 8, 2, 1)
        Mu, aux = M.with_input(M.B), M.with_input(rng.standard_normal((8, 1)))
        bt_reduce(Mu, OrderSelection.fixed(3))
        assert "reach_factor" in vars(Mu)
        abt_reduce(Mu, aux, OrderSelection.fixed(3))
        assert "reach_factor" not in vars(Mu) and "reach_factor" in vars(aux)

    def test_x0_map_must_share_a_and_c(self, rng):
        M = random_system(rng, 6, 1, 1)
        other = StateSpaceModel(2.0 * M.A, np.ones((6, 1)), M.C)
        with pytest.raises(InvalidParameter, match="share"):
            abt_reduce(M, other, OrderSelection.fixed(2))


class TestBalancingSigns:
    """A balanced realization with distinct Hankel values is unique up to
    the signs of its states; ``_balancing_transform`` fixes them from the
    system, so any square-root factor of the Gramian gives the same one."""

    @staticmethod
    def _assert_same(R1, R2):
        for name in ("A", "B", "C"):
            np.testing.assert_allclose(getattr(R1, name), getattr(R2, name),
                                       rtol=0.0, atol=1e-10)

    def test_rotated_factor_gives_the_same_bt(self, rng):
        M = random_system(rng, 8, 2, 2, margin=0.5)
        F = gramian_factors(M)
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        sel = OrderSelection.fixed(4)
        self._assert_same(reduction._truncate(M, F, sel)[2],
                          reduction._truncate(M, GramianFactors(F.U @ Q, F.L), sel)[2])

    def test_rotated_stacked_factor_gives_the_same_augmented_bt(self, rng):
        # [U_B, gamma U_X0] and the QR factor abt_reduce takes from it are
        # both factors of P_aug
        M = random_system(rng, 8, 2, 2, margin=0.5)
        aux = M.with_input(rng.standard_normal((8, 1)))
        gamma = reduction._x0_scale(M.B, aux.B, True)
        U = np.hstack([M.reach_factor, gamma * aux.reach_factor])
        Q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        sel = OrderSelection.fixed(4)
        want = reduction._truncate(M, GramianFactors(U @ Q, M.obs_factor), sel)[2]
        self._assert_same(abt_reduce(M, aux, sel).sys, want)

    def test_no_states(self):
        # n = 0: no column to sign, and an order-0 model comes back
        M = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)))
        assert bt_reduce(M, OrderSelection.fixed(0)).r == 0
        assert abt_reduce(M, M.with_input(np.zeros((0, 1))),
                          OrderSelection.tolerance(1e-2)).r == 0

    def test_x0_map_signs_do_not_depend_on_blas_threads(self, tmp_path):
        # case1's x0 map (x0 at the far end of the 150-mass chain) flipped 44
        # of its 86 state signs between 1 and 2 threads under LAPACK's signs
        script = tmp_path / "signs.py"
        script.write_text(
            "import json\n"
            "from icmor import OrderSelection, bt_reduce, build_msd, unit_vector_basis\n"
            "M = build_msd(150, m_inputs=10)\n"
            "aux = M.with_input(unit_vector_basis(M.n, [300]).X0)\n"
            "print(json.dumps(bt_reduce(aux, OrderSelection.tolerance(1e-2)).sys.C.tolist()))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(icmor.__file__)))
        C = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, str(script)], env=env, check=True,
                                 capture_output=True, text=True).stdout
            C.append(np.array(json.loads(out)))
        assert C[0].shape == C[1].shape == (1, 86)
        assert np.array_equal(np.sign(C[0]), np.sign(C[1]))


class TestIrkaReduce:
    def test_scalar_exact_recovery(self):
        M = StateSpaceModel([[-3.0]], [[2.0]], [[5.0]])
        R = irka_reduce(M, 1)
        assert R.converged
        assert h2_error_norm(M, R.sys) <= 1e-8 * h2_norm(M)

    def test_r1_matches_brute_force(self):
        M = StateSpaceModel(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                            np.array([[1.0, 1.0]]))
        R = irka_reduce(M, 1)

        def objective(params):
            a, b, c = params
            if a >= -1e-9:
                return 1e9
            return h2_error_norm(M, StateSpaceModel([[a]], [[b]], [[c]]))

        best = min(
            (minimize(objective, [a0, 1.0, 1.0], method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-14})
             for a0 in (-0.5, -1.2, -2.5)),
            key=lambda res: res.fun,
        )
        assert h2_error_norm(M, R.sys) == pytest.approx(best.fun, rel=1e-4)

    def test_hermite_residuals_at_convergence(self, rng):
        for _ in range(3):
            M = random_system(rng, 7, 2, 2, margin=0.5)
            R = irka_reduce(M, 2)
            if R.converged:
                assert R.interp_residuals["value"] <= 1e-6
                assert R.interp_residuals["derivative"] <= 1e-6

    def test_order_validation(self, rng):
        M = random_system(rng, 4, 1, 1)
        with pytest.raises(InvalidParameter):
            irka_reduce(M, 0)
        with pytest.raises(InvalidParameter):
            irka_reduce(M, 5)

    def test_warm_start_order_mismatch(self, rng):
        M = random_system(rng, 6, 1, 1)
        warm = bt_reduce(M, OrderSelection.fixed(2))
        with pytest.raises(InvalidParameter):
            irka_reduce(M, 3, warm_start=warm)

    def test_warm_start_not_worse_than_bt(self, rng):
        for _ in range(3):
            M = random_system(rng, 8, 1, 1, margin=0.5)
            warm = bt_reduce(M, OrderSelection.fixed(3))
            R = irka_reduce(M, 3, warm_start=warm)
            assert h2_error_norm(M, R.sys) <= h2_error_norm(M, warm.sys) * (1 + 1e-8)

    def test_ill_conditioned_basis_ends_the_iteration(self, monkeypatch):
        # the x0 map of the order-300 chain, x0 at its far end: from the
        # third iterate on, the r = 86 tangential solve columns have
        # numerical rank below 86
        M = build_msd(150, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [300]).X0)
        warm = bt_reduce(aux, OrderSelection.fixed(86))
        scores = []

        def counted(*args):
            scores.append(projected_h2_error(*args))
            return scores[-1]

        monkeypatch.setattr(reduction, "projected_h2_error", counted)
        with pytest.warns(MaxItersExceeded, match=r"ill-conditioned basis "
                          r"\(numerical rank \d+ < r = 86\) at iteration 3"):
            R = irka_reduce(aux, 86, max_iters=8, warm_start=warm)
        assert len(scores) == 2
        assert not R.converged
        assert R.h2_error == min(scores)
        assert h2_error_norm(aux, R.sys) <= h2_error_norm(aux, warm.sys)

    @staticmethod
    def case2_x0_map(monkeypatch):
        """The x0 map of the order-300 chain, x0 at state index 30, its BT
        warm start at r = 20, and the list of IRKA's scored H2 errors."""
        M = build_msd(150, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [30]).X0)
        warm = bt_reduce(aux, OrderSelection.fixed(20))
        errors = []

        def scored(*args):
            errors.append(projected_h2_error(*args))
            return errors[-1]

        monkeypatch.setattr(reduction, "projected_h2_error", scored)
        return aux, warm, errors

    def test_stall_ends_a_warm_started_start(self, monkeypatch):
        # iterates 1 and 2 each beat the best so far, 3 to 5 do not
        aux, warm, errors = self.case2_x0_map(monkeypatch)
        with pytest.warns(MaxItersExceeded, match=r"no gain in 3 scorings at iteration 5"):
            R = irka_reduce(aux, 20, warm_start=warm)
        best = int(np.argmin(errors)) + 1
        assert best == 2 and len(errors) == best + 3
        assert R.h2_error == min(errors)
        assert h2_error_norm(aux, R.sys) == pytest.approx(R.h2_error, rel=1e-9)
        assert min(errors) < projected_h2_error(aux, warm.V, warm.sys)

    def test_unstable_candidate_solve_is_not_scored(self, monkeypatch):
        # the first candidate's order-r solve, for Q22, fails: that iterate
        # goes unscored and the run goes on to the same stall and iterate
        aux, warm, errors = self.case2_x0_map(monkeypatch)
        solves, original = [], gramians.solve_sylvester

        def solve(A, M, *args, **kwargs):
            solves.append((len(A), len(M)))
            if solves == [(300, 20), (20, 20)]:
                raise NotStable("injected")
            return original(A, M, *args, **kwargs)

        monkeypatch.setattr(gramians, "solve_sylvester", solve)
        with pytest.warns(MaxItersExceeded, match=r"no gain in 3 scorings at iteration 5"):
            R = irka_reduce(aux, 20, warm_start=warm)
        assert solves == [(300, 20), (20, 20)] * 5 and len(errors) == 4
        assert R.h2_error == min(errors)
        assert h2_error_norm(aux, R.sys) == pytest.approx(R.h2_error, rel=1e-9)

    def test_full_order_returns_at_once(self):
        # the x0 map of the 6-mass chain with six inputs: BT keeps r = n = 12
        M = build_msd(6, m_inputs=6)
        aux = M.with_input(unit_vector_basis(M.n, [12]).X0)
        warm = bt_reduce(aux, OrderSelection.tolerance(1e-2))
        assert warm.r == aux.n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = irka_reduce(aux, warm.r, warm_start=warm)
        assert R.converged
        assert R.sys is aux and R.h2_error == 0.0
        assert h2_error_norm(aux, R.sys) <= 1e-7 * h2_norm(aux)

    @pytest.mark.parametrize("warm", [True, False])
    def test_non_finite_basis_ends_the_start(self, rng, monkeypatch, warm):
        M = random_system(rng, 8, 1, 1, margin=0.5)
        warm_start = bt_reduce(M, OrderSelection.fixed(3)) if warm else None
        monkeypatch.setattr(reduction, "shifted_solve",
                            lambda T, shifts, K, transpose=False: np.full(K.shape, np.nan))
        stop = "non-finite basis at iteration 1"
        if warm:
            with pytest.warns(MaxItersExceeded, match=f"{stop}.*falling back"):
                R = irka_reduce(M, 3, warm_start=warm_start)
            assert R.interp_residuals["fallback"] and R.sys is warm_start.sys
        else:
            with pytest.raises(UnstableReduction, match=stop):
                irka_reduce(M, 3)

    def test_non_finite_reduced_matrix_falls_back(self, rng, monkeypatch):
        M = random_system(rng, 8, 1, 1, margin=0.5)
        warm = bt_reduce(M, OrderSelection.fixed(3))
        monkeypatch.setattr(reduction.np.linalg, "pinv",
                            lambda E, rtol: np.full(E.shape, np.nan))
        with pytest.warns(MaxItersExceeded, match="non-finite reduced matrix at "
                                                  "iteration 1.*falling back"):
            R = irka_reduce(M, 3, warm_start=warm)
        assert R.interp_residuals["fallback"] and R.sys is warm.sys

    def test_kernels_of_a_warm_started_run(self, monkeypatch, schur_calls):
        # the x0 map of the 12-mass config: IRKA solves on the real Schur
        # form the warm start computed and orthonormalizes with numpy, so
        # no complex Schur form, no scipy SVD and no Schur form of order n
        M = build_msd(12, m_inputs=3)
        aux = M.with_input(unit_vector_basis(M.n, [24]).X0)
        warm = bt_reduce(aux, OrderSelection.tolerance(1e-2))
        assert 0 < warm.r < aux.n
        del schur_calls[:]

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy kernel called")

        for name in ("svd", "orth", "rsf2csf"):
            monkeypatch.setattr(sla, name, forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MaxItersExceeded)
            R = irka_reduce(aux, warm.r, warm_start=warm)
        assert not R.interp_residuals["fallback"]
        assert schur_calls.complex == []
        assert schur_calls and set(schur_calls) == {warm.r}

    @pytest.mark.parametrize("stop", ["iterate", "full-order", "fallback", "order-0"])
    def test_residual_keys_at_every_exit(self, monkeypatch, stop):
        # value and derivative are None where nothing was interpolated
        M = build_msd(12, m_inputs=3) if stop == "iterate" else build_msd(6, m_inputs=6)
        aux = M.with_input(unit_vector_basis(M.n, [M.n]).X0)
        warm = bt_reduce(aux, OrderSelection.fixed(3) if stop == "fallback"
                         else OrderSelection.tolerance(1e-2))
        if stop == "fallback":
            monkeypatch.setattr(reduction, "shifted_solve",
                                lambda T, shifts, K, transpose=False: np.full(K.shape, np.nan))
        if stop == "order-0":
            # no x0: IRKA has nothing to interpolate, so bt-irka's x0 map is bt-bt's
            R, bt = (split_reduce(M, InitialConditionBasis(np.zeros((M.n, 0))),
                                  OrderSelection.tolerance(1e-2), OrderSelection.tolerance(1e-2),
                                  x0_method=x0_method).sxy for x0_method in ("irka", "bt"))
            assert (R.method, R.interp_residuals) == ("bt", {})
            assert (R.r, R.h2_error) == (bt.r, bt.h2_error) == (0, 0.0)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MaxItersExceeded)
            R = irka_reduce(aux, warm.r, warm_start=warm)
        res = R.interp_residuals
        assert R.method == "irka" and (R.r == aux.n) == (stop == "full-order")
        assert set(res) == {"value", "derivative", "pole_reflection", "fallback"}
        nothing = stop == "fallback"
        assert (res["value"] is None, res["derivative"] is None) == (nothing, nothing)
        assert res["fallback"] == (stop == "fallback") and res["pole_reflection"] in (True, False)

    def test_collapse_without_warm_start_raises(self):
        # B reaches only a 2-dimensional subspace, so no order-3 basis exists
        M = StateSpaceModel(np.diag([-1.0, -2.0, -3.0, -4.0]),
                            [[1.0], [1.0], [0.0], [0.0]], np.ones((1, 4)))
        with pytest.raises(UnstableReduction, match="rank 2 < r = 3"):
            irka_reduce(M, 3)


class TestTangentialBasis:
    """``_tangential_basis`` keeps ``scipy.linalg.orth``'s rank rule and
    span, against ``orth`` of the columns from one dense solve per shift."""

    SHIFTS = np.array([0.5, 2.0, 1.0 + 3.0j, 1.0 - 3.0j, 0.2 + 0.7j, 0.2 - 0.7j])

    @pytest.mark.parametrize("case, rank", [("full", 6), ("duplicated", 6), ("tiny", 5)])
    def test_rank_and_span_match_scipy_orth(self, case, rank):
        rng = np.random.default_rng(3)
        M = random_system(rng, 30, 2, 1)
        shifts = self.SHIFTS.copy()
        dirs = rng.standard_normal((2, 6)) + 0j
        dirs[:, 3], dirs[:, 5] = dirs[:, 2].conj(), dirs[:, 4].conj()
        if case == "duplicated":
            shifts, dirs = np.append(shifts, 2.0), np.column_stack([dirs, dirs[:, 1]])
        elif case == "tiny":
            dirs[:, 0] *= 1e-17
        cols = []
        for k, s in enumerate(shifts):
            if s.imag < 0:
                continue
            x = np.linalg.solve(s * np.eye(M.n) - M.A, M.B @ dirs[:, k])
            cols += [x.real, x.imag] if s.imag else [x.real]
        ref = sla.orth(np.column_stack(cols))
        keep, s = reduction._one_per_pair(shifts)
        V, _ = reduction._tangential_basis(M.real_schur, M.B, s, dirs[:, keep], len(shifts))
        assert V.shape == ref.shape == (M.n, rank)
        assert np.max(sla.subspace_angles(V, ref)) < 1e-12
        assert np.allclose(V.T @ V, np.eye(rank), rtol=0.0, atol=1e-14)


class TestTangentialResiduals:
    """The Hermite derivative off the two basis solves, against a second
    shifted solve, and the two batched reduced-order solves, against one
    pair of solves per shift."""

    @staticmethod
    def _samples(M, warm):
        # a warm-started iterate's kept shifts, directions and basis solves
        shifts, bdirs, cdirs = reduction._pole_data(warm.sys.A, warm.sys.B, warm.sys.C)[2]
        keep, s = reduction._one_per_pair(shifts)
        bk, ck = bdirs[:, keep], cdirs[:, keep]
        _, Yv = reduction._tangential_basis(M.real_schur, M.B, s, bk, warm.r)
        _, Yw = reduction._tangential_basis(M.real_schur, M.C.T, s, ck, warm.r, transpose=True)
        return s, Yv, Yw, bk, ck

    @pytest.mark.parametrize("x0_index", [300, 30])
    def test_derivative_matches_the_second_solve(self, x0_index):
        # the x0 maps of case1 and case2 at their warm-start shifts
        M = build_msd(150, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [x0_index]).X0)
        s, Yv, Yw, bk, ck = self._samples(aux, bt_reduce(aux, OrderSelection.tolerance(1e-2)))
        _, Hd = reduction._full_samples(aux, s, Yv, Yw)
        ref = second_solve_derivative(aux, s, Yv, ck)
        # -w^T v sums n products, whose rounding is a few eps times the sum
        # of their magnitudes: up to 4e4 |w^T v| on case1's map, so the two
        # agree to 1e-12 relative only where the sum does not cancel
        wv = np.abs(linalg._complex_columns(Yw, s) * linalg._complex_columns(Yv, s))
        floor = 16 * np.finfo(float).eps * np.sum(wv, axis=0)
        assert np.all(np.abs(Hd - ref) <= 1e-12 * np.abs(ref) + floor)

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    def test_batched_solves_match_a_per_shift_loop(self, rng, m, p):
        M = random_system(rng, 14, m, p, margin=0.5)
        warm = bt_reduce(M, OrderSelection.fixed(5))
        s, Yv, Yw, bk, ck = self._samples(M, warm)
        got = reduction.tangential_residuals(M, warm.sys, s, Yv, Yw, bk, ck)
        want = per_shift_residuals(*reduction._full_samples(M, s, Yv, Yw), warm.sys, s, bk, ck)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestSplitReduce:
    def test_x0_equal_b_matches_input_branch(self, rng):
        M = random_system(rng, 6, 2, 1)
        basis = InitialConditionBasis(M.B.copy())
        S = split_reduce(M, basis, OrderSelection.fixed(3),
                         OrderSelection.fixed(3), x0_method="bt")
        assert np.allclose(S.suy.sys.A, S.sxy.sys.A, atol=1e-10)
        assert np.allclose(S.suy.sys.B, S.sxy.sys.B, atol=1e-10)
        assert np.allclose(S.suy.sys.C, S.sxy.sys.C, atol=1e-10)

    def test_unobservable_x0_gives_order_zero(self):
        # x0 direction in an unobservable mode: C e^{At} X0 is identically 0
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [1.0]])
        C = np.array([[1.0, 0.0]])
        M = StateSpaceModel(A, B, C)
        basis = InitialConditionBasis(np.array([[0.0], [1.0]]))
        S = split_reduce(M, basis, OrderSelection.fixed(1),
                         OrderSelection.tolerance(1e-2), x0_method="bt")
        assert S.sxy.r == 0

    def test_case1_order_gap(self, msd_small):
        M, _ = msd_small
        basis = unit_vector_basis(M.n, [M.n])
        S = split_reduce(M, basis, OrderSelection.tolerance(1e-2),
                         OrderSelection.tolerance(1e-2), x0_method="bt")
        assert S.sxy.r / S.suy.r > 2

    def test_basis_scaling_invariance(self, rng):
        # uniform column rescaling compensated by 1/scale on z0 leaves the
        # reconstructed initial-condition response unchanged
        M = random_system(rng, 6, 1, 1, margin=0.5)
        X0 = rng.standard_normal((6, 2))
        t_f, dt = 30.0, 0.01
        outputs = []
        for scale in (1.0, 4.0):
            basis = InitialConditionBasis(X0 * scale)
            S = split_reduce(M, basis, OrderSelection.fixed(3),
                             OrderSelection.fixed(3), x0_method="bt")
            z0 = np.array([1.0, -1.0]) / scale
            jump = S.sxy.sys.B @ z0
            tr = simulate(S.sxy.sys, None, jump, t_f, dt)
            outputs.append(tr.y)
        ref = l2_norm(SimulationTrace(t=np.arange(0, t_f + dt / 2, dt),
                                      y=outputs[0]))
        diff = np.linalg.norm(outputs[0] - outputs[1]) * np.sqrt(dt)
        assert diff <= 1e-10 * max(ref, 1e-300)

    def test_unknown_method_rejected(self, rng):
        M = random_system(rng, 4, 1, 1)
        basis = InitialConditionBasis(rng.standard_normal((4, 1)))
        with pytest.raises(InvalidParameter):
            split_reduce(M, basis, OrderSelection.fixed(2),
                         OrderSelection.fixed(2), x0_method="hankel")

    def test_irka_branch_uses_theta_tolerance(self, msd_tiny):
        M = msd_tiny
        basis = unit_vector_basis(M.n, [M.n])
        aux = StateSpaceModel(M.A, basis.X0, M.C)
        theta = hankel_spectrum(gramian_factors(aux)).sigma
        expected = order_from_tolerance(theta, 1e-2)
        S = split_reduce(M, basis, OrderSelection.tolerance(1e-2),
                         OrderSelection.tolerance(1e-2), x0_method="irka")
        assert S.sxy.r == expected
        assert S.sxy.method == "irka"


@pytest.fixture(scope="module")
def msd_small():
    M = build_msd(60, m_inputs=4)
    return M, hankel_spectrum(gramian_factors(M)).sigma


@pytest.fixture(scope="module")
def msd_tiny():
    return build_msd(10, m_inputs=2)
