"""Gramian factors, Hankel spectra, balancing, and H2 norms."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from icmor import (
    OrderSelection,
    StateSpaceModel,
    aca_bound,
    bt_reduce,
    build_msd,
    gramian_factors,
    h2_error_norm,
    h2_norm,
    hankel_spectrum,
)
from icmor import model
from icmor.errors import IllConditionedBalancing
from icmor.linalg import ComplexSchur, _sqrt_factor
from icmor.model import unit_vector_basis
from icmor.reduction import augmented_system

from conftest import dense_h2_error, h2_quadrature, kron_lyapunov, random_system


def scalar_system(a, b, c):
    return StateSpaceModel([[-a]], [[b]], [[c]])


class TestGramianFactors:
    def test_scalar(self):
        F = gramian_factors(scalar_system(1.0, 2.0, 3.0))
        assert F.U @ F.U.T == pytest.approx(np.array([[2.0]]))
        assert F.L @ F.L.T == pytest.approx(np.array([[4.5]]))

    def test_identity_system(self):
        F = gramian_factors(StateSpaceModel(-np.eye(2), np.eye(2), np.eye(2)))
        assert np.allclose(F.U @ F.U.T, 0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(F.L @ F.L.T, 0.5 * np.eye(2), atol=1e-12)

    def test_msd_against_kronecker(self):
        M = build_msd(10, m_inputs=2)
        F = gramian_factors(M)
        P = F.U @ F.U.T
        Q = F.L @ F.L.T
        assert np.allclose(P, kron_lyapunov(M.A, M.B @ M.B.T), atol=1e-9)
        assert np.allclose(Q, kron_lyapunov(M.A.T, M.C.T @ M.C), atol=1e-9)

    def test_residuals(self, rng):
        M = random_system(rng, 12, 3, 2)
        F = gramian_factors(M)
        P = F.U @ F.U.T
        Q = F.L @ F.L.T
        rp = np.linalg.norm(M.A @ P + P @ M.A.T + M.B @ M.B.T)
        rq = np.linalg.norm(M.A.T @ Q + Q @ M.A + M.C.T @ M.C)
        assert rp <= 1e-9 * max(1.0, np.linalg.norm(M.B @ M.B.T))
        assert rq <= 1e-9 * max(1.0, np.linalg.norm(M.C.T @ M.C))


class TestSharedFactors:
    """Each Gramian is solved once: P per model, Q per ``A`` and ``C``,
    shared by the models ``with_input`` derives."""

    def setup_method(self):
        self.M = build_msd(12, m_inputs=3)
        self.X0 = unit_vector_basis(self.M.n, [24, 7]).X0

    def test_each_equation_solved_once(self, lyapunov_orders):
        aux = self.M.with_input(self.X0)
        for _ in range(2):
            F, Fa = gramian_factors(self.M), gramian_factors(aux)
        assert lyapunov_orders == [24] * 3
        assert Fa.L is F.L

    def test_shared_factor_matches_a_fresh_model(self):
        gramian_factors(self.M)
        Fa = gramian_factors(self.M.with_input(self.X0))
        fresh = StateSpaceModel(self.M.A.copy(), self.X0.copy(), self.M.C.copy())
        F = gramian_factors(fresh)
        assert np.array_equal(Fa.L, F.L) and np.array_equal(Fa.U, F.U)

    def test_reachability_factors_share_one_real_schur_form(self, schur_calls):
        Maug, _ = augmented_system(self.M, self.X0)
        systems = (self.M, self.M.with_input(self.X0), Maug)
        factors = [S.reach_factor for S in systems]
        assert schur_calls == [24]
        for S, U in zip(systems, factors):
            fresh = StateSpaceModel(S.A.copy(), S.B.copy(), S.C.copy())
            assert np.array_equal(U, fresh.reach_factor)
        assert schur_calls == [24] * 4

    def test_h2_squared_and_factor_from_one_solve_in_either_order(
            self, lyapunov_orders, monkeypatch):
        factored = []
        monkeypatch.setattr(model, "_sqrt_factor",
                            lambda P, name: factored.append(name) or _sqrt_factor(P, name))
        h2_first, factor_first = (StateSpaceModel(self.M.A, self.X0, self.M.C)
                                  for _ in range(2))
        h2 = h2_first.h2_squared
        # a model asked only for its H2 norm, as an IRKA candidate is, does
        # not factor P
        assert factored == [] and lyapunov_orders == [24]
        U = factor_first.reach_factor
        assert factor_first.h2_squared == h2
        assert np.array_equal(h2_first.reach_factor, U)
        assert factored == ["reachability"] * 2 and lyapunov_orders == [24, 24]

    def test_another_state_matrix_shares_nothing(self, lyapunov_orders):
        M2 = StateSpaceModel(2.0 * self.M.A, self.M.B, self.M.C)
        F, F2 = gramian_factors(self.M), gramian_factors(M2)
        assert len(lyapunov_orders) == 4
        assert not np.allclose(F.L, F2.L)

    def test_no_reference_cycle(self):
        gc.disable()
        try:
            aux = self.M.with_input(self.X0)
            gramian_factors(aux)
            ref = weakref.ref(aux)
            del aux
            assert ref() is None
        finally:
            gc.enable()


class TestHankelSpectrum:
    def test_scalar_formula(self):
        spec = hankel_spectrum(gramian_factors(scalar_system(1.0, 2.0, 3.0)))
        assert spec.sigma[0] == pytest.approx(3.0)

    def test_uncontrollable_trailing_zero(self):
        M = StateSpaceModel(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]),
                            np.array([[1.0, 1.0]]))
        spec = hankel_spectrum(gramian_factors(M))
        assert spec.sigma[-1] <= 1e-10

    def test_matches_pq_eigenvalues(self, rng):
        M = random_system(rng, 6, 2, 2)
        F = gramian_factors(M)
        spec = hankel_spectrum(F)
        P = F.U @ F.U.T
        Q = F.L @ F.L.T
        expected = np.sqrt(np.sort(np.linalg.eigvals(P @ Q).real)[::-1])
        assert np.allclose(spec.sigma, expected, rtol=1e-8, atol=1e-10)

    def test_orthogonal_factors(self, rng):
        spec = hankel_spectrum(gramian_factors(random_system(rng, 7, 2, 3)))
        assert np.allclose(spec.Z.T @ spec.Z, np.eye(7), atol=1e-10)
        assert np.allclose(spec.Y.T @ spec.Y, np.eye(7), atol=1e-10)

    def test_similarity_invariance(self, rng):
        M = random_system(rng, 6, 2, 1)
        sig = hankel_spectrum(gramian_factors(M)).sigma
        for _ in range(3):
            T = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
            if np.linalg.cond(T) > 1e3:
                continue
            Ti = np.linalg.inv(T)
            M2 = StateSpaceModel(Ti @ M.A @ T, Ti @ M.B, M.C @ T)
            sig2 = hankel_spectrum(gramian_factors(M2)).sigma
            assert np.allclose(sig, sig2, rtol=1e-8)


class TestBalanceRealization:
    # the balancing transform is the one bt_reduce projects with; at r = n
    # (or the numerical rank) its model is the balanced realization

    def test_scalar_identity_up_to_sign(self):
        M = scalar_system(1.0, np.sqrt(2.0), np.sqrt(2.0))
        Mb = bt_reduce(M, OrderSelection.fixed(M.n)).sys
        assert Mb.A[0, 0] == pytest.approx(-1.0, rel=1e-12)
        assert abs(abs(Mb.B[0, 0]) - np.sqrt(2.0)) < 1e-10
        assert Mb.B[0, 0] * Mb.C[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_gramians_become_diagonal(self):
        M = StateSpaceModel(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                            np.array([[1.0, 1.0]]))
        R = bt_reduce(M, OrderSelection.fixed(M.n))
        F = gramian_factors(R.sys)
        P = F.U @ F.U.T
        Q = F.L @ F.L.T
        assert np.allclose(P, np.diag(R.hankel), atol=1e-8)
        assert np.allclose(Q, np.diag(R.hankel), atol=1e-8)

    def test_nonminimal_deflated(self):
        # second state unreachable and unobservable: minimal order is 2
        A = np.diag([-1.0, -3.0, -2.0])
        B = np.array([[1.0], [0.0], [1.0]])
        C = np.array([[1.0, 0.0, 1.0]])
        R = bt_reduce(StateSpaceModel(A, B, C), OrderSelection.fixed(3))
        assert R.sys.A.shape == (2, 2)
        assert R.r == 2

    def test_off_diagonal_mass_small(self, rng):
        M = random_system(rng, 8, 2, 2)
        F = gramian_factors(bt_reduce(M, OrderSelection.fixed(M.n)).sys)
        for G in (F.U @ F.U.T, F.L @ F.L.T):
            off = G - np.diag(np.diag(G))
            assert np.linalg.norm(off) <= 1e-7 * np.linalg.norm(np.diag(G))

    def test_ill_conditioning_warns(self):
        # widely separated Hankel values force a badly conditioned transform
        n = 10
        A = -np.eye(n) - np.diag(np.ones(n - 1), 1)
        B = np.logspace(0, -12, n).reshape(n, 1)
        C = np.logspace(-12, 0, n).reshape(1, n)
        with warnings.catch_warnings(record=True) as wl:
            warnings.simplefilter("always")
            aca_bound(StateSpaceModel(A, B, C), 1)
        assert any(issubclass(w.category, IllConditionedBalancing) for w in wl)


class TestH2Norms:
    def test_scalar_formula(self):
        assert h2_norm(scalar_system(1.0, 2.0, 3.0)) == pytest.approx(np.sqrt(18.0))

    def test_zero_output(self):
        assert h2_norm(StateSpaceModel(-np.eye(3), np.ones((3, 1)),
                                       np.zeros((1, 3)))) == 0.0

    def test_against_quadrature(self, rng):
        M = random_system(rng, 5, 2, 2, margin=0.5)
        oracle = h2_quadrature(M.A, M.B, M.C)
        assert h2_norm(M) == pytest.approx(oracle, rel=1e-6)

    @staticmethod
    def complex_form(M):
        S = ComplexSchur(M.A)
        return S.gramian_trace(M.B, M.C, S, M.B, M.C)

    def test_h2_squared_matches_the_complex_form(self, rng):
        for _ in range(10):
            M = random_system(rng, 12, 3, 2)
            assert M.h2_squared == pytest.approx(self.complex_form(M), rel=1e-12)

    def test_h2_squared_case2_aux_matches_the_complex_form(self):
        M = build_msd(150, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [30]).X0)
        assert aux.h2_squared == pytest.approx(self.complex_form(aux), rel=1e-12)

    def test_error_norm_identical_models(self, rng):
        M = random_system(rng, 5, 1, 1)
        # the error trace cancels exactly, so the computed value sits at the
        # square root of the cancellation noise
        assert h2_error_norm(M, M) <= 1e-7 * h2_norm(M)

    def test_error_norm_zero_output_reduction(self, rng):
        M = random_system(rng, 4, 1, 1)
        R = StateSpaceModel([[-1.0]], [[0.0]], [[0.0]])
        assert h2_error_norm(M, R) == pytest.approx(h2_norm(M), rel=1e-10)

    def test_error_norm_against_dense_block_oracle(self, rng):
        for _ in range(10):
            M = random_system(rng, 10, 2, 2)
            R = bt_reduce(M, OrderSelection.fixed(3)).sys
            assert h2_error_norm(M, R) == pytest.approx(dense_h2_error(M, R), rel=1e-9)

    def test_error_norm_case2_aux_against_dense_block_oracle(self):
        # the initial-condition map of the paper's case 2 (n = 300, x0 at
        # state index 30) reduced to r = 20
        M = build_msd(150, m_inputs=10)
        aux = StateSpaceModel(M.A, unit_vector_basis(M.n, [30]).X0, M.C)
        R = bt_reduce(aux, OrderSelection.fixed(20)).sys
        assert h2_error_norm(aux, R) == pytest.approx(dense_h2_error(aux, R), rel=1e-9)

    def test_error_norm_against_quadrature(self, rng):
        from icmor import OrderSelection, bt_reduce

        M = random_system(rng, 6, 1, 1, margin=0.5)
        R = bt_reduce(M, OrderSelection.fixed(2))
        err = h2_error_norm(M, R.sys)
        # quadrature on the difference of impulse responses
        Ae = np.block([[M.A, np.zeros((6, R.r))],
                       [np.zeros((R.r, 6)), R.sys.A]])
        Be = np.vstack([M.B, R.sys.B])
        Ce = np.hstack([M.C, -R.sys.C])
        oracle = h2_quadrature(Ae, Be, Ce)
        assert err == pytest.approx(oracle, rel=1e-6)
