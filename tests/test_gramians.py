"""Gramian factors, Hankel spectra, balancing, and H2 norms."""

import gc
import weakref

import numpy as np
import pytest

from icmor import (
    OrderSelection,
    StateSpaceModel,
    bt_reduce,
    build_msd,
    gramian_factors,
    hankel_spectrum,
    irka_reduce,
)
from icmor import linalg, reduction
from icmor.gramians import projected_h2_error
from icmor.model import unit_vector_basis

from conftest import (
    augmented_system, clipped_sqrt_factor, dense_h2_error, formed_lyapunov, h2_error_norm,
    h2_norm, h2_quadrature, h2_squared, kron_lyapunov, random_system,
)


def error_quadrature(M, R, **kwargs):
    """``h2_quadrature`` of the block-diagonal error system: the impulse
    responses of ``M`` and ``R`` are subtracted sample by sample."""
    n, r = M.n, R.n
    Ae = np.block([[M.A, np.zeros((n, r))], [np.zeros((r, n)), R.A]])
    return h2_quadrature(Ae, np.vstack([M.B, R.B]), np.hstack([M.C, -R.C]), **kwargs)


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


class TestFactorsAtTheirRank:
    """``solve_lyapunov`` takes the factor of its right-hand side, and each
    Gramian factor keeps only the columns of its positive eigenvalues.  On
    the chains with x0 at the far end, where X0 and C are unit vectors, each
    entry of ``U^T F F^T U`` is one exact product: P_X0 and Q are, bit for
    bit, those of the formed right-hand side, and the factors are the leading
    columns of the clipped ``eigh`` factor, whose other columns are 0."""

    @pytest.fixture(scope="class", params=[150, 300], ids=["n300", "n600"])
    def chain(self, request):
        M = build_msd(request.param, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [M.n]).X0)
        schur_t = linalg._real_schur(M.A.T)
        # (factor, its Gramian by the factored solve, by the formed one)
        return M.n, {
            "P_X0": (aux.reach_factor, linalg.solve_lyapunov(M.A, aux.B, M.real_schur),
                     formed_lyapunov(M.A, aux.B @ aux.B.T, M.real_schur)),
            "Q": (M.obs_factor, linalg.solve_lyapunov(M.A.T, M.C.T, schur_t),
                  formed_lyapunov(M.A.T, M.C.T @ M.C, schur_t)),
        }

    @pytest.mark.parametrize("name", ["P_X0", "Q"])
    def test_gramian_bit_for_bit_the_formed_one(self, chain, name):
        _, gramians = chain
        _, P, formed = gramians[name]
        assert np.array_equal(P, formed)

    @pytest.mark.parametrize("name", ["P_X0", "Q"])
    def test_factor_is_the_positive_columns_of_the_clipped_one(self, chain, name):
        n, gramians = chain
        factor, _, formed = gramians[name]
        k = np.count_nonzero(np.linalg.eigh(formed)[0] > 0)
        want = clipped_sqrt_factor(formed)
        assert factor.shape == (n, k) and k < n
        assert np.array_equal(factor, want[:, :k])
        assert np.all(want[:, k:] == 0.0)

    def test_hankel_values_padded_with_zeros(self, chain):
        n, gramians = chain
        U, L = gramians["P_X0"][0], gramians["Q"][0]
        sigma = hankel_spectrum(reduction.GramianFactors(U, L)).sigma
        k = min(U.shape[1], L.shape[1])
        assert sigma.shape == (n,) and np.all(sigma[k:] == 0.0)
        assert np.all(np.diff(sigma) <= 0.0)


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
        # the one form of self.M.A was computed when self.M was built
        Maug, _ = augmented_system(self.M, self.X0)
        systems = (self.M, self.M.with_input(self.X0), Maug)
        factors = [S.reach_factor for S in systems]
        assert schur_calls == []
        for k, (S, U) in enumerate(zip(systems, factors), start=1):
            fresh = StateSpaceModel(S.A.copy(), S.B.copy(), S.C.copy())
            assert schur_calls == [24] * k
            assert np.array_equal(U, fresh.reach_factor)
        assert schur_calls == [24] * 3

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


class TestProjectedH2Error:
    def test_reads_the_schur_forms_of_both_models(self, monkeypatch):
        # the forms of A and of A_r come with their models, and Q12 and Q22
        # are solved on them: a scoring computes no Schur form
        M = build_msd(12, m_inputs=3)
        V, _, Mr, _ = reduction._truncate(M, gramian_factors(M), OrderSelection.fixed(8))
        formed, original = [], linalg._real_schur
        monkeypatch.setattr(linalg, "_real_schur",
                            lambda a: formed.append(np.array(a)) or original(a))
        err = projected_h2_error(M, V, Mr)
        assert formed == []
        assert err == pytest.approx(dense_h2_error(M, Mr), rel=1e-9)


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


class TestH2Norms:
    """The subtraction oracles of ``conftest``: ``h2_norm`` and
    ``h2_error_norm``, against closed forms, quadrature, the dense block
    solve and the observability side."""

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
    def observability_side(M):
        # ||H||^2 = tr(B^T Q B) = ||L^T B||_F^2, from the other Gramian
        LB = M.obs_factor.T @ M.B
        return np.sum(LB * LB)

    def test_h2_squared_matches_the_complex_form(self, rng):
        for _ in range(10):
            M = random_system(rng, 12, 3, 2)
            assert h2_squared(M) == pytest.approx(self.observability_side(M), rel=1e-12)

    def test_h2_squared_case2_aux_matches_the_complex_form(self):
        M = build_msd(150, m_inputs=10)
        aux = M.with_input(unit_vector_basis(M.n, [30]).X0)
        assert h2_squared(aux) == pytest.approx(self.observability_side(aux), rel=1e-12)

    def test_error_norm_identical_models(self, rng):
        M = random_system(rng, 5, 1, 1)
        # the error trace cancels exactly, so the computed value sits at the
        # square root of the cancellation noise
        assert h2_error_norm(M, M) <= 1e-7 * h2_norm(M)

    def test_error_norm_zero_output_reduction(self, rng):
        M = random_system(rng, 4, 1, 1)
        R = StateSpaceModel([[-1.0]], [[0.0]], [[0.0]])
        assert h2_error_norm(M, R) == pytest.approx(h2_norm(M), rel=1e-10)

    @pytest.mark.parametrize("case", ["r=0", "m=0", "p=0"])
    def test_error_norm_degenerate_dimensions(self, rng, case):
        # an order-0 reduced model leaves all of H; no input or no output
        # leaves no error
        M = random_system(rng, 6, 2, 3)
        R = bt_reduce(M, OrderSelection.fixed(3)).sys
        Ms, Rs = {
            "r=0": (M, StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)))),
            "m=0": (M.with_input(np.zeros((6, 0))), StateSpaceModel(R.A, np.zeros((3, 0)), R.C)),
            "p=0": (StateSpaceModel(M.A, M.B, np.zeros((0, 6))),
                    StateSpaceModel(R.A, R.B, np.zeros((0, 3)))),
        }[case]
        assert h2_error_norm(Ms, Rs) == (h2_norm(M) if case == "r=0" else 0.0)

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
        M = random_system(rng, 6, 1, 1, margin=0.5)
        R = bt_reduce(M, OrderSelection.fixed(2))
        err = h2_error_norm(M, R.sys)
        assert err == pytest.approx(error_quadrature(M, R.sys), rel=1e-6)

    def test_reduced_error_against_quadrature_below_the_cancellation_floor(self):
        # real poles over a decade: the Hankel values fall fast, and at r = 8
        # the error of BT is 3.1e-10 ||H||, where the subtraction in
        # h2_error_norm reads 6.6e-8 ||H||
        rng = np.random.default_rng(0)
        n = 10
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(-np.logspace(np.log10(0.5), np.log10(5.0), n)) @ Q.T
        M = StateSpaceModel(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)))
        bt = bt_reduce(M, OrderSelection.fixed(8))
        irka = irka_reduce(M, 8, warm_start=bt)
        assert irka.converged
        for R, h2_error in ((bt, projected_h2_error(M, bt.V, bt.sys)), (irka, irka.h2_error)):
            assert h2_error <= 1e-8 * h2_norm(M)
            # trapezoidal sums of the squared error at steps h and 2h,
            # Richardson-extrapolated to O(h^4); h2_error agrees to 2e-7
            fine, coarse = (error_quadrature(M, R.sys, t_f=40.0, samples=N) ** 2
                            for N in (32001, 16001))
            oracle = np.sqrt((4.0 * fine - coarse) / 3.0)
            assert h2_error == pytest.approx(oracle, rel=1e-5)
