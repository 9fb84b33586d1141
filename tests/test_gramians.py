"""Gramian factors, Hankel spectra, balancing, and H2 norms."""

import warnings

import numpy as np
import pytest

from icmor import (
    StateSpaceModel,
    balance_realization,
    build_msd,
    gramian_factors,
    h2_error_norm,
    h2_norm,
    hankel_spectrum,
)
from icmor.errors import IllConditionedBalancing

from conftest import h2_quadrature, kron_lyapunov, random_system


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
    def test_scalar_identity_up_to_sign(self):
        bal = balance_realization(scalar_system(1.0, np.sqrt(2.0), np.sqrt(2.0)))
        assert abs(abs(bal.Tbal[0, 0]) - 1.0) < 1e-10

    def test_gramians_become_diagonal(self):
        M = StateSpaceModel(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                            np.array([[1.0, 1.0]]))
        bal = balance_realization(M)
        Mb = StateSpaceModel(bal.Ab, bal.Bb, bal.Cb)
        F = gramian_factors(Mb)
        P = F.U @ F.U.T
        Q = F.L @ F.L.T
        assert np.allclose(P, np.diag(bal.Theta), atol=1e-8)
        assert np.allclose(Q, np.diag(bal.Theta), atol=1e-8)

    def test_nonminimal_deflated(self):
        # second state unreachable and unobservable: minimal order is 2
        A = np.diag([-1.0, -3.0, -2.0])
        B = np.array([[1.0], [0.0], [1.0]])
        C = np.array([[1.0, 0.0, 1.0]])
        bal = balance_realization(StateSpaceModel(A, B, C))
        assert bal.Ab.shape == (2, 2)
        assert len(bal.Theta) == 2

    def test_off_diagonal_mass_small(self, rng):
        M = random_system(rng, 8, 2, 2)
        bal = balance_realization(M)
        F = gramian_factors(StateSpaceModel(bal.Ab, bal.Bb, bal.Cb))
        for G in (F.U @ F.U.T, F.L @ F.L.T):
            off = G - np.diag(np.diag(G))
            assert np.linalg.norm(off) <= 1e-7 * np.linalg.norm(np.diag(G))

    def test_balanced_spectrum_matches_theta(self, rng):
        M = random_system(rng, 6, 1, 1)
        bal = balance_realization(M)
        sig = hankel_spectrum(gramian_factors(M)).sigma
        assert np.allclose(bal.Theta, sig[: len(bal.Theta)], rtol=1e-8)

    def test_ill_conditioning_warns(self):
        # widely separated Hankel values force a badly conditioned transform
        n = 10
        A = -np.eye(n) - np.diag(np.ones(n - 1), 1)
        B = np.logspace(0, -12, n).reshape(n, 1)
        C = np.logspace(-12, 0, n).reshape(1, n)
        with warnings.catch_warnings(record=True) as wl:
            warnings.simplefilter("always")
            balance_realization(StateSpaceModel(A, B, C))
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

    def test_error_norm_identical_models(self, rng):
        M = random_system(rng, 5, 1, 1)
        # the error trace cancels exactly, so the computed value sits at the
        # square root of the cancellation noise
        assert h2_error_norm(M, M) <= 1e-7 * h2_norm(M)

    def test_error_norm_zero_output_reduction(self, rng):
        M = random_system(rng, 4, 1, 1)
        R = StateSpaceModel([[-1.0]], [[0.0]], [[0.0]])
        assert h2_error_norm(M, R) == pytest.approx(h2_norm(M), rel=1e-10)

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
