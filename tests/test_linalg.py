"""Matrix-equation solvers and the matrix exponential against dense
Kronecker and eigendecomposition oracles."""

import numpy as np
import pytest

from icmor import matrix_exponential, solve_lyapunov, solve_sylvester, stability_margin
from icmor.errors import DimensionMismatch, NonFinite, NotStable, SpectraOverlap

from conftest import kron_lyapunov, kron_sylvester, make_stable


class TestSolveLyapunov:
    def test_scalar(self):
        P = solve_lyapunov(np.array([[-1.0]]), np.array([[4.0]]))
        assert P == pytest.approx(np.array([[2.0]]))

    def test_identity_pair(self):
        P = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal_against_kronecker(self):
        A = np.diag([-1.0, -2.0])
        G = np.ones((2, 2))
        P = solve_lyapunov(A, G)
        expected = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
        assert np.allclose(P, expected, atol=1e-12)
        assert np.allclose(P, kron_lyapunov(A, G), atol=1e-12)

    def test_residual_and_oracle_random(self, rng):
        for n in range(2, 9):
            A = make_stable(rng, n)
            R = rng.standard_normal((n, n))
            G = R @ R.T
            P = solve_lyapunov(A, G)
            resid = np.linalg.norm(A @ P + P @ A.T + G)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(G))
            assert np.allclose(P, kron_lyapunov(A, G), atol=1e-9)

    def test_output_exactly_symmetric(self, rng):
        A = make_stable(rng, 6)
        G = np.eye(6)
        P = solve_lyapunov(A, G)
        assert np.array_equal(P, P.T)

    def test_psd_for_stable_input(self, rng):
        A = make_stable(rng, 7)
        B = rng.standard_normal((7, 2))
        P = solve_lyapunov(A, B @ B.T)
        w = np.linalg.eigvalsh(P)
        assert w.min() >= -1e-10 * np.linalg.norm(P, 2)

    def test_unstable_rejected(self):
        # a real eigenvalue, a complex pair 0.1 +- 1i, and the pair +-1i on
        # the imaginary axis (2x2 blocks of the real Schur form)
        for A in ([[1.0]], [[0.1, 1.0], [-1.0, 0.1]], [[0.0, 1.0], [-1.0, 0.0]]):
            with pytest.raises(NotStable):
                solve_lyapunov(np.array(A), np.eye(len(A)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_lyapunov(-np.eye(2), np.eye(3))


class TestSolveSylvester:
    def test_scalar(self):
        Y = solve_sylvester(np.array([[-1.0]]), np.array([[-2.0]]), np.array([[6.0]]))
        assert Y == pytest.approx(np.array([[2.0]]))

    def test_homogeneous(self):
        Y = solve_sylvester(-np.eye(3), -2.0 * np.eye(2), np.zeros((3, 2)))
        assert np.allclose(Y, 0.0)

    def test_against_kronecker(self, rng):
        A = make_stable(rng, 5)
        M = make_stable(rng, 2)
        K = rng.standard_normal((5, 2))
        Y = solve_sylvester(A, M, K)
        resid = np.linalg.norm(A.T @ Y + Y @ M + K)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(K))
        assert np.allclose(Y, kron_sylvester(A, M, K), atol=1e-9)

    def test_small_sizes_against_kronecker(self, rng):
        for n in range(1, 9):
            r = max(1, n // 2)
            A = make_stable(rng, n)
            M = make_stable(rng, r)
            K = rng.standard_normal((n, r))
            Y = solve_sylvester(A, M, K)
            assert np.allclose(Y, kron_sylvester(A, M, K), atol=1e-9)

    def test_spectra_overlap(self):
        # lambda(A^T) = -1 and lambda(M) = 1 sum to zero: singular problem
        with pytest.raises(SpectraOverlap):
            solve_sylvester(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_sylvester(-np.eye(2), -np.eye(2), np.zeros((3, 2)))


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_diagonal(self):
        E = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-14)

    def test_against_eigendecomposition(self, rng):
        A = rng.standard_normal((4, 4))
        t = 0.5
        lam, V = np.linalg.eig(A)
        expected = np.real(V @ np.diag(np.exp(lam * t)) @ np.linalg.inv(V))
        assert np.allclose(matrix_exponential(A, t), expected, atol=1e-10)

    def test_semigroup_property(self, rng):
        for _ in range(5):
            A = make_stable(rng, 12)
            E1 = matrix_exponential(A, 0.4) @ matrix_exponential(A, 0.9)
            E2 = matrix_exponential(A, 1.3)
            assert np.allclose(E1, E2, rtol=1e-9, atol=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(NonFinite):
            matrix_exponential(np.array([[1000.0]]), 1000.0)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(NonFinite):
            matrix_exponential(np.eye(2), np.inf)


def test_stability_margin_matches_eigenvalues(rng):
    A = make_stable(rng, 8)
    assert stability_margin(A) == pytest.approx(
        np.max(np.linalg.eigvals(A).real), abs=1e-12
    )
