"""Matrix-equation solvers and the matrix exponential against dense
Kronecker and eigendecomposition oracles."""

import importlib.util
import os
import re
import subprocess
import sys
import textwrap
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

import icmor
from icmor import (
    InitialConditionBasis,
    build_msd,
    coordinates_of,
    linalg,
    matrix_exponential,
    solve_lyapunov,
    solve_sylvester,
    suggest_grid,
)
from icmor.errors import (
    DimensionMismatch,
    FactorizationFailure,
    NonFinite,
    NotStable,
    SpectraOverlap,
)
from icmor.linalg import (
    _is_stable,
    _real_columns,
    _schur_spectrum,
    _sqrt_factor,
    shifted_solve,
)

from conftest import foh_block, kron_lyapunov, kron_sylvester, make_stable, near_margin


class TestSolveLyapunov:
    def test_scalar(self):
        P = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert P == pytest.approx(np.array([[2.0]]))

    def test_identity_pair(self):
        P = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal_against_kronecker(self):
        A = np.diag([-1.0, -2.0])
        F = np.ones((2, 1))
        G = F @ F.T
        P = solve_lyapunov(A, F)
        expected = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
        assert np.allclose(P, expected, atol=1e-12)
        assert np.allclose(P, kron_lyapunov(A, G), atol=1e-12)

    def test_residual_and_oracle_random(self, rng):
        for n in range(2, 9):
            A = make_stable(rng, n)
            R = rng.standard_normal((n, n))
            G = R @ R.T
            P = solve_lyapunov(A, R)
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
        P = solve_lyapunov(A, B)
        w = np.linalg.eigvalsh(P)
        assert w.min() >= -1e-10 * np.linalg.norm(P, 2)

    def test_unstable_rejected(self):
        # a real eigenvalue, a complex pair 0.1 +- 1i, the pair +-1i on the
        # imaginary axis (2x2 blocks of the real Schur form) and an abscissa
        # of -0.5e-12 ||A||_F, inside the tolerance, each also with its real
        # Schur form given
        for A in ([[1.0]], [[0.1, 1.0], [-1.0, 0.1]], [[0.0, 1.0], [-1.0, 0.0]],
                  near_margin(0.5)):
            A = np.array(A)
            with pytest.raises(NotStable):
                solve_lyapunov(A, np.eye(len(A)))
            with pytest.raises(NotStable):
                solve_lyapunov(A, np.eye(len(A)), sla.schur(A, output="real"))
        # at -2e-12 ||A||_F the same A clears the tolerance
        A = near_margin(2.0)
        for schur in (None, sla.schur(A, output="real")):
            assert np.all(np.isfinite(solve_lyapunov(A, np.eye(len(A)), schur)))

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_tolerance_past_the_float_range(self, scale):
        # at scale 1e300, ||A||_F^2 overflows; the verdict does not move, and
        # no RuntimeWarning (an error in this suite) is raised
        for ratio, stable in ((0.5, False), (2.0, True)):
            A = scale * near_margin(ratio)
            assert _is_stable(np.max(np.diag(A)), A) == stable

    def test_given_schur_form_and_norm_change_nothing(self, rng):
        A = make_stable(rng, 7)
        R = rng.standard_normal((7, 2))
        P = solve_lyapunov(A, R)
        Ps = solve_lyapunov(A, R, sla.schur(A, output="real"))
        assert np.array_equal(P, Ps)

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

    def test_given_schur_form(self, rng):
        for n, r in ((5, 2), (12, 4), (20, 7)):
            A = make_stable(rng, n)
            M = make_stable(rng, r)
            K = rng.standard_normal((n, r))
            Y = solve_sylvester(A, M, K)
            Ys = solve_sylvester(A, M, K, sla.schur(A, output="real"))
            assert np.linalg.norm(Ys - Y) <= 1e-12 * np.linalg.norm(Y)
        # a complex pair -0.5 +- 2i of A^T against 0.5 +- 2i of M: overlap
        A = np.array([[-0.5, 2.0], [-2.0, -0.5]])
        with pytest.raises(SpectraOverlap):
            solve_sylvester(A, -A, np.ones((2, 2)), sla.schur(A, output="real"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_sylvester(-np.eye(2), -np.eye(2), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        # as solve_lyapunov rejects a non-finite G, not a NaN solution
        K = np.ones((3, 2))
        K[1, 0] = bad
        with pytest.raises(NonFinite, match="K"):
            solve_sylvester(-np.eye(3), -2.0 * np.eye(2), K)


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
        # A t itself overflows, so no squaring count can be taken from it
        with pytest.raises(NonFinite):
            matrix_exponential(np.array([[10.0]]), 1e308)

    @pytest.mark.parametrize("steps", [1, 20])
    def test_foh_block_against_scipy(self, steps):
        # case1's FOH block (the n = 300 chain, 10 inputs) at dt (degree 7,
        # no squaring) and at 20 dt (degree 13, squared twice)
        M = build_msd(150, m_inputs=10)
        blk = foh_block(M.A, M.B)
        t = steps * suggest_grid(M)[1]
        assert (np.linalg.norm(blk * t, 1) > 5.37) == (steps == 20)
        ref = sla.expm(blk * t)
        E = matrix_exponential(blk, t)
        assert np.linalg.norm(E - ref, 1) <= 5e-14 * np.linalg.norm(ref, 1)

    def test_nonnormal_against_scipy(self):
        # ||A||_1 = 51: squared four times, entries up to 50^11 / 11! e^-1
        A = -np.eye(12) + 50.0 * np.eye(12, k=1)
        ref = sla.expm(A)
        E = matrix_exponential(A)
        assert np.linalg.norm(E - ref, 1) <= 5e-14 * np.linalg.norm(ref, 1)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(NonFinite):
            matrix_exponential(np.eye(2), np.inf)


class TestShiftedSolve:
    """The real shifted solve on the real Schur form against one dense solve
    per shift."""

    SHIFTS = np.array([0.5, 2.0, 1.0 + 3.0j, 0.2 + 0.7j, 1.5])

    @staticmethod
    def _solve(A, shifts, R, transpose=False):
        T, U = sla.schur(A, output="real")
        return U @ shifted_solve(T, shifts, U.T @ _real_columns(R, shifts), transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("system", ["random", "msd"])
    def test_shifted_solves_match_dense(self, rng, system, transpose):
        # each complex shift stands for its conjugate pair: its two columns
        # are the real and imaginary parts of the solve at that shift
        A = make_stable(rng, 25) if system == "random" else build_msd(40).A
        n, k = A.shape[0], len(self.SHIFTS)
        R = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        X = self._solve(A, self.SHIFTS, R, transpose)
        assert X.shape == (n, k + 2) and X.dtype == float
        Aop = A.T if transpose else A
        j = 0
        for s, r in zip(self.SHIFTS, R.T):
            if s.imag:
                x, j = X[:, j] + 1j * X[:, j + 1], j + 2
                ref = np.linalg.solve(s * np.eye(n) - Aop, r)
            else:
                x, j = X[:, j], j + 1
                ref = np.linalg.solve(s.real * np.eye(n) - Aop, r.real)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_real_right_hand_side(self, rng):
        # a repeated real shift, and a complex one on a real column, whose
        # solve splits into (a I - A) Re x - b Im x = r, (a I - A) Im x + b Re x = 0
        A = make_stable(rng, 10)
        B = rng.standard_normal((10, 3))
        X = self._solve(A, np.array([1.5, 1.5, 1.0 + 2.0j]), B)
        assert np.allclose((1.5 * np.eye(10) - A) @ X[:, :2], B[:, :2], atol=1e-10)
        assert np.allclose((np.eye(10) - A) @ X[:, 2] - 2.0 * X[:, 3], B[:, 2], atol=1e-10)
        assert np.allclose((np.eye(10) - A) @ X[:, 3] + 2.0 * X[:, 2], 0.0, atol=1e-10)

    @pytest.mark.parametrize("shifts", [
        [0.5, 2.0, 1.5], [1.0 + 3.0j, 1.0 - 3.0j, 0.2 + 0.7j, 0.2 - 0.7j],
        [0.5, 1.0 + 3.0j, 2.0, 2.0, 0.2 - 0.7j, 1.5],
    ], ids=["real", "conjugate pairs", "unpaired complex"])
    def test_shift_matrix_is_the_block_diagonal(self, monkeypatch, shifts):
        # S by indexing, bit for bit the block_diag of one block per shift,
        # and the real columns of the right-hand side in the same order
        shifts = np.array(shifts, dtype=complex)
        blocks = [[[s.real, s.imag], [-s.imag, s.real]] if s.imag else [[s.real]]
                  for s in shifts]
        seen, trsyl = [], linalg._trsyl
        monkeypatch.setattr(linalg, "_trsyl",
                            lambda T, S, K, **kw: seen.append(S) or trsyl(T, S, K, **kw))
        A = make_stable(np.random.default_rng(0), 8)
        T, U = sla.schur(A, output="real")
        R = np.arange(8 * len(shifts)).reshape(8, -1) * (1.0 + 0.5j)
        shifted_solve(T, shifts, U.T @ _real_columns(R, shifts))
        assert seen[0].tobytes() == sla.block_diag(*blocks).tobytes()
        cols = [c for r, s in zip(R.T, shifts) for c in ([r.real, r.imag] if s.imag else [r.real])]
        assert _real_columns(R, shifts).tobytes() == np.column_stack(cols).tobytes()
        back = linalg._complex_columns(_real_columns(R, shifts), shifts)
        assert np.array_equal(back, np.where(shifts.imag != 0, R, R.real))

    @pytest.mark.parametrize("shift", [-1.0, -0.5 + 2.0j])
    def test_shift_on_the_spectrum_raises(self, shift):
        # dtrsyl perturbs T and S apart when they share an eigenvalue, and
        # says so by info = 1: no perturbed solution is returned
        T = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, -0.5, 2.0, 0.0],
                      [0.0, -2.0, -0.5, 0.0], [0.0, 0.0, 0.0, -3.0]])
        K = np.ones((4, 2 if shift.imag else 1))
        with pytest.raises(SpectraOverlap, match="dtrsyl"):
            shifted_solve(T, np.array([shift]), K)

    def test_illegal_argument_is_named(self, monkeypatch):
        # scipy's wrapper checks the arguments first, so LAPACK's info < 0
        # is faked: info = -6 is the sixth argument, A
        monkeypatch.setattr(linalg._flapack, "dtrsyl", lambda *a, **kw: (None, 1.0, -6))
        with pytest.raises(ValueError, match="argument a "):
            linalg._trsyl(np.eye(2), np.eye(2), np.eye(2))


class TestSqrtFactor:
    def test_indefinite_gramian_raises(self):
        P = np.diag([1.0, -1e-6])
        with pytest.raises(FactorizationFailure, match="observability"):
            _sqrt_factor(P, "observability")

    def test_rounding_negative_eigenvalues_give_zero_columns(self):
        # PSD up to two eigenvalues at -1e-16, as rounding leaves them in a
        # solved Gramian, which has no Cholesky factor: eigh's are clipped
        P = np.diag([2.0, -1e-16, 1.0, -1e-16, 0.5])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(P)
        U = _sqrt_factor(P, "reachability")
        assert np.all(U[:, 3:] == 0.0)
        assert np.allclose(U @ U.T, np.clip(P, 0.0, None), rtol=1e-15, atol=0.0)


def test_schur_block_eigenvalues(rng):
    # several 2x2 blocks, each between 1x1 blocks, as the form itself and
    # rotated by an orthogonal Q
    blocks = sla.block_diag([[-1.0]], [[-0.5, 2.0], [-3.0, -0.5]], [[-2.0]],
                            [[-0.1, 1.0], [-4.0, -0.1]], [[-3.0]], [[0.2, 5.0], [-0.5, 0.2]],
                            [[-4.0]])
    assert np.array_equal(_schur_spectrum(blocks), np.array(
        [-1, -0.5 + np.sqrt(6) * 1j, -0.5 - np.sqrt(6) * 1j, -2, -0.1 + 2j, -0.1 - 2j, -3,
         0.2 + np.sqrt(2.5) * 1j, 0.2 - np.sqrt(2.5) * 1j, -4]))
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    for A in (make_stable(rng, 12), np.array([[0.1, 1.0], [-1.0, 0.1]]),
              np.diag([-1.0, -2.0]), Q @ blocks @ Q.T):
        T, _ = sla.schur(A, output="real")
        ev = np.sort_complex(_schur_spectrum(T))
        assert np.allclose(ev, np.sort_complex(np.linalg.eigvals(A)), atol=1e-10)


class TestScipyWrappers:
    """The LAPACK calls on scipy's ``_flapack`` give, bit for bit, what
    scipy's public functions give; a scipy release that changes the
    wrappers fails here."""

    @staticmethod
    def _matrices():
        chain = build_msd(150).A
        blocks = np.random.default_rng(3).standard_normal((40, 40))
        return {"chain": chain, "2x2 blocks": blocks, "empty": np.zeros((0, 0))}

    @pytest.mark.parametrize("name", ["chain", "2x2 blocks", "empty"])
    def test_real_schur(self, name):
        A = self._matrices()[name]
        T, U = linalg._real_schur(A)
        Ts, Us = sla.schur(A, output="real")
        assert name != "2x2 blocks" or np.any(np.diag(T, -1))
        for mine, ref in ((T, Ts), (U, Us)):
            assert mine.shape == ref.shape and mine.dtype == ref.dtype
            assert mine.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["chain", "2x2 blocks", "empty"])
    def test_trsyl(self, name):
        T, _ = sla.schur(self._matrices()[name], output="real")
        C = np.random.default_rng(4).standard_normal(T.shape)
        X = linalg._trsyl(T, T, C, tranb="T")
        if T.size == 0:
            # scipy's dtrsyl rejects size 0; the empty right-hand side is returned
            assert X.shape == (0, 0)
            return
        Xs, scale, info = lapack.dtrsyl(T, T, C, tranb="T")
        assert info == 0 and scale == 1.0 and X.tobytes() == Xs.tobytes()

    @pytest.mark.parametrize("name", ["chain", "2x2 blocks", "empty"])
    def test_coordinates_of(self, name):
        # a basis of 5 Schur vectors (none at 0 x 0) and a point off its span
        _, U = sla.schur(self._matrices()[name], output="real")
        X0 = U[:, :5] + 1e-3 * np.random.default_rng(5).standard_normal(U[:, :5].shape)
        x0 = X0 @ np.arange(1.0, 1.0 + X0.shape[1]) + 1e-12 * np.ones(len(X0))
        z0 = coordinates_of(x0, InitialConditionBasis(X0))
        ref = sla.lstsq(X0, x0, lapack_driver="gelsy")[0]
        assert z0.shape == ref.shape and z0.tobytes() == ref.tobytes()

    def test_no_scipy_linalg_and_both_pools_found(self):
        # the CLI's import leaves scipy.linalg unimported, and _flapack is
        # loaded before the pools are looked up, so scipy's OpenBLAS is among them
        code = textwrap.dedent("""
            import sys
            import icmor.cli
            from icmor import linalg
            with open("/proc/self/maps") as fh:
                mapped = {line.split(None, 5)[5] for line in fh if "openblas" in line.lower()}
            print("scipy.linalg" in sys.modules, len(mapped), len(linalg._BLAS_RELEASES))
        """)
        out = subprocess.run([sys.executable, "-c", code], env=_env(),
                             capture_output=True, text=True)
        if "/proc/self/maps" in out.stderr:
            pytest.skip("no /proc/self/maps")
        assert out.returncode == 0, out.stderr
        imported, mapped, releases = out.stdout.split()
        assert imported == "False"
        if mapped != "2":
            pytest.skip(f"{mapped} OpenBLAS copies mapped")
        assert releases == "2"

    def test_missing_module_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            linalg._load_flapack()


def _env():
    """The environment of a child interpreter that imports this icmor, with
    each OpenBLAS pool at 2 threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(icmor.__file__)))
    return dict(os.environ, OPENBLAS_NUM_THREADS="2",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestRealSchur:
    """``_real_schur``: ``sla.schur``'s arrays, with every OpenBLAS pool
    released before and after."""

    def test_pools_released_and_restarted_at_their_count(self):
        # warm numpy's pool (a GEMM) and scipy's (an order-300 Schur form);
        # after _real_schur only the main thread is left, and the same calls
        # start the same workers again
        code = textwrap.dedent("""
            import os
            import numpy as np
            import scipy.linalg as sla
            from icmor import linalg
            if not linalg._BLAS_RELEASES:
                raise SystemExit("no OpenBLAS pool")
            threads = lambda: len(os.listdir("/proc/self/task"))
            A = np.random.default_rng(0).standard_normal((300, 300))
            A @ A, sla.schur(A, output="real")
            warm = threads()
            linalg._real_schur(A)
            released = threads()
            A @ A, sla.schur(A, output="real")
            print(warm, released, threads())
        """)
        out = subprocess.run([sys.executable, "-c", code], env=_env(),
                             capture_output=True, text=True)
        if "no OpenBLAS pool" in out.stderr:
            pytest.skip("no OpenBLAS pool loaded")
        assert out.returncode == 0, out.stderr
        warm, released, restarted = map(int, out.stdout.split())
        assert released == 1
        assert restarted == warm

    def test_second_python_thread_keeps_the_pools(self, rng, monkeypatch):
        if threading.active_count() != 1:
            pytest.skip("another thread already runs")
        calls = []
        monkeypatch.setattr(linalg, "_BLAS_RELEASES", (lambda: calls.append("release"),))
        A = make_stable(rng, 8)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            linalg._real_schur(A)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert calls == []
        linalg._real_schur(A)
        assert calls == ["release"] * 2

    def test_no_pool_is_plain_schur(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_BLAS_RELEASES", ())
        A = make_stable(rng, 30)
        T, U = linalg._real_schur(A)
        Ts, Us = sla.schur(A, output="real")
        assert np.array_equal(T, Ts) and np.array_equal(U, Us)

    def test_no_maps_finds_no_pool(self, monkeypatch):
        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(linalg, "open", missing, raising=False)
        assert linalg._openblas_releases() == ()
