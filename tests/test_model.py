"""Model types, benchmark generator, and file round-trips."""

import dataclasses

import numpy as np
import pytest

from icmor import (
    InitialConditionBasis,
    StateSpaceModel,
    build_msd,
    coordinates_of,
    load_model,
    save_model,
    unit_vector_basis,
)
from icmor.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NonFinite,
    NotInSubspace,
    NotStable,
    ParseError,
)

from icmor._mmio import read_matrix

from conftest import near_margin


class TestStateSpaceModel:
    def test_dimensions(self):
        M = StateSpaceModel(-np.eye(3), np.ones((3, 2)), np.ones((1, 3)))
        assert (M.n, M.m, M.p) == (3, 2, 1)

    def test_unstable_rejected(self):
        # a real eigenvalue, a complex pair 0.1 +- 1i, the pair +-1i on the
        # imaginary axis and an abscissa of -0.5e-12 ||A||_F, inside the
        # tolerance
        for A in ([[1.0]], [[0.1, 1.0], [-1.0, 0.1]], [[0.0, 1.0], [-1.0, 0.0]],
                  near_margin(0.5)):
            with pytest.raises(NotStable):
                StateSpaceModel(A, np.ones((len(A), 1)), np.ones((1, len(A))))
        # at -2e-12 ||A||_F the same A clears the tolerance
        A = near_margin(2.0)
        M = StateSpaceModel(A, np.ones((len(A), 1)), np.ones((1, len(A))))
        assert M.abscissa == A[-1, -1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(-np.eye(2), np.ones((3, 1)), np.ones((1, 2)))

    def test_keeps_its_spectral_abscissa(self):
        # read off the diagonal of the real Schur form built with the model
        M = build_msd(6, m_inputs=2)
        assert M.abscissa == np.max(np.diag(M.real_schur[0]))
        assert M.abscissa == pytest.approx(np.max(np.linalg.eigvals(M.A).real), rel=1e-12)
        assert StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                               np.zeros((1, 0))).abscissa == -np.inf


class TestWithInput:
    def test_takes_over_the_stability_check(self, schur_calls):
        M = build_msd(6, m_inputs=2)
        assert schur_calls == [12]
        aux = M.with_input(unit_vector_basis(M.n, [12]).X0)
        assert schur_calls == [12]
        assert (aux.A is M.A) and (aux.C is M.C) and aux.m == 1
        assert aux.abscissa == M.abscissa and aux.real_schur is M.real_schur

    def test_input_is_still_checked(self):
        M = build_msd(6, m_inputs=2)
        with pytest.raises(DimensionMismatch):
            M.with_input(np.ones((M.n + 1, 1)))
        B = np.ones((M.n, 1))
        B[3, 0] = np.nan
        with pytest.raises(NonFinite):
            M.with_input(B)

    def test_another_state_matrix_is_checked_again(self, schur_calls):
        M = build_msd(6, m_inputs=2)
        del schur_calls[:]
        others = [StateSpaceModel(2.0 * M.A, M.B, M.C), dataclasses.replace(M, A=2.0 * M.A)]
        assert schur_calls == [12, 12]
        for M2 in others:
            assert M2.abscissa == np.max(np.diag(M2.real_schur[0])) != M.abscissa
            assert M2.abscissa == pytest.approx(
                np.max(np.linalg.eigvals(2.0 * M.A).real), rel=1e-12)


class TestCoordinatesOf:
    def test_single_unit_column(self):
        basis = unit_vector_basis(5, [5])
        z0 = coordinates_of(3.0 * np.eye(5)[:, 4], basis)
        assert z0 == pytest.approx([3.0])

    def test_orthonormal_two_column(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        basis = InitialConditionBasis(Q)
        z0 = coordinates_of(Q @ np.array([1.0, -2.0]), basis)
        assert np.allclose(z0, [1.0, -2.0], atol=1e-12)

    def test_out_of_subspace(self):
        basis = unit_vector_basis(3, [1])
        with pytest.raises(NotInSubspace):
            coordinates_of(np.array([0.0, 1.0, 0.0]), basis)

    def test_round_trip_identity(self, rng):
        X0 = rng.standard_normal((8, 3))
        basis = InitialConditionBasis(X0)
        z = rng.standard_normal(3)
        assert np.allclose(coordinates_of(X0 @ z, basis), z, rtol=1e-12, atol=1e-12)


class TestBuildMsd:
    def test_paper_scale_dimensions(self):
        M = build_msd(150, m_inputs=10)
        assert (M.n, M.m, M.p) == (300, 10, 1)

    def test_single_mass_oscillator(self):
        mass, stiffness, damping = 2.0, 3.0, 0.4
        M = build_msd(1, mass=mass, stiffness=stiffness, damping=damping,
                      m_inputs=1)
        got = np.sort_complex(np.linalg.eigvals(M.A))
        expected = np.sort_complex(np.roots([mass, damping, stiffness]))
        assert np.allclose(got, expected, atol=1e-12)

    def test_default_parameters_stable(self):
        for n_masses in (1, 5, 50):
            M = build_msd(n_masses, m_inputs=1)
            assert np.max(np.linalg.eigvals(M.A).real) < 0

    def test_output_is_first_momentum(self):
        M = build_msd(4, m_inputs=1)
        # interleaved (q1, p1, q2, p2, ...): output must read state 2
        expected = np.zeros(8)
        expected[1] = 1.0
        assert np.array_equal(M.C[0], expected)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            build_msd(0)
        with pytest.raises(InvalidParameter):
            build_msd(5, m_inputs=6)
        with pytest.raises(InvalidParameter):
            build_msd(5, damping=0.0, m_inputs=1)


class TestUnitVectorBasis:
    def test_case1_vector(self):
        basis = unit_vector_basis(300, [300])
        assert basis.X0.shape == (300, 1)
        assert basis.X0[299, 0] == 1.0 and np.sum(basis.X0) == 1.0

    def test_case2_vector(self):
        basis = unit_vector_basis(300, [30])
        assert basis.X0[29, 0] == 1.0 and np.sum(np.abs(basis.X0)) == 1.0

    def test_multi_column(self):
        basis = unit_vector_basis(270, [1, 2, 3])
        assert basis.X0.shape == (270, 3)
        assert np.array_equal(basis.X0[:3], np.eye(3))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unit_vector_basis(10, [11])
        with pytest.raises(IndexOutOfRange):
            unit_vector_basis(10, [0])

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidParameter):
            unit_vector_basis(10, [3, 3])


class TestBasisRank:
    def test_rank_deficient_rejected(self):
        X0 = np.ones((4, 2))
        with pytest.raises(InvalidParameter):
            InitialConditionBasis(X0)


class TestModelFiles:
    def test_scalar_round_trip(self, tmp_path):
        d = str(tmp_path / "scalar")
        save_model(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]]), d)
        M, basis = load_model(d)
        assert basis is None
        assert M.A[0, 0] == -1.0 and M.B[0, 0] == 1.0 and M.C[0, 0] == 1.0

    def test_msd_round_trip(self, tmp_path):
        d = str(tmp_path / "msd")
        M = build_msd(7, m_inputs=3)
        basis = unit_vector_basis(M.n, [14])
        save_model(M, d, basis=basis)
        M2, basis2 = load_model(d)
        assert np.array_equal(M.A, M2.A)
        assert np.array_equal(M.B, M2.B)
        assert np.array_equal(M.C, M2.C)
        assert np.array_equal(basis.X0, basis2.X0)

    def test_mismatched_b_rows(self, tmp_path):
        d = str(tmp_path / "bad")
        save_model(StateSpaceModel(-np.eye(2), np.ones((2, 1)), np.ones((1, 2))), d)
        with open(d + "/B.mtx", "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n3 1\n1\n2\n3\n")
        with pytest.raises(DimensionMismatch):
            load_model(d)

    def test_parse_error_carries_line_number(self, tmp_path):
        d = str(tmp_path / "broken")
        save_model(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]]), d)
        with open(d + "/A.mtx", "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n1 1\nnot-a-number\n")
        with pytest.raises(ParseError) as exc:
            load_model(d)
        assert exc.value.line == 3


class TestMatrixMarket:
    """``read_matrix`` on the formats ``write_matrix`` does not write."""

    DENSE = np.array([[4.0, 0.0, -1.5], [0.0, 2.0, 0.0], [-1.5, 0.0, 3.0]])

    @pytest.mark.parametrize("text", [
        # coordinate general: every nonzero, in any order
        "%%MatrixMarket matrix coordinate real general\n% a comment\n3 3 5\n"
        "3 1 -1.5\n1 1 4\n2 2 2\n1 3 -1.5\n3 3 3\n",
        # coordinate symmetric: the lower triangle
        "%%MatrixMarket matrix coordinate integer symmetric\n3 3 4\n"
        "1 1 4\n2 2 2\n3 1 -1.5\n3 3 3\n",
        # array symmetric: the lower triangle, column by column
        "%%MatrixMarket matrix array real symmetric\n3 3\n4\n0\n-1.5\n2\n0\n3\n",
    ], ids=["coordinate-general", "coordinate-symmetric", "array-symmetric"])
    def test_format_matches_dense(self, tmp_path, text):
        path = tmp_path / "M.mtx"
        path.write_text(text)
        assert np.array_equal(read_matrix(str(path)), self.DENSE)

    def test_malformed_coordinate_entry_has_its_line(self, tmp_path):
        path = tmp_path / "M.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n2 2 2\n1 1 1.0\n2 x 1.0\n")
        with pytest.raises(ParseError, match="bad entry") as exc:
            read_matrix(str(path))
        assert exc.value.line == 5
