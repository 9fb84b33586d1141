"""Model types, validation, benchmark generator, and file round-trips."""

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
    validate_model,
)
from icmor.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    NotInSubspace,
    NotStable,
    ParseError,
)


class TestStateSpaceModel:
    def test_dimensions(self):
        M = StateSpaceModel(-np.eye(3), np.ones((3, 2)), np.ones((1, 3)))
        assert (M.n, M.m, M.p) == (3, 2, 1)

    def test_unstable_rejected(self):
        # a real eigenvalue, a complex pair 0.1 +- 1i, and the pair +-1i on
        # the imaginary axis
        for A in ([[1.0]], [[0.1, 1.0], [-1.0, 0.1]], [[0.0, 1.0], [-1.0, 0.0]]):
            with pytest.raises(NotStable):
                StateSpaceModel(A, np.ones((len(A), 1)), np.ones((1, len(A))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(-np.eye(2), np.ones((3, 1)), np.ones((1, 2)))


class TestValidateModel:
    def test_scalar_fully_regular(self):
        rep = validate_model(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]]))
        assert rep.stable and rep.controllable and rep.observable
        assert rep.stability_margin == pytest.approx(-1.0)

    def test_uncontrollable_mode_flagged(self):
        rep = validate_model(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]),
                             np.array([[1.0, 1.0]]))
        assert rep.stable and rep.observable
        assert not rep.controllable
        assert len(rep.weak_reach_directions) == 1
        # the flagged direction is the second mode
        d = rep.weak_reach_directions[0]
        assert abs(d[1]) > 0.99

    def test_msd_stable(self):
        rep = validate_model(build_msd(20))
        assert rep.stable
        assert rep.stability_margin < 0
        assert rep.stability_margin == pytest.approx(
            np.max(np.linalg.eigvals(build_msd(20).A).real), abs=1e-10
        )


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
