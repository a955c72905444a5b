"""Tests for state construction, validation, and purity."""

import numpy as np
import pytest

from envchan import (
    basis_state,
    is_pure,
    maximally_mixed,
    projector,
    purity,
    random_density_matrix,
    random_pure_state,
    validate_density_matrix,
)
from envchan.states import validate_pure_state


class TestConstruction:
    def test_basis_state(self):
        np.testing.assert_array_equal(basis_state(3, 1), [0, 1, 0])
        with pytest.raises(ValueError):
            basis_state(3, 3)

    @pytest.mark.parametrize("index", [True, 1.0, 0.5])
    def test_basis_state_rejects_non_integer_index(self, index):
        # True would index every entry and give the unnormalized [1, 1, 1].
        with pytest.raises(ValueError, match="bad subsystem index"):
            basis_state(3, index)

    def test_basis_state_accepts_numpy_integer(self):
        np.testing.assert_array_equal(basis_state(3, np.int64(2)), [0, 0, 1])

    def test_projector(self):
        p = projector(basis_state(2, 0))
        np.testing.assert_array_equal(p, np.diag([1.0, 0.0]))

    def test_projector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            projector(np.array([1.0, 1.0]))

    def test_maximally_mixed(self):
        np.testing.assert_allclose(maximally_mixed(4), np.eye(4) / 4)


class TestValidation:
    def test_accepts_valid(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        np.testing.assert_array_equal(validate_density_matrix(rho), rho)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not hermitian"):
            validate_density_matrix(bad)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            validate_density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_overflowing_hermitian_part(self):
        # The Hermitian part overflows to inf, its spectrum is NaN, and a NaN
        # spectrum is never above the PSD floor. The overflow comes from the
        # input, so its RuntimeWarnings, which the test settings turn into
        # errors, are silenced here.
        huge = np.array([[0.5, 1e308], [1e308, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not positive semidefinite"):
                validate_density_matrix(huge)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace not one"):
            validate_density_matrix(np.diag([0.6, 0.6]))

    def test_tolerance_band(self):
        # A −1e-11 eigenvalue sits inside the PSD tolerance of −1e-10.
        validate_density_matrix(np.diag([1 + 1e-11, -1e-11]))

    def test_pure_state_validation(self):
        v = validate_pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert v.dtype == complex
        with pytest.raises(ValueError, match="not normalized"):
            validate_pure_state([1.0, 1.0])
        with pytest.raises(ValueError, match="shape mismatch"):
            validate_pure_state(np.eye(2))


class TestPurity:
    def test_pure_state_has_unit_purity(self):
        assert purity(projector(basis_state(2, 0))) == pytest.approx(1.0, abs=1e-15)

    def test_mixture_value(self):
        # tr(ρ²) for diag(0.7, 0.3) is 0.7² + 0.3² = 0.58.
        assert purity(np.diag([0.7, 0.3])) == pytest.approx(0.58, abs=1e-15)

    def test_maximally_mixed_floor(self):
        for d in (2, 3, 5):
            assert purity(maximally_mixed(d)) == pytest.approx(1 / d, abs=1e-15)

    def test_is_pure_threshold(self):
        assert is_pure(projector(basis_state(3, 2)))
        assert not is_pure(np.diag([0.999, 0.001]))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2)])
    def test_purity_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            purity(np.ones(shape))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2)])
    def test_is_pure_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            is_pure(np.ones(shape))


class TestRandomStates:
    def test_random_pure_state(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_pure_state(4, rng)
            assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_random_density_matrix_valid(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            rho = random_density_matrix(d, rng)
            validate_density_matrix(rho)

    def test_random_density_matrix_rank(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(4, rng, rank=2)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert np.sum(eigenvalues > 1e-12) == 2

    def test_seeded_reproducibility(self):
        a = random_density_matrix(3, np.random.default_rng(14))
        b = random_density_matrix(3, np.random.default_rng(14))
        np.testing.assert_array_equal(a, b)
