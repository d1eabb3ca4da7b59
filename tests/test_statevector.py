"""Tests for :class:`repro.states.StateVector`."""

import math
import warnings

import numpy as np
import pytest

from repro.exceptions import DimensionError, NormalizationError, StateError
from repro.states.statevector import StateVector

from tests.conftest import random_statevector


class TestConstruction:
    def test_accepts_list(self):
        sv = StateVector([1, 0, 0, 0], (2, 2))
        assert sv.size == 4

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            StateVector([1, 0, 0], (2, 2))

    def test_rejects_2d_array(self):
        with pytest.raises(StateError):
            StateVector(np.eye(2), (2, 2))

    def test_rejects_nan(self):
        with pytest.raises(StateError):
            StateVector([float("nan"), 0], (2,))

    def test_rejects_inf(self):
        with pytest.raises(StateError):
            StateVector([float("inf"), 0], (2,))

    def test_amplitudes_are_copied(self):
        source = np.array([1.0, 0.0], dtype=complex)
        sv = StateVector(source, (2,))
        source[0] = 5.0
        assert sv.amplitude(0) == 1.0

    def test_amplitudes_read_only(self):
        sv = StateVector([1, 0], (2,))
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 2.0


class TestZeroState:
    def test_all_mass_on_zero(self):
        sv = StateVector.zero_state((3, 6, 2))
        assert sv.amplitude((0, 0, 0)) == 1.0
        assert sv.num_nonzero() == 1

    def test_normalized(self):
        assert StateVector.zero_state((4, 5)).is_normalized()


class TestAmplitudeAccess:
    def test_by_digits(self):
        sv = StateVector([0, 1, 0, 0, 0, 0], (3, 2))
        assert sv.amplitude((0, 1)) == 1.0

    def test_by_flat_index(self):
        sv = StateVector([0, 1, 0, 0, 0, 0], (3, 2))
        assert sv.amplitude(1) == 1.0

    def test_flat_index_out_of_range(self):
        sv = StateVector([1, 0], (2,))
        with pytest.raises(DimensionError):
            sv.amplitude(2)

    def test_probability(self):
        sv = StateVector(np.array([1, 1]) / math.sqrt(2), (2,))
        assert np.isclose(sv.probability((1,)), 0.5)

    def test_nonzero_terms(self):
        sv = StateVector([0.6, 0, 0, 0.8], (2, 2))
        terms = dict(sv.nonzero_terms())
        assert set(terms) == {(0, 0), (1, 1)}


class TestNormalization:
    def test_normalized_norm(self):
        sv = StateVector([3, 4], (2,)).normalized()
        assert np.isclose(sv.norm(), 1.0)

    def test_normalized_direction_preserved(self):
        sv = StateVector([3, 4], (2,)).normalized()
        assert np.isclose(sv.amplitude(0), 0.6)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            StateVector([0, 0], (2,)).normalized()

    def test_amplitudes_whose_squares_overflow(self):
        state = StateVector([1e200, -1e200j, 0, 0], (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            normalized = state.normalized()
        assert np.allclose(
            normalized.amplitudes, [2**-0.5, -1j * 2**-0.5, 0, 0]
        )
        assert np.isclose(normalized.norm(), 1.0)

    def test_norm_whose_squares_overflow(self):
        state = StateVector([1e200, 1e200, 0, 0], (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = state.norm()
        assert norm == math.sqrt(2) * 1e200

    def test_finite_norm_keeps_the_bytes(self):
        rng = np.random.default_rng(83)
        amplitudes = 3.7 * (rng.normal(size=24) + 1j * rng.normal(size=24))
        expected = amplitudes / np.linalg.norm(amplitudes)
        normalized = StateVector(amplitudes, (2, 3, 4)).normalized()
        assert normalized.amplitudes.tobytes() == expected.tobytes()

    def test_is_normalized_tolerance(self):
        sv = StateVector([1.0 + 1e-12, 0], (2,))
        assert sv.is_normalized()


class TestTensor:
    def test_dims_concatenate(self):
        a = StateVector([1, 0], (2,))
        b = StateVector([0, 1, 0], (3,))
        assert a.tensor(b).dims == (2, 3)

    def test_amplitudes_kron(self):
        a = StateVector([1, 1], (2,)).normalized()
        b = StateVector([1, 0, 0], (3,))
        product = a.tensor(b)
        assert np.isclose(product.amplitude((0, 0)), 1 / math.sqrt(2))
        assert np.isclose(product.amplitude((1, 0)), 1 / math.sqrt(2))
        assert product.amplitude((0, 1)) == 0

    def test_as_tensor_shape(self):
        sv = random_statevector((3, 2, 4), seed=3)
        assert sv.as_tensor().shape == (3, 2, 4)


class TestGlobalPhase:
    def test_alignment_makes_pivot_real(self):
        sv = StateVector([1j, 0], (2,)).global_phase_aligned()
        assert np.isclose(sv.amplitude(0), 1.0)

    def test_alignment_preserves_probabilities(self):
        sv = random_statevector((3, 2), seed=9)
        aligned = sv.global_phase_aligned()
        assert np.allclose(
            np.abs(sv.amplitudes), np.abs(aligned.amplitudes)
        )


class TestSampling:
    def test_counts_sum_to_shots(self, rng):
        sv = random_statevector((3, 2), seed=5)
        histogram = sv.sample(200, rng=rng)
        assert sum(histogram.values()) == 200

    def test_deterministic_state_samples_one_outcome(self, rng):
        sv = StateVector.zero_state((3, 3))
        histogram = sv.sample(50, rng=rng)
        assert histogram == {(0, 0): 50}

    def test_rejects_non_positive_shots(self):
        with pytest.raises(StateError):
            StateVector.zero_state((2,)).sample(0)

    def test_rejects_unnormalized(self):
        with pytest.raises(StateError):
            StateVector([2.0, 0.0], (2,)).sample(10)

    def test_distribution_roughly_matches(self):
        sv = StateVector(np.array([1, 1]) / math.sqrt(2), (2,))
        histogram = sv.sample(4000, rng=np.random.default_rng(0))
        assert abs(histogram[(0,)] - 2000) < 200


class TestComparison:
    def test_equality(self):
        a = StateVector([1, 0], (2,))
        b = StateVector([1, 0], (2,))
        assert a == b

    def test_isclose(self):
        a = StateVector([1, 0], (2,))
        b = StateVector([1 + 1e-12, 0], (2,))
        assert a.isclose(b)

    def test_isclose_rejects_register_mismatch(self):
        a = StateVector([1, 0], (2,))
        # Different register shapes are simply not close.
        c = StateVector([1, 0, 0], (3,))
        assert not a.isclose(c)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(StateVector([1, 0], (2,)))

    def test_str_shows_terms(self):
        text = str(StateVector([1, 0, 0, 0], (2, 2)))
        assert "|00>" in text
