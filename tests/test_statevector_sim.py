"""Tests for the dense statevector simulator."""

import math

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.gates import (
    FourierGate,
    GivensRotation,
    PhaseRotation,
    ShiftGate,
)
from repro.exceptions import SimulationError
from repro.simulator.statevector_sim import (
    GateMatrixCache,
    apply_gate,
    simulate,
    simulate_inplace,
)
from repro.simulator.unitary_builder import gate_unitary
from repro.states.statevector import StateVector

from tests.conftest import SMALL_MIXED_DIMS, random_statevector


class TestApplyGate:
    def test_fourier_on_zero_gives_uniform(self):
        state = StateVector.zero_state((3,))
        result = apply_gate(state, FourierGate(0))
        assert np.allclose(
            result.amplitudes, np.full(3, 1 / math.sqrt(3))
        )

    def test_shift_moves_basis_state(self):
        state = StateVector.zero_state((3, 4))
        result = apply_gate(state, ShiftGate(1, 2))
        assert result.amplitude((0, 2)) == 1.0

    def test_control_satisfied(self):
        state = StateVector([0, 0, 1, 0], (2, 2))  # |10>
        result = apply_gate(
            state, ShiftGate(1, 1, controls=[(0, 1)])
        )
        assert result.amplitude((1, 1)) == 1.0

    def test_control_not_satisfied(self):
        state = StateVector.zero_state((2, 2))  # |00>
        result = apply_gate(
            state, ShiftGate(1, 1, controls=[(0, 1)])
        )
        assert result.amplitude((0, 0)) == 1.0

    def test_multi_level_control(self):
        # A control on level 2 of a qutrit triggers only there.
        state = StateVector([0, 0, 0, 0, 1, 0], (3, 2))  # |20>
        result = apply_gate(
            state, ShiftGate(1, 1, controls=[(0, 2)])
        )
        assert result.amplitude((2, 1)) == 1.0

    def test_input_not_mutated(self):
        state = StateVector.zero_state((3,))
        apply_gate(state, FourierGate(0))
        assert state.amplitude(0) == 1.0

    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_matches_full_unitary(self, dims):
        if len(dims) < 2:
            pytest.skip("need controls")
        state = random_statevector(dims, seed=71)
        gate = GivensRotation(
            len(dims) - 1, 0, dims[-1] - 1, 0.83, -0.41,
            controls=[(0, dims[0] - 1)],
        )
        via_sim = apply_gate(state, gate)
        via_matrix = gate_unitary(gate, dims) @ state.amplitudes
        assert np.allclose(via_sim.amplitudes, via_matrix, atol=1e-12)

    def test_control_after_target(self):
        # Controls may sit on less significant qudits than the target.
        state = random_statevector((2, 3), seed=72)
        gate = ShiftGate(0, 1, controls=[(1, 2)])
        via_sim = apply_gate(state, gate)
        via_matrix = gate_unitary(gate, (2, 3)) @ state.amplitudes
        assert np.allclose(via_sim.amplitudes, via_matrix, atol=1e-12)

    def test_norm_preserved(self):
        state = random_statevector((3, 4, 2), seed=73)
        result = apply_gate(
            state,
            GivensRotation(1, 1, 3, 1.234, 0.567, controls=[(0, 1)]),
        )
        assert np.isclose(result.norm(), 1.0)


class TestSimulate:
    def test_default_initial_state(self):
        circuit = Circuit((3,))
        circuit.append(FourierGate(0))
        result = simulate(circuit)
        assert np.allclose(
            result.amplitudes, np.full(3, 1 / math.sqrt(3))
        )

    def test_custom_initial_state(self):
        circuit = Circuit((2,))
        circuit.append(ShiftGate(0))
        initial = StateVector([0, 1], (2,))
        result = simulate(circuit, initial)
        assert result.amplitude(0) == 1.0

    def test_initial_register_mismatch(self):
        circuit = Circuit((2,))
        with pytest.raises(SimulationError):
            simulate(circuit, StateVector([1, 0, 0], (3,)))

    def test_global_phase_applied(self):
        circuit = Circuit((2,))
        circuit.global_phase = math.pi / 2
        result = simulate(circuit)
        assert np.isclose(result.amplitude(0), 1j)

    def test_ghz_construction_by_hand(self):
        # Figure 1 in spirit: Fourier then controlled increments.
        circuit = Circuit((3, 3))
        circuit.append(FourierGate(0))
        circuit.append(ShiftGate(1, 1, controls=[(0, 1)]))
        circuit.append(ShiftGate(1, 2, controls=[(0, 2)]))
        result = simulate(circuit)
        expected = np.zeros(9, dtype=complex)
        expected[0] = expected[4] = expected[8] = 1 / math.sqrt(3)
        assert np.allclose(result.amplitudes, expected, atol=1e-12)

    def test_gate_order_is_application_order(self):
        circuit = Circuit((2,))
        circuit.append(ShiftGate(0))          # |0> -> |1>
        circuit.append(PhaseRotation(0, 0, 1, math.pi))  # phases |1>
        result = simulate(circuit)
        assert np.isclose(result.amplitude(1), 1j * -1j * 1j)


class TestGateMatrixCache:
    def test_lru_bound(self):
        cache = GateMatrixCache(maxsize=2)
        for k in range(4):
            cache.matrix(GivensRotation(0, 0, 1, 0.1 * k, 0.0), 2)
        assert len(cache) == 2
        assert cache.maxsize == 2
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(SimulationError):
            GateMatrixCache(maxsize=0)

    def test_hit_returns_the_same_read_only_matrix(self):
        cache = GateMatrixCache()
        gate = GivensRotation(0, 0, 2, 0.3, 0.2)
        first = cache.matrix(gate, 3)
        assert cache.matrix(gate, 3) is first
        assert len(cache) == 1
        assert not first.flags.writeable
        assert np.array_equal(first, gate.matrix(3))

    def test_equal_rotations_on_other_qudits_share_an_entry(self):
        # Target and controls do not change the local matrix.
        cache = GateMatrixCache()
        free = cache.matrix(GivensRotation(0, 0, 1, 0.5, 0.1), 2)
        controlled = cache.matrix(
            GivensRotation(2, 0, 1, 0.5, 0.1, controls=[(0, 1)]), 2
        )
        assert controlled is free
        assert len(cache) == 1

    def test_dimension_is_part_of_the_key(self):
        cache = GateMatrixCache()
        qubit = cache.matrix(FourierGate(0), 2)
        qutrit = cache.matrix(FourierGate(0), 3)
        assert qubit.shape == (2, 2) and qutrit.shape == (3, 3)
        assert len(cache) == 2

    def test_recently_used_entry_survives_eviction(self):
        # Shift matrices are built afresh on every call, so object
        # identity tells a cache hit from a rebuilt entry.
        cache = GateMatrixCache(maxsize=2)
        old, young, new = (ShiftGate(0, amount) for amount in (1, 2, 3))
        kept = cache.matrix(old, 4)
        evicted = cache.matrix(young, 4)
        cache.matrix(old, 4)  # touch: ``young`` is now least recent
        cache.matrix(new, 4)
        assert len(cache) == 2
        assert cache.matrix(old, 4) is kept
        assert cache.matrix(young, 4) is not evicted

    def test_cache_shared_across_circuits_matches_fresh_caches(self):
        circuits = []
        for seed in range(3):
            circuit = Circuit((3, 2))
            circuit.append(FourierGate(0))
            circuit.append(
                GivensRotation(1, 0, 1, 0.2 * seed, 0.4, controls=[(0, 2)])
            )
            circuit.append(PhaseRotation(0, 0, 2, 0.7))
            circuits.append(circuit)
        shared = GateMatrixCache()
        for circuit in circuits:
            with_shared = np.zeros(6, dtype=np.complex128)
            with_shared[0] = 1.0
            simulate_inplace(circuit, with_shared, shared)
            assert np.array_equal(
                with_shared, simulate(circuit).amplitudes
            )
        # Fourier and the phase rotation repeat in every circuit; only
        # the Givens angle is new each time.
        assert len(shared) == 2 + len(circuits)
