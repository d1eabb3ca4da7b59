"""Tests for the dense statevector simulator."""

import math

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate
from repro.circuit.gates import (
    FourierGate,
    GivensRotation,
    PhaseRotation,
    ShiftGate,
)
from repro.exceptions import SimulationError
from repro.simulator.statevector_sim import (
    apply_gate,
    simulate,
    simulate_inplace,
)
from repro.simulator.unitary_builder import gate_unitary
from repro.states.statevector import StateVector

from tests.conftest import SMALL_MIXED_DIMS, random_statevector
from tests.kernel_oracles import simulate_reference


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


class TestGateMatrixMemo:
    """A gate list's local matrices are built once per simulation for
    gates of equal parameters on qudits of one dimension."""

    @staticmethod
    def count_matrices(monkeypatch) -> list[tuple[str, int]]:
        built = []
        matrix = Gate.matrix

        def counting(gate, dimension):
            built.append((type(gate).__name__, dimension))
            return matrix(gate, dimension)

        monkeypatch.setattr(Gate, "matrix", counting)
        return built

    @staticmethod
    def run(circuit: Circuit) -> np.ndarray:
        buffer = np.zeros(circuit.register.size, dtype=np.complex128)
        buffer[0] = 1.0
        return simulate_inplace(circuit, buffer)

    def test_equal_rotations_on_other_qudits_share_a_matrix(
        self, monkeypatch
    ):
        # Target and controls do not change the local matrix.
        circuit = Circuit((2, 3, 2))
        circuit.append(GivensRotation(0, 0, 1, 0.5, 0.1))
        circuit.append(
            GivensRotation(2, 0, 1, 0.5, 0.1, controls=[(0, 1)])
        )
        circuit.append(GivensRotation(2, 0, 1, 0.25, 0.1))
        expected = simulate_reference(circuit).amplitudes
        built = self.count_matrices(monkeypatch)
        assert np.array_equal(self.run(circuit), expected)
        assert built == [("GivensRotation", 2), ("GivensRotation", 2)]

    def test_dimension_is_part_of_the_key(self, monkeypatch):
        circuit = Circuit((2, 3, 2))
        for target in (0, 1, 2):
            circuit.append(FourierGate(target))
        built = self.count_matrices(monkeypatch)
        self.run(circuit)
        assert built == [("FourierGate", 2), ("FourierGate", 3)]

    def test_each_simulation_builds_its_own(self, monkeypatch):
        circuit = Circuit((3, 2))
        circuit.append(FourierGate(0))
        circuit.append(PhaseRotation(0, 0, 2, 0.7))
        circuit.append(FourierGate(0, controls=[(1, 1)]))
        built = self.count_matrices(monkeypatch)
        first = self.run(circuit)
        assert len(built) == 2
        assert np.array_equal(self.run(circuit), first)
        assert len(built) == 4

