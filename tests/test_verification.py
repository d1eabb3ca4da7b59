"""Tests for verification on the per-gate statevector kernel.

Every synthesised circuit is verified by one dense simulation through
:func:`~repro.simulator.statevector_sim.simulate_inplace`, so these
tests check that kernel against references that share none of its
slicing logic: the explicit gate unitaries of
:mod:`repro.simulator.unitary_builder`, Kronecker products of local
states, and the target states the circuits were synthesised from.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_statevector
from repro.circuit.circuit import Circuit
from repro.circuit.controls import Control
from repro.circuit.gate import Gate
from repro.circuit.gates import (
    ClockGate,
    FourierGate,
    GivensRotation,
    PermutationGate,
    PhaseRotation,
    ShiftGate,
    UnitaryGate,
)
from repro.core.preparation import prepare_state
from repro.core.synthesis import synthesize_preparation
from repro.core.verification import prepared_state, verify_preparation
from repro.dd.builder import build_dd
from repro.exceptions import CircuitError, SimulationError
from repro.pipeline.config import PipelineConfig
from repro.simulator.statevector_sim import simulate, simulate_inplace
from repro.simulator.unitary_builder import gate_unitary
from repro.states.fidelity import fidelity
from repro.states.library import basis_state, ghz_state, w_state
from repro.states.statevector import StateVector

ATOL = 1e-12


def _zero_buffer(circuit: Circuit) -> np.ndarray:
    buffer = np.zeros(circuit.register.size, dtype=np.complex128)
    buffer[0] = 1.0
    return buffer


def _inplace_result(circuit: Circuit) -> np.ndarray:
    buffer = _zero_buffer(circuit)
    simulate_inplace(circuit, buffer)
    return buffer


def _dense_reference(
    circuit: Circuit, initial: np.ndarray | None = None
) -> np.ndarray:
    """Apply each gate as its full ``N x N`` unitary, in order."""
    vector = _zero_buffer(circuit) if initial is None else initial.copy()
    for gate in circuit.gates:
        vector = gate_unitary(gate, circuit.register) @ vector
    return vector * np.exp(1j * circuit.global_phase)


DIMS = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=4
).map(tuple)


@st.composite
def random_circuits(draw):
    """A random mixed-dimensional circuit of assorted gates.

    Control patterns, targets, and gate kinds are all randomised, so
    examples cover controls on either side of the target, repeated
    ``(target, controls)`` runs, and order-critical interleavings.
    """
    dims = draw(DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_gates = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(seed)
    circuit = Circuit(dims)
    for _ in range(num_gates):
        target = int(rng.integers(0, len(dims)))
        d = dims[target]
        others = [q for q in range(len(dims)) if q != target]
        num_controls = int(rng.integers(0, len(others) + 1))
        chosen = rng.choice(
            others, size=num_controls, replace=False
        ) if num_controls else []
        controls = tuple(
            Control(int(q), int(rng.integers(0, dims[q])))
            for q in chosen
        )
        kind = int(rng.integers(0, 4))
        if kind == 0:
            i, j = sorted(
                int(x) for x in rng.choice(d, size=2, replace=False)
            )
            circuit.append(GivensRotation(
                target, i, j,
                float(rng.uniform(-np.pi, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                controls,
            ))
        elif kind == 1:
            i, j = sorted(
                int(x) for x in rng.choice(d, size=2, replace=False)
            )
            circuit.append(PhaseRotation(
                target, i, j,
                float(rng.uniform(-np.pi, np.pi)), controls,
            ))
        elif kind == 2:
            circuit.append(ShiftGate(
                target, int(rng.integers(1, d + 1)), controls
            ))
        else:
            circuit.append(FourierGate(target, controls))
    if draw(st.booleans()):
        circuit.add_global_phase(float(rng.uniform(-np.pi, np.pi)))
    return circuit


class _OpaqueOperation:
    """A gate-shaped object outside the :class:`Gate` hierarchy.

    Duck-types exactly what the per-gate kernel touches: target,
    controls, the matrix-cache key and the local matrix.
    """

    name = "opaque"

    def __init__(self, target: int):
        self.target = target
        self.controls = ()

    def validate(self, dims) -> None:
        pass

    def _parameters(self) -> tuple:
        return ()

    def matrix(self, dimension: int) -> np.ndarray:
        return np.eye(dimension, dtype=np.complex128) * 1j


#: One instance of every gate kind, targeting qudit 1 of ``(3, 4, 2)``.
GATE_KINDS = {
    "givens": lambda controls: GivensRotation(
        1, 0, 3, 0.83, -0.41, controls
    ),
    "phase": lambda controls: PhaseRotation(1, 1, 2, 1.1, controls),
    "shift": lambda controls: ShiftGate(1, 3, controls),
    "clock": lambda controls: ClockGate(1, 1, controls),
    "fourier": lambda controls: FourierGate(1, controls),
    "inverse_fourier": lambda controls: FourierGate(1, controls).inverse(),
    "permutation": lambda controls: PermutationGate(
        1, [2, 0, 3, 1], controls
    ),
    "unitary": lambda controls: UnitaryGate(
        1, np.linalg.qr(
            np.arange(16).reshape(4, 4) + 1j * np.eye(4)
        )[0], controls,
    ),
}

#: Control placements around target 1: none, on the more significant
#: qudit only (the kernel shifts the target axis), on both sides.
PLACEMENTS = {
    "uncontrolled": (),
    "control_before": ((0, 2),),
    "controls_around": ((0, 1), (2, 1)),
}


class TestKernelAgainstDenseReference:
    @given(random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_property_zero_state(self, circuit):
        np.testing.assert_allclose(
            _inplace_result(circuit), _dense_reference(circuit),
            atol=ATOL, rtol=0.0,
        )

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_property_random_initial(self, circuit):
        initial = random_statevector(circuit.dims, seed=17)
        result = simulate(circuit, initial)
        np.testing.assert_allclose(
            result.amplitudes,
            _dense_reference(circuit, initial.amplitudes),
            atol=ATOL, rtol=0.0,
        )

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("kind", sorted(GATE_KINDS))
    def test_every_gate_kind(self, kind, placement):
        circuit = Circuit((3, 4, 2))
        circuit.append(GATE_KINDS[kind](PLACEMENTS[placement]))
        initial = random_statevector(circuit.dims, seed=29)
        buffer = initial.amplitudes.copy()
        simulate_inplace(circuit, buffer)
        np.testing.assert_allclose(
            buffer, _dense_reference(circuit, initial.amplitudes),
            atol=ATOL, rtol=0.0,
        )

    def test_empty_circuit(self):
        circuit = Circuit((3, 2))
        np.testing.assert_array_equal(
            _inplace_result(circuit), _zero_buffer(circuit)
        )

    def test_global_phase_only(self):
        circuit = Circuit((2, 2))
        circuit.add_global_phase(1.25)
        expected = _zero_buffer(circuit) * np.exp(1.25j)
        np.testing.assert_allclose(
            _inplace_result(circuit), expected, atol=ATOL, rtol=0.0
        )

    def test_control_free_circuit_is_a_product_state(self):
        circuit = Circuit((3, 4))
        circuit.append(FourierGate(0))
        circuit.append(GivensRotation(1, 0, 3, 0.7, 0.1))
        circuit.append(FourierGate(0))
        circuit.append(PhaseRotation(1, 1, 2, -0.4))
        # Without controls each qudit evolves on its own: the output
        # is the Kronecker product of the two local columns.
        first = (FourierGate(0).matrix(3) @ FourierGate(0).matrix(3))[:, 0]
        second = (
            PhaseRotation(1, 1, 2, -0.4).matrix(4)
            @ GivensRotation(1, 0, 3, 0.7, 0.1).matrix(4)
        )[:, 0]
        np.testing.assert_allclose(
            _inplace_result(circuit), np.kron(first, second),
            atol=ATOL, rtol=0.0,
        )

    def test_order_critical_interleaving(self):
        # Alternating targets where each gate's control sits on the
        # other's target: no two neighbours commute, so any reordering
        # would change the result.
        circuit = Circuit((2, 2))
        for turn in range(6):
            if turn % 2 == 0:
                circuit.append(GivensRotation(
                    0, 0, 1, 0.3 + turn, 0.2, ((1, 1),)
                ))
            else:
                circuit.append(GivensRotation(
                    1, 0, 1, 0.9 - turn, 0.5, ((0, 1),)
                ))
        initial = random_statevector(circuit.dims, seed=31)
        np.testing.assert_allclose(
            simulate(circuit, initial).amplitudes,
            _dense_reference(circuit, initial.amplitudes),
            atol=ATOL, rtol=0.0,
        )

    def test_gate_shaped_operation(self):
        circuit = Circuit((2, 3))
        circuit.append(GivensRotation(0, 0, 1, 0.4, 0.0))
        circuit._gates.append(_OpaqueOperation(1))
        expected = GivensRotation(0, 0, 1, 0.4, 0.0).matrix(2)[:, 0]
        expected = np.kron(expected, [1j, 0.0, 0.0])
        np.testing.assert_allclose(
            simulate(circuit).amplitudes, expected, atol=ATOL, rtol=0.0
        )


class TestSimulateInplaceContract:
    def test_rejects_wrong_buffer(self):
        circuit = Circuit((2, 2))
        circuit.append(GivensRotation(0, 0, 1, 0.1, 0.0))
        with pytest.raises(SimulationError):
            simulate_inplace(circuit, np.zeros(3, dtype=np.complex128))

    def test_returns_the_buffer_it_was_given(self):
        circuit = Circuit((3,))
        circuit.append(FourierGate(0))
        buffer = _zero_buffer(circuit)
        assert simulate_inplace(circuit, buffer) is buffer

    def test_validates_gates_added_behind_the_container(self):
        # A qubit has no level 2: the kernel must refuse the gate
        # before touching the buffer.
        circuit = Circuit((2, 2))
        circuit._gates.append(GivensRotation(1, 0, 2, 0.3, 0.0))
        buffer = _zero_buffer(circuit)
        with pytest.raises(CircuitError):
            simulate_inplace(circuit, buffer)
        np.testing.assert_array_equal(buffer, _zero_buffer(circuit))


class TestPreparedState:
    @pytest.mark.parametrize(
        "dims", [(2,), (3, 2), (2, 3, 4), (3, 3, 3, 2)]
    )
    def test_synthesised_circuits_reach_their_target(self, dims):
        target = random_statevector(dims, seed=5)
        circuit = synthesize_preparation(build_dd(target))
        produced = prepared_state(circuit)
        np.testing.assert_allclose(
            produced.amplitudes, _dense_reference(circuit),
            atol=1e-10, rtol=0.0,
        )
        overlap = abs(np.vdot(target.amplitudes, produced.amplitudes))
        assert overlap**2 == pytest.approx(1.0, abs=1e-9)

    def test_ghz_circuit(self):
        state = ghz_state((2, 2, 2, 2))
        circuit = synthesize_preparation(build_dd(state))
        produced = prepared_state(circuit)
        overlap = abs(np.vdot(state.amplitudes, produced.amplitudes))
        assert overlap**2 == pytest.approx(1.0, abs=1e-9)

    def test_matches_simulate_bit_for_bit(self):
        target = random_statevector((3, 2, 4), seed=23)
        circuit = synthesize_preparation(build_dd(target))
        assert np.array_equal(
            prepared_state(circuit).amplitudes,
            simulate(circuit).amplitudes,
        )


class TestVerifyPreparation:
    def test_is_the_fidelity_of_the_prepared_state(self):
        target = random_statevector((3, 2, 4), seed=23)
        circuit = synthesize_preparation(build_dd(target))
        assert verify_preparation(circuit, target) == fidelity(
            target.normalized(), prepared_state(circuit)
        )

    def test_normalises_the_target(self):
        target = random_statevector((2, 3), seed=37)
        circuit = synthesize_preparation(build_dd(target))
        scaled = StateVector(3.0 * target.amplitudes, target.dims)
        assert verify_preparation(circuit, scaled) == pytest.approx(
            verify_preparation(circuit, target), abs=1e-12
        )
        assert verify_preparation(circuit, scaled) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_orthogonal_target_scores_zero(self):
        circuit = synthesize_preparation(build_dd(ghz_state((3, 3))))
        # |01> is orthogonal to (|00> + |11> + |22>)/sqrt(3).
        other = basis_state((3, 3), (0, 1))
        assert verify_preparation(circuit, other) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_table_circuit_builds_no_gate_matrix(self, monkeypatch):
        # A synthesised circuit is a table: its block matrices come from
        # its columns, not from gates.
        target = random_statevector((3, 2, 2), seed=43)
        circuit = synthesize_preparation(build_dd(target))

        def refuse(gate, dimension):
            raise AssertionError("verify built a gate matrix")

        monkeypatch.setattr(Gate, "matrix", refuse)
        assert verify_preparation(circuit, target) == pytest.approx(
            1.0, abs=1e-12
        )


class TestPipelineVerification:
    def test_verify_pass_reports_exact_fidelity(self):
        state = w_state((2, 3, 2))
        result = prepare_state(state, config=PipelineConfig())
        assert result.report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.report.fidelity == verify_preparation(
            result.circuit, state
        )

    def test_engine_batch_matches_direct_preparation(self):
        from repro.engine import PreparationEngine, PreparationJob

        jobs = [
            PreparationJob(dims=(3, 6, 2), family="ghz"),
            PreparationJob(
                dims=(4, 3), family="random", params={"rng": 3}
            ),
            PreparationJob(dims=(2, 2, 2), family="w"),
        ]
        batch = PreparationEngine().run_batch(jobs)
        for job, outcome in zip(jobs, batch.outcomes):
            assert outcome.ok
            direct = prepare_state(job.resolve_state())
            assert outcome.circuit == direct.circuit
            assert outcome.report.fidelity == pytest.approx(
                direct.report.fidelity, abs=1e-12
            )


class TestConcurrentVerification:
    def test_concurrent_simulations_match_sequential(self):
        # Tables and gate lists (whose matrices each call builds) alike.
        targets = [
            random_statevector((3, 2, 2), seed=seed) for seed in range(4)
        ]
        circuits = [
            synthesize_preparation(build_dd(target)) for target in targets
        ]
        for synthesised in circuits[:4]:
            gate_list = Circuit(synthesised.register)
            gate_list.extend(synthesised.gates)
            gate_list.global_phase = synthesised.global_phase
            circuits.append(gate_list)
        expected = [prepared_state(circuit) for circuit in circuits]
        results: dict[int, list[np.ndarray]] = {}

        def worker(slot: int) -> None:
            results[slot] = [
                prepared_state(circuit).amplitudes for circuit in circuits
            ]

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(results) == [0, 1, 2, 3]
        for amplitudes in results.values():
            for produced, reference in zip(amplitudes, expected):
                assert np.array_equal(produced, reference.amplitudes)
