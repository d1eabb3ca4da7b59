"""Tests for QDASM serialisation."""

import numpy as np
import pytest

from repro.circuit import qasm
from repro.circuit.circuit import Circuit
from repro.circuit.gates import (
    ClockGate,
    FourierGate,
    GivensRotation,
    PermutationGate,
    PhaseRotation,
    ShiftGate,
    UnitaryGate,
)
from repro.exceptions import SerializationError
from repro.simulator.unitary_builder import circuit_unitary


def example_circuit() -> Circuit:
    circuit = Circuit((3, 6, 2))
    circuit.append(GivensRotation(0, 0, 2, 0.7523, -0.311))
    circuit.append(
        GivensRotation(1, 0, 1, 1.234, 0.5, controls=[(0, 1)])
    )
    circuit.append(
        PhaseRotation(2, 0, 1, -0.25, controls=[(0, 2), (1, 3)])
    )
    circuit.append(ShiftGate(2, 1))
    circuit.append(ClockGate(1, 2, controls=[(2, 1)]))
    circuit.append(FourierGate(0))
    circuit.append(PermutationGate(1, [1, 0, 2, 3, 5, 4]))
    circuit.add_global_phase(0.125)
    return circuit


class TestRoundTrip:
    def test_structure_preserved(self):
        original = example_circuit()
        restored = qasm.loads(qasm.dumps(original))
        assert restored == original

    def test_unitary_preserved(self):
        original = example_circuit()
        restored = qasm.loads(qasm.dumps(original))
        assert np.allclose(
            circuit_unitary(original), circuit_unitary(restored),
            atol=1e-12,
        )

    def test_empty_circuit(self):
        original = Circuit((2, 2))
        assert qasm.loads(qasm.dumps(original)) == original


class TestFormat:
    def test_header_present(self):
        assert qasm.dumps(Circuit((2,))).startswith("QDASM 1.0")

    def test_dims_line(self):
        assert "dims 3 6 2" in qasm.dumps(Circuit((3, 6, 2)))

    def test_comments_ignored(self):
        text = "QDASM 1.0\n# comment\ndims 2 2\n# another\nshift t=0\n"
        circuit = qasm.loads(text)
        assert circuit.num_operations == 1

    def test_unitary_gate_not_serialisable(self):
        circuit = Circuit((2,))
        circuit.append(UnitaryGate(0, np.eye(2)))
        with pytest.raises(SerializationError):
            qasm.dumps(circuit)


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(SerializationError):
            qasm.loads("dims 2 2\n")

    def test_missing_dims(self):
        with pytest.raises(SerializationError):
            qasm.loads("QDASM 1.0\nshift t=0\n")

    def test_malformed_dims(self):
        with pytest.raises(SerializationError):
            qasm.loads("QDASM 1.0\ndims two\n")

    def test_unknown_gate(self):
        with pytest.raises(SerializationError):
            qasm.loads("QDASM 1.0\ndims 2\nwarp t=0\n")

    def test_missing_field(self):
        with pytest.raises(SerializationError):
            qasm.loads("QDASM 1.0\ndims 3\ngivens t=0 i=0 j=1\n")

    def test_malformed_control(self):
        with pytest.raises(SerializationError):
            qasm.loads(
                "QDASM 1.0\ndims 2 2\nshift t=0 ctrl=1-1\n"
            )

    def test_malformed_field(self):
        with pytest.raises(SerializationError):
            qasm.loads("QDASM 1.0\ndims 2\nshift t0\n")

    def test_malformed_number(self):
        with pytest.raises(SerializationError):
            qasm.loads(
                "QDASM 1.0\ndims 3\ngivens t=0 i=0 j=1 theta=x phi=0\n"
            )

    @pytest.mark.parametrize(
        "body",
        [
            "dims 2\nglobalphase abc\n",
            "dims 0 2\n",
            "dims 3\ngivens t=0 i=0 j=1 theta=nan phi=0\n",
            "dims 3\ngivens t=0 i=0 j=1 theta=0.5 phi=inf\n",
            "dims 3\nphase t=0 i=0 j=1 delta=nan\n",
            "dims 2\nglobalphase nan\n",
        ],
        ids=[
            "globalphase-not-a-number",
            "dims-below-two",
            "theta-nan",
            "phi-inf",
            "delta-nan",
            "globalphase-nan",
        ],
    )
    def test_bad_numbers_refused(self, body):
        with pytest.raises(SerializationError):
            qasm.loads("QDASM 1.0\n" + body)
