"""Tests for QDASM serialisation.

The columnar writer and reader are checked against the per-row writer
and the gate-list parser of ``tests/qasm_oracle.py``: the writer byte
for byte, the reader by equal circuits and equal refusals.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.circuit.table import GIVENS, PHASE, CircuitTable
from repro.engine import PreparationEngine, job_from_dict
from repro.exceptions import SerializationError
from repro.simulator.unitary_builder import circuit_unitary

from tests.qasm_oracle import oracle_dumps, oracle_loads


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


# ----------------------------------------------------------------------
# Columnar writer: byte for byte the per-row oracle
# ----------------------------------------------------------------------
#: Angles whose ``repr`` is unusual: signed zero, the smallest
#: subnormal, exponent forms and long mantissas.
SPECIAL_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, -1e-7,
                  math.pi, 0.1 + 0.2, 1.5e300]

ANGLES = st.one_of(
    st.sampled_from(SPECIAL_ANGLES),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def writer_tables(draw):
    """Table circuits with empty, uncontrolled and fully controlled
    blocks, special angles, phase rows with a nonzero ``phi`` and a
    global phase of 0.0, -0.0, pi or any finite value."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    width = len(dims)
    kinds, targets, lowers, uppers, thetas, phis = [], [], [], [], [], []
    offsets, controls = [0], []
    for _ in range(draw(st.integers(0, 8))):
        target = draw(st.integers(0, width - 1))
        pattern = draw(st.sampled_from(["empty", "none", "all", "some"]))
        row = [-1] * width
        for qudit in range(width):
            if qudit == target or pattern in ("empty", "none"):
                continue
            if pattern == "all" or draw(st.booleans()):
                row[qudit] = draw(st.integers(0, dims[qudit] - 1))
        count = 0 if pattern == "empty" else draw(st.integers(1, 4))
        for _ in range(count):
            lower, upper = draw(
                st.lists(st.integers(0, dims[target] - 1), min_size=2,
                         max_size=2, unique=True)
            )
            kinds.append(draw(st.sampled_from([GIVENS, PHASE])))
            targets.append(target)
            lowers.append(lower)
            uppers.append(upper)
            thetas.append(draw(ANGLES))
            phis.append(draw(ANGLES))
        offsets.append(offsets[-1] + count)
        controls.append(row)
    table = CircuitTable(
        dims, kinds, targets, lowers, uppers, thetas, phis, offsets,
        np.array(controls, dtype=np.int16).reshape(-1, width),
    )
    circuit = Circuit.from_table(table)
    circuit.global_phase = draw(
        st.one_of(st.sampled_from([0.0, -0.0, math.pi]), ANGLES)
    )
    return circuit


@st.composite
def writer_gate_lists(draw):
    """Gate-list circuits of every gate with a QDASM line (rotations,
    shift, clock, Fourier and permutation), each controlled by any
    subset of the other qudits, with a global phase of 0.0, -0.0, pi
    or any finite value."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    circuit = Circuit(dims)
    for _ in range(draw(st.integers(0, 8))):
        target = draw(st.integers(0, len(dims) - 1))
        dimension = dims[target]
        controls = [
            (qudit, draw(st.integers(0, dims[qudit] - 1)))
            for qudit in range(len(dims))
            if qudit != target and draw(st.booleans())
        ]
        lower, upper = draw(st.lists(
            st.integers(0, dimension - 1), min_size=2, max_size=2,
            unique=True,
        ))
        amount = draw(st.integers(0, dimension - 1))
        circuit.append(draw(st.sampled_from([
            GivensRotation(
                target, lower, upper, draw(ANGLES), draw(ANGLES),
                controls=controls,
            ),
            PhaseRotation(
                target, lower, upper, draw(ANGLES), controls=controls
            ),
            ShiftGate(target, amount, controls),
            ClockGate(target, amount, controls),
            FourierGate(target, controls=controls),
            PermutationGate(
                target, draw(st.permutations(range(dimension))), controls
            ),
        ])))
    circuit.global_phase = draw(
        st.one_of(st.sampled_from([0.0, -0.0, math.pi]), ANGLES)
    )
    return circuit


def phase_rows_with_phi() -> Circuit:
    """A table whose phase rows carry a nonzero, never written ``phi``,
    and whose ``phi`` values differ only in sign (0.0 and -0.0)."""
    circuit = Circuit.from_table(CircuitTable(
        (3, 2, 4),
        kind=[GIVENS, PHASE, GIVENS, PHASE, GIVENS],
        target=[0, 0, 2, 2, 1],
        lower=[0, 0, 3, 1, 1],
        upper=[2, 1, 0, 2, 0],
        theta=[-0.0, 5e-324, 1e16, 1e-7, 0.25],
        phi=[-0.0, 2.5, 0.0, -1e300, -0.0],
        offsets=[0, 0, 2, 4, 5],
        controls=[[-1, 1, 3], [-1, -1, -1], [2, 1, -1], [0, -1, 0]],
    ))
    circuit.global_phase = math.pi
    return circuit


class TestColumnarWriter:
    @given(writer_tables())
    @settings(max_examples=150, deadline=None)
    @example(phase_rows_with_phi())
    def test_matches_the_per_row_writer(self, circuit):
        expected = oracle_dumps(circuit)
        assert qasm.dumps(circuit) == expected
        assert qasm.literal(circuit).json == json.dumps(expected).encode()
        assert qasm.literal_once(circuit).json == (
            json.dumps(expected).encode()
        )

    @given(writer_gate_lists())
    @settings(max_examples=150, deadline=None)
    @example(example_circuit())
    def test_gate_lists_match_the_per_row_writer(self, circuit):
        expected = oracle_dumps(circuit)
        assert qasm.dumps(circuit) == expected
        assert qasm.literal(circuit).json == json.dumps(expected).encode()

    def test_literal_is_written_for_each_call_until_kept(self):
        circuit = example_circuit()
        first, second = qasm.literal(circuit), qasm.literal(circuit)
        assert first is not second and first.json == second.json
        assert str(first) == qasm.dumps(circuit)
        kept = qasm.literal_once(circuit)
        assert qasm.literal(circuit) is kept
        assert qasm.literal_once(circuit) is kept
        circuit.add_global_phase(0.5)
        assert qasm.literal(circuit) is not kept

    def test_phase_rows_write_no_phi(self):
        text = qasm.dumps(phase_rows_with_phi())
        assert "phi=0.0 " in text and "phi=-0.0 " in text
        assert all(
            "phi=" not in line for line in text.splitlines()
            if line.startswith("phase")
        )
        assert text.endswith(f"globalphase {math.pi!r}\n")

    @pytest.mark.parametrize("phase", [0.0, -0.0])
    def test_zero_global_phase_writes_no_line(self, phase):
        circuit = phase_rows_with_phi()
        circuit.global_phase = phase
        assert "globalphase" not in qasm.dumps(circuit)

    def test_empty_table(self):
        circuit = Circuit.from_table(CircuitTable(
            (2, 3), (), (), (), (), (), (), [0, 0],
            [[-1, -1]],
        ))
        assert qasm.dumps(circuit) == "QDASM 1.0\ndims 2 3\n"
        assert qasm.dumps(circuit) == oracle_dumps(circuit)


# ----------------------------------------------------------------------
# Columnar reader: the oracle parser's circuits and refusals
# ----------------------------------------------------------------------
def assert_parity(text: str) -> Circuit | None:
    """``qasm.loads`` gives a circuit ``==`` to the oracle's, with the
    same global phase, or refuses where the oracle refuses."""
    try:
        expected = oracle_loads(text)
    except SerializationError:
        with pytest.raises(SerializationError):
            qasm.loads(text)
        return None
    actual = qasm.loads(text)
    assert actual == expected
    assert actual.global_phase == expected.global_phase
    rotations_only = all(
        isinstance(gate, (GivensRotation, PhaseRotation))
        for gate in expected.gates
    )
    assert (actual.table is not None) == rotations_only
    return actual


HEADER = "QDASM 1.0\ndims 3 2 4\n"
ROW = "givens t=0 i=0 j=2 theta=0.5 phi=-0.25 ctrl=1:1,2:3\n"

PARITY_TEXTS = {
    # Layout.
    "comments-blank-indent": (
        "# leading comment\n\nQDASM 1.0\n   dims 3 2 4\n\n"
        "  # indented comment\n\t" + ROW + "   phase t=2 i=0 j=1 "
        "delta=1.5   \n\n#"
    ),
    "crlf": (HEADER + ROW + "phase t=1 i=0 j=1 delta=0.5\n").replace(
        "\n", "\r\n"
    ),
    "tabs-and-runs-of-spaces": (
        HEADER + "givens\tt=0  i=0 j=2\ttheta=0.5 phi=1\n"
    ),
    "no-trailing-newline": HEADER + ROW.rstrip("\n"),
    # Fields.
    "fields-in-any-order": (
        HEADER + "givens phi=1 ctrl=2:0 j=1 theta=0.5 i=0 t=0\n"
        "phase delta=0.5 t=2 j=3 i=0\n"
    ),
    "unknown-extra-fields": (
        HEADER + "givens t=0 i=0 j=1 theta=0.5 phi=1 colour=red\n"
        "phase t=2 i=0 j=1 delta=0.5 phi=nan theta=x\n"
    ),
    "repeated-field-last-wins": (
        HEADER + "givens t=1 t=0 i=0 j=1 theta=x theta=0.5 phi=1\n"
    ),
    "empty-ctrl-field": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 ctrl=\n",
    "missing-phi": HEADER + "givens t=0 i=0 j=1 theta=0.5\n",
    "empty-phi": HEADER + "givens t=0 i=0 j=1 theta=0.5 phi=\n",
    "givens-with-delta": HEADER + "givens t=0 i=0 j=1 delta=0.5 phi=0\n",
    "phase-with-theta": HEADER + "phase t=0 i=0 j=1 theta=0.5\n",
    "field-without-equals": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 x\n",
    # Controls.
    "unsorted-controls": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 "
                                  "ctrl=2:3,1:0\n",
    "repeated-control-pair": HEADER + "phase t=0 i=0 j=1 delta=1 "
                                      "ctrl=1:1,2:0,1:1\n",
    "two-levels-on-one-qudit": HEADER + "givens t=0 i=0 j=1 theta=1 "
                                        "phi=2 ctrl=1:0,1:1\n",
    "control-on-target": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 "
                                  "ctrl=0:1\n",
    "control-qudit-out-of-range": HEADER + "givens t=0 i=0 j=1 theta=1 "
                                           "phi=2 ctrl=3:0\n",
    "control-level-out-of-range": HEADER + "givens t=0 i=0 j=1 theta=1 "
                                           "phi=2 ctrl=1:2\n",
    "negative-control": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 "
                                 "ctrl=1:-1\n",
    "malformed-control-pairs": HEADER + "givens t=0 i=0 j=1 theta=1 "
                                        "phi=2 ctrl=1:0,\n",
    "leading-comma": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 "
                              "ctrl=,1:0\n",
    "three-part-control": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 "
                                   "ctrl=1:0:1\n",
    "control-literals": HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 "
                                 "ctrl=+1:0_0,02:3\n",
    "prefix-field-then-bad-extension": (
        HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 ctrl=1:1\n"
        "givens t=0 i=0 j=1 theta=1 phi=2 ctrl=1:1,1:0\n"
    ),
    "prefix-field-then-extension": (
        HEADER + "givens t=0 i=0 j=1 theta=1 phi=2 ctrl=1:1,2:3\n"
        "givens t=2 i=0 j=1 theta=1 phi=2 ctrl=1:1\n"
        "givens t=0 i=0 j=1 theta=1 phi=2 ctrl=1:1,2:3\n"
    ),
    # Targets and levels.
    "target-out-of-range": HEADER + "givens t=3 i=0 j=1 theta=1 phi=2\n",
    "negative-target": HEADER + "phase t=-1 i=0 j=1 delta=1\n",
    "huge-target": HEADER + "phase t=4294967296 i=0 j=1 delta=1\n",
    "level-out-of-range": HEADER + "givens t=1 i=0 j=2 theta=1 phi=2\n",
    "huge-level": HEADER + "givens t=0 i=0 j=4294967297 theta=1 phi=2\n",
    "negative-level": HEADER + "phase t=0 i=-1 j=1 delta=1\n",
    "equal-levels": HEADER + "givens t=0 i=1 j=1 theta=1 phi=2\n",
    "reversed-levels": HEADER + "givens t=2 i=3 j=0 theta=1 phi=2\n",
    "integer-literals": HEADER + "givens t=+0 i=0_0 j=02 theta=1 phi=2\n",
    "non-integer-target": HEADER + "givens t=0.0 i=0 j=1 theta=1 phi=2\n",
    # Angles.
    "angle-literals": (
        HEADER + "givens t=0 i=0 j=1 theta=1_000 phi=-.5\n"
        "givens t=0 i=0 j=1 theta=+1E3 phi=1e-320\n"
        "phase t=2 i=0 j=1 delta=\u0661\u0662\n"
        "givens t=0 i=1 j=2 theta=-0 phi=-0.0\n"
    ),
    "theta-nan": HEADER + "givens t=0 i=0 j=1 theta=nan phi=0\n",
    "theta-inf": HEADER + "givens t=0 i=0 j=1 theta=-inf phi=0\n",
    "phi-infinity": HEADER + "givens t=0 i=0 j=1 theta=1 phi=Infinity\n",
    "delta-nan": HEADER + "phase t=0 i=0 j=1 delta=NaN\n",
    "theta-overflows": HEADER + "givens t=0 i=0 j=1 theta=1e999 phi=0\n",
    "malformed-theta": HEADER + "givens t=0 i=0 j=1 theta=1..0 phi=0\n",
    "malformed-phi": HEADER + "givens t=0 i=0 j=1 theta=1 phi=0x1\n",
    # Global phases.
    "globalphase-before-between-after": (
        HEADER + "globalphase 3.0\n" + ROW + "globalphase 2.5\n"
        "phase t=1 i=0 j=1 delta=0.5\nglobalphase 1_0\nglobalphase -0.0\n"
    ),
    "globalphase-only": HEADER + "globalphase 1.25\nglobalphase 6\n",
    "globalphase-two-values": HEADER + "globalphase 1 2\n",
    "globalphase-inf": HEADER + ROW + "globalphase inf\n",
    # Other gates make a gate list.
    "shift-among-rows": (
        HEADER + ROW + "shift t=1 amount=1 ctrl=0:2\n"
        "phase t=2 i=0 j=1 delta=0.5\nglobalphase 0.5\n"
    ),
    "every-other-gate": (
        HEADER + "clock t=2 amount=3 ctrl=1:0\nfourier t=0\n"
        "perm t=2 map=1,0,3,2\n" + ROW
    ),
    "other-gate-out-of-range": HEADER + ROW + "shift t=5\n",
    "other-gate-bad-control": HEADER + "fourier t=0 ctrl=0:1\n",
    "bad-permutation": HEADER + "perm t=1 map=0,0\n",
    "unknown-gate": HEADER + ROW + "warp t=0\n",
    # Header and dims.
    "empty-body": HEADER,
    "missing-header": "dims 2\n",
    "dims-below-two": "QDASM 1.0\ndims 1 2\n",
    # Values a table's integer columns cannot hold.
    "control-level-beyond-int16": (
        "QDASM 1.0\ndims 40000 2\n"
        "givens t=1 i=0 j=1 theta=1 phi=0 ctrl=0:32768\n"
    ),
    "level-beyond-int32": (
        "QDASM 1.0\ndims 3000000000 2\n"
        "givens t=0 i=2147483648 j=0 theta=1 phi=0\n"
    ),
    "dims-beyond-int64": (
        "QDASM 1.0\ndims 20000000000000000000 2\n"
        "givens t=1 i=0 j=1 theta=1 phi=0 ctrl=0:10000000000000000000\n"
    ),
    "dims-beyond-int64-without-rows": (
        "QDASM 1.0\ndims 20000000000000000000 2\nshift t=1\n"
    ),
}

#: Texts the gate-list parser accepts and :func:`qasm.loads` refuses:
#: their dimensions or levels do not fit a table's ``int64``, ``int32``
#: or ``int16`` columns.
BEYOND_THE_TABLE = {
    "control-level-beyond-int16": "line 3",
    "level-beyond-int32": "line 3",
    "dims-beyond-int64": "dimension",
    "dims-beyond-int64-without-rows": "dimension",
}


class TestColumnarReader:
    @pytest.mark.parametrize("name", PARITY_TEXTS)
    def test_parity_with_the_gate_list_parser(self, name):
        text = PARITY_TEXTS[name]
        if name not in BEYOND_THE_TABLE:
            assert_parity(text)
            return
        oracle_loads(text)
        with pytest.raises(SerializationError, match=BEYOND_THE_TABLE[name]):
            qasm.loads(text)

    def test_globalphase_lines_add_up_in_order(self):
        text = PARITY_TEXTS["globalphase-before-between-after"]
        circuit = assert_parity(text)
        expected = math.remainder(
            math.remainder(
                math.remainder(
                    math.remainder(3.0, 2 * math.pi) + 2.5, 2 * math.pi
                ) + 10.0, 2 * math.pi,
            ) - 0.0, 2 * math.pi,
        )
        assert circuit.global_phase == expected

    def test_rows_make_a_table_with_blocks_per_control_field(self):
        text = (
            HEADER + ROW + ROW.replace("theta=0.5", "theta=0.75")
            + "phase t=2 i=0 j=1 delta=0.5\n" + ROW
        )
        circuit = assert_parity(text)
        table = circuit.table
        assert table.offsets.tolist() == [0, 2, 3, 4]
        assert table.controls.tolist() == [
            [-1, 1, 3], [-1, -1, -1], [-1, 1, 3],
        ]
        assert qasm.dumps(circuit) == text

    def test_empty_body_is_an_empty_table(self):
        circuit = assert_parity(HEADER)
        assert circuit.table.num_rows == 0
        assert qasm.dumps(circuit) == HEADER

    def test_refusals_name_the_line(self):
        with pytest.raises(SerializationError, match="line 4"):
            qasm.loads(HEADER + ROW + "givens t=0 i=0 j=1 theta=1 phi=nan\n")
        with pytest.raises(SerializationError, match="line 5"):
            qasm.loads(HEADER + ROW + ROW + ROW.replace("1:1", "1:5"))

    @given(writer_tables())
    @settings(max_examples=60, deadline=None)
    def test_written_tables_read_back(self, circuit):
        text = qasm.dumps(circuit)
        restored = assert_parity(text)
        assert restored.table.same_operations(circuit.table)
        assert qasm.dumps(restored) == text

    @pytest.mark.parametrize("mode", ["peephole", "two_qudit"])
    def test_transpiled_circuits(self, mode):
        engine = PreparationEngine()
        for rng in (7, 8):
            outcome = engine.submit(job_from_dict({
                "family": "random", "dims": [3, 3, 2],
                "params": {"rng": rng}, "transpile": mode,
            }))
            assert outcome.circuit.table is None
            text = qasm.dumps(outcome.circuit)
            restored = assert_parity(text)
            assert restored == outcome.circuit
            assert qasm.dumps(restored) == text
            # two_qudit lowering leaves shift gates: a gate list; the
            # peephole pass leaves Givens rotations only: a table.
            assert (restored.table is None) == (mode == "two_qudit")


FUZZ_DIMS = (3, 2, 4)

#: Spellings ``int`` and ``float`` accept for a value, and values a
#: corrupted field takes.
INT_SPELLINGS = ["{}", "{}", "+{}", "0{}", "0_{}"]
ANGLE_SPELLINGS = ["0.5", "-0.0", "1_000", "5e-324", "-1E16", "+.5", "0"]
BAD_VALUES = ["-1", "3", "9" * 12, "", "x", "1.0", "nan", "inf", "1e999",
              "1:0,", "1:0,1:1", "0:2", "3:0", "1-1"]


@st.composite
def fuzzed_rotation(draw) -> str:
    """A valid rotation line on :data:`FUZZ_DIMS` in some spelling:
    fields in any order, unknown and repeated fields, unsorted and
    repeated control pairs, literal variants; one line in eight has a
    field dropped or given a bad value."""
    target = draw(st.integers(0, len(FUZZ_DIMS) - 1))
    lower, upper = draw(st.permutations(range(FUZZ_DIMS[target])))[:2]

    def spell(value: int) -> str:
        spelling = draw(st.sampled_from(INT_SPELLINGS))
        return spelling.format(value) if value else "0"

    mnemonic = draw(st.sampled_from(["givens", "phase"]))
    fields = {"t": spell(target), "i": spell(lower), "j": spell(upper)}
    for name in (["theta", "phi"] if mnemonic == "givens" else ["delta"]):
        fields[name] = draw(st.sampled_from(ANGLE_SPELLINGS))
    pairs = [
        f"{spell(qudit)}:{spell(draw(st.integers(0, FUZZ_DIMS[qudit] - 1)))}"
        for qudit in range(len(FUZZ_DIMS))
        if qudit != target and draw(st.booleans())
    ]
    if pairs and draw(st.booleans()):
        pairs.append(pairs[0])
    if pairs:
        fields["ctrl"] = ",".join(draw(st.permutations(pairs)))
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.sampled_from(["x", "colour"]))] = "1"
    tokens = [f"{key}={value}" for key, value in fields.items()]
    if draw(st.integers(0, 7)) == 0:
        position = draw(st.integers(0, len(tokens) - 1))
        key = tokens[position].split("=")[0]
        if draw(st.booleans()):
            del tokens[position]
        else:
            tokens[position] = f"{key}={draw(st.sampled_from(BAD_VALUES))}"
    if draw(st.integers(0, 4)) == 0:
        # A repeated field: the later value wins.
        tokens.insert(0, draw(st.sampled_from(tokens)))
    return " ".join([mnemonic, *draw(st.permutations(tokens))])


@st.composite
def fuzzed_texts(draw):
    """Fuzzed rotation lines mixed with canonical rows, global phases,
    comments, blank lines and other gates."""
    lines = ["QDASM 1.0", "dims " + " ".join(map(str, FUZZ_DIMS))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([
                ROW.strip(), "phase t=2 i=0 j=1 delta=0.5 ctrl=0:1",
                "globalphase 0.5", "globalphase nan", "# comment", "",
                "shift t=1 ctrl=0:2", "fourier t=5",
            ])))
        else:
            lines.append(draw(fuzzed_rotation()))
    return "\n".join(lines) + "\n"


class TestReaderFuzz:
    @given(fuzzed_texts())
    @settings(max_examples=300, deadline=None)
    def test_parity_on_fuzzed_texts(self, text):
        assert_parity(text)
