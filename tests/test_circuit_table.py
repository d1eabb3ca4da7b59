"""Tests for the columnar circuit store and every reader of its columns.

A synthesised circuit is a :class:`CircuitTable` wrapped in a
:class:`Circuit`.  These tests check that the table is refused under
each condition a gate list refuses, that every reader (counts,
statistics, inverse, pickling, QDASM, the block simulation kernel)
agrees with the equivalent gate list, that the block kernel's run
matrices (and, run from ``|0...0>``, their first columns) are those of
the loop in ``tests/kernel_oracles.py`` bit for bit, that a run from
``|0...0>`` builds only first columns for synthesised tables, and that
nothing on the engine or serve path builds gate objects from a table.
"""

from __future__ import annotations

import math
import pickle
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import qasm
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate
from repro.circuit.gates import GivensRotation, ShiftGate
from repro.circuit.stats import statistics
from repro.circuit.table import GIVENS, PHASE, CircuitTable
from repro.core.preparation import prepare_state
from repro.core.verification import prepared_state
from repro.core.synthesis import (
    synthesize_preparation,
    synthesize_unpreparation,
)
from repro.dd.builder import build_dd
from repro.engine import (
    CacheEntry,
    CircuitCache,
    ParallelExecutor,
    PreparationEngine,
    job_from_dict,
)
from repro.exceptions import CircuitError, ControlError
from repro.net.protocol import outcome_from_wire, outcome_to_wire
from repro.simulator import statevector_sim
from repro.simulator.statevector_sim import simulate
from repro.states.library import dicke_state, ghz_state, w_state
from repro.states.random_states import random_sparse_state, random_state
from repro.states.statevector import StateVector

from tests.conftest import random_statevector
from tests.kernel_oracles import run_matrices_reference, simulate_reference


def make_table(dims, blocks) -> CircuitTable:
    """A table from ``[(controls, rows), ...]`` blocks.

    ``controls`` maps qudit to level; each row is
    ``(kind, target, lower, upper, theta, phi)``.
    """
    rows = [row for _, block_rows in blocks for row in block_rows]
    offsets = [0]
    for _, block_rows in blocks:
        offsets.append(offsets[-1] + len(block_rows))
    controls = [
        [mapping.get(qudit, -1) for qudit in range(len(dims))]
        for mapping, _ in blocks
    ]
    columns = list(zip(*rows)) if rows else [()] * 6
    return CircuitTable(
        dims,
        kind=columns[0],
        target=columns[1],
        lower=columns[2],
        upper=columns[3],
        theta=columns[4],
        phi=columns[5],
        offsets=offsets,
        controls=controls,
    )


def as_gate_list(circuit: Circuit) -> Circuit:
    """The same operations as a hand-built gate-list circuit."""
    copy = Circuit(circuit.register)
    copy.extend(circuit.gates)
    copy.global_phase = circuit.global_phase
    return copy


#: Two blocks on (3, 2, 2): a controlled ladder on qudit 1 and an
#: uncontrolled one on qudit 0, with an empty block between them.
SAMPLE_DIMS = (3, 2, 2)
SAMPLE_BLOCKS = [
    ({0: 2}, [(GIVENS, 1, 0, 1, 0.7, -0.3), (PHASE, 1, 0, 1, 0.25, 0.0)]),
    ({0: 1, 2: 1}, []),
    ({}, [
        (GIVENS, 0, 1, 2, 1.1, 0.4),
        (GIVENS, 0, 0, 1, -0.6, 2.0),
        (PHASE, 0, 0, 1, -0.5, 0.0),
    ]),
]


def sample_circuit() -> Circuit:
    circuit = Circuit.from_table(make_table(SAMPLE_DIMS, SAMPLE_BLOCKS))
    circuit.global_phase = 0.375
    return circuit


def repeating_stretch(dims, rng) -> list:
    """Blocks on one target whose control rows share a mask and repeat
    non-adjacently, with blocks of a second mask interleaved.

    The block kernel applies a stretch of one target and one mask as
    one batch, which is only exact while its control rows differ: a
    repeated row must end the batch before it.
    """
    target = int(rng.integers(len(dims)))
    others = [qudit for qudit in range(len(dims)) if qudit != target]
    pools = []
    for _ in range(2):
        mask = [qudit for qudit in others if rng.random() < 0.6]
        mask = mask or [int(rng.choice(others))]
        pools.append([
            {qudit: int(rng.integers(dims[qudit])) for qudit in mask}
            for _ in range(3)
        ])
    blocks = []
    for _ in range(int(rng.integers(4, 10))):
        pool = pools[0] if rng.random() < 0.75 else pools[1]
        rows = []
        for _ in range(int(rng.integers(1, 3))):
            lower, upper = (
                int(level)
                for level in rng.choice(dims[target], 2, replace=False)
            )
            rows.append((
                int(rng.integers(2)), target, lower, upper,
                float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
            ))
        blocks.append((dict(pool[int(rng.integers(3))]), rows))
    return blocks


@st.composite
def random_tables(draw):
    """Tables with random blocks, runs, empty blocks and repeats.

    A block may copy the previous block's control row, so a run of
    equal (target, control row) crosses block boundaries.  Some tables
    also hold a :func:`repeating_stretch`.
    """
    dims = tuple(
        draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    )
    seed = draw(st.integers(0, 2**31 - 1))
    stretch = len(dims) > 1 and draw(st.booleans())
    rng = np.random.default_rng(seed)
    blocks = []
    previous: dict[int, int] | None = None
    for _ in range(draw(st.integers(0, 6))):
        if previous is not None and rng.random() < 0.3:
            controls = dict(previous)
        else:
            controls = {
                qudit: int(rng.integers(dims[qudit]))
                for qudit in range(len(dims))
                if rng.random() < 0.4
            }
        free = [q for q in range(len(dims)) if q not in controls]
        if not free:
            controls.pop(int(rng.integers(len(dims))))
            free = [q for q in range(len(dims)) if q not in controls]
        block_target = int(rng.choice(free))
        rows = []
        for _ in range(int(rng.integers(0, 5))):
            target = (
                block_target if rng.random() < 0.8 else int(rng.choice(free))
            )
            lower, upper = (
                int(level)
                for level in rng.choice(dims[target], 2, replace=False)
            )
            rows.append((
                int(rng.integers(2)), target, lower, upper,
                float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
            ))
        blocks.append((controls, rows))
        previous = controls
    if stretch:
        position = int(rng.integers(len(blocks) + 1))
        blocks[position:position] = repeating_stretch(dims, rng)
    circuit = Circuit.from_table(make_table(dims, blocks))
    circuit.global_phase = float(rng.uniform(-math.pi, math.pi))
    return circuit, seed


def opening_blocks(dims, rng) -> list:
    """Blocks that a run from ``|0...0>`` must treat with care.

    On target ``t`` and control qudit ``q``, neither targeted before:
    a block controlled at level 0 on ``q`` (it reads level 0), one
    controlled above level 0 on ``q`` (it acts on zeros), a block that
    reaches ``q``, a block that revisits ``t`` after it, and a
    :func:`repeating_stretch`, whose batches on one target overlap.
    """
    t, q = (int(qudit) for qudit in rng.choice(len(dims), 2, replace=False))

    def rows_on(target):
        rows = []
        for _ in range(int(rng.integers(1, 4))):
            lower, upper = (
                int(level)
                for level in rng.choice(dims[target], 2, replace=False)
            )
            rows.append((
                int(rng.integers(2)), target, lower, upper,
                float(rng.uniform(-2 * math.pi, 2 * math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
            ))
        return rows

    above = int(rng.integers(1, dims[q]))
    return [
        ({q: 0}, rows_on(t)),
        ({q: above}, rows_on(t)),
        ({}, rows_on(q)),
        ({q: above}, rows_on(t)),
    ] + repeating_stretch(dims, rng)


@st.composite
def tables_from_zero(draw):
    """:func:`random_tables` with :func:`opening_blocks` in front."""
    circuit, seed = draw(random_tables())
    dims = circuit.dims
    if len(dims) < 2:
        dims = dims + (draw(st.integers(2, 4)),)
    rng = np.random.default_rng(seed)
    table = circuit.table
    blocks = opening_blocks(dims, rng)
    for block in range(table.num_blocks):
        rows = range(table.offsets[block], table.offsets[block + 1])
        blocks.append((
            {
                qudit: int(level)
                for qudit, level in enumerate(table.controls[block])
                if level >= 0
            },
            [
                (
                    int(table.kind[row]), int(table.target[row]),
                    int(table.lower[row]), int(table.upper[row]),
                    float(table.theta[row]), float(table.phi[row]),
                )
                for row in rows
            ],
        ))
    drawn = Circuit.from_table(make_table(dims, blocks))
    drawn.global_phase = circuit.global_phase
    return drawn, seed


#: Five blocks on (3, 2, 3), all on qudit 2: the first three share the
#: mask {0} and the first and third share a control row, then a block
#: of another mask and one more of mask {0}.  Applying the first three
#: as one batch would apply the repeated row's subspace once.
REPEATED_ROW_BLOCKS = [
    ({0: 1}, [(GIVENS, 2, 0, 1, 0.7, 0.2), (GIVENS, 2, 1, 2, -1.1, 0.5)]),
    ({0: 2}, [(GIVENS, 2, 0, 2, 0.9, -0.4)]),
    ({0: 1}, [(PHASE, 2, 0, 1, 1.3, 0.0), (GIVENS, 2, 0, 1, 0.4, 1.0)]),
    ({0: 1, 1: 0}, [(GIVENS, 2, 1, 2, 0.8, -0.6)]),
    ({0: 0}, [(GIVENS, 2, 0, 1, -0.5, 0.3)]),
]


def random_initial(dims, seed) -> StateVector:
    return random_statevector(dims, seed=seed)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestTableValidation:
    """Each condition Gate.validate / normalize_controls check is
    refused, once, for the whole table."""

    ROW = (GIVENS, 1, 0, 1, 0.5, 0.1)

    @pytest.mark.parametrize(
        "blocks, error",
        [
            ([({}, [(GIVENS, 3, 0, 1, 0.5, 0.1)])], CircuitError),
            ([({}, [(GIVENS, -1, 0, 1, 0.5, 0.1)])], CircuitError),
            ([({}, [(GIVENS, 1, -1, 1, 0.5, 0.1)])], CircuitError),
            ([({}, [(GIVENS, 1, 1, 1, 0.5, 0.1)])], CircuitError),
            ([({}, [(GIVENS, 1, 0, 2, 0.5, 0.1)])], CircuitError),
            ([({}, [(PHASE, 2, 1, 2, 0.5, 0.0)])], CircuitError),
            ([({0: 3}, [ROW])], ControlError),
            ([({0: -2}, [ROW])], ControlError),
            ([({1: 0}, [ROW])], CircuitError),
            ([({}, [(2, 1, 0, 1, 0.5, 0.1)])], CircuitError),
        ],
        ids=[
            "target-out-of-range",
            "negative-target",
            "negative-level",
            "equal-levels",
            "level-out-of-range",
            "phase-level-out-of-range",
            "control-level-out-of-range",
            "control-level-below-none",
            "control-on-target",
            "unknown-kind",
        ],
    )
    def test_refused(self, blocks, error):
        with pytest.raises(error):
            make_table((3, 2, 2), blocks)

    @pytest.mark.parametrize(
        "change",
        [
            {"offsets": [1, 1]},
            {"offsets": [0, 2]},
            {"offsets": [0, 1, 0, 1], "controls": [[-1, -1, -1]] * 3},
            {"controls": [[-1, -1]]},
            {"controls": [[-1, -1, -1], [-1, -1, -1]]},
            {"phi": [0.1, 0.2]},
            {"target": [1.0]},
        ],
        ids=[
            "offsets-not-from-zero",
            "offsets-past-rows",
            "offsets-falling",
            "control-row-too-short",
            "control-rows-per-block",
            "ragged-columns",
            "float-target",
        ],
    )
    def test_malformed_columns_refused(self, change):
        columns = dict(
            kind=[GIVENS], target=[1], lower=[0], upper=[1],
            theta=[0.5], phi=[0.1], offsets=[0, 1],
            controls=[[-1, -1, -1]],
        )
        columns.update(change)
        with pytest.raises(CircuitError):
            CircuitTable((3, 2, 2), **columns)

    def test_valid_table_is_frozen(self):
        table = make_table(SAMPLE_DIMS, SAMPLE_BLOCKS)
        with pytest.raises(ValueError):
            table.theta[0] = 1.0


# ----------------------------------------------------------------------
# Circuit readers agree with the gate list
# ----------------------------------------------------------------------
class TestTableCircuit:
    def test_counts_match_the_gate_list(self):
        circuit = sample_circuit()
        gates = as_gate_list(circuit)
        assert circuit.table is not None and gates.table is None
        assert circuit.num_operations == len(circuit) == 5
        assert circuit.num_operations == gates.num_operations
        assert np.array_equal(
            circuit.control_counts(), gates.control_counts()
        )
        assert circuit.count_by_name() == gates.count_by_name()
        assert circuit.count_by_name() == {"givens": 3, "phase": 2}
        assert statistics(circuit) == statistics(gates)

    def test_gate_views_follow_the_rows(self):
        circuit = sample_circuit()
        first = circuit[0]
        assert isinstance(first, GivensRotation)
        assert (first.target, first.level_i, first.level_j) == (1, 0, 1)
        assert [(c.qudit, c.level) for c in first.controls] == [(0, 2)]
        assert circuit[4].controls == ()
        assert circuit[0] is first, "views are built once"

    def test_views_built_concurrently_are_equal(self):
        circuit = sample_circuit()
        seen = []

        def read() -> None:
            seen.append(circuit.gates)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(seen) == 8
        assert all(gates == seen[0] for gates in seen)
        assert circuit.table is not None

    def test_equality_with_tables_and_gate_lists(self):
        circuit = sample_circuit()
        assert circuit == sample_circuit()
        assert circuit == as_gate_list(circuit)
        assert as_gate_list(circuit) == circuit
        blocks = [
            (controls, [row[:4] + (row[4] + 1e-3,) + row[5:]
                        for row in rows])
            for controls, rows in SAMPLE_BLOCKS
        ]
        other = Circuit.from_table(make_table(SAMPLE_DIMS, blocks))
        other.global_phase = circuit.global_phase
        assert circuit != other

    def test_equality_ignores_block_boundaries(self):
        # One block split in two under the same control row holds the
        # same gates.
        rows = SAMPLE_BLOCKS[2][1]
        split = make_table(SAMPLE_DIMS, [({}, rows[:1]), ({}, rows[1:])])
        whole = make_table(SAMPLE_DIMS, [({}, rows)])
        assert split.same_operations(whole)
        assert Circuit.from_table(split) == Circuit.from_table(whole)

    def test_inverse_reads_the_columns(self):
        circuit = sample_circuit()
        inverse = circuit.inverse()
        assert inverse.table is not None
        assert inverse == as_gate_list(circuit).inverse()
        assert inverse.inverse() == circuit
        assert inverse.global_phase == -circuit.global_phase

    def test_pickles_as_columns(self):
        circuit = sample_circuit()
        circuit.gates  # build (and cache) the views first
        data = pickle.dumps(circuit)
        assert b"GivensRotation" not in data
        restored = pickle.loads(data)
        assert restored.table is not None
        assert restored == circuit
        assert qasm.dumps(restored) == qasm.dumps(circuit)

    def test_append_materialises_and_drops_the_table(self):
        circuit = sample_circuit()
        before = circuit.gates
        circuit.append(ShiftGate(2, 1, controls=[(0, 1)]))
        assert circuit.table is None
        assert circuit.gates[:-1] == before
        assert circuit.num_operations == 6
        assert circuit.control_counts().tolist() == [1, 1, 0, 0, 0, 1]

    def test_copy_shares_the_table(self):
        circuit = sample_circuit()
        copy = circuit.copy()
        assert copy.table is circuit.table
        copy.append(ShiftGate(0))
        assert circuit.table is not None
        assert circuit.num_operations == 5

    def test_empty_table(self):
        circuit = Circuit.from_table(
            make_table((2, 3), [({}, []), ({0: 1}, [])])
        )
        assert circuit.num_operations == 0
        assert circuit.control_counts().size == 0
        assert circuit.count_by_name() == {}
        assert qasm.dumps(circuit) == "QDASM 1.0\ndims 2 3\n"
        assert statistics(circuit).median_controls == 0.0
        initial = random_initial((2, 3), 5)
        assert np.array_equal(
            simulate(circuit, initial).amplitudes, initial.amplitudes
        )


# ----------------------------------------------------------------------
# QDASM and the block kernel
# ----------------------------------------------------------------------
class TestColumnReaders:
    @given(random_tables())
    @settings(max_examples=80, deadline=None)
    def test_qdasm_matches_the_gate_list(self, drawn):
        circuit, _ = drawn
        text = qasm.dumps(circuit)
        assert text == qasm.dumps(as_gate_list(circuit))
        assert qasm.loads(text) == circuit

    @given(random_tables())
    @example((Circuit.from_table(make_table((3, 2, 3), REPEATED_ROW_BLOCKS)), 0))
    @settings(max_examples=80, deadline=None)
    def test_block_kernel_matches_reference(self, drawn):
        circuit, seed = drawn
        for initial in (None, random_initial(circuit.dims, seed)):
            produced = simulate(circuit, initial)
            reference = simulate_reference(circuit, initial)
            assert np.allclose(
                produced.amplitudes, reference.amplitudes, rtol=0, atol=1e-12
            )

    @given(tables_from_zero())
    @settings(max_examples=80, deadline=None)
    def test_block_kernel_from_zero_matches_reference(self, drawn):
        circuit, seed = drawn
        for initial in (None, random_initial(circuit.dims, seed)):
            produced = simulate(circuit, initial)
            reference = simulate_reference(circuit, initial)
            assert np.allclose(
                produced.amplitudes, reference.amplitudes, rtol=0, atol=1e-12
            )

    @given(random_tables())
    @settings(max_examples=40, deadline=None)
    def test_block_kernel_after_append(self, drawn):
        circuit, seed = drawn
        circuit.append(ShiftGate(0, 1))
        assert circuit.table is None
        initial = random_initial(circuit.dims, seed)
        assert np.allclose(
            simulate(circuit, initial).amplitudes,
            simulate_reference(circuit, initial).amplitudes,
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("dims", [(3, 2), (2, 3, 2), (4, 3, 2)])
    @pytest.mark.parametrize("elision", [True, False])
    @pytest.mark.parametrize("identities", [True, False])
    def test_block_kernel_on_synthesised_unpreparation(
        self, dims, elision, identities
    ):
        state = random_statevector(dims, seed=sum(dims))
        circuit = synthesize_unpreparation(
            build_dd(state), elision, identities
        )
        assert circuit.table is not None
        produced = simulate(circuit, state)
        reference = simulate_reference(circuit, state)
        assert np.allclose(
            produced.amplitudes, reference.amplitudes, rtol=0, atol=1e-12
        )
        assert abs(produced.amplitude(0)) == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# The run matrices are the reference loop's, bit for bit
# ----------------------------------------------------------------------
def reference_matrices(table, starts, lengths, run_dims, full=True):
    """``run_matrices_reference``'s stacks, cut to their first columns
    unless ``full``: the reference for ``_run_matrices``."""
    stacks, positions = run_matrices_reference(table, starts, lengths, run_dims)
    if not full:
        stacks = {
            dimension: np.ascontiguousarray(stack[:, :, :1])
            for dimension, stack in stacks.items()
        }
    return stacks, positions


def run_bytes(circuit: Circuit, initial=None) -> list[bool]:
    """Run the table kernel on ``initial`` (``|0...0>`` when ``None``)
    and assert that every stack it builds is :func:`reference_matrices`'
    and that the amplitudes equal those it gives with the reference
    swapped in, byte for byte (signs of zero included).  Returns
    whether each build was of full matrices."""
    assert circuit.table is not None
    production = statevector_sim._run_matrices
    built = []

    def both(table, starts, lengths, run_dims, full=True):
        stacks, positions = production(table, starts, lengths, run_dims, full)
        expected, expected_positions = reference_matrices(
            table, starts, lengths, run_dims, full
        )
        assert np.array_equal(positions, expected_positions)
        assert stacks.keys() == expected.keys()
        for dimension, stack in stacks.items():
            assert stack.shape == expected[dimension].shape
            assert stack.tobytes() == expected[dimension].tobytes()
        built.append(full)
        return stacks, positions

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector_sim, "_run_matrices", both)
        produced = simulate(circuit, initial).amplitudes
        patch.setattr(statevector_sim, "_run_matrices", reference_matrices)
        expected = simulate(circuit, initial).amplitudes
    assert np.array_equal(produced.view(np.int64), expected.view(np.int64))
    return built


def assert_reference_bytes(circuit: Circuit, seed: int = 0) -> None:
    """:func:`run_bytes` from a random state, where every qudit is
    reached and one build makes every run's full matrix, and from
    ``|0...0>``, where the first build (if any run is live) makes
    first columns."""
    rows = circuit.table.num_rows > 0
    assert run_bytes(circuit, random_initial(circuit.dims, seed)) == (
        [True] if rows else []
    )
    assert run_bytes(circuit)[:1] != [True]


TABLE1_REGISTERS = [
    (3, 6, 2),
    (9, 5, 6, 3),
    (6, 6, 5, 3, 3),
    (5, 4, 2, 5, 5, 2),
    (4, 7, 4, 4, 3, 5),
]


class TestRunMatricesMatchReference:
    @pytest.mark.parametrize("min_fidelity", [1.0, 0.98])
    @pytest.mark.parametrize("dims", TABLE1_REGISTERS)
    def test_table1_random_states(self, dims, min_fidelity):
        state = random_state(dims, rng=sum(dims))
        assert_reference_bytes(
            prepare_state(state, min_fidelity=min_fidelity, verify=False).circuit
        )

    @pytest.mark.parametrize(
        "option", ["emit_identity_rotations", "tensor_elision"]
    )
    @pytest.mark.parametrize("dims", [(3, 6, 2), (6, 6, 5, 3, 3)])
    def test_synthesis_options_off(self, dims, option):
        for state in (
            random_state(dims, rng=5),
            random_sparse_state(dims, num_terms=9, rng=5),
        ):
            assert_reference_bytes(
                prepare_state(state, verify=False, **{option: False}).circuit
            )

    @pytest.mark.parametrize(
        "state",
        [
            ghz_state((3, 6, 2)),
            ghz_state((2,) * 10),
            w_state((3, 6, 2)),
            w_state((2,) * 8 + (3,) * 2),
            dicke_state((2,) * 8 + (3,) * 2, 2),
        ],
        ids=["ghz-362", "ghz-2x10", "w-362", "w-mixed", "dicke-mixed"],
    )
    def test_structured_states(self, state):
        assert_reference_bytes(prepare_state(state, verify=False).circuit)

    def test_qdasm_round_trip(self):
        circuit = prepare_state(
            random_state((6, 6, 5, 3, 3), rng=3), verify=False
        ).circuit
        assert_reference_bytes(qasm.loads(qasm.dumps(circuit)))

    def test_signed_zero_angles(self):
        # exp(-1j * x) and the conjugate of exp(1j * x) differ in the
        # sign of a zero where x is -0.0 (an inverted identity
        # rotation) or a half angle that rounds to -0.0.  The first
        # block is a run whose matrix shows that difference unless the
        # kernel restores exp(-1j * x)'s bits; the second tries every
        # pair of such angles on both row kinds.
        pi = math.pi
        angles = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.7]
        blocks = [
            ({0: 1}, [
                (GIVENS, 1, 1, 0, pi, 0.0),
                (GIVENS, 1, 0, 2, -2 * pi, -pi),
                (PHASE, 1, 0, 2, -0.0, -0.0),
                (GIVENS, 1, 2, 0, pi / 2, -0.0),
                (PHASE, 1, 2, 1, 2 * pi, -pi / 2),
                (PHASE, 1, 1, 0, -0.0, -0.0),
            ]),
            ({}, [
                (kind, 1, 0, 2, theta, phi)
                for kind in (GIVENS, PHASE)
                for theta in angles
                for phi in angles
            ]),
        ]
        circuit = Circuit.from_table(make_table((2, 3), blocks))
        assert_reference_bytes(circuit, 4)

    @given(random_tables())
    @example((Circuit.from_table(make_table((3, 2, 3), REPEATED_ROW_BLOCKS)), 0))
    @settings(max_examples=80, deadline=None)
    def test_random_tables(self, drawn):
        circuit, seed = drawn
        assert_reference_bytes(circuit, seed)

    @given(tables_from_zero())
    @settings(max_examples=40, deadline=None)
    def test_tables_from_zero(self, drawn):
        circuit, seed = drawn
        assert_reference_bytes(circuit, seed)


# ----------------------------------------------------------------------
# From |0...0>, synthesised tables build first columns only
# ----------------------------------------------------------------------
def kernel_work(circuit: Circuit, initial=None) -> tuple[list, int]:
    """Run the table kernel and return the shapes of the stacks it
    built, ``(runs, columns)`` per dimension and build, and its number
    of batch applications (kernel calls)."""
    built = []
    calls = []
    production = statevector_sim._run_matrices
    apply = statevector_sim._apply_batch

    def recording(*args, **kwargs):
        stacks, positions = production(*args, **kwargs)
        built.extend((stack.shape[0], stack.shape[2]) for stack in stacks.values())
        return stacks, positions

    def counting(*args):
        calls.append(None)
        return apply(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector_sim, "_run_matrices", recording)
        patch.setattr(statevector_sim, "_apply_batch", counting)
        if initial is None:
            prepared_state(circuit)
        else:
            simulate(circuit, initial)
    return built, len(calls)


def assert_first_columns_only(circuit: Circuit) -> None:
    built, _ = kernel_work(circuit)
    assert built, "nothing was built"
    assert all(columns == 1 for _, columns in built), built
    assert sum(runs for runs, _ in built) <= circuit.table.num_blocks


class TestFirstColumnsFromZero:
    """``prepared_state`` of a synthesised table builds no full run
    matrix: a level's blocks act on a qudit still at level 0, or on
    amplitudes whose levels above 0 are zero."""

    def test_guard_is_armed(self):
        # From a random state every run gets its full matrix, and from
        # |0...0> two batches on one target whose subspaces overlap
        # need full matrices for the second.
        circuit = Circuit.from_table(make_table((3, 2, 3), REPEATED_ROW_BLOCKS))
        built, _ = kernel_work(circuit, random_initial(circuit.dims, 3))
        assert built == [(5, 3)]
        built, _ = kernel_work(
            Circuit.from_table(make_table((3, 2, 3), [
                ({}, [(GIVENS, 2, 0, 1, 0.7, 0.2)]),
                ({0: 0}, [(GIVENS, 2, 1, 2, 0.9, -0.4)]),
            ]))
        )
        assert built == [(2, 1), (1, 3)]

    @pytest.mark.parametrize("min_fidelity", [1.0, 0.98])
    @pytest.mark.parametrize("dims", TABLE1_REGISTERS)
    def test_table1_random_states(self, dims, min_fidelity):
        state = random_state(dims, rng=sum(dims) + 1)
        assert_first_columns_only(
            prepare_state(state, min_fidelity=min_fidelity, verify=False).circuit
        )

    @pytest.mark.parametrize(
        "state",
        [
            ghz_state((3, 6, 2)),
            ghz_state((2,) * 6 + (3,) * 2),
            w_state((3, 6, 2)),
            w_state((2,) * 6 + (3,) * 2),
            dicke_state((2,) * 6 + (3,) * 2, 2),
        ],
        ids=["ghz-362", "ghz-mixed", "w-362", "w-mixed", "dicke-mixed"],
    )
    def test_structured_states(self, state):
        assert_first_columns_only(prepare_state(state, verify=False).circuit)

    @pytest.mark.parametrize(
        "option", ["emit_identity_rotations", "tensor_elision"]
    )
    @pytest.mark.parametrize("dims", [(3, 6, 2), (6, 6, 5, 3, 3)])
    def test_synthesis_options_off(self, dims, option):
        for state in (
            random_state(dims, rng=6),
            random_sparse_state(dims, num_terms=9, rng=6),
        ):
            assert_first_columns_only(
                prepare_state(state, verify=False, **{option: False}).circuit
            )

    def test_an_approximated_level_runs_one_batch_per_mask(self):
        # dense-12 at 0.98: its deepest levels carry several control
        # masks, each a batch, so it takes about as many kernel calls
        # as the exact table.
        dims = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2)
        state = random_state(dims, rng=7)
        exact = prepare_state(state, verify=False).circuit
        approximated = prepare_state(
            state, min_fidelity=0.98, verify=False
        ).circuit
        masks = {
            (int(target), tuple(row >= 0))
            for target, row in zip(
                approximated.table.target[approximated.table.offsets[:-1]],
                approximated.table.controls,
            )
        }
        assert len(masks) > len(dims)
        _, exact_calls = kernel_work(exact)
        built, calls = kernel_work(approximated)
        assert all(columns == 1 for _, columns in built)
        assert calls <= 20
        assert calls <= exact_calls + len(masks) - len(dims)


# ----------------------------------------------------------------------
# Nothing on the engine or serve path builds gates from a table
# ----------------------------------------------------------------------
@pytest.fixture
def no_gate_views(monkeypatch):
    """Make building gate objects from any table raise."""

    def refuse(self):
        raise AssertionError("gate objects were built from a table")

    monkeypatch.setattr(CircuitTable, "gates", refuse)


GUARD_JOBS = [
    {"family": "random", "dims": [3, 3, 2], "params": {"rng": 7}},
    {
        "family": "random",
        "dims": [4, 3, 3],
        "params": {"rng": 8},
        "min_fidelity": 0.98,
    },
    {"family": "ghz", "dims": [3, 6, 2]},
    {"family": "w", "dims": [2, 3, 2]},
]


class TestNoGateMaterialisation:
    def test_guard_is_armed(self, no_gate_views):
        circuit = sample_circuit()
        with pytest.raises(AssertionError):
            circuit.gates

    def test_prepare_state(self, no_gate_views):
        state = random_statevector((3, 4, 2), seed=11)
        result = prepare_state(state)
        assert result.circuit.table is not None
        assert result.report.fidelity >= 1.0 - 1e-10
        assert result.report.operations == result.circuit.num_operations

    @pytest.mark.parametrize("executor", ["serial", "process-pool"])
    def test_run_batch(self, no_gate_views, executor):
        backend = (
            ParallelExecutor(max_workers=2)
            if executor == "process-pool"
            else "serial"
        )
        engine = PreparationEngine(executor=backend)
        jobs = [job_from_dict(job) for job in GUARD_JOBS]
        batch = engine.run_batch(jobs)
        assert all(outcome.ok for outcome in batch.outcomes), [
            getattr(outcome, "message", "") for outcome in batch.outcomes
        ]
        for outcome in batch.outcomes:
            assert outcome.circuit.table is not None
            assert (
                outcome.circuit.num_operations == outcome.report.operations
            )

    def test_wire_and_disk_cache(self, no_gate_views, tmp_path):
        engine = PreparationEngine()
        outcomes = engine.run_batch(
            [job_from_dict(job) for job in GUARD_JOBS]
        ).outcomes
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        for position, outcome in enumerate(outcomes):
            assert outcome.ok
            wire = outcome_to_wire(outcome, include_circuit=True)
            assert str(wire["circuit"]) == qasm.dumps(outcome.circuit)
            key = f"k{position}"
            cache.put(
                CacheEntry(
                    key=key, circuit=outcome.circuit, report=outcome.report
                )
            )
            stored = CircuitCache(capacity=4, disk_dir=tmp_path).get(key)
            relayed = outcome_from_wire(wire, outcome.job)
            # A disk hit and a relayed circuit are tables again, with
            # the same operations and the same text.
            for circuit in (stored.circuit, relayed.circuit):
                assert circuit.table is not None
                assert circuit.table.same_operations(outcome.circuit.table)
                assert circuit.global_phase == outcome.circuit.global_phase
                assert qasm.dumps(circuit) == str(wire["circuit"])

    def test_disk_hit_and_relay_build_no_gate(self, tmp_path, monkeypatch):
        engine = PreparationEngine()
        outcome = engine.run_batch(
            [job_from_dict(GUARD_JOBS[1])]
        ).outcomes[0]
        wire = outcome_to_wire(outcome, include_circuit=True)
        CircuitCache(disk_dir=tmp_path).put(
            CacheEntry(key="k", circuit=outcome.circuit, report=outcome.report)
        )
        reader = CircuitCache(disk_dir=tmp_path)
        built = []
        construct = Gate.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Gate, "__init__", counting)
        stored = reader.get("k")
        relayed = outcome_from_wire(wire, outcome.job)
        assert built == []
        assert reader.stats.disk_hits == 1
        assert stored.circuit.table is not None
        assert relayed.circuit.table is not None
        # The counter sees gates: a gate-list text builds them.
        qasm.loads("QDASM 1.0\ndims 2 2\nshift t=0\n")
        assert built == ["ShiftGate"]


def test_preparation_is_the_reversed_negated_unpreparation():
    state = random_statevector((3, 2, 3), seed=21)
    dd = build_dd(state)
    unprep = synthesize_unpreparation(dd).table
    prep = synthesize_preparation(dd).table
    assert np.array_equal(prep.theta, -unprep.theta[::-1])
    assert np.array_equal(prep.phi, unprep.phi[::-1])
    assert np.array_equal(prep.controls, unprep.controls[::-1])
    assert np.array_equal(prep.block_lengths(), unprep.block_lengths()[::-1])
