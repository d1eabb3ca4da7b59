"""Tests for the columnar circuit store and every reader of its columns.

A synthesised circuit is a :class:`CircuitTable` wrapped in a
:class:`Circuit`.  These tests check that the table is refused under
each condition a gate list refuses, that every reader (counts,
statistics, inverse, pickling, QDASM, the block simulation kernel)
agrees with the equivalent gate list, and that nothing on the engine
or serve path builds gate objects from a table.
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
from repro.simulator.statevector_sim import simulate
from repro.states.statevector import StateVector

from tests.conftest import random_statevector
from tests.kernel_oracles import simulate_reference


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
        initial = random_initial(circuit.dims, seed)
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
