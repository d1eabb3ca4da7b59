"""Benchmark-trajectory harness for the three hot paths.

Times the vectorised kernels introduced by the hot-path PR against two
baselines and writes a machine-readable ``BENCH_hotpaths.json`` so
subsequent PRs have a perf trajectory to compare against:

* **seed** — a frozen, faithful copy of the PR-1 implementation
  (per-leaf recursive DD construction on the cell-claiming complex
  table; per-gate full-copy simulation through ``np.tensordot`` with
  uncached rotation matrices).  This baseline never changes: speedups
  against it measure the cumulative effect of every optimisation since
  the seed.
* **reference** — the scalar oracle kernels of
  ``tests/kernel_oracles.py`` (``build_dd_reference``,
  ``simulate_reference``).  These share the optimised complex table,
  unique table and gate-application kernel, so speedups against them
  isolate what the *vectorisation* itself buys on top of the
  shared-layer improvements.

Scenarios cover qubit-only, qutrit-only and mixed-radix registers with
GHZ, W, dense-random and sparse-random states.  Per scenario the
harness times DD construction (the vectorized kernel and the two
baselines, and apart from them making the node graph from the level
arrays, which the build no longer does), cold synthesis (the level-major ``synthesize_preparation``
against the gate-by-gate oracle of ``tests/synthesis_oracle.py``),
preparation verification (the block kernel on the synthesised table,
the same circuit as a gate list, and the two baselines),
``approximate(..., 0.98)`` on the level arrays against the scalar
oracle of ``tests/approximation_oracle.py`` and ``finalize`` on the
scenario's pipeline context.  It also checks the synthesised table
against the oracle's contract (the oracle's rows stably sorted by
target level, deepest first, then by control mask: equal target,
control row, kind and levels, angles within 1e-12), the statistics that ``build_dd`` and
``approximate`` store on their diagrams against the oracle of
``tests/kernel_oracles.py``, and every ``approximate`` result against
the scalar oracle's, and exits 1 on any mismatch.
Each scenario records whether ``approximate(..., 0.98)`` consulted a
complex table (``approximate.path``), and the run fails if
approximating a random state of the grid (real amplitudes, as in the
paper) did.  It also records how many rows that approximation
normalised again against the rows of the pruned diagram and the
changed ones among them (``approximate.rows``), and the run fails if
a row outside the changed set was renormalised, or a changed one was
not.
A second grid times the build alone, statistics included, on the two
paths it takes: random states, whose kept weights lie apart and skip
the complex table, and W, uniform and Dicke states on wide registers,
whose near-equal weights mostly replay it over those weights; each row
records the path taken (and approximate's path, ``approximate_path``)
and also times making the node graph, and the run fails if a random
state's build leaves the fast path.
Per scenario it also times the QDASM codec on the finalized circuit:
the columnar writer against the per-row writer and the columnar reader
against the gate-list parser, both of ``tests/qasm_oracle.py``, and
records whether the text is the oracle's byte for byte and whether it
reads back as a table; the run fails if either does not hold.
Per scenario it also times the table kernel's run-matrix build on the
synthesised circuit run from a random state (every run's full matrix)
against ``run_matrices_reference`` of ``tests/kernel_oracles.py`` and
records whether every matrix is the reference's byte for byte; the run
fails if one is not.  It also records verify's work from ``|0...0>``
(``verify.work``): its kernel calls (batch applications) and how many
runs it built as first columns and as full matrices, and whether every
first column is the reference's column 0 byte for byte; the run fails
if a synthesised table run from ``|0...0>`` builds a full matrix or a
column differs.
``--smoke`` runs a CI-sized grid and also fails unless block-kernel
verify is no slower than gate-list verify, the run-matrix build no
slower than the reference's, and the columnar writer no slower than
the per-row writer, on the smoke scenario with the most operations.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full grid
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpaths.py -o out.json

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.circuit import qasm  # noqa: E402
from repro.circuit.circuit import Circuit  # noqa: E402
from repro.circuit.gates import GivensRotation, PhaseRotation  # noqa: E402
from repro.core.synthesis import (  # noqa: E402
    synthesize_preparation,
    synthesize_unpreparation,
)
from repro.core.verification import (  # noqa: E402
    prepared_state,
    verify_preparation,
)
from repro.dd import approximation as approximation_module  # noqa: E402
from repro.dd.approximation import approximate  # noqa: E402
from repro.dd.builder import build_dd  # noqa: E402
from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge  # noqa: E402
from repro.dd.node import TERMINAL, DDNode  # noqa: E402
from repro.exceptions import DecisionDiagramError  # noqa: E402
from repro.linalg.rotations import (  # noqa: E402
    givens_matrix,
    phase_two_level_matrix,
)
from repro.pipeline import (  # noqa: E402
    PipelineConfig,
    default_pipeline,
    finalize,
)
from repro.states.fidelity import fidelity  # noqa: E402
from repro.linalg.complex_table import ComplexTable  # noqa: E402
from repro.states.library import (  # noqa: E402
    dicke_state,
    ghz_state,
    uniform_state,
    w_state,
)
from repro.states.random_states import (  # noqa: E402
    random_sparse_state,
    random_state,
)
from repro.simulator import statevector_sim  # noqa: E402
from repro.states.statevector import StateVector  # noqa: E402
from tests.approximation_oracle import (  # noqa: E402
    approximate_oracle,
    changed_rows_reference,
)
from tests.kernel_oracles import (  # noqa: E402
    build_dd_reference,
    run_matrices_reference,
    simulate_reference,
    stats_reference,
)
from tests.qasm_oracle import oracle_dumps, oracle_loads  # noqa: E402
from tests.synthesis_oracle import (  # noqa: E402
    level_major_mismatches,
    oracle_preparation,
    oracle_unpreparation,
)


# ----------------------------------------------------------------------
# Frozen seed baseline (PR 1).  Do not optimise: this is the anchor of
# the perf trajectory.
# ----------------------------------------------------------------------
class _SeedComplexTable:
    """The PR-1 complex table: cell-claiming inserts, 3x3 re-probing."""

    def __init__(self, tolerance: float = 1e-12):
        self._tolerance = tolerance
        self._cells: dict[tuple[int, int], complex] = {}
        self._values: list[complex] = []

    def _cell_of(self, value: complex) -> tuple[int, int]:
        scale = 1.0 / self._tolerance
        return (round(value.real * scale), round(value.imag * scale))

    def _close(self, a: complex, b: complex) -> bool:
        return (
            abs(a.real - b.real) <= self._tolerance
            and abs(a.imag - b.imag) <= self._tolerance
        )

    def lookup(self, value: complex) -> complex:
        value = complex(value)
        cell = self._cell_of(value)
        found = self._cells.get(cell)
        if found is not None and self._close(found, value):
            return found
        for dre in (-1, 0, 1):
            for dim in (-1, 0, 1):
                neighbour = self._cells.get(
                    (cell[0] + dre, cell[1] + dim)
                )
                if neighbour is not None and self._close(neighbour, value):
                    return neighbour
        self._values.append(value)
        for dre in (-1, 0, 1):
            for dim in (-1, 0, 1):
                self._cells.setdefault(
                    (cell[0] + dre, cell[1] + dim), value
                )
        return value


class _SeedUniqueTable:
    """The PR-1 unique table over the seed complex table."""

    def __init__(self):
        self._complex_table = _SeedComplexTable()
        self._nodes: dict[tuple, DDNode] = {}

    def get_node(self, level: int, edges) -> DDNode:
        canonical_edges = tuple(
            Edge(self._complex_table.lookup(edge.weight), edge.node)
            if not edge.is_zero
            else Edge.zero()
            for edge in edges
        )
        key = (
            level,
            tuple(
                (edge.weight, id(edge.node)) for edge in canonical_edges
            ),
        )
        node = self._nodes.get(key)
        if node is None:
            node = DDNode(level, canonical_edges)
            self._nodes[key] = node
        return node


def seed_build_dd(state: StateVector):
    """PR-1 ``build_dd``: one Python recursion per decomposition node."""
    table = _SeedUniqueTable()
    dims = state.dims
    amplitudes = np.ascontiguousarray(state.amplitudes)

    def normalize(raw_edges, level):
        norm_sq = math.fsum(abs(e.weight) ** 2 for e in raw_edges)
        norm = math.sqrt(norm_sq)
        if norm <= WEIGHT_ZERO_CUTOFF:
            return Edge.zero()
        phase = 1.0 + 0.0j
        for edge in raw_edges:
            if abs(edge.weight) > WEIGHT_ZERO_CUTOFF:
                phase = edge.weight / abs(edge.weight)
                break
        factor = norm * phase
        normalized = [
            Edge(e.weight / factor, e.node)
            if abs(e.weight) > WEIGHT_ZERO_CUTOFF
            else Edge.zero()
            for e in raw_edges
        ]
        return Edge(factor, table.get_node(level, normalized))

    def build(offset: int, length: int, level: int) -> Edge:
        if level == len(dims):
            weight = complex(amplitudes[offset])
            if abs(weight) <= WEIGHT_ZERO_CUTOFF:
                return Edge.zero()
            return Edge(weight, TERMINAL)
        dimension = dims[level]
        part = length // dimension
        children = [
            build(offset + digit * part, part, level + 1)
            for digit in range(dimension)
        ]
        return normalize(children, level)

    root = build(0, state.size, 0)
    return root


def _seed_gate_matrix(gate, dimension: int) -> np.ndarray:
    """Rebuild the local matrix per application, like the seed did."""
    if isinstance(gate, GivensRotation):
        return givens_matrix(
            dimension, gate.level_i, gate.level_j, gate.theta, gate.phi
        )
    if isinstance(gate, PhaseRotation):
        return phase_two_level_matrix(
            dimension, gate.level_i, gate.level_j, gate.delta
        )
    return gate.matrix(dimension)


def seed_simulate(circuit, initial: StateVector | None = None):
    """PR-1 ``simulate``: two full-state copies per gate, tensordot."""
    import cmath

    if initial is None:
        initial = StateVector.zero_state(circuit.register)
    state = initial
    dims = circuit.dims
    for gate in circuit.gates:
        gate.validate(dims)
        tensor = state.as_tensor().copy()
        local = _seed_gate_matrix(gate, dims[gate.target])
        index: list[object] = [slice(None)] * len(dims)
        for control in gate.controls:
            index[control.qudit] = control.level
        selector = tuple(index)
        subspace = tensor[selector]
        axis = gate.target - sum(
            1 for control in gate.controls if control.qudit < gate.target
        )
        moved = np.moveaxis(subspace, axis, 0)
        transformed = np.tensordot(local, moved, axes=(1, 0))
        tensor[selector] = np.moveaxis(transformed, 0, axis)
        state = StateVector(tensor.reshape(-1), state.register)
    if circuit.global_phase:
        state = StateVector(
            state.amplitudes * cmath.exp(1j * circuit.global_phase),
            state.register,
        )
    return state


def seed_verify(circuit, target: StateVector) -> float:
    return fidelity(target.normalized(), seed_simulate(circuit))


# ----------------------------------------------------------------------
# Scenario grid
# ----------------------------------------------------------------------
def _scenarios(smoke: bool) -> list[dict]:
    """The scenario grid: (name, dims, state builder)."""
    rng = np.random.default_rng(2024)

    def dense(dims):
        return random_state(dims, rng=rng)

    def sparse(dims):
        size = int(np.prod(dims))
        return random_sparse_state(
            dims, num_terms=max(2, size // 16), rng=rng
        )

    if smoke:
        grid = [
            ("ghz-qubit-8", (2,) * 8, ghz_state),
            ("w-mixed-6", (3, 2, 2, 3, 2, 2), w_state),
            ("dense-random-mixed-8", (2, 3, 2, 2, 3, 2, 2, 2), dense),
            ("sparse-random-mixed-8", (3, 2, 3, 2, 2, 2, 2, 3), sparse),
        ]
    else:
        mixed12 = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2)
        grid = [
            ("ghz-qubit-10", (2,) * 10, ghz_state),
            ("ghz-qutrit-7", (3,) * 7, ghz_state),
            ("w-qubit-10", (2,) * 10, w_state),
            ("w-mixed-10", (3, 2, 2, 3, 2, 2, 2, 3, 2, 2), w_state),
            ("dense-random-qubit-12", (2,) * 12, dense),
            ("dense-random-qutrit-8", (3,) * 8, dense),
            ("dense-random-mixed-12", mixed12, dense),
            ("sparse-random-mixed-12", mixed12, sparse),
            ("sparse-random-qubit-12", (2,) * 12, sparse),
        ]
    kinds = {dense: "random", sparse: "sparse"}
    return [
        {
            "name": name,
            "dims": dims,
            "state": builder(dims),
            "kind": kinds.get(builder, "structured"),
        }
        for name, dims, builder in grid
    ]


def _build_path_scenarios(smoke: bool) -> list[dict]:
    """The build grid: random states, which must take the fast path,
    and W, uniform and Dicke states on wide registers, whose
    near-equal weights mostly make the build replay the complex
    table."""
    rng = np.random.default_rng(2025)
    if smoke:
        fast_dims = [(2, 3, 2, 2, 3, 2, 2, 2)]
        wide = [(2,) * 6 + (3,) * 2]
    else:
        fast_dims = [
            (6, 6, 5, 3, 3),
            (4, 7, 4, 4, 3, 5),
            (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2),
        ]
        wide = [(2,) * 8 + (3,) * 4 + (5,), (2,) * 12 + (3,) * 4]
    grid = [
        (f"random-{'x'.join(map(str, dims))}", "random", dims,
         random_state(dims, rng=rng, distribution="gaussian"))
        for dims in fast_dims
    ]
    for dims in wide:
        label = f"{len(dims)}q"
        grid += [
            (f"w-{label}", "structured", dims, w_state(dims)),
            (f"uniform-{label}", "structured", dims, uniform_state(dims)),
            (f"dicke2-{label}", "structured", dims, dicke_state(dims, 2)),
        ]
    return [
        {"name": name, "kind": kind, "dims": dims, "state": state}
        for name, kind, dims, state in grid
    ]


def path_of(call) -> str:
    """``"replay"`` when ``call()`` consults a complex table, else
    ``"fast"``."""
    calls = []
    lookup_many = ComplexTable.lookup_many

    def counting(table, values):
        calls.append(None)
        return lookup_many(table, values)

    ComplexTable.lookup_many = counting
    try:
        call()
    finally:
        ComplexTable.lookup_many = lookup_many
    return "replay" if calls else "fast"


def build_path_of(state: StateVector) -> str:
    """The path building ``state`` takes (see :func:`path_of`)."""
    return path_of(lambda: build_dd(state))


def approximate_path_of(state: StateVector, min_fidelity: float = 0.98) -> str:
    """The path approximating ``state``'s diagram takes, statistics of
    the result included; the build runs outside the count."""
    diagram = build_dd(state)
    return path_of(lambda: approximate(diagram, min_fidelity))


def run_build_paths(smoke: bool, repeats: int) -> list[dict]:
    """Build plus statistics, and making the nodes, per path."""
    rows = []
    for scenario in _build_path_scenarios(smoke):
        state = scenario["state"]

        def build_with_stats():
            return build_dd(state).stats

        build_s = _best_of(build_with_stats, repeats)
        materialize_s = _best_of_cold(
            lambda: build_dd(state),
            lambda dd: dd.level_nodes(),
            repeats,
        )
        row = {
            "name": scenario["name"],
            "dims": list(scenario["dims"]),
            "size": state.size,
            "kind": scenario["kind"],
            "path": build_path_of(state),
            "approximate_path": approximate_path_of(state),
            "build_s": round(build_s, 6),
            "materialize_s": round(materialize_s, 6),
            "dag_nodes": build_dd(state).stats.num_nodes,
        }
        print(f"[build {row['name']}] {row['path']:8s} build+stats "
              f"{build_s * 1e3:8.2f} ms | make nodes "
              f"{materialize_s * 1e3:8.2f} ms | "
              f"{row['dag_nodes']} nodes | approximate "
              f"{row['approximate_path']}", flush=True)
        rows.append(row)
    return rows


def _best_of(callable_, repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs, GC parked."""
    best = math.inf
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - start
        gc.enable()
        best = min(best, elapsed)
    return best


def _best_of_cold(make_input, callable_, repeats: int) -> float:
    """Minimum wall time of ``callable_(make_input())`` over ``repeats``
    runs, each on a fresh input made outside the timed interval."""
    best = math.inf
    for _ in range(repeats):
        value = make_input()
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        callable_(value)
        elapsed = time.perf_counter() - start
        gc.enable()
        best = min(best, elapsed)
    return best


def _with_nodes(dd):
    """``dd`` with its node graph made, for the node-walking oracles."""
    dd.level_nodes()
    return dd


def _round_speedup(baseline: float, new: float) -> float:
    return round(baseline / new, 2) if new > 0 else float("inf")


def run_qdasm(circuit: Circuit, repeats: int) -> dict:
    """The QDASM codec on ``circuit``: writer and reader times against
    the oracles, byte identity, and whether the text reads back as a
    table."""
    text = qasm.dumps(circuit)
    writer_s = _best_of(lambda: qasm.dumps(circuit), repeats)
    writer_oracle_s = _best_of(lambda: oracle_dumps(circuit), repeats)
    reader_s = _best_of(lambda: qasm.loads(text), repeats)
    reader_oracle_s = _best_of(lambda: oracle_loads(text), repeats)
    restored = qasm.loads(text)
    return {
        "operations": circuit.num_operations,
        "kib": round(len(text) / 1024, 1),
        "writer_s": round(writer_s, 6),
        "writer_oracle_s": round(writer_oracle_s, 6),
        "writer_speedup_vs_oracle": _round_speedup(
            writer_oracle_s, writer_s
        ),
        "reader_s": round(reader_s, 6),
        "reader_oracle_s": round(reader_oracle_s, 6),
        "reader_speedup_vs_oracle": _round_speedup(
            reader_oracle_s, reader_s
        ),
        "bytes_match": (
            text == oracle_dumps(circuit) and qasm.dumps(restored) == text
        ),
        "read_as_table": restored.table is not None,
    }


def _same_stacks(stacks, positions, expected, expected_positions) -> bool:
    return bool(
        np.array_equal(positions, expected_positions)
        and stacks.keys() == expected.keys()
        and all(
            stack.shape == expected[dimension].shape
            and stack.tobytes() == expected[dimension].tobytes()
            for dimension, stack in stacks.items()
        )
    )


def run_matrices(circuit: Circuit, repeats: int) -> dict:
    """The table kernel's run-matrix build on ``circuit``'s runs against
    ``run_matrices_reference`` of ``tests/kernel_oracles.py``: times,
    and whether every matrix is the reference's byte for byte.  The
    runs are those of a run from a random state, where the kernel
    builds every run's full matrix.

    Each build takes well under a millisecond on the smoke grid, so the
    minimum is taken over five times ``repeats`` runs."""
    repeats *= 5
    production = statevector_sim._run_matrices
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return production(*args, **kwargs)

    rng = np.random.default_rng(0)
    initial = rng.normal(size=circuit.register.size) + 1j * rng.normal(
        size=circuit.register.size
    )
    statevector_sim._run_matrices = record
    try:
        statevector_sim.simulate_inplace(circuit, initial)
    finally:
        statevector_sim._run_matrices = production
    (args,) = calls
    stacks, positions = production(*args)
    expected, expected_positions = run_matrices_reference(*args)
    return {
        "build_s": round(_best_of(lambda: production(*args), repeats), 6),
        "reference_s": round(
            _best_of(lambda: run_matrices_reference(*args), repeats), 6
        ),
        "bytes_match": _same_stacks(
            stacks, positions, expected, expected_positions
        ),
    }


def verify_work(circuit: Circuit) -> dict:
    """What verify does from ``|0...0>``: its kernel calls (batch
    applications), the runs it built as first columns and as full
    matrices, and whether every first column is column 0 of
    ``run_matrices_reference``'s matrix, byte for byte."""
    production = statevector_sim._run_matrices
    apply = statevector_sim._apply_batch
    work = {
        "kernel_calls": 0,
        "first_column_runs": 0,
        "full_matrix_runs": 0,
        "columns_match": True,
    }

    def record(table, starts, lengths, run_dims, full=True):
        stacks, positions = production(table, starts, lengths, run_dims, full)
        runs = sum(stack.shape[0] for stack in stacks.values())
        if full:
            work["full_matrix_runs"] += runs
        else:
            work["first_column_runs"] += runs
            expected, expected_positions = run_matrices_reference(
                table, starts, lengths, run_dims
            )
            work["columns_match"] &= _same_stacks(
                stacks,
                positions,
                {
                    dimension: np.ascontiguousarray(stack[:, :, :1])
                    for dimension, stack in expected.items()
                },
                expected_positions,
            )
        return stacks, positions

    def count(*args):
        work["kernel_calls"] += 1
        return apply(*args)

    statevector_sim._run_matrices = record
    statevector_sim._apply_batch = count
    try:
        prepared_state(circuit)
    finally:
        statevector_sim._run_matrices = production
        statevector_sim._apply_batch = apply
    return work


def approximation_mismatches(
    state: StateVector, min_fidelity: float = 0.98
) -> list[str]:
    """Fields where ``approximate`` and the scalar oracle disagree.

    Each runs on its own freshly built diagram.  The checks are those
    of ``tests/test_dd_approximation.py::TestMatchesScalarOracle``.
    """
    result = approximate(build_dd(state), min_fidelity)
    expected = approximate_oracle(build_dd(state), min_fidelity)
    amplitudes = result.diagram.to_statevector().amplitudes
    mismatches = []
    if result.removed_nodes != expected.removed_nodes:
        mismatches.append("removed_nodes")
    if result.removed_leaves != expected.removed_leaves:
        mismatches.append("removed_leaves")
    if len(result.removal_log) != len(expected.removal_log) or not all(
        math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
        for a, b in zip(result.removal_log, expected.removal_log)
    ):
        mismatches.append("removal_log")
    if not math.isclose(
        result.removed_mass, expected.removed_mass, rel_tol=1e-12, abs_tol=0.0
    ):
        mismatches.append("removed_mass")
    if abs(result.fidelity - expected.fidelity) > 1e-12:
        mismatches.append("fidelity")
    if result.diagram.stats != stats_reference(result.diagram):
        mismatches.append("stats")
    if not np.allclose(
        amplitudes,
        expected.diagram.to_statevector().amplitudes,
        rtol=0.0,
        atol=1e-12,
    ):
        mismatches.append("amplitudes")
    try:
        for node in result.diagram.nodes():
            node.check_invariants()
    except DecisionDiagramError:
        mismatches.append("invariants")
    return mismatches


def renormalised_rows(
    state: StateVector, min_fidelity: float = 0.98
) -> dict:
    """How many rows ``approximate`` normalised again, against the rows
    of the pruned diagram and the changed rows among them.

    Counts the rows of every ``_in_edge_factors`` call, as
    ``record_tables`` in ``tests/test_dd_approximation.py`` records
    complex-table batches, and takes the changed rows from the pruned
    levels ``_rebuild`` receives by ``changed_rows_reference`` of
    ``tests/approximation_oracle.py``.
    ``outside_changed`` counts renormalised rows that are not changed.
    """
    rebuild = approximation_module._rebuild
    in_edge_factors = approximation_module._in_edge_factors
    counts: list[int] = []
    calls = []

    def counting(raw, magnitudes):
        counts.append(raw.shape[0])
        return in_edge_factors(raw, magnitudes)

    def recording(weights, children, lost, inputs, orders):
        pruned = (
            [level.copy() for level in weights],
            [level.copy() for level in children],
            [level.copy() for level in lost],
        )
        result = rebuild(weights, children, lost, inputs, orders)
        calls.append((pruned, result[3]))
        return result

    diagram = build_dd(state)
    approximation_module._rebuild = recording
    approximation_module._in_edge_factors = counting
    try:
        approximate(diagram, min_fidelity)
    finally:
        approximation_module._rebuild = rebuild
        approximation_module._in_edge_factors = in_edge_factors
    ((weights, children, lost), reported), = calls
    expected = [
        set(rows) for rows in changed_rows_reference(weights, children, lost)
    ]
    renormalised = sum(counts)
    listed = sum(len(rows) for rows in reported)
    outside = sum(
        len(set(rows.tolist()) - rows_expected)
        for rows, rows_expected in zip(reported, expected)
    ) + max(0, renormalised - listed)
    return {
        "renormalised": renormalised,
        "changed": sum(len(rows) for rows in expected),
        "reachable": sum(
            int(mark.sum())
            for mark in approximation_module._reachable(children)
        ),
        "outside_changed": outside,
    }


def run(smoke: bool, repeats: int) -> dict:
    scenarios = _scenarios(smoke)
    results = []
    for scenario in scenarios:
        name, dims, state = (
            scenario["name"], scenario["dims"], scenario["state"]
        )
        print(f"[{name}] dims={'x'.join(map(str, dims))} "
              f"size={state.size}", flush=True)

        vector_s = _best_of(lambda: build_dd(state), repeats)
        reference_s = _best_of(
            lambda: build_dd_reference(state), repeats
        )
        seed_s = _best_of(lambda: seed_build_dd(state), repeats)
        materialize_s = _best_of_cold(
            lambda: build_dd(state), lambda dd: dd.level_nodes(), repeats
        )
        diagram = build_dd(state)
        # The oracles walk nodes: make them outside every timed interval.
        diagram.level_nodes()
        build = {
            "vectorized_s": round(vector_s, 6),
            "materialize_s": round(materialize_s, 6),
            "reference_s": round(reference_s, 6),
            "seed_s": round(seed_s, 6),
            "speedup_vs_reference": _round_speedup(reference_s, vector_s),
            "speedup_vs_seed": _round_speedup(seed_s, vector_s),
            "dag_nodes": diagram.stats.num_nodes,
        }
        print(f"  build: vectorized {vector_s * 1e3:8.2f} ms"
              f" | make nodes {materialize_s * 1e3:8.2f} ms"
              f" | reference {reference_s * 1e3:8.2f} ms"
              f" ({build['speedup_vs_reference']:.2f}x)"
              f" | seed {seed_s * 1e3:8.2f} ms"
              f" ({build['speedup_vs_seed']:.2f}x)", flush=True)

        columnar_s = _best_of(
            lambda: synthesize_preparation(diagram), repeats
        )
        oracle_s = _best_of(lambda: oracle_preparation(diagram), repeats)
        synthesize = {
            "columnar_s": round(columnar_s, 6),
            "oracle_s": round(oracle_s, 6),
            "speedup_vs_oracle": _round_speedup(oracle_s, columnar_s),
            "oracle_mismatches": level_major_mismatches(
                synthesize_unpreparation(diagram).table,
                oracle_unpreparation(diagram),
            ),
        }
        print(f"  synthesize: columnar {columnar_s * 1e3:7.2f} ms"
              f" | oracle {oracle_s * 1e3:7.2f} ms"
              f" ({synthesize['speedup_vs_oracle']:.2f}x)"
              f" | mismatches: {synthesize['oracle_mismatches']}",
              flush=True)

        config = PipelineConfig(verify=False)
        context = default_pipeline(config).run(state, config=config)
        circuit = finalize(context).circuit
        # The same operations as a gate list: per-gate verify, each
        # call building its gate matrices.
        gate_list = Circuit(circuit.register)
        gate_list.extend(circuit.gates)
        gate_list.global_phase = circuit.global_phase
        table_s = _best_of(
            lambda: verify_preparation(circuit, state), repeats
        )
        gate_list_s = _best_of(
            lambda: verify_preparation(gate_list, state), repeats
        )
        ref_verify_s = _best_of(
            lambda: fidelity(
                state.normalized(), simulate_reference(circuit)
            ),
            repeats,
        )
        seed_verify_s = _best_of(
            lambda: seed_verify(circuit, state), repeats
        )
        verify = {
            "operations": circuit.num_operations,
            "table_s": round(table_s, 6),
            "gate_list_s": round(gate_list_s, 6),
            "reference_s": round(ref_verify_s, 6),
            "seed_s": round(seed_verify_s, 6),
            "speedup_vs_gate_list": _round_speedup(gate_list_s, table_s),
            "speedup_vs_reference": _round_speedup(
                ref_verify_s, table_s
            ),
            "speedup_vs_seed": _round_speedup(seed_verify_s, table_s),
            "run_matrices": run_matrices(circuit, repeats),
            "work": verify_work(circuit),
        }
        matrices = verify["run_matrices"]
        work = verify["work"]
        print(f"  verify: table {table_s * 1e3:7.2f} ms"
              f" | gate list {gate_list_s * 1e3:7.2f} ms"
              f" ({verify['speedup_vs_gate_list']:.2f}x)"
              f" | reference {ref_verify_s * 1e3:7.2f} ms"
              f" ({verify['speedup_vs_reference']:.2f}x)"
              f" | seed {seed_verify_s * 1e3:7.2f} ms"
              f" ({verify['speedup_vs_seed']:.2f}x)"
              f" | run matrices {matrices['build_s'] * 1e3:6.2f} ms"
              f" | reference {matrices['reference_s'] * 1e3:6.2f} ms"
              f" | bytes match: {matrices['bytes_match']}", flush=True)
        print(f"  verify from |0...0>: {work['kernel_calls']} kernel calls"
              f" | {work['first_column_runs']} first columns"
              f" | {work['full_matrix_runs']} full matrices"
              f" | columns match: {work['columns_match']}", flush=True)

        # Cold: each run approximates a freshly built diagram.
        arrays_s = _best_of_cold(
            lambda: build_dd(state),
            lambda dd: approximate(dd, 0.98),
            repeats,
        )
        approx_oracle_s = _best_of_cold(
            lambda: _with_nodes(build_dd(state)),
            lambda dd: approximate_oracle(dd, 0.98),
            repeats,
        )
        approximation = {
            "arrays_s": round(arrays_s, 6),
            "oracle_s": round(approx_oracle_s, 6),
            "speedup_vs_oracle": _round_speedup(approx_oracle_s, arrays_s),
            "removed_nodes": approximate(build_dd(state), 0.98).removed_nodes,
            "path": approximate_path_of(state),
            "oracle_mismatches": approximation_mismatches(state),
            "rows": renormalised_rows(state),
        }
        rows = approximation["rows"]
        print(f"  approximate: arrays {arrays_s * 1e3:7.2f} ms"
              f" | oracle {approx_oracle_s * 1e3:7.2f} ms"
              f" ({approximation['speedup_vs_oracle']:.2f}x)"
              f" | {approximation['path']}"
              f" | mismatches: {approximation['oracle_mismatches']}"
              f" | renormalised {rows['renormalised']} of"
              f" {rows['reachable']} rows ({rows['changed']} changed)",
              flush=True)

        qdasm = run_qdasm(circuit, repeats)
        print(f"  qdasm: write {qdasm['writer_s'] * 1e3:7.2f} ms"
              f" | oracle {qdasm['writer_oracle_s'] * 1e3:7.2f} ms"
              f" ({qdasm['writer_speedup_vs_oracle']:.2f}x)"
              f" | read {qdasm['reader_s'] * 1e3:7.2f} ms"
              f" | oracle {qdasm['reader_oracle_s'] * 1e3:7.2f} ms"
              f" ({qdasm['reader_speedup_vs_oracle']:.2f}x)"
              f" | bytes match: {qdasm['bytes_match']}"
              f" | table: {qdasm['read_as_table']}", flush=True)

        finalize_s = _best_of(lambda: finalize(context), repeats)
        checked = {
            "build_dd": diagram,
            "approximate-0.98": approximate(diagram, 0.98).diagram,
        }
        metrics = {
            "finalize_s": round(finalize_s, 6),
            "oracle_mismatches": [
                label
                for label, dd in checked.items()
                if dd.stats != stats_reference(dd)
            ],
        }
        print(f"  finalize: {finalize_s * 1e3:7.2f} ms"
              f" | stats mismatches: {metrics['oracle_mismatches']}",
              flush=True)

        results.append({
            "name": name,
            "kind": scenario["kind"],
            "dims": list(dims),
            "size": state.size,
            "build": build,
            "synthesize": synthesize,
            "verify": verify,
            "approximate": approximation,
            "qdasm": qdasm,
            "stats": metrics,
        })

    headline_name = (
        "dense-random-mixed-8" if smoke else "dense-random-mixed-12"
    )
    headline_row = next(
        r for r in results if r["name"] == headline_name
    )
    payload = {
        "generated_by": "benchmarks/bench_hotpaths.py",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": {"repeats": repeats, "reducer": "min"},
        "baselines": {
            "seed": "frozen PR-1 implementation (see module docstring)",
            "reference": "retained scalar kernels sharing optimised "
                         "tables and gate kernel",
            "oracle": "gate-by-gate depth-first synthesis, "
                      "tests/synthesis_oracle.py",
            "gate_list": "the synthesised circuit as a gate list, "
                         "verified gate by gate",
            "approximate_oracle": "per-node approximation, "
                                  "tests/approximation_oracle.py",
            "qdasm_oracle": "per-row writer and gate-list parser, "
                            "tests/qasm_oracle.py",
        },
        "headline": {
            "scenario": headline_name,
            "build_speedup_vs_seed":
                headline_row["build"]["speedup_vs_seed"],
            "build_speedup_vs_reference":
                headline_row["build"]["speedup_vs_reference"],
            "synthesize_speedup_vs_oracle":
                headline_row["synthesize"]["speedup_vs_oracle"],
            "verify_speedup_vs_gate_list":
                headline_row["verify"]["speedup_vs_gate_list"],
            "verify_speedup_vs_seed":
                headline_row["verify"]["speedup_vs_seed"],
            "verify_speedup_vs_reference":
                headline_row["verify"]["speedup_vs_reference"],
            "approximate_speedup_vs_oracle":
                headline_row["approximate"]["speedup_vs_oracle"],
            "qdasm_writer_speedup_vs_oracle":
                headline_row["qdasm"]["writer_speedup_vs_oracle"],
            "qdasm_reader_speedup_vs_oracle":
                headline_row["qdasm"]["reader_speedup_vs_oracle"],
        },
        "scenarios": results,
        "build_paths": run_build_paths(smoke, repeats),
    }
    return payload


def verify_floor(payload: dict) -> str | None:
    """The smoke floor: block-kernel verify no slower than gate-list
    verify on the scenario with the most operations.

    Returns the failure message, or ``None`` when the floor holds.
    """
    largest = max(
        payload["scenarios"], key=lambda row: row["verify"]["operations"]
    )
    verify = largest["verify"]
    if verify["table_s"] > verify["gate_list_s"]:
        return (
            f"[{largest['name']}] block-kernel verify "
            f"{verify['table_s'] * 1e3:.2f} ms is slower than gate-list "
            f"verify {verify['gate_list_s'] * 1e3:.2f} ms"
        )
    return None


def run_matrices_floor(payload: dict) -> str | None:
    """The smoke floor of the run-matrix build: no slower than
    ``run_matrices_reference`` on the scenario with the most
    operations.

    Returns the failure message, or ``None`` when the floor holds.
    """
    largest = max(
        payload["scenarios"], key=lambda row: row["verify"]["operations"]
    )
    matrices = largest["verify"]["run_matrices"]
    if matrices["build_s"] > matrices["reference_s"]:
        return (
            f"[{largest['name']}] the run-matrix build "
            f"{matrices['build_s'] * 1e3:.2f} ms is slower than "
            f"run_matrices_reference {matrices['reference_s'] * 1e3:.2f} ms"
        )
    return None


def run_matrices_check(payload: dict) -> str | None:
    """Every scenario's run matrices are ``run_matrices_reference``'s
    byte for byte.

    Returns the failure message, or ``None`` when they are.
    """
    failures = [
        row["name"]
        for row in payload["scenarios"]
        if not row["verify"]["run_matrices"]["bytes_match"]
    ]
    if failures:
        return "run matrices differ from the reference on " + ", ".join(
            failures
        )
    return None


def first_columns_check(payload: dict) -> str | None:
    """Verify from ``|0...0>`` builds no full run matrix for a
    synthesised table, and its first columns are the reference's
    column 0 byte for byte.

    Returns the failure message, or ``None`` when both hold.
    """
    failures = [
        f"{row['name']} ({work['full_matrix_runs']} full matrices, "
        f"columns match: {work['columns_match']})"
        for row in payload["scenarios"]
        for work in [row["verify"]["work"]]
        if work["full_matrix_runs"] or not work["columns_match"]
    ]
    if failures:
        return "verify from |0...0> on " + ", ".join(failures)
    return None


def qdasm_floor(payload: dict) -> str | None:
    """The smoke floor of the QDASM writer: no slower than the per-row
    writer on the scenario with the most operations.

    Returns the failure message, or ``None`` when the floor holds.
    """
    largest = max(
        payload["scenarios"], key=lambda row: row["qdasm"]["operations"]
    )
    qdasm = largest["qdasm"]
    if qdasm["writer_s"] > qdasm["writer_oracle_s"]:
        return (
            f"[{largest['name']}] columnar QDASM writer "
            f"{qdasm['writer_s'] * 1e3:.2f} ms is slower than the per-row "
            f"writer {qdasm['writer_oracle_s'] * 1e3:.2f} ms"
        )
    return None


def qdasm_check(payload: dict) -> str | None:
    """Every scenario's QDASM is the oracle's byte for byte, and reads
    back as a table circuit that writes the same bytes.

    Returns the failure message, or ``None`` when all hold.
    """
    failures = [
        f"{row['name']}: "
        + ("bytes differ" if not row["qdasm"]["bytes_match"]
           else "read back as a gate list")
        for row in payload["scenarios"]
        if not (row["qdasm"]["bytes_match"] and row["qdasm"]["read_as_table"])
    ]
    if failures:
        return "QDASM codec fails on " + "; ".join(failures)
    return None


def synthesis_check(payload: dict) -> str | None:
    """The synthesised table keeps the level-major contract against the
    gate-by-gate oracle on every scenario.

    Returns the failure message, or ``None`` when all agree.
    """
    failures = [
        f"{row['name']}: {', '.join(row['synthesize']['oracle_mismatches'])}"
        for row in payload["scenarios"]
        if row["synthesize"]["oracle_mismatches"]
    ]
    if failures:
        return "synthesis differs from the oracle on " + "; ".join(failures)
    return None


def stats_check(payload: dict) -> str | None:
    """Stored diagram statistics equal the oracle on every scenario.

    Returns the failure message, or ``None`` when all match.
    """
    failures = [
        f"{row['name']}: {', '.join(row['stats']['oracle_mismatches'])}"
        for row in payload["scenarios"]
        if row["stats"]["oracle_mismatches"]
    ]
    if failures:
        return "stats differ from the oracle on " + "; ".join(failures)
    return None


def approximation_check(payload: dict) -> str | None:
    """``approximate`` agrees with the scalar oracle on every scenario.

    Returns the failure message, or ``None`` when all agree.
    """
    failures = [
        f"{row['name']}: {', '.join(row['approximate']['oracle_mismatches'])}"
        for row in payload["scenarios"]
        if row["approximate"]["oracle_mismatches"]
    ]
    if failures:
        return "approximate differs from the oracle on " + "; ".join(failures)
    return None


def renormalised_rows_check(payload: dict) -> str | None:
    """``approximate`` normalised again exactly the changed rows on
    every scenario: none outside them, and each of them.

    Returns the failure message, or ``None`` when that holds.
    """
    failures = [
        f"{row['name']}: {rows['renormalised']} renormalised, "
        f"{rows['changed']} changed, {rows['outside_changed']} outside"
        for row in payload["scenarios"]
        for rows in [row["approximate"]["rows"]]
        if rows["outside_changed"] or rows["renormalised"] != rows["changed"]
    ]
    if failures:
        return "approximate renormalised rows outside the changed set on " + (
            "; ".join(failures)
        )
    return None


def build_path_check(payload: dict) -> str | None:
    """Every random state of the build grid took the fast path.

    Returns the failure message, or ``None`` when all did.
    """
    failures = [
        f"{row['name']} took the {row['path']} path"
        for row in payload["build_paths"]
        if row["kind"] == "random" and row["path"] != "fast"
    ]
    if failures:
        return "; ".join(failures)
    return None


def approximate_path_check(payload: dict) -> str | None:
    """Approximating a random state of the scenario grid (real
    amplitudes, as in the paper) consulted no complex table.

    Returns the failure message, or ``None`` when none did.
    """
    failures = [
        f"{row['name']} took the {row['approximate']['path']} path"
        for row in payload["scenarios"]
        if row["kind"] == "random" and row["approximate"]["path"] != "fast"
    ]
    if failures:
        return "; ".join(failures)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timing repeats per measurement (min is reported)",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output JSON path (default: BENCH_hotpaths.json at the "
             "repo root for full runs, BENCH_hotpaths_smoke.json in "
             "the working directory for --smoke runs)",
    )
    options = parser.parse_args(argv)

    payload = run(options.smoke, options.repeats)

    if options.output is not None:
        output = Path(options.output)
    elif options.smoke:
        output = Path("BENCH_hotpaths_smoke.json")
    else:
        output = REPO_ROOT / "BENCH_hotpaths.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    headline = payload["headline"]
    print(
        f"\nheadline [{headline['scenario']}]: build "
        f"{headline['build_speedup_vs_seed']:.2f}x vs seed "
        f"({headline['build_speedup_vs_reference']:.2f}x vs reference), "
        f"verify {headline['verify_speedup_vs_seed']:.2f}x vs seed "
        f"({headline['verify_speedup_vs_reference']:.2f}x vs reference, "
        f"{headline['verify_speedup_vs_gate_list']:.2f}x vs gate list), "
        f"synthesize {headline['synthesize_speedup_vs_oracle']:.2f}x "
        f"vs oracle, approximate "
        f"{headline['approximate_speedup_vs_oracle']:.2f}x vs oracle, "
        f"QDASM write {headline['qdasm_writer_speedup_vs_oracle']:.2f}x / "
        f"read {headline['qdasm_reader_speedup_vs_oracle']:.2f}x vs oracle"
    )
    print(f"wrote {output}")
    failure = synthesis_check(payload)
    if failure is not None:
        print(f"SYNTHESIS CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("synthesis check held: the table is the oracle's, level-major")
    failure = stats_check(payload)
    if failure is not None:
        print(f"STATS CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("stats check held: stored statistics equal the oracle")
    failure = approximation_check(payload)
    if failure is not None:
        print(f"APPROXIMATION CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("approximation check held: approximate agrees with the oracle")
    failure = renormalised_rows_check(payload)
    if failure is not None:
        print(f"RENORMALISED ROWS CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("renormalised rows check held: approximate normalised the "
          "changed rows only")
    failure = build_path_check(payload)
    if failure is not None:
        print(f"BUILD PATH CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("build path check held: random states skip the complex table")
    failure = approximate_path_check(payload)
    if failure is not None:
        print(f"APPROXIMATE PATH CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("approximate path check held: approximating random states "
          "skips the complex table")
    failure = qdasm_check(payload)
    if failure is not None:
        print(f"QDASM CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("QDASM check held: the oracle's bytes, read back as tables")
    failure = run_matrices_check(payload)
    if failure is not None:
        print(f"RUN MATRICES CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("run matrices check held: the reference's bytes")
    failure = first_columns_check(payload)
    if failure is not None:
        print(f"FIRST COLUMNS CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("first columns check held: verify from |0...0> builds first "
          "columns only, the reference's bytes")
    if options.smoke:
        failure = verify_floor(payload)
        if failure is not None:
            print(f"FLOOR FAILED: {failure}", file=sys.stderr)
            return 1
        print("floor held: block-kernel verify <= gate-list verify")
        failure = run_matrices_floor(payload)
        if failure is not None:
            print(f"FLOOR FAILED: {failure}", file=sys.stderr)
            return 1
        print("floor held: run-matrix build <= run_matrices_reference")
        failure = qdasm_floor(payload)
        if failure is not None:
            print(f"FLOOR FAILED: {failure}", file=sys.stderr)
            return 1
        print("floor held: columnar QDASM writer <= per-row writer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
