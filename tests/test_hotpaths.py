"""Equivalence and speedup guarantees for the vectorised hot paths.

The vectorised DD builder and the in-place simulator must be drop-in
replacements for the scalar oracles of ``tests/kernel_oracles.py``:

* property-based equivalence — random mixed-radix registers with
  dense, sparse and phase-rich states, and duplicate-heavy states
  whose tree blocks repeat, must produce node-for-node identical
  diagrams (same levels, edge weights, sharing, root weight and
  amplitudes) from :func:`build_dd` and :func:`build_dd_reference`
  (the strategies keep distinct weights separated by far more than
  the 1e-12 uniquing tolerance; see the builder module docstring for
  the near-tolerance-collision caveat),
  and bit-for-bit identical statevectors from :func:`simulate`,
  :func:`simulate_inplace` and :func:`simulate_reference`;
* loose speedup floors — the build must stay at least 5x and verify
  1.5x faster than the references on a dense random state, and the
  level-major synthesis at least 10x faster than the gate-by-gate
  oracle of ``tests/synthesis_oracle.py`` (the benchmark harness
  tracks the real, larger factors);
* no nodes on the serve path — ``prepare_state`` builds, approximates,
  synthesises, verifies and finalizes with ``DDNode`` and ``Edge``
  construction refused;
* a first job in a fresh interpreter leaves ``numpy.ma`` unimported
  (``np.unique`` imports it on first use, which costs every process
  start-up ~10 ms).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.gates import (
    FourierGate,
    GivensRotation,
    PhaseRotation,
    ShiftGate,
)
from repro.core.preparation import prepare_state
from repro.core.synthesis import synthesize_preparation
from repro.core.verification import verify_preparation
from repro.dd import metrics
from repro.dd.approximation import approximate
from repro.dd.builder import build_dd
from repro.dd.unique_table import UniqueTable
from repro.linalg.complex_table import ComplexTable
from repro.simulator.statevector_sim import simulate, simulate_inplace
from repro.states.fidelity import fidelity
from repro.states.library import (
    dicke_state,
    embedded_w_state,
    ghz_state,
    product_state,
    uniform_state,
    w_state,
)
from repro.states.random_states import random_sparse_state, random_state
from repro.states.statevector import StateVector

from tests.conftest import no_nodes
from tests.kernel_oracles import (
    build_dd_reference,
    operation_count_reference,
    path_expanded_reference,
    simulate_reference,
    statevector_reference,
    stats_reference,
)
from tests.synthesis_oracle import oracle_preparation

DIMS = st.lists(
    st.integers(min_value=2, max_value=5), min_size=1, max_size=5
).map(tuple)


@st.composite
def random_mixed_state(draw):
    """Dense, sparse or phase-rich random state over random dims."""
    dims = draw(DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(["dense", "sparse", "phase-rich"]))
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    if kind == "phase-rich":
        # Uniform magnitudes, random phases: stresses the phase
        # extraction and block deduplication.
        amplitudes = np.exp(
            2j * np.pi * rng.uniform(size=size)
        ).astype(np.complex128)
    else:
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind == "sparse" and size > 2:
        kill = rng.choice(size, size=3 * size // 4, replace=False)
        amplitudes[kill] = 0.0
        if not np.any(amplitudes):
            amplitudes[0] = 1.0
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    return StateVector(amplitudes, dims)


def equal_norm_blocks(dims, split, rng) -> StateVector:
    """Distinct random blocks over ``dims[split:]``, equal in-edge weights.

    A real positive first amplitude and equal norms give every block
    the same in-edge weight, so the rows of level ``split - 1`` repeat
    their weights while their children differ.
    """
    outer = int(np.prod(dims[:split]))
    inner = int(np.prod(dims[split:]))
    blocks = rng.normal(size=(outer, inner)) + 1j * rng.normal(
        size=(outer, inner)
    )
    blocks[:, 0] = np.abs(blocks[:, 0])
    blocks /= np.linalg.norm(blocks, axis=1, keepdims=True)
    return StateVector(blocks.ravel() / np.sqrt(outer), dims)


@st.composite
def duplicate_heavy_state(draw):
    """A state whose tree blocks repeat, so most rows share a key.

    Product states, one random block tiled under random (sometimes
    zero) scalar factors, distinct random blocks of equal norm (rows
    whose weights repeat but whose children differ), and the uniform,
    W, Dicke and embedded-W families over random mixed registers (of
    at least two qudits, as the embedded W state needs).
    """
    dims = draw(
        st.lists(
            st.integers(min_value=2, max_value=5), min_size=2, max_size=5
        ).map(tuple)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(
        st.sampled_from(
            [
                "product", "tiled", "equal-norm", "uniform", "w",
                "dicke", "embedded-w",
            ]
        )
    )
    rng = np.random.default_rng(seed)
    if kind == "product":
        return product_state(
            dims,
            [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims],
        )
    if kind == "tiled":
        split = draw(st.integers(min_value=0, max_value=len(dims) - 1))
        outer = int(np.prod(dims[:split]))
        inner = int(np.prod(dims[split:]))
        scalars = rng.normal(size=outer) + 1j * rng.normal(size=outer)
        scalars[rng.uniform(size=outer) < 0.3] = 0.0
        scalars[0] = 1.0
        block = rng.normal(size=inner) + 1j * rng.normal(size=inner)
        amplitudes = np.kron(scalars, block)
        return StateVector(amplitudes / np.linalg.norm(amplitudes), dims)
    if kind == "equal-norm":
        split = draw(
            st.integers(
                min_value=min(2, len(dims) - 1), max_value=len(dims) - 1
            )
        )
        return equal_norm_blocks(dims, split, rng)
    if kind == "uniform":
        return uniform_state(dims)
    if kind == "w":
        return w_state(dims)
    if kind == "embedded-w":
        return embedded_w_state(dims)
    excitations = draw(st.integers(min_value=1, max_value=len(dims)))
    return dicke_state(dims, excitations)


def scenario_states():
    """The scenario grid: mixed dims, sparse/dense, seeded random."""
    rng = np.random.default_rng(424242)
    mixed = (2, 3, 2, 2, 3, 2)
    return [
        ("ghz", ghz_state((3, 3, 2))),
        ("w", w_state((3, 6, 2))),
        ("basis", StateVector([0, 0, 1, 0, 0, 0], (3, 2))),
        ("unnormalised", StateVector([2.0, 0, 0, 0], (2, 2))),
        ("global-phase", StateVector([1j, 0, 0, 0], (2, 2))),
        ("ghz-qubit-6", ghz_state((2,) * 6)),
        ("ghz-mixed", ghz_state((3, 2, 4, 2))),
        ("w-mixed", w_state(mixed)),
        ("dense-random-mixed", random_state(mixed, rng=rng)),
        ("dense-random-qutrit", random_state((3,) * 5, rng=rng)),
        (
            "sparse-random-mixed",
            random_sparse_state(mixed, num_terms=9, rng=rng),
        ),
        ("basis-mixed", StateVector([0, 0, 1, 0, 0, 0], (2, 3))),
        ("single-qudit", random_state((5,), rng=rng)),
        ("equal-norm-blocks", equal_norm_blocks((2, 3, 2, 2), 2, rng)),
    ]


SCENARIOS = pytest.mark.parametrize(
    "state",
    [pytest.param(state, id=name) for name, state in scenario_states()],
)


def assert_same_diagram(vectorized, reference) -> None:
    """Node-for-node equality of two separately built diagrams.

    Besides the counts and amplitudes, a lockstep walk checks levels
    and edge weights and that sharing lines up: every vectorised node
    maps to exactly one reference node, so with equal node counts the
    two DAGs are isomorphic.
    """
    assert vectorized.stats.num_nodes == reference.stats.num_nodes
    assert vectorized.stats.num_edges == reference.stats.num_edges
    assert (
        vectorized.stats.nodes_per_level
        == reference.stats.nodes_per_level
    )
    assert vectorized.root.weight == pytest.approx(
        reference.root.weight, abs=1e-10
    )
    assert vectorized.to_statevector().isclose(
        reference.to_statevector(), tolerance=1e-10
    )
    pairs: dict[int, object] = {}
    stack = [(vectorized.root.node, reference.root.node)]
    while stack:
        node, twin = stack.pop()
        if id(node) in pairs:
            assert pairs[id(node)] is twin
            continue
        pairs[id(node)] = twin
        assert node.level == twin.level
        assert node.dimension == twin.dimension
        for edge, twin_edge in zip(node.edges, twin.edges):
            assert edge.is_zero == twin_edge.is_zero
            assert edge.node.is_terminal == twin_edge.node.is_terminal
            assert edge.weight == pytest.approx(twin_edge.weight, abs=1e-12)
            if not edge.is_zero and not edge.node.is_terminal:
                stack.append((edge.node, twin_edge.node))


class TestBuilderEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(random_mixed_state())
    def test_vectorized_builder_matches_reference(self, state):
        assert_same_diagram(build_dd(state), build_dd_reference(state))

    @settings(max_examples=30, deadline=None)
    @given(random_mixed_state())
    def test_vectorized_builder_round_trips(self, state):
        assert build_dd(state).to_statevector().isclose(
            state, tolerance=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(random_mixed_state())
    def test_canonical_invariants_hold(self, state):
        for node in build_dd(state).nodes():
            node.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(duplicate_heavy_state())
    def test_duplicate_rows_match_reference(self, state):
        assert_same_diagram(build_dd(state), build_dd_reference(state))

    def test_canonicalises_each_distinct_node_once(self, monkeypatch):
        # Rows sharing a key are canonicalised once: the values sent to
        # the complex table are bounded by the weights of the distinct
        # nodes (33 here), not by the tree blocks (134,910 values if
        # every row were canonicalised).
        sent = []
        lookup_many = ComplexTable.lookup_many

        def counting_lookup_many(table, values):
            sent.append(np.size(values))
            return lookup_many(table, values)

        monkeypatch.setattr(
            ComplexTable, "lookup_many", counting_lookup_many
        )
        dd = build_dd(uniform_state((2,) * 8 + (3,) * 4 + (5,)))
        bound = sum(node.dimension for node in dd.nodes())
        assert bound == 33
        assert sum(sent) <= bound

    @SCENARIOS
    def test_structured_states_match(self, state):
        assert_same_diagram(build_dd(state), build_dd_reference(state))

    @SCENARIOS
    def test_stats_match_oracle(self, state):
        dd = build_dd(state)
        assert dd.stats == stats_reference(dd)

    @SCENARIOS
    def test_path_expanded_metrics_match_reference(self, state):
        vectorized = build_dd(state)
        reference = build_dd_reference(state)
        for metric, scalar in (
            (metrics.visited_tree_size, metrics.visited_tree_size),
            (metrics.synthesis_operation_count, operation_count_reference),
            (metrics.path_expanded_node_count, path_expanded_reference),
        ):
            assert metric(vectorized) == scalar(reference)
        approximated = approximate(vectorized, 0.9).diagram
        assert metrics.synthesis_operation_count(
            approximated
        ) == operation_count_reference(approximated)
        assert metrics.path_expanded_node_count(
            approximated
        ) == path_expanded_reference(approximated)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(random_mixed_state(), duplicate_heavy_state()))
    def test_statevector_matches_recursion(self, state):
        # Expanding the level arrays keeps the recursion's products in
        # the recursion's order, so the vectors are equal, not close.
        for dd in (build_dd(state), approximate(build_dd(state), 0.9).diagram):
            assert np.array_equal(
                dd.to_statevector().amplitudes,
                statevector_reference(dd).amplitudes,
            )

    @pytest.mark.parametrize(
        "second_kernel",
        [build_dd, build_dd_reference],
        ids=["vectorized", "reference"],
    )
    @pytest.mark.parametrize(
        "state",
        [
            ghz_state((3, 3, 2)),
            random_state((2, 3, 2), rng=np.random.default_rng(5)),
        ],
        ids=["ghz", "dense-random"],
    )
    def test_kernels_share_nodes_through_shared_table(
        self, state, second_kernel
    ):
        table = UniqueTable()
        first = build_dd(state, table)
        second = second_kernel(state, table)
        assert first.root.node is second.root.node

    def test_levels_do_not_alias_through_shared_table(self):
        # The last level of (2, 2) and of (2, 2, 2) holds the same
        # sub-states; the level is part of the unique key, so the
        # nodes stay apart.
        table = UniqueTable()
        ghz2 = build_dd(ghz_state((2, 2)), table)
        ghz3 = build_dd(ghz_state((2, 2, 2)), table)
        last2 = {id(node) for node in ghz2.nodes() if node.level == 1}
        last3 = {id(node) for node in ghz3.nodes() if node.level == 2}
        assert len(last2) == len(last3) == 2
        assert last2.isdisjoint(last3)
        assert ghz2.root.node is not ghz3.root.node


def _serve_path_states():
    """States whose builds skip the complex table (random) and replay
    it over their crowded weights (sparse, W, uniform, Dicke)."""
    rng = np.random.default_rng(31)
    mixed = (3, 2, 4, 2)
    return [
        ("dense", random_state(mixed, rng=rng, distribution="gaussian")),
        ("dense-uniform", random_state((4, 3, 3), rng=rng)),
        ("sparse", random_sparse_state(mixed, num_terms=10, rng=rng)),
        ("single-qudit", random_state((5,), rng=rng)),
        ("w", w_state((2,) * 6 + (3,) * 2)),
        ("uniform", uniform_state((2,) * 6 + (3,) * 2)),
        ("dicke", dicke_state((2,) * 6 + (3,) * 2, 2)),
    ]


SERVE_PATH_STATES = pytest.mark.parametrize(
    "state",
    [pytest.param(state, id=name) for name, state in _serve_path_states()],
)


class TestServePathMakesNoNodes:
    """Build, approximate, synthesize, verify and finalize make no
    ``DDNode`` or ``Edge``; the node graph is made on demand only."""

    def test_guard_is_armed(self):
        dd = build_dd(random_state((3, 2), rng=5))
        with no_nodes(), pytest.raises(AssertionError, match="made a"):
            dd.root
        with no_nodes(), pytest.raises(AssertionError, match="made a"):
            build_dd_reference(random_state((3, 2), rng=5))

    @SERVE_PATH_STATES
    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize("min_fidelity", [1.0, 0.98, 0.9])
    def test_prepare_state(self, state, min_fidelity, granularity):
        with no_nodes():
            result = prepare_state(
                state,
                min_fidelity=min_fidelity,
                approximation_granularity=granularity,
            )
            operations = metrics.synthesis_operation_count(result.diagram)
            visits = metrics.path_expanded_node_count(result.diagram)
        assert result.report.fidelity >= min_fidelity - 1e-9
        assert result.diagram.stats == stats_reference(result.diagram)
        assert result.exact_diagram.stats == stats_reference(
            result.exact_diagram
        )
        assert operations == operation_count_reference(result.diagram)
        assert visits == path_expanded_reference(result.diagram)

    @SERVE_PATH_STATES
    def test_build_matches_reference(self, state):
        with no_nodes():
            dd = build_dd(state)
        assert_same_diagram(dd, build_dd_reference(state))


def _random_circuit(dims, seed: int) -> Circuit:
    """A random circuit mixing all gate kinds over ``dims``."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(dims)
    num_qudits = len(dims)
    for _ in range(12):
        target = int(rng.integers(num_qudits))
        others = [q for q in range(num_qudits) if q != target]
        controls = [
            (q, int(rng.integers(dims[q])))
            for q in rng.choice(
                others, size=min(len(others), int(rng.integers(3))),
                replace=False,
            )
        ]
        kind = rng.integers(4)
        d = dims[target]
        if kind == 0 and d >= 2:
            i, j = rng.choice(d, size=2, replace=False)
            circuit.append(GivensRotation(
                target, int(i), int(j),
                float(rng.uniform(-np.pi, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                controls,
            ))
        elif kind == 1 and d >= 2:
            i, j = rng.choice(d, size=2, replace=False)
            circuit.append(PhaseRotation(
                target, int(i), int(j),
                float(rng.uniform(-np.pi, np.pi)), controls,
            ))
        elif kind == 2:
            circuit.append(ShiftGate(
                target, int(rng.integers(1, d + 1)), controls
            ))
        else:
            circuit.append(FourierGate(target, controls))
    return circuit


class TestSimulationEquivalence:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2, 2), (2, 3, 4), (5, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inplace_matches_simulate_bit_for_bit(self, dims, seed):
        circuit = _random_circuit(dims, seed)
        expected = simulate(circuit)
        buffer = np.zeros(circuit.register.size, dtype=np.complex128)
        buffer[0] = 1.0
        simulate_inplace(circuit, buffer)
        assert np.array_equal(buffer, expected.amplitudes)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2, 2), (2, 3, 4), (5, 2)])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_simulate_matches_reference_bit_for_bit(self, dims, seed):
        circuit = _random_circuit(dims, seed)
        assert np.array_equal(
            simulate(circuit).amplitudes,
            simulate_reference(circuit).amplitudes,
        )

    def test_inplace_on_synthesised_circuit(self):
        state = ghz_state((3, 6, 2))
        circuit = prepare_state(state, verify=False).circuit
        assert np.array_equal(
            simulate(circuit).amplitudes,
            simulate_reference(circuit).amplitudes,
        )
        assert verify_preparation(circuit, state) == pytest.approx(1.0)

    def test_simulate_is_immutable(self):
        circuit = _random_circuit((3, 2, 2), 9)
        initial = StateVector.zero_state(circuit.register)
        before = initial.amplitudes.copy()
        simulate(circuit, initial)
        assert np.array_equal(initial.amplitudes, before)


def _best_of(callable_, repeats: int = 5) -> float:
    """Minimum wall time over ``repeats`` runs with the GC parked."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - start
        gc.enable()
        best = min(best, elapsed)
    return best


def _assert_speedup(fast, slow, floor: float, label: str) -> None:
    """Assert ``slow/fast >= floor``, re-measuring once before failing.

    Wall-clock ratios in a shared test process are noisy; the real
    factors (tracked by ``benchmarks/bench_hotpaths.py``) sit well
    above the floor, so one clean re-measurement eliminates flakes
    without masking a genuine regression.
    """
    for attempt in range(2):
        fast_s, slow_s = _best_of(fast), _best_of(slow)
        if slow_s / fast_s >= floor:
            return
    raise AssertionError(
        f"{label}: only {slow_s / fast_s:.2f}x "
        f"({fast_s:.3f}s vs {slow_s:.3f}s), expected >= {floor}x"
    )


@pytest.fixture(scope="module")
def dense_12q_state() -> StateVector:
    dims = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2)
    rng = np.random.default_rng(2024)
    size = int(np.prod(dims))
    amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector(
        amplitudes / np.linalg.norm(amplitudes), dims
    )


@pytest.fixture(scope="module")
def dense_10q_state() -> StateVector:
    dims = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2)
    rng = np.random.default_rng(11)
    size = int(np.prod(dims))
    amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector(
        amplitudes / np.linalg.norm(amplitudes), dims
    )


class TestLooseSpeedupFloor:
    """Loose floors; bench_hotpaths.py tracks the real factors."""

    def test_build_dd_at_least_5x_faster_than_reference(
        self, dense_12q_state
    ):
        # The build makes level arrays only; making a node per distinct
        # row again would bring it back under 2x.
        build_dd(dense_12q_state)  # warm caches
        _assert_speedup(
            lambda: build_dd(dense_12q_state),
            lambda: build_dd_reference(dense_12q_state),
            5.0,
            "vectorized builder vs scalar reference",
        )

    def test_verify_at_least_1_5x_faster_than_reference(
        self, dense_10q_state
    ):
        state = dense_10q_state
        circuit = prepare_state(state, verify=False).circuit
        verify_preparation(circuit, state)  # warm caches
        _assert_speedup(
            lambda: verify_preparation(circuit, state),
            lambda: fidelity(
                state.normalized(), simulate_reference(circuit)
            ),
            1.5,
            "in-place verification vs reference simulation",
        )

    def test_synthesize_at_least_10x_faster_than_oracle(
        self, dense_10q_state
    ):
        dd = build_dd(dense_10q_state)
        synthesize_preparation(dd)  # warm caches
        _assert_speedup(
            lambda: synthesize_preparation(dd),
            lambda: oracle_preparation(dd),
            10.0,
            "level-major synthesis vs gate-by-gate oracle",
        )


#: A first job in a fresh interpreter: ``prepare_state`` and one engine
#: batch, then report whether ``numpy.ma`` was imported.
FIRST_JOB = """
import sys
from repro.core.preparation import prepare_state
from repro.engine import PreparationEngine, job_from_dict
from repro.states.random_states import random_state
prepare_state(random_state((3, 6, 2), rng=5))
batch = PreparationEngine().run_batch(
    [job_from_dict({"family": "random", "dims": [3, 6, 2], "params": {"rng": 6}})]
)
assert all(outcome.ok for outcome in batch.outcomes)
print("numpy.ma" in sys.modules)
"""


class TestFirstJobImportFootprint:
    def test_first_job_leaves_numpy_ma_unimported(self):
        source = Path(__file__).resolve().parent.parent / "src"
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=str(source) + (os.pathsep + path if path else ""),
        )
        result = subprocess.run(
            [sys.executable, "-c", FIRST_JOB],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
