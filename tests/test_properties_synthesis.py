"""Property-based tests for synthesis and approximation end-to-end.

These are the headline invariants of the reproduction:

* exact synthesis reaches fidelity 1 for *any* state on *any*
  mixed-dimensional register;
* approximate synthesis never violates the requested fidelity floor;
* the emitted operation count matches the closed-form predictor;
* the level-major synthesis emits the blocks of the gate-by-gate,
  depth-first oracle in ``tests/synthesis_oracle.py`` stably sorted by
  target level, deepest first, then by control mask (angles within
  1e-12), every pair of blocks it reorders carries conflicting
  controls, and it reads no decision-diagram node.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import qasm
from repro.core.preparation import prepare_state
from repro.core.synthesis import (
    synthesize_preparation,
    synthesize_unpreparation,
)
from repro.dd import diagram as diagram_module
from repro.dd.approximation import approximate
from repro.dd.builder import build_dd
from repro.dd.diagram import DecisionDiagram
from repro.dd.node import DDNode
from repro.dd.metrics import synthesis_operation_count
from repro.simulator.statevector_sim import simulate
from repro.states.fidelity import fidelity
from repro.states.library import (
    basis_state,
    embedded_w_state,
    ghz_state,
    uniform_state,
    w_state,
)
from repro.states.random_states import random_sparse_state, random_state
from repro.states.statevector import StateVector

from tests.synthesis_oracle import (
    level_major_mismatches,
    level_major_order,
    oracle_preparation,
    oracle_unpreparation,
    oracle_visits,
)

DIMS = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=3
).map(tuple)


@st.composite
def arbitrary_state(draw):
    dims = draw(DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    style = draw(st.sampled_from(["dense", "sparse", "real", "phase"]))
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    if style == "dense":
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    elif style == "real":
        amplitudes = rng.random(size)
        amplitudes[0] += 1e-3  # guard against the all-zero draw
    elif style == "phase":
        amplitudes = np.exp(2j * np.pi * rng.random(size))
    else:
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
        kill = rng.choice(size, size=max(1, size // 2), replace=False)
        amplitudes[kill] = 0.0
        if not np.any(amplitudes):
            amplitudes[0] = 1.0
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return StateVector(
        amplitudes / np.linalg.norm(amplitudes), dims
    )


class TestExactSynthesisProperty:
    @given(arbitrary_state(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fidelity_one(self, state, elision):
        circuit = synthesize_preparation(
            build_dd(state), tensor_elision=elision
        )
        produced = simulate(circuit)
        assert fidelity(state, produced) >= 1.0 - 1e-9

    @given(arbitrary_state())
    @settings(max_examples=40, deadline=None)
    def test_exact_amplitudes(self, state):
        # Not merely fidelity: amplitude-exact including global phase.
        circuit = synthesize_preparation(build_dd(state))
        produced = simulate(circuit)
        assert produced.isclose(state, tolerance=1e-8)

    @given(arbitrary_state())
    @settings(max_examples=40, deadline=None)
    def test_unprep_reaches_zero_string(self, state):
        circuit = synthesize_unpreparation(build_dd(state))
        result = simulate(circuit, state)
        assert abs(result.amplitude(0)) >= 1.0 - 1e-9

    @given(arbitrary_state())
    @settings(max_examples=40, deadline=None)
    def test_operation_count_matches_predictor(self, state):
        dd = build_dd(state)
        circuit = synthesize_unpreparation(dd, tensor_elision=False)
        assert circuit.num_operations == synthesis_operation_count(dd)


class TestApproximateSynthesisProperty:
    @given(
        arbitrary_state(),
        st.sampled_from([0.99, 0.95, 0.9, 0.8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_fidelity_floor_respected(self, state, threshold):
        result = prepare_state(state, min_fidelity=threshold)
        assert result.report.fidelity >= threshold - 1e-9

    @given(arbitrary_state(), st.sampled_from([0.95, 0.8]))
    @settings(max_examples=30, deadline=None)
    def test_approximation_never_grows_circuit(self, state, threshold):
        exact = prepare_state(state, verify=False)
        approx = prepare_state(
            state, min_fidelity=threshold, verify=False
        )
        assert approx.report.operations <= exact.report.operations


FAMILIES = {
    "ghz": ghz_state,
    "w": w_state,
    "embedded_w": embedded_w_state,
    "uniform": uniform_state,
}


@st.composite
def synthesis_diagrams(draw):
    """Diagrams of every shape synthesis meets: dense random states
    (uniform and Gaussian), sparse ones (partial tensor elision), 0.98
    approximations, the structured families and ``|0...0>`` (an empty
    circuit without identity rotations)."""
    dims = tuple(
        draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    )
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(
        ["uniform", "gaussian", "sparse", "approximated", "zero"]
        + sorted(FAMILIES)
    ))
    if kind in ("uniform", "gaussian"):
        return build_dd(random_state(dims, distribution=kind, rng=seed))
    if kind == "sparse":
        size = int(np.prod(dims))
        terms = draw(st.integers(1, max(1, size // 3)))
        return build_dd(random_sparse_state(dims, terms, rng=seed))
    if kind == "approximated":
        return approximate(build_dd(random_state(dims, rng=seed)), 0.98).diagram
    if kind == "zero":
        return build_dd(basis_state(dims, (0,) * len(dims)))
    return build_dd(FAMILIES[kind](dims))


def moved_pairs_commute(targets, controls):
    """For every pair of visits (in post-order) whose order the
    level-major sort (deepest first, then by control mask) swaps,
    whether they have explicit, different controls on some qudit, so
    that their blocks commute.

    A visit precedes a deeper one in post-order and follows it after
    the sort; on one level, it follows a later visit whose mask sorts
    first.
    """
    position = np.empty(targets.size, dtype=np.intp)
    position[level_major_order(targets, controls)] = np.arange(targets.size)
    first, second = np.triu_indices(targets.size, 1)
    moved = position[second] < position[first]
    a, b = controls[first[moved]], controls[second[moved]]
    return np.any((a >= 0) & (b >= 0) & (a != b), axis=1)


def assert_legal_reordering(dd, elision, table):
    """The table's blocks are the oracle's visits stably sorted by
    target level, deepest first, then by control mask, and every pair
    of blocks whose order differs from the oracle's commutes.  Returns
    the number of such pairs."""
    targets, controls = oracle_visits(dd, elision)
    order = level_major_order(targets, controls)
    assert np.array_equal(table.controls, controls[order])
    filled = np.flatnonzero(table.block_lengths())
    assert np.array_equal(
        table.target[table.offsets[filled]], targets[order][filled]
    )
    commute = moved_pairs_commute(targets, controls)
    assert commute.all()
    return commute.size


def assert_same_as_oracle(dd, elision, identities):
    """The level-major contract against the oracle, the legality of
    the reordering, and the preparation as the table's inverse."""
    unpreparation = synthesize_unpreparation(dd, elision, identities)
    oracle = oracle_unpreparation(dd, elision, identities)
    assert level_major_mismatches(unpreparation.table, oracle) == []
    assert_legal_reordering(dd, elision, unpreparation.table)
    preparation = synthesize_preparation(dd, elision, identities)
    assert preparation.table.same_operations(unpreparation.table.inverse())
    assert preparation.global_phase == (
        oracle_preparation(dd, elision, identities).global_phase
    )
    return preparation


class TestColumnarSynthesisMatchesOracle:
    """Synthesis emits the oracle's blocks level by level, deepest
    first, each level grouped by control mask: its rows are the
    oracle's stably sorted by target, then by mask."""

    @given(synthesis_diagrams(), st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_level_major_contract(self, dd, elision, identities):
        assert_same_as_oracle(dd, elision, identities)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("elision", [True, False])
    @pytest.mark.parametrize("identities", [True, False])
    def test_families(self, family, elision, identities):
        dd = build_dd(FAMILIES[family]((3, 2, 4, 2)))
        assert_same_as_oracle(dd, elision, identities)

    @pytest.mark.parametrize("elision", [True, False])
    def test_empty_circuit(self, elision):
        dd = build_dd(basis_state((3, 2, 2), (0, 0, 0)))
        circuit = assert_same_as_oracle(dd, elision, False)
        assert circuit.num_operations == 0
        assert circuit.table is not None

    def test_legality_check_bites(self):
        # Two visits on (3, 2, 2, 2) that the sort swaps: controls on
        # different qudits do not make them commute, a different level
        # on one qudit does.
        targets = np.array([1, 2])
        unrelated = np.array([[0, -1, -1, -1], [-1, 1, -1, -1]])
        split = np.array([[0, -1, -1, -1], [1, 0, -1, -1]])
        assert moved_pairs_commute(targets, unrelated).tolist() == [False]
        assert moved_pairs_commute(targets, split).tolist() == [True]
        assert moved_pairs_commute(targets[::-1], unrelated).size == 0

    def test_blocks_do_move(self):
        # A dense state's blocks leave post-order: the legality check
        # has pairs to check.
        dd = build_dd(random_state((2, 3, 2), rng=3))
        table = synthesize_unpreparation(dd).table
        assert assert_legal_reordering(dd, True, table) > 0
        assert level_major_mismatches(
            table, oracle_unpreparation(dd)
        ) == []
        # Post-order itself is not level-major.
        assert qasm.dumps(synthesize_unpreparation(dd)) != qasm.dumps(
            oracle_unpreparation(dd)
        )


@pytest.fixture
def no_node_walks(monkeypatch):
    """Run a callable with the node walks made to raise.

    ``DecisionDiagram.nodes``, the level walk,
    ``DDNode.nonzero_edges`` and ``DDNode.unique_nonzero_child`` raise
    while the callable runs.
    """
    depth = []

    def guarded(function, *args, **kwargs):
        depth.append(None)
        try:
            return function(*args, **kwargs)
        finally:
            depth.pop()

    def refuse(function):
        def refusing(*args, **kwargs):
            if depth:
                raise AssertionError(f"synthesis called {function.__name__}")
            return function(*args, **kwargs)

        return refusing

    for owner, name in [
        (DecisionDiagram, "nodes"),
        (diagram_module, "walk_levels"),
        (DDNode, "nonzero_edges"),
        (DDNode, "unique_nonzero_child"),
    ]:
        monkeypatch.setattr(owner, name, refuse(getattr(owner, name)))
    return guarded


class TestSynthesisWalksNoNodes:
    def test_guard_is_armed(self, no_node_walks):
        dd = build_dd(random_state((3, 2), rng=70))
        with pytest.raises(AssertionError, match="unique_nonzero_child"):
            no_node_walks(oracle_unpreparation, dd)
        fresh = DecisionDiagram(dd.root, dd.register, dd.unique_table)
        with pytest.raises(AssertionError, match="walk_levels"):
            no_node_walks(synthesize_preparation, fresh)

    @pytest.mark.parametrize(
        "make",
        [
            lambda state: build_dd(state),
            lambda state: approximate(build_dd(state), 0.9).diagram,
        ],
        ids=["build_dd", "approximate"],
    )
    @pytest.mark.parametrize(
        "state",
        [
            random_state((4, 7, 4), rng=71),
            random_sparse_state((3, 3, 2, 2), 12, rng=72),
            w_state((3, 6, 2)),
            ghz_state((2, 3, 2)),
            random_state((5,), rng=73),
        ],
        ids=["random", "sparse", "w", "ghz", "single-qudit"],
    )
    @pytest.mark.parametrize("elision", [True, False])
    def test_synthesis(self, no_node_walks, make, state, elision):
        dd = make(state)
        preparation = no_node_walks(
            synthesize_preparation, dd, tensor_elision=elision
        )
        unpreparation = no_node_walks(
            synthesize_unpreparation, dd, tensor_elision=elision
        )
        assert preparation.num_operations == unpreparation.num_operations
        assert level_major_mismatches(
            unpreparation.table, oracle_unpreparation(dd, elision)
        ) == []
