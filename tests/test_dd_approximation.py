"""Tests for fidelity-driven DD approximation (paper Section 4.3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd import approximation as approximation_module
from repro.dd import arithmetic as arithmetic_module
from repro.dd import builder as builder_module
from repro.dd import diagram as diagram_module
from repro.dd import io as dd_io
from repro.dd.approximation import (
    approximate,
    fidelity_contributions,
)
from repro.dd.builder import build_dd
from repro.dd.diagram import DecisionDiagram
from repro.dd.metrics import visited_tree_size
from repro.exceptions import ApproximationError, DecisionDiagramError
from repro.linalg.complex_table import ComplexTable, crowded
from repro.states.fidelity import fidelity
from repro.states.library import (
    dicke_state,
    embedded_w_state,
    ghz_state,
    w_state,
)
from repro.states.random_states import random_sparse_state, random_state
from repro.states.statevector import StateVector

from tests.approximation_oracle import (
    approximate_oracle,
    fidelity_contributions_oracle,
)
from tests.conftest import SMALL_MIXED_DIMS, random_statevector
from tests.kernel_oracles import stats_reference
from tests.test_dd_stats import stats_states


class TestContributions:
    def test_root_contribution_is_one(self):
        dd = build_dd(w_state((3, 6, 2)))
        contributions = fidelity_contributions(dd)
        assert np.isclose(contributions[dd.root.node], 1.0)

    def test_level_contributions_sum_to_one(self):
        # Every amplitude's path crosses exactly one node per level, so
        # contributions at each level sum to the state's total mass.
        dd = build_dd(random_statevector((3, 4, 2), seed=41))
        contributions = fidelity_contributions(dd)
        per_level: dict[int, float] = {}
        for node, value in contributions.items():
            per_level[node.level] = per_level.get(node.level, 0) + value
        for level, total in per_level.items():
            assert np.isclose(total, 1.0, atol=1e-9), level

    def test_contribution_matches_brute_force(self):
        sv = random_statevector((3, 2, 2), seed=42)
        dd = build_dd(sv)
        contributions = fidelity_contributions(dd)
        register = sv.register
        # Brute force: for each node, sum |amplitude|^2 over basis
        # states whose path visits the node.
        for target_node, expected in contributions.items():
            total = 0.0
            for index in range(register.size):
                digits = register.digits(index)
                node = dd.root.node
                visits = node is target_node
                for digit in digits[:-1]:
                    edge = node.successor(digit)
                    if edge.is_zero or edge.node.is_terminal:
                        node = None
                        break
                    node = edge.node
                    visits = visits or node is target_node
                if visits:
                    total += abs(sv.amplitude(digits)) ** 2
            assert np.isclose(total, expected, atol=1e-9)


class TestApproximateValidation:
    def test_rejects_zero_fidelity(self):
        dd = build_dd(ghz_state((2, 2)))
        with pytest.raises(ApproximationError):
            approximate(dd, 0.0)

    def test_rejects_above_one(self):
        dd = build_dd(ghz_state((2, 2)))
        with pytest.raises(ApproximationError):
            approximate(dd, 1.1)

    def test_rejects_unknown_granularity(self):
        dd = build_dd(ghz_state((2, 2)))
        with pytest.raises(ApproximationError):
            approximate(dd, 0.9, granularity="edges")


class TestGranularity:
    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    def test_fidelity_floor_holds_for_both(self, granularity):
        dd = build_dd(random_statevector((3, 4, 2), seed=52))
        result = approximate(dd, 0.9, granularity=granularity)
        assert result.fidelity >= 0.9 - 1e-9

    def test_node_mode_removes_no_individual_amplitudes(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=53))
        result = approximate(dd, 0.9, granularity="nodes")
        assert result.removed_leaves == 0

    def test_amplitude_mode_prunes_at_finer_grain(self):
        # At a budget too small for any whole node, amplitude mode can
        # still remove the smallest individual amplitudes.
        dd = build_dd(random_statevector((3, 6, 2), seed=54))
        node_mode = approximate(dd, 0.995, granularity="nodes")
        amp_mode = approximate(dd, 0.995, granularity="amplitudes")
        assert amp_mode.removed_mass >= node_mode.removed_mass

    def test_node_mode_reduces_operations_on_random_states(self):
        # The Table 1 behaviour: removing whole nodes at 98% drops the
        # operation count by a few percent.
        from repro.dd.metrics import synthesis_operation_count

        dd = build_dd(random_statevector((9, 5, 6, 3), seed=55))
        before = synthesis_operation_count(dd)
        result = approximate(dd, 0.98, granularity="nodes")
        after = synthesis_operation_count(result.diagram)
        assert after < before

    def test_batched_node_pass_respects_relative_exclusion(self):
        # After a node is removed, its relatives' contributions are
        # stale; the exact fidelity accounting must still hold, which
        # is only possible when relatives are excluded from the batch.
        dd = build_dd(random_statevector((4, 4, 3), seed=56))
        result = approximate(dd, 0.7, granularity="nodes")
        dense = result.diagram.to_statevector()
        from repro.states.fidelity import fidelity as dense_fidelity

        original = dd.to_statevector()
        assert np.isclose(
            dense_fidelity(original, dense), result.fidelity,
            atol=1e-9,
        )
        assert np.isclose(
            result.fidelity, 1.0 - result.removed_mass, atol=1e-9
        )


class TestFidelityGuarantee:
    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    @pytest.mark.parametrize("threshold", [0.99, 0.95, 0.9, 0.7])
    def test_achieved_fidelity_at_least_threshold(self, dims, threshold):
        dd = build_dd(random_statevector(dims, seed=43))
        result = approximate(dd, threshold)
        assert result.fidelity >= threshold - 1e-9

    @pytest.mark.parametrize("dims", [(3, 6, 2), (4, 3, 2)])
    def test_reported_fidelity_is_exact(self, dims):
        sv = random_statevector(dims, seed=44)
        dd = build_dd(sv)
        result = approximate(dd, 0.9)
        dense = result.diagram.to_statevector()
        assert np.isclose(
            fidelity(sv, dense), result.fidelity, atol=1e-9
        )

    def test_removed_mass_complements_fidelity(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=45))
        result = approximate(dd, 0.9)
        assert np.isclose(
            result.fidelity, 1.0 - result.removed_mass, atol=1e-9
        )


class TestStructuredStatesUnaffected:
    @pytest.mark.parametrize(
        "family", [ghz_state, w_state, embedded_w_state]
    )
    def test_no_effect_at_98_percent(self, family):
        # Table 1: structured benchmarks lose nothing at F >= 0.98
        # because every amplitude carries more than 2% of the mass.
        dd = build_dd(family((3, 6, 2)))
        result = approximate(dd, 0.98)
        assert result.fidelity == pytest.approx(1.0)
        assert result.removed_nodes == 0
        assert visited_tree_size(result.diagram) == visited_tree_size(dd)


class TestPruningBehaviour:
    def test_min_fidelity_one_removes_nothing(self):
        dd = build_dd(random_statevector((3, 4), seed=46))
        result = approximate(dd, 1.0)
        assert result.removed_mass == 0.0
        assert result.diagram.to_statevector().isclose(
            dd.to_statevector(), tolerance=1e-10
        )

    def test_min_fidelity_one_keeps_tiny_contributions(self):
        # The 1e-7 amplitude's node contributes ~1e-14 of the mass,
        # inside the budget's slack: 1.0 must still remove nothing.
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[0] = 1.0
        amplitudes[3] = 0.5
        amplitudes[7] = 1e-7
        dd = build_dd(
            StateVector(amplitudes / np.linalg.norm(amplitudes), (2, 2, 2))
        )
        assert dd.stats.num_nodes == 5
        result = approximate(dd, 1.0)
        assert result.diagram is dd
        assert result.fidelity == 1.0
        assert result.removed_mass == 0.0
        assert result.removed_nodes == 0
        assert result.removed_leaves == 0
        assert result.removal_log == []

    def test_figure2_prunes_smallest_subtree(self):
        # Root subtrees with masses 0.5 / 0.4 / 0.1; threshold 0.9
        # removes exactly the 0.1 subtree.
        child = np.array([1.0, 1.0]) / math.sqrt(2)
        other = np.array([1.0, 0.0])
        amplitudes = np.concatenate(
            [
                math.sqrt(0.5) * child,
                math.sqrt(0.4) * child,
                math.sqrt(0.1) * other,
            ]
        )
        dd = build_dd(StateVector(amplitudes, (3, 2)))
        result = approximate(dd, 0.9)
        assert result.fidelity == pytest.approx(0.9, abs=1e-9)
        assert result.diagram.root.node.successor(2).is_zero
        # The surviving edges now share one child: tensor structure.
        assert result.diagram.root.node.unique_nonzero_child() is not None

    def test_result_is_normalized(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=47))
        result = approximate(dd, 0.9)
        assert np.isclose(
            result.diagram.to_statevector().norm(), 1.0, atol=1e-9
        )

    def test_result_nodes_canonical(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=48))
        result = approximate(dd, 0.85)
        for node in result.diagram.nodes():
            node.check_invariants()

    def test_monotone_in_threshold(self):
        dd = build_dd(random_statevector((3, 4, 3), seed=49))
        sizes = []
        for threshold in [1.0, 0.98, 0.9, 0.8, 0.6]:
            result = approximate(dd, threshold)
            sizes.append(visited_tree_size(result.diagram))
        assert sizes == sorted(sizes, reverse=True)

    def test_removal_log_sums_to_removed_mass(self):
        dd = build_dd(random_statevector((4, 3, 2), seed=50))
        result = approximate(dd, 0.85)
        assert np.isclose(
            sum(result.removal_log), result.removed_mass, atol=1e-12
        )

    def test_original_diagram_untouched(self):
        sv = random_statevector((3, 3), seed=51)
        dd = build_dd(sv)
        before = dd.to_statevector()
        approximate(dd, 0.8)
        assert dd.to_statevector().isclose(before)


def assert_matches_oracle(make_diagram, min_fidelity, granularity):
    """``approximate`` and the scalar oracle agree on one input.

    Each runs on its own copy of the input (``make_diagram`` builds a
    fresh one with a fresh unique table), so neither sees the other's
    complex-table entries.
    """
    dd = make_diagram()
    result = approximate(dd, min_fidelity, granularity=granularity)
    expected = approximate_oracle(
        make_diagram(), min_fidelity, granularity=granularity
    )
    assert result.removed_nodes == expected.removed_nodes
    assert result.removed_leaves == expected.removed_leaves
    assert result.removal_log == pytest.approx(
        expected.removal_log, rel=1e-12, abs=0.0
    )
    assert result.removed_mass == pytest.approx(
        expected.removed_mass, rel=1e-12, abs=0.0
    )
    assert result.diagram.stats == stats_reference(result.diagram)
    amplitudes = result.diagram.to_statevector().amplitudes
    expected_amplitudes = expected.diagram.to_statevector().amplitudes
    np.testing.assert_allclose(
        amplitudes, expected_amplitudes, rtol=0.0, atol=1e-12
    )
    # The reported fidelity is the exact overlap of the two diagrams,
    # clamped to [0, 1].  The oracle re-normalises every node, so
    # near-tie weights drift by up to a tolerance each; its fidelity
    # may differ by what that drift moves the amplitudes.
    overlap = abs(np.vdot(dd.to_statevector().amplitudes, amplitudes)) ** 2
    assert result.fidelity == pytest.approx(min(overlap, 1.0), abs=1e-12)
    drift = np.linalg.norm(amplitudes - expected_amplitudes)
    assert abs(result.fidelity - expected.fidelity) <= 1e-12 + 2 * drift
    # A kept weight between the zero cutoff and the tolerance can snap
    # to a complex-table entry off the real axis, in the build and in
    # the oracle alike.  Untouched nodes are reused as they are, so the
    # result is canonical wherever the input and the oracle's are.
    if _canonical(dd) and _canonical(expected.diagram):
        for node in result.diagram.nodes():
            node.check_invariants()


def _canonical(dd: DecisionDiagram) -> bool:
    try:
        for node in dd.nodes():
            node.check_invariants()
    except DecisionDiagramError:
        return False
    return True


ORACLE_DIMS = st.lists(
    st.integers(min_value=2, max_value=5), min_size=1, max_size=4
).map(tuple)


@st.composite
def oracle_states(draw):
    """Unit-norm inputs: uniform, Gaussian and sparse random states,
    and the near-tie states of ``tests/test_dd_stats.py``."""
    kind = draw(st.sampled_from(["uniform", "gaussian", "sparse", "near-ties"]))
    if kind == "near-ties":
        return draw(stats_states()).normalized()
    dims = draw(ORACLE_DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if kind == "sparse":
        size = int(np.prod(dims))
        terms = draw(st.integers(min_value=1, max_value=max(1, size // 3)))
        return random_sparse_state(dims, terms, rng=seed)
    return random_state(dims, rng=seed, distribution=kind)


class TestMatchesScalarOracle:
    """Every result equals the per-node implementation's, up to rounding."""

    @given(
        oracle_states(),
        st.sampled_from([0.98, 0.9, 0.7, 0.5]),
        st.sampled_from(["nodes", "amplitudes"]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_states(self, state, min_fidelity, granularity, loaded):
        # A DDTXT-loaded input has no level arrays and takes the walk.
        def make_diagram():
            dd = build_dd(state)
            return dd_io.loads(dd_io.dumps(dd)) if loaded else dd

        assert_matches_oracle(make_diagram, min_fidelity, granularity)

    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize("min_fidelity", [0.9, 0.7, 0.5])
    @pytest.mark.parametrize(
        "family",
        [
            ghz_state,
            w_state,
            embedded_w_state,
            lambda dims: dicke_state(dims, 2),
        ],
        ids=["ghz", "w", "embedded-w", "dicke"],
    )
    @pytest.mark.parametrize(
        "dims", [(3, 6, 2), (2,) * 6, (3, 3, 3, 2), (4, 3)]
    )
    def test_structured_states(self, dims, family, min_fidelity, granularity):
        # Contributions tie across many nodes here, so the scan
        # position decides which of them go.
        state = family(dims)
        assert_matches_oracle(
            lambda: build_dd(state), min_fidelity, granularity
        )

    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize("dims", [(2,), (5,), (9,)])
    def test_single_qudit(self, dims, granularity):
        state = random_statevector(dims, seed=57)
        assert_matches_oracle(lambda: build_dd(state), 0.7, granularity)

    def test_contributions_are_bit_identical(self):
        dd = build_dd(random_statevector((3, 4, 3), seed=58))
        assert fidelity_contributions(dd) == fidelity_contributions_oracle(dd)


@pytest.fixture
def no_scalar_paths(monkeypatch):
    """Run a callable with the scalar node paths made to raise.

    ``DecisionDiagram.nodes``, the level walk, ``normalize_edges`` and
    ``inner_product`` raise while the callable runs.
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
                raise AssertionError(f"approximate called {function.__name__}")
            return function(*args, **kwargs)

        return refusing

    monkeypatch.setattr(
        DecisionDiagram, "nodes", refuse(DecisionDiagram.nodes)
    )
    for module, name in [
        (diagram_module, "walk_levels"),
        (builder_module, "normalize_edges"),
        (approximation_module, "normalize_edges"),
        (arithmetic_module, "inner_product"),
        (approximation_module, "inner_product"),
    ]:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refuse(getattr(module, name)))
    return guarded


class TestApproximateWalksNoNodes:
    def test_guard_is_armed(self, no_scalar_paths):
        dd = build_dd(random_statevector((3, 2), seed=59))
        with pytest.raises(AssertionError, match="inner_product"):
            no_scalar_paths(arithmetic_module.inner_product, dd, dd)

    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize(
        "state",
        [
            random_statevector((4, 7, 4), seed=60),
            random_sparse_state((3, 3, 2, 2), 12, rng=61),
            w_state((3, 6, 2)),
            random_statevector((5,), seed=62),
        ],
        ids=["random", "sparse", "w", "single-qudit"],
    )
    def test_build_dd_inputs(self, no_scalar_paths, state, granularity):
        dd = build_dd(state)
        result = no_scalar_paths(approximate, dd, 0.7, granularity=granularity)
        assert result.fidelity >= 0.7 - 1e-9
        assert result.diagram.stats == stats_reference(result.diagram)

#: Registers of the random-state rows of the paper's Table 1.
TABLE1_RANDOM = [
    (3, 6, 2),
    (9, 5, 6, 3),
    (6, 6, 5, 3, 3),
    (5, 4, 2, 5, 5, 2),
    (4, 7, 4, 4, 3, 5),
]

DENSE_12 = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2)


def record_tables(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Record every batch sent to a complex table that ``approximate``
    makes, with the representatives it got back."""
    batches = []

    class RecordingTable(ComplexTable):
        def lookup_many(self, values):
            canonical = super().lookup_many(values)
            batches.append((np.array(values), canonical))
            return canonical

    monkeypatch.setattr(approximation_module, "ComplexTable", RecordingTable)
    return batches


def mark_everything(values, gap, keep=None):
    """A crowding test that marks every entry.  ``approximate``'s table
    then holds every input weight and sees every quotient: the full
    replay, which the crowded-only one must reproduce."""
    return np.ones(values.size, dtype=bool), values


def assert_same_result(result, expected):
    """Bit-identical approximation results."""
    assert repr(result.fidelity) == repr(expected.fidelity)
    assert repr(result.removal_log) == repr(expected.removal_log)
    assert repr(result.diagram.root_weight) == repr(
        expected.diagram.root_weight
    )
    assert result.diagram.stats == expected.diagram.stats
    for ours, theirs in zip(
        result.diagram.levels.weights + result.diagram.levels.children,
        expected.diagram.levels.weights + expected.diagram.levels.children,
    ):
        assert ours.tobytes() == theirs.tobytes()


@st.composite
def replay_states(draw):
    """Sparse random states and the near-tie states of
    ``tests/test_dd_stats.py``, whose approximations crowd quotients."""
    if draw(st.booleans()):
        return draw(stats_states()).normalized()
    dims = draw(ORACLE_DIMS)
    size = int(np.prod(dims))
    terms = draw(st.integers(min_value=1, max_value=max(1, size // 2)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_sparse_state(dims, terms, rng=seed)


def _near_ties(dims, seed):
    """Amplitudes drawn from three values, each jittered by up to three
    complex-table tolerances."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    base = rng.normal(size=3) + 1j * rng.normal(size=3)
    jitter = rng.integers(-3, 4, size=(2, size)) * 1e-12
    amplitudes = (
        base[rng.integers(0, 3, size=size)] + jitter[0] + 1j * jitter[1]
    )
    return StateVector(amplitudes, dims).normalized()


class TestCrowdedReplay:
    """``approximate`` replays the complex table over its crowded
    quotients only, after the crowded input weights."""

    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize("min_fidelity", [0.98, 0.9])
    @pytest.mark.parametrize("dims", TABLE1_RANDOM)
    def test_random_states_make_no_table(
        self, monkeypatch, dims, min_fidelity, granularity
    ):
        # The paper's random states (real amplitudes) crowd nothing:
        # no table is made and nothing is looked up, DistinctC's count
        # of the result included.
        dd = build_dd(random_state(dims, rng=71))

        def refuse(*args, **kwargs):
            raise AssertionError("approximate consulted a complex table")

        monkeypatch.setattr(approximation_module, "ComplexTable", refuse)
        monkeypatch.setattr(ComplexTable, "lookup_many", refuse)
        result = approximate(dd, min_fidelity, granularity=granularity)
        monkeypatch.undo()
        assert result.removed_nodes + result.removed_leaves > 0
        assert result.diagram.stats == stats_reference(result.diagram)

    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize("dims", TABLE1_RANDOM + [DENSE_12])
    def test_random_states_check_crowding_once(
        self, monkeypatch, dims, granularity
    ):
        # The rebuild's crowding test covers the result's weights, so
        # DistinctC takes their distinct values instead of testing them
        # again.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return crowded(*args, **kwargs)

        dd = build_dd(random_state(dims, rng=73))
        monkeypatch.setattr(approximation_module, "crowded", counting)
        monkeypatch.setattr(diagram_module, "crowded", counting)
        result = approximate(dd, 0.98, granularity=granularity)
        monkeypatch.undo()
        assert result.removed_nodes + result.removed_leaves > 0
        assert len(calls) == 1
        assert result.diagram.stats == stats_reference(result.diagram)

    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    @pytest.mark.parametrize("dims", TABLE1_RANDOM)
    def test_complex_random_states_replay_only_near_one(
        self, monkeypatch, dims, granularity
    ):
        # A row left with one edge gets a weight 1 up to rounding, whose
        # last bits and sign of zero vary from row to row; the table
        # settles those quotients, and sees nothing else of a Gaussian
        # random state.
        batches = record_tables(monkeypatch)
        approximate(
            build_dd(random_state(dims, rng=72, distribution="gaussian")),
            0.9,
            granularity=granularity,
        )
        for values, _ in batches:
            assert np.all(np.abs(values - 1.0) <= 1e-15)

    @pytest.mark.parametrize(
        "state, min_fidelity, granularity",
        [
            (random_sparse_state((3, 3, 2, 2), 12, rng=61), 0.9, "nodes"),
            (random_sparse_state((3, 2, 4, 2), 10, rng=31), 0.9,
             "amplitudes"),
            (random_sparse_state((2, 2, 3, 3, 2), 30, rng=8), 0.7,
             "amplitudes"),
            (random_sparse_state((4, 3, 3), 9, rng=7), 0.7, "nodes"),
            (_near_ties((3, 2, 2), 1), 0.6, "nodes"),
            (_near_ties((2, 3, 3), 2), 0.9, "amplitudes"),
            (_near_ties((4, 3, 2), 5), 0.9, "nodes"),
            (_near_ties((3, 2, 3, 2), 6), 0.6, "amplitudes"),
        ],
    )
    def test_crowded_quotients_match_a_full_replay(
        self, monkeypatch, state, min_fidelity, granularity
    ):
        batches = record_tables(monkeypatch)
        result = approximate(
            build_dd(state), min_fidelity, granularity=granularity
        )
        # The table changed a crowded quotient, so the replay matters.
        assert any(
            values.tobytes() != canonical.tobytes()
            for values, canonical in batches
        )
        monkeypatch.setattr(approximation_module, "crowded", mark_everything)
        assert_same_result(
            result,
            approximate(
                build_dd(state), min_fidelity, granularity=granularity
            ),
        )

    @given(
        replay_states(),
        st.sampled_from([0.99, 0.9, 0.6]),
        st.sampled_from(["nodes", "amplitudes"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_a_full_replay(self, state, min_fidelity, granularity):
        result = approximate(
            build_dd(state), min_fidelity, granularity=granularity
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(approximation_module, "crowded", mark_everything)
            expected = approximate(
                build_dd(state), min_fidelity, granularity=granularity
            )
        assert_same_result(result, expected)


class TestPythonArithmetic:
    """The array helpers reproduce Python's complex arithmetic bit for
    bit, which keeps every result equal to the per-node oracle's."""

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-13, 1e-3, 1.0, 1e3], size=(2, 500))
        a = (rng.normal(size=500) + 1j * rng.normal(size=500)) * scale[0]
        b = (rng.normal(size=500) + 1j * rng.normal(size=500)) * scale[1]
        b[:50] = b[:50].real  # real divisors, as in ``w / abs(w)``
        pairs = list(zip(a.tolist(), b.tolist()))
        assert approximation_module._squared_magnitudes(a).tolist() == [
            abs(x) ** 2 for x in a.tolist()
        ]
        assert approximation_module._product(a, b).tolist() == [
            x * y for x, y in pairs
        ]
        assert approximation_module._quotient(a, b).tolist() == [
            x / y for x, y in pairs
        ]
