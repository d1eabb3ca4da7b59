"""The statistics a diagram carries (``DecisionDiagram.stats``).

``build_dd`` and ``approximate`` count them while they make the nodes,
and every other diagram counts them with one walk on first access.
Each source must equal the oracle of ``tests/kernel_oracles.py``: a
fresh scalar complex table fed the root weight and then every edge
weight in ``nodes()`` pre-order, plus the recursive visited count.
The strategies below put weights within a few tolerances of each
other and keep weights between the zero cutoff (1e-14) and the
tolerance (1e-12), the cases where counting by equality would be
wrong.  ``finalize`` must read the stored statistics and walk nothing.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd import diagram as diagram_module
from repro.dd import io as dd_io
from repro.dd.approximation import approximate
from repro.dd.builder import build_dd
from repro.dd.diagram import DecisionDiagram, level_stats
from repro.dd.edge import Edge
from repro.dd.levels import compact_levels
from repro.dd.node import TERMINAL, DDNode
from repro.dd.unique_table import UniqueTable
from repro.engine import PreparationEngine
from repro.engine.spec import job_from_dict
from repro.exceptions import DecisionDiagramError
from repro.linalg.complex_table import ComplexTable, crowded
from repro.pipeline import PipelineConfig, default_pipeline, run_pipeline
from repro.pipeline import pipeline as pipeline_module
from repro.states.library import (
    dicke_state,
    embedded_w_state,
    ghz_state,
    uniform_state,
    w_state,
)
from repro.states.statevector import StateVector

from tests.conftest import no_nodes, random_statevector
from tests.kernel_oracles import stats_reference

DIMS = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=4
).map(tuple)

TOLERANCE = 1e-12


@st.composite
def stats_states(draw):
    """Unnormalised states whose weights crowd the stats tolerance.

    * ``dense``: random complex amplitudes;
    * ``near-ties``: a few base values, each amplitude jittered by a
      few tolerances, so leaf weights and block norms sit within a
      few tolerances of each other;
    * ``tiny``: random amplitudes, some replaced by magnitudes in
      (1e-14, 1e-12], kept weights that sit next to ``0j``;
    * ``sparse``: three quarters of the amplitudes zeroed.

    The norm is drawn too: ``build_dd`` takes any norm.
    """
    dims = draw(DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(["dense", "near-ties", "tiny", "sparse"]))
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind == "near-ties":
        base = rng.normal(size=3) + 1j * rng.normal(size=3)
        jitter = rng.integers(-3, 4, size=(2, size)) * TOLERANCE
        amplitudes = (
            base[rng.integers(0, 3, size=size)] + jitter[0] + 1j * jitter[1]
        )
    elif kind == "tiny":
        tiny = rng.uniform(size=size) < 0.3
        magnitudes = rng.uniform(1e-14, 1e-12, size=size)
        phases = np.exp(2j * np.pi * rng.uniform(size=size))
        amplitudes[tiny] = (magnitudes * phases)[tiny]
    elif kind == "sparse" and size > 2:
        kill = rng.choice(size, size=3 * size // 4, replace=False)
        amplitudes[kill] = 0.0
    if not np.any(np.abs(amplitudes) > 1e-10):
        amplitudes[0] = 1.0
    norm = draw(st.sampled_from([1.0, 1e-3, 3.7]))
    amplitudes = norm * amplitudes / np.linalg.norm(amplitudes)
    return StateVector(amplitudes, dims)


def assert_matches_oracle(dd: DecisionDiagram) -> None:
    assert dd.stats == stats_reference(dd)


class TestStatsMatchOracle:
    @given(stats_states())
    @settings(max_examples=120, deadline=None)
    def test_build_dd(self, state):
        assert_matches_oracle(build_dd(state))

    @given(stats_states())
    @settings(max_examples=80, deadline=None)
    def test_build_dd_makes_no_nodes(self, state):
        # Near ties send the build through the complex-table replay and
        # DistinctC through its pre-order replay, both on level arrays.
        with no_nodes():
            dd = build_dd(state)
            stats = dd.stats
        assert stats == stats_reference(dd)

    @pytest.mark.parametrize(
        "family",
        [
            ghz_state,
            w_state,
            embedded_w_state,
            uniform_state,
            lambda dims: dicke_state(dims, 2),
        ],
        ids=["ghz", "w", "embedded-w", "uniform", "dicke"],
    )
    @pytest.mark.parametrize(
        "dims", [(3, 6, 2), (2, 3, 2, 2, 3), (2,) * 8 + (3,) * 2 + (5,)]
    )
    def test_structured_families_make_no_nodes(self, family, dims):
        with no_nodes():
            dd = build_dd(family(dims))
            stats = dd.stats
            approximated = approximate(dd, 0.9).diagram
        assert stats == stats_reference(dd)
        assert approximated.stats == stats_reference(approximated)

    @given(
        stats_states(),
        st.sampled_from(["nodes", "amplitudes"]),
        st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=80, deadline=None)
    def test_approximate(self, state, granularity, min_fidelity):
        # approximate takes unit-norm diagrams.
        result = approximate(
            build_dd(state.normalized()),
            min_fidelity,
            granularity=granularity,
        )
        assert_matches_oracle(result.diagram)

    @given(stats_states())
    @settings(max_examples=60, deadline=None)
    def test_ddtxt_round_trip(self, state):
        dd = build_dd(state)
        restored = dd_io.loads(dd_io.dumps(dd))
        assert_matches_oracle(restored)
        assert restored.stats == dd.stats

    @given(stats_states(), stats_states())
    @settings(max_examples=60, deadline=None)
    def test_builds_sharing_one_unique_table(self, first, second):
        table = UniqueTable()
        earlier = build_dd(first, table)
        later = build_dd(second, table)
        assert_matches_oracle(earlier)
        assert_matches_oracle(later)

    @pytest.mark.parametrize(
        "family", [ghz_state, w_state, embedded_w_state]
    )
    @pytest.mark.parametrize("dims", [(3, 6, 2), (9, 5, 6, 3)])
    def test_structured_families(self, family, dims):
        # In W states the root weight equals an edge weight up to
        # rounding, so it must not be counted by equality.
        dd = build_dd(family(dims))
        assert_matches_oracle(dd)
        assert_matches_oracle(approximate(dd, 0.98).diagram)

    @given(
        stats_states(),
        st.data(),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
        st.sampled_from([1, -1, 1j, -1j, 1 + 1j, 1 - 1j]),
    )
    @settings(max_examples=150, deadline=None)
    def test_root_near_an_edge_value(self, state, data, steps, direction):
        # The root weight is placed 0, 1/2, 1, 3/2 or 3 tolerances from
        # one of the diagram's edge values, on either side of the
        # lookup tolerance and of the guard's twice-the-tolerance gap.
        dd = build_dd(state)
        values = np.concatenate([row.ravel() for row in dd.levels.weights])
        value = data.draw(st.sampled_from(values.tolist()))
        root = Edge(value + steps * TOLERANCE * direction, dd.root.node)
        moved = DecisionDiagram(root, dd.register, dd.unique_table)
        assert_matches_oracle(moved)

    def test_weight_between_cutoff_and_tolerance(self):
        # The 1e-13 child is kept (above the 1e-14 cutoff) but lies
        # within the tolerance of 0j, so the table merges the two.
        state = StateVector([1.0, 1e-13, 0.0, 0.0], (2, 2))
        dd = build_dd(state)
        assert dd.stats.distinct_complex == 2
        assert_matches_oracle(dd)

    def test_dropped_row_is_not_counted(self):
        # The 2e-14 leaf row is live, but its in-edge shrinks below the
        # zero cutoff once the root row is normalised by its norm 3:
        # the build makes its node, and no edge reaches it.
        state = StateVector([3.0, 0.0, 0.0, 2e-14], (2, 2))
        dd = build_dd(state)
        assert dd.stats.num_nodes == 2
        assert_matches_oracle(dd)

    def test_listed_node_off_the_diagram_is_skipped(self):
        # A build or rebuild lists every row it makes, including one
        # whose in-edges all vanished; the level arrays keep only the
        # rows the root reaches.
        leaf = DDNode(1, (Edge(1.0, TERMINAL), Edge.zero()))
        root = DDNode(0, (Edge(1.0, leaf), Edge.zero()))
        levels = compact_levels(
            [np.array([[1.0, 0.0]], complex), np.array([[0, 1], [1, 0]], complex)],
            [np.array([[1, -1]]), np.full((2, 2), -1)],
            0,
        )
        dd = DecisionDiagram(Edge(1.0, root), (2, 2), UniqueTable())
        assert levels.weights[1].tolist() == [[1, 0]]
        assert level_stats(levels, dd.root.weight) == stats_reference(dd)

    def test_rows_of_one_node_are_kept_once(self):
        # Rows 0 and 1 of level 1 are one node (one label): the first
        # reachable one stands for both, and both edges point to it.
        levels = compact_levels(
            [
                np.array([[0.6, 0.8]], complex),
                np.array([[0, 1], [0, 1], [1, 0]], complex),
            ],
            [np.array([[1, 0]]), np.full((3, 2), -1)],
            0,
            [None, np.array([5, 5, 7])],
        )
        assert levels.weights[1].tolist() == [[0, 1]]
        assert levels.children[0].tolist() == [[0, 0]]

    def test_child_above_its_parent_is_refused(self):
        child = DDNode(0, (Edge(1.0, TERMINAL), Edge.zero()))
        root = DDNode(0, (Edge(1.0, child), Edge.zero()))
        dd = DecisionDiagram(Edge(1.0, root), (2, 2), UniqueTable())
        with pytest.raises(DecisionDiagramError, match="below"):
            dd.stats

    def test_child_two_levels_down_is_refused(self):
        leaf = DDNode(2, (Edge(1.0, TERMINAL), Edge.zero()))
        root = DDNode(0, (Edge(1.0, leaf), Edge.zero()))
        dd = DecisionDiagram(Edge(1.0, root), (2, 2, 2), UniqueTable())
        with pytest.raises(DecisionDiagramError, match="one level below"):
            dd.levels

    def test_walk_shares_a_node_reached_twice(self):
        # The walk lists each node once, in the order the level above
        # first reaches it, and points both edges at its row.
        leaf = DDNode(1, (Edge(1.0, TERMINAL), Edge.zero()))
        root = DDNode(0, (Edge(0.6, leaf), Edge(0.8, leaf)))
        dd = DecisionDiagram(Edge(1.0, root), (2, 2), UniqueTable())
        assert dd.level_nodes() == ([root], [leaf])
        assert dd.levels.children[0].tolist() == [[0, 0]]
        assert dd.levels.children[1].tolist() == [[-1, -1]]
        assert dd.levels.weights[0].tolist() == [[0.6, 0.8]]

    def test_zero_diagram(self):
        dd = DecisionDiagram(Edge.zero(), (2, 2), UniqueTable())
        assert dd.stats == stats_reference(dd)
        assert dd.stats.num_nodes == 0
        assert dd.stats.visited_nodes == 0

    def test_hand_built_diagram_walks_once(self):
        leaf = DDNode(1, (Edge(1.0, TERMINAL), Edge.zero()))
        root = DDNode(0, (Edge(0.6, leaf), Edge(0.8, leaf)))
        dd = DecisionDiagram(Edge(1.0, root), (2, 2), UniqueTable())
        assert dd.stats is dd.stats
        assert_matches_oracle(dd)
        assert dd.stats.visited_nodes == 7


@st.composite
def crowded_values(draw):
    """Complex values on a grid a few tolerances wide."""
    count = draw(st.integers(min_value=1, max_value=12))
    steps = st.integers(min_value=-4, max_value=4)
    return np.array(
        [
            complex(draw(steps), draw(steps)) * TOLERANCE
            + draw(st.sampled_from([0.0, 0.5, 0.5 + 0.5j]))
            for _ in range(count)
        ]
    )


@st.composite
def tied_values(draw):
    """:func:`crowded_values` with exact duplicates and twins: entries
    equal up to the sign of a zero part, in either part."""
    base = draw(crowded_values())
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=base.size - 1),
        min_size=1,
        max_size=24,
    ))
    count = len(picks)
    flips = st.lists(st.booleans(), min_size=count, max_size=count)
    values = base[picks]
    for part in (values.real, values.imag):
        part[np.array(draw(flips)) & (part == 0.0)] = -0.0
    return values


@pytest.mark.parametrize("family", [ghz_state, w_state])
@pytest.mark.parametrize("dims", [(3, 6, 2), (2,) * 10])
def test_root_tie_needs_no_replay(monkeypatch, family, dims):
    # In W states the root weight equals an edge weight up to rounding;
    # the root-first rule settles it without replaying a scalar table.
    def refuse(*args, **kwargs):
        raise AssertionError("count_distinct_complex built a ComplexTable")

    monkeypatch.setattr(diagram_module, "ComplexTable", refuse)
    dd = build_dd(family(dims))
    monkeypatch.undo()
    assert_matches_oracle(dd)


class TestCloseValueGuard:
    @given(crowded_values())
    @settings(max_examples=200, deadline=None)
    def test_never_misses_a_close_pair(self, values):
        distinct = np.unique(values)
        gap = 2.0 * TOLERANCE
        close = any(
            abs(a.real - b.real) <= gap and abs(a.imag - b.imag) <= gap
            for a, b in itertools.combinations(distinct.tolist(), 2)
        )
        if close:
            assert crowded(distinct, gap)[0].any()

    def test_separated_values_pass(self):
        values = np.unique(np.array([0.0, 0.5, 0.5 + 0.5j, 1.0, 1.0j]))
        assert not crowded(values, 2.0 * TOLERANCE)[0].any()

    @given(tied_values(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_marks_and_distinct_values_ignore_the_order_of_ties(
        self, values, data
    ):
        # The sort may order ties (equal values, or twins) either way:
        # equal bytes share their group's mark and twins are marked
        # pairwise, so a permuted input gives the permuted marks and
        # the same distinct values, among all entries or the kept ones.
        count = values.size
        permutation = np.array(data.draw(st.permutations(range(count))))
        keep = np.array(data.draw(
            st.lists(st.booleans(), min_size=count, max_size=count)
        ))
        gap = 2.0 * TOLERANCE

        def distinct_bytes(entries):
            return {entry.tobytes() for entry in entries}

        marks, distinct = crowded(values, gap)
        permuted_marks, permuted_distinct = crowded(values[permutation], gap)
        assert np.array_equal(permuted_marks, marks[permutation])
        assert distinct_bytes(permuted_distinct) == distinct_bytes(distinct)
        assert distinct_bytes(distinct) == distinct_bytes(values)
        kept_marks, kept = crowded(values, gap, keep)
        _, permuted_kept = crowded(
            values[permutation], gap, keep[permutation]
        )
        assert np.array_equal(kept_marks, marks)
        assert distinct_bytes(kept) == distinct_bytes(values[keep])
        assert distinct_bytes(permuted_kept) == distinct_bytes(kept)
        if not marks[keep].any():
            # Uncrowded: one entry per distinct value, as the DistinctC
            # count reads them.
            assert kept.size == len(distinct_bytes(kept))
            assert not crowded(values[keep], gap)[0].any()

    def test_empty_values_have_empty_marks(self):
        marks, distinct = crowded(np.zeros(0, dtype=np.complex128), 1e-12)
        assert marks.shape == (0,) and marks.dtype == bool
        assert distinct.size == 0

    @given(crowded_values(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_crowded_marks_every_close_or_twin_entry(self, values, data):
        # Conjugating flips the sign of a zero imaginary part, so equal
        # entries can differ in their bytes (twins).
        flip = np.array(data.draw(
            st.lists(st.booleans(), min_size=values.size, max_size=values.size)
        ))
        values = np.where(flip, values.conj(), values)
        marks, _ = crowded(values, 2.0 * TOLERANCE)
        gap = 2.0 * TOLERANCE
        for i, j in itertools.combinations(range(values.size), 2):
            a, b = values[i], values[j]
            if a.tobytes() != b.tobytes() and (
                abs(a.real - b.real) <= gap and abs(a.imag - b.imag) <= gap
            ):
                assert marks[i] and marks[j]

    @given(crowded_values(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_replaying_crowded_entries_matches_a_full_replay(
        self, values, data
    ):
        # The build replays the complex table over the crowded weights
        # only; the rest must come back unchanged from a full replay.
        flip = np.array(data.draw(
            st.lists(st.booleans(), min_size=values.size, max_size=values.size)
        ))
        values = np.where(flip, values.conj(), values)
        full = ComplexTable(TOLERANCE).lookup_many(values)
        marks, _ = crowded(values, 2.0 * TOLERANCE)
        partial = values.copy()
        partial[marks] = ComplexTable(TOLERANCE).lookup_many(values[marks])
        assert partial.tobytes() == full.tobytes()


@pytest.fixture
def no_walks_in_finalize(monkeypatch):
    """Make ``nodes()``, the level walk and scalar complex-table lookups
    raise in finalize."""
    depth = []
    finalize = pipeline_module.finalize

    def guarded_finalize(context):
        depth.append(None)
        try:
            return finalize(context)
        finally:
            depth.pop()

    def refuse_inside_finalize(method):
        def guarded(*args, **kwargs):
            if depth:
                raise AssertionError(
                    f"finalize called {method.__qualname__}"
                )
            return method(*args, **kwargs)

        return guarded

    monkeypatch.setattr(pipeline_module, "finalize", guarded_finalize)
    monkeypatch.setattr(
        DecisionDiagram, "nodes", refuse_inside_finalize(DecisionDiagram.nodes)
    )
    monkeypatch.setattr(
        ComplexTable, "lookup", refuse_inside_finalize(ComplexTable.lookup)
    )
    monkeypatch.setattr(
        diagram_module,
        "walk_levels",
        refuse_inside_finalize(diagram_module.walk_levels),
    )
    return guarded_finalize


WALK_GUARD_JOBS = [
    {"family": "random", "dims": [3, 3, 2], "params": {"rng": 7}},
    {
        "family": "random",
        "dims": [4, 3, 3],
        "params": {"rng": 8},
        "min_fidelity": 0.98,
    },
    {"family": "ghz", "dims": [3, 6, 2]},
    {"family": "w", "dims": [2, 3, 2]},
    {"family": "w", "dims": [3, 6, 2], "min_fidelity": 0.98},
]


class TestFinalizeWalksNothing:
    def test_guard_is_armed(self, no_walks_in_finalize):
        context = default_pipeline().run(random_statevector((3, 2), seed=5))
        # A diagram made without level arrays must walk to count its
        # statistics.
        context.diagram = DecisionDiagram(
            context.diagram.root,
            context.diagram.register,
            context.diagram.unique_table,
        )
        with pytest.raises(AssertionError, match="walk_levels"):
            no_walks_in_finalize(context)

    @pytest.mark.parametrize("min_fidelity", [1.0, 0.98])
    @pytest.mark.parametrize(
        "state",
        [random_statevector((4, 3, 3), seed=9), w_state((3, 6, 2))],
        ids=["random", "w"],
    )
    def test_run_pipeline(self, no_walks_in_finalize, state, min_fidelity):
        result = run_pipeline(
            state, config=PipelineConfig(min_fidelity=min_fidelity)
        )
        assert result.report.dag_nodes == stats_reference(
            result.diagram
        ).num_nodes
        assert result.report.distinct_complex == stats_reference(
            result.diagram
        ).distinct_complex

    def test_serial_engine(self, no_walks_in_finalize):
        engine = PreparationEngine(executor="serial")
        batch = engine.run_batch(
            [job_from_dict(job) for job in WALK_GUARD_JOBS]
        )
        assert all(outcome.ok for outcome in batch.outcomes), [
            getattr(outcome, "message", "") for outcome in batch.outcomes
        ]


def test_repr_does_not_walk(monkeypatch):
    dd = DecisionDiagram(
        build_dd(ghz_state((3, 3))).root, (3, 3), UniqueTable()
    )

    def refuse(self):
        raise AssertionError("repr walked the diagram")

    monkeypatch.setattr(DecisionDiagram, "nodes", refuse)
    assert "3, 3" in repr(dd)
