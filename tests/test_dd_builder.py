"""Tests for decision-diagram construction (paper Section 4.1)."""

import math

import numpy as np
import pytest

from repro.dd.builder import build_dd, normalize_edges
from repro.dd.edge import Edge
from repro.dd.node import TERMINAL
from repro.dd.unique_table import UniqueTable
from repro.exceptions import StateError
from repro.states.library import ghz_state, uniform_state, w_state
from repro.states.statevector import StateVector

from tests.conftest import SMALL_MIXED_DIMS, random_statevector


class TestRoundTrip:
    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_random_state_round_trips(self, dims):
        sv = random_statevector(dims, seed=17)
        dd = build_dd(sv)
        assert dd.to_statevector().isclose(sv, tolerance=1e-10)

    def test_basis_state_round_trips(self):
        sv = StateVector([0, 0, 0, 1, 0, 0], (3, 2))
        dd = build_dd(sv)
        assert dd.to_statevector().isclose(sv)

    def test_unnormalized_input_preserved(self):
        sv = StateVector([2.0, 0, 0, 0], (2, 2))
        dd = build_dd(sv)
        assert np.isclose(dd.root.weight, 2.0)
        assert dd.to_statevector().isclose(sv)

    def test_global_phase_in_root_weight(self):
        amplitudes = np.array([1j, 0, 0, 0])
        dd = build_dd(StateVector(amplitudes, (2, 2)))
        assert np.isclose(dd.root.weight, 1j)


class TestNodeInvariants:
    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_all_nodes_canonical(self, dims):
        dd = build_dd(random_statevector(dims, seed=23))
        for node in dd.nodes():
            node.check_invariants()

    def test_node_dimension_matches_register(self):
        dd = build_dd(random_statevector((3, 6, 2), seed=5))
        for node in dd.nodes():
            assert node.dimension == (3, 6, 2)[node.level]


class TestSharing:
    def test_ghz_is_compact(self):
        # GHZ over (3, 3): root + 3 distinct children = 4 DAG nodes.
        dd = build_dd(ghz_state((3, 3)))
        assert dd.num_nodes() == 4

    def test_uniform_state_is_a_chain(self):
        # The uniform state factorises completely: one node per level.
        dd = build_dd(uniform_state((3, 4, 2)))
        assert dd.num_nodes() == 3

    def test_figure3_sharing(self):
        # (|00> - |11> + |21>)/sqrt(3): root edges 1 and 2 share.
        amplitudes = np.zeros(6, dtype=complex)
        amplitudes[0] = 1.0
        amplitudes[3] = -1.0
        amplitudes[5] = 1.0
        dd = build_dd(StateVector(amplitudes / math.sqrt(3), (3, 2)))
        root = dd.root.node
        assert root.successor(1).node is root.successor(2).node
        assert dd.num_nodes() == 3

    def test_identical_states_share_all_nodes(self):
        table = UniqueTable()
        sv = random_statevector((3, 2, 2), seed=31)
        dd1 = build_dd(sv, table)
        dd2 = build_dd(sv, table)
        assert dd1.root.node is dd2.root.node

    def test_phase_extraction_enables_sharing(self):
        # Sub-states equal up to a global phase share one node.
        child = np.array([1.0, 1.0]) / math.sqrt(2)
        amplitudes = np.concatenate([child, 1j * child]) / math.sqrt(2)
        dd = build_dd(StateVector(amplitudes, (2, 2)))
        root = dd.root.node
        assert root.successor(0).node is root.successor(1).node


class TestZeroHandling:
    def test_zero_state_rejected(self):
        with pytest.raises(StateError):
            build_dd(StateVector([0, 0, 0, 0], (2, 2)))

    def test_zero_subtree_becomes_zero_edge(self):
        dd = build_dd(ghz_state((3, 6, 2)))
        root = dd.root.node
        assert root.successor(2).is_zero
        assert root.successor(2).node is TERMINAL

    def test_w_state_amplitudes(self):
        sv = w_state((3, 6, 2))
        dd = build_dd(sv)
        for digits, amplitude in sv.nonzero_terms():
            assert np.isclose(dd.amplitude(digits), amplitude)


class TestNormalizeEdges:
    def test_all_zero_gives_zero_edge(self):
        table = UniqueTable()
        edge = normalize_edges([Edge.zero(), Edge.zero()], table, 0)
        assert edge.is_zero

    def test_norm_extraction(self):
        table = UniqueTable()
        edge = normalize_edges(
            [Edge(3.0, TERMINAL), Edge(4.0, TERMINAL)], table, 0
        )
        assert np.isclose(edge.weight, 5.0)
        assert np.isclose(
            sum(abs(w) ** 2 for w in edge.node.weights), 1.0
        )

    def test_phase_extraction(self):
        table = UniqueTable()
        edge = normalize_edges(
            [Edge(1j, TERMINAL), Edge(0.0, TERMINAL)], table, 0
        )
        assert np.isclose(edge.weight, 1j)
        assert np.isclose(edge.node.weights[0], 1.0)


def _same_diagram(a, b) -> bool:
    """Equal level arrays (bytes), root weights and statistics."""
    return (
        a.root_weight == b.root_weight
        and a.stats == b.stats
        and all(
            x.tobytes() == y.tobytes()
            for x, y in zip(
                a.levels.weights + a.levels.children,
                b.levels.weights + b.levels.children,
            )
        )
        and len(a.levels.weights) == len(b.levels.weights)
    )


class TestRowHashKeys:
    """The build keys rows by a 64-bit hash of their quantised keys;
    equal hashes are checked, and only a true collision sorts the keys
    themselves."""

    STATES = [
        random_statevector((4, 7, 4), seed=3),
        random_statevector((2, 3, 2, 2), seed=4),
        w_state((3, 2, 2, 3)),
        uniform_state((2, 3, 2)),
        ghz_state((3, 3, 2)),
    ]

    @pytest.mark.parametrize(
        "collide",
        [lambda hashes: np.zeros_like(hashes), lambda hashes: hashes & 3],
        ids=["all-equal", "low-bits"],
    )
    @pytest.mark.parametrize("state", STATES, ids=lambda state: str(state.dims))
    def test_colliding_hashes_give_the_same_diagram(
        self, monkeypatch, state, collide
    ):
        from repro.dd import builder

        expected = build_dd(state)
        production = builder._row_hashes
        calls = []

        def colliding(keys):
            calls.append(keys.shape[0])
            return collide(production(keys))

        monkeypatch.setattr(builder, "_row_hashes", colliding)
        assert _same_diagram(build_dd(state), expected)
        assert len(calls) == len(state.dims)

    def test_random_rows_take_the_identity(self):
        # Every row of a random state is its own node: no two hashes
        # are equal, and the rows keep their order.
        from repro.dd.builder import _distinct_rows

        keys = np.arange(24, dtype=np.int64).reshape(6, 4)
        first, index = _distinct_rows(keys)
        assert first.tolist() == index.tolist() == list(range(6))
        keys[4] = keys[1]
        first, index = _distinct_rows(keys)
        assert first.tolist() == [0, 1, 2, 3, 5]
        assert index.tolist() == [0, 1, 2, 3, 1, 4]
