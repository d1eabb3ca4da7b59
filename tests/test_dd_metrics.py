"""Tests for the Table 1 node-counting metrics.

The expected values in this file are taken directly from the paper's
Table 1; they pin down the reverse-engineered metric definitions.
"""

import numpy as np
import pytest

from repro.core.preparation import prepare_state
from repro.dd.builder import build_dd
from repro.dd.metrics import (
    decomposition_tree_size,
    path_expanded_node_count,
    synthesis_operation_count,
    visited_tree_size,
)
from repro.pipeline import PipelineConfig
from repro.states.library import (
    embedded_w_state,
    ghz_state,
    uniform_state,
    w_state,
)
from repro.states.random_states import random_sparse_state

from tests.conftest import SMALL_MIXED_DIMS, random_statevector

#: (dims, tree size) straight from the "Nodes" column of Table 1.
TABLE1_TREE_SIZES = [
    ((3, 6, 2), 58),
    ((9, 5, 6, 3), 1135),
    ((6, 6, 5, 3, 3), 2383),
    ((5, 4, 2, 5, 5, 2), 3266),
    ((4, 7, 4, 4, 3, 5), 8657),
]

#: (family, dims, operations) from the "Operations" column.
TABLE1_OPERATIONS = [
    (embedded_w_state, (3, 6, 2), 21),
    (embedded_w_state, (9, 5, 6, 3), 49),
    (embedded_w_state, (4, 7, 4, 4, 3, 5), 91),
    (ghz_state, (3, 6, 2), 19),
    (ghz_state, (9, 5, 6, 3), 51),
    (ghz_state, (4, 7, 4, 4, 3, 5), 73),
    (w_state, (3, 6, 2), 37),
    (w_state, (9, 5, 6, 3), 186),
    (w_state, (4, 7, 4, 4, 3, 5), 262),
]


class TestDecompositionTreeSize:
    @pytest.mark.parametrize("dims,expected", TABLE1_TREE_SIZES)
    def test_matches_table1(self, dims, expected):
        assert decomposition_tree_size(dims) == expected

    def test_single_qudit(self):
        # root + d leaves
        assert decomposition_tree_size((5,)) == 6

    def test_qubit_pair(self):
        # 1 + 2 + 4
        assert decomposition_tree_size((2, 2)) == 7


class TestOperationCounts:
    @pytest.mark.parametrize("family,dims,expected", TABLE1_OPERATIONS)
    def test_matches_table1(self, family, dims, expected):
        dd = build_dd(family(dims))
        assert synthesis_operation_count(dd) == expected

    @pytest.mark.parametrize("dims,tree", TABLE1_TREE_SIZES)
    def test_random_state_ops_equals_tree_minus_one(self, dims, tree):
        dd = build_dd(random_statevector(dims, seed=1))
        assert synthesis_operation_count(dd) == tree - 1

    def test_counts_the_synthesis_without_tensor_elision(self):
        # A node whose non-zero edges share one child: the default
        # synthesis visits that child once, and emits fewer rotations.
        state = random_sparse_state(
            (3, 2, 4, 2), num_terms=10, rng=np.random.default_rng(31)
        )
        assert synthesis_operation_count(build_dd(state)) == 45
        assert prepare_state(state).circuit.num_operations == 43
        assert prepare_state(
            state, config=PipelineConfig(tensor_elision=False)
        ).circuit.num_operations == 45


class TestVisitedTreeSize:
    @pytest.mark.parametrize("family,dims,expected", TABLE1_OPERATIONS)
    def test_always_operations_plus_one(self, family, dims, expected):
        dd = build_dd(family(dims))
        assert visited_tree_size(dd) == expected + 1

    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_identity_on_random_states(self, dims):
        dd = build_dd(random_statevector(dims, seed=2))
        assert (
            visited_tree_size(dd)
            == synthesis_operation_count(dd) + 1
        )

    def test_full_tree_for_dense_state(self):
        dims = (3, 2, 2)
        dd = build_dd(random_statevector(dims, seed=3))
        assert visited_tree_size(dd) == decomposition_tree_size(dims)


class TestPathExpandedCount:
    def test_uniform_state_counts_chain(self):
        dd = build_dd(uniform_state((3, 3)))
        # Sharing: 4 path visits (1 root + 3 level-1 paths to the same
        # node).
        assert path_expanded_node_count(dd) == 4

    def test_dense_random_equals_internal_tree(self):
        dims = (3, 2, 2)
        dd = build_dd(random_statevector(dims, seed=4))
        # 1 + 3 + 6 internal nodes.
        assert path_expanded_node_count(dd) == 10

    def test_ghz_counts(self):
        dd = build_dd(ghz_state((3, 6, 2)))
        # root + A + B + A0 + B1 (one path each).
        assert path_expanded_node_count(dd) == 5
