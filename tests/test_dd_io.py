"""Tests for DDTXT decision-diagram serialisation."""

import pickle

import numpy as np
import pytest

from repro.dd import io as dd_io
from repro.dd.builder import build_dd
from repro.dd.unique_table import UniqueTable
from repro.exceptions import SerializationError
from repro.states.library import ghz_state, w_state
from repro.states.statevector import StateVector

from tests.conftest import SMALL_MIXED_DIMS, random_statevector


class TestRoundTrip:
    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_random_state_round_trips(self, dims):
        dd = build_dd(random_statevector(dims, seed=141))
        restored = dd_io.loads(dd_io.dumps(dd))
        assert restored.dims == dd.dims
        assert restored.to_statevector().isclose(
            dd.to_statevector(), tolerance=1e-12
        )

    def test_sharing_preserved(self):
        dd = build_dd(w_state((3, 6, 2)))
        restored = dd_io.loads(dd_io.dumps(dd))
        assert restored.num_nodes() == dd.num_nodes()

    def test_zero_edges_preserved(self):
        dd = build_dd(ghz_state((3, 6, 2)))
        restored = dd_io.loads(dd_io.dumps(dd))
        assert restored.root.node.successor(2).is_zero

    def test_load_into_shared_table_shares_nodes(self):
        table = UniqueTable()
        dd = build_dd(ghz_state((3, 3)), table)
        restored = dd_io.loads(dd_io.dumps(dd), table)
        assert restored.root.node is dd.root.node

    def test_complex_weights_exact(self):
        dd = build_dd(random_statevector((3, 2), seed=142))
        restored = dd_io.loads(dd_io.dumps(dd))
        assert np.isclose(
            restored.root.weight, dd.root.weight, atol=1e-15
        )

    @pytest.mark.parametrize(
        "state",
        [
            random_statevector((2, 3, 2), seed=143),
            ghz_state((3, 6, 2)),
            w_state((3, 6, 2)),
            StateVector([0, 0, 1, 0, 0, 0], (2, 3)),
            random_statevector((5,), seed=144),
        ],
        ids=["dense-random", "ghz", "w", "basis", "single-qudit"],
    )
    def test_pickle_round_trips_through_ddtxt(self, state):
        # Diagrams pickle as their DDTXT text (process-pool results
        # carry them), so the clone has the same nodes, zero edges and
        # sharing, and the exact same weights.
        dd = build_dd(state)
        clone = pickle.loads(pickle.dumps(dd))
        assert dd_io.dumps(clone) == dd_io.dumps(dd)
        assert clone.num_nodes() == dd.num_nodes()
        assert clone.stats == dd.stats
        assert clone.to_statevector().isclose(state, tolerance=1e-9)

    def test_unpickled_diagram_keeps_interning(self):
        # The clone's nodes are re-interned into its own unique table,
        # so rebuilding the same state into that table lands on the
        # clone's nodes instead of fresh copies.
        state = random_statevector((2, 3, 2), seed=145)
        clone = pickle.loads(pickle.dumps(build_dd(state)))
        interned = len(clone.unique_table)
        rebuilt = build_dd(state, clone.unique_table)
        assert rebuilt.root.node is clone.root.node
        assert len(clone.unique_table) == interned


class TestFormat:
    def test_header(self):
        dd = build_dd(ghz_state((2, 2)))
        assert dd_io.dumps(dd).startswith("DDTXT 1.0")

    def test_children_first_order(self):
        dd = build_dd(ghz_state((3, 3)))
        text = dd_io.dumps(dd)
        lines = [
            line for line in text.splitlines()
            if line.startswith("node")
        ]
        # The root (level 0) must come after its level-1 children.
        assert "level=0" in lines[-1]

    def test_comments_ignored(self):
        dd = build_dd(ghz_state((2, 2)))
        text = dd_io.dumps(dd)
        commented = text.replace(
            "DDTXT 1.0", "DDTXT 1.0\n# a comment"
        )
        restored = dd_io.loads(commented)
        assert restored.num_nodes() == dd.num_nodes()


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(SerializationError):
            dd_io.loads("dims 2 2\nroot 1@0\n")

    def test_missing_dims(self):
        with pytest.raises(SerializationError):
            dd_io.loads("DDTXT 1.0\nroot 1@T\n")

    def test_missing_root(self):
        with pytest.raises(SerializationError):
            dd_io.loads("DDTXT 1.0\ndims 2\n")

    def test_unknown_reference(self):
        with pytest.raises(SerializationError):
            dd_io.loads("DDTXT 1.0\ndims 2\nroot 1@5\n")

    def test_wrong_edge_count(self):
        text = (
            "DDTXT 1.0\ndims 3\n"
            "node 0 level=0 edges=1+0j@T,0@T\n"
            "root 1+0j@0\n"
        )
        with pytest.raises(SerializationError):
            dd_io.loads(text)

    def test_malformed_weight(self):
        text = (
            "DDTXT 1.0\ndims 2\n"
            "node 0 level=0 edges=abc@T,0@T\n"
            "root 1+0j@0\n"
        )
        with pytest.raises(SerializationError):
            dd_io.loads(text)

    def test_level_out_of_range(self):
        text = (
            "DDTXT 1.0\ndims 2\n"
            "node 0 level=3 edges=1+0j@T,0@T\n"
            "root 1+0j@0\n"
        )
        with pytest.raises(SerializationError):
            dd_io.loads(text)

    def test_unknown_directive(self):
        with pytest.raises(SerializationError):
            dd_io.loads("DDTXT 1.0\ndims 2\nblob x\n")


class TestStructuralInvariants:
    """The loader refuses what no consumer of a diagram can use."""

    @pytest.mark.parametrize(
        "text",
        [
            "DDTXT 1.0\ndims 2\nnode x level=0 edges=1@T,0@T\nroot 1@0\n",
            "DDTXT 1.0\ndims 2\nnode 0 level=a edges=1@T,0@T\nroot 1@0\n",
            "DDTXT 1.0\ndims 2\nnode 0 level=0 edges=nan@T,0@T\nroot 1@0\n",
            "DDTXT 1.0\ndims 2\nnode 0 level=0 edges=inf@T,0@T\nroot 1@0\n",
            "DDTXT 1.0\ndims 2\nnode 0 level=0 edges=1e300@T,0@T\n"
            "root 1@0\n",
            "DDTXT 1.0\ndims 0 2\nroot 1@T\n",
            "DDTXT 1.0\ndims 2 x\nroot 1@T\n",
            "DDTXT 1.0\ndims 2 2\nnode 0 level=1 edges=1@T,0@T\nroot 1@0\n",
            "DDTXT 1.0\ndims 2 2\nroot 1@T\n",
            "DDTXT 1.0\ndims 2\nnode 0 level=0 edges=1@T,0@T\nroot nan@0\n",
        ],
        ids=[
            "node-index",
            "level",
            "nan-weight",
            "inf-weight",
            "huge-weight",
            "zero-dimension",
            "non-integer-dimension",
            "root-at-level-1",
            "root-at-terminal",
            "nan-root",
        ],
    )
    def test_malformed_fields(self, text):
        with pytest.raises(SerializationError):
            dd_io.loads(text)

    def test_terminal_edge_above_the_last_level(self):
        text = (
            "DDTXT 1.0\ndims 2 2\n"
            "node 0 level=0 edges=1@T,0@T\n"
            "root 1@0\n"
        )
        with pytest.raises(SerializationError, match="terminal"):
            dd_io.loads(text)

    def test_child_two_levels_down(self):
        text = (
            "DDTXT 1.0\ndims 2 2 2\n"
            "node 0 level=2 edges=1@T,0@T\n"
            "node 1 level=0 edges=1@0,0@T\n"
            "root 1@1\n"
        )
        with pytest.raises(SerializationError, match="one level below"):
            dd_io.loads(text)

    def test_child_at_its_parents_level(self):
        text = (
            "DDTXT 1.0\ndims 2 2\n"
            "node 0 level=1 edges=1@T,0@T\n"
            "node 1 level=1 edges=1@0,0@T\n"
            "node 2 level=0 edges=1@1,0@T\n"
            "root 1@2\n"
        )
        with pytest.raises(SerializationError, match="one level below"):
            dd_io.loads(text)

    def test_rounded_weights_are_accepted(self):
        # Normalisation is not checked: the module docstring's example
        # uses weights rounded to four digits.
        text = dd_io.__doc__.split("::")[1].split("\n\n")[1]
        dd = dd_io.loads("\n".join(line.strip() for line in text.splitlines()))
        assert dd.dims == (3, 2)
        assert dd.stats.num_nodes == 3
        assert dd.to_statevector().norm() == pytest.approx(1.0, abs=1e-3)

    def test_zero_root_loads(self):
        dd = dd_io.loads("DDTXT 1.0\ndims 2 2\nroot 0j@T\n")
        assert dd.root.is_zero
        assert dd.stats.num_nodes == 0
