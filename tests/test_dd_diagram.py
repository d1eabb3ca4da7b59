"""Tests for DecisionDiagram queries and statistics."""

import math
import sys
import threading

import numpy as np
import pytest

from repro.dd.builder import build_dd
from repro.dd.diagram import DecisionDiagram
from repro.dd.edge import Edge
from repro.dd.node import TERMINAL
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DecisionDiagramError, DimensionError
from repro.states.library import ghz_state, uniform_state
from repro.states.statevector import StateVector

from tests.conftest import SMALL_MIXED_DIMS, random_statevector


class TestAmplitude:
    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_amplitudes_match_vector(self, dims):
        sv = random_statevector(dims, seed=3)
        dd = build_dd(sv)
        register = sv.register
        for index in range(register.size):
            digits = register.digits(index)
            assert np.isclose(
                dd.amplitude(digits), sv.amplitude(digits), atol=1e-12
            )

    def test_zero_path(self):
        dd = build_dd(ghz_state((3, 3)))
        assert dd.amplitude((0, 1)) == 0.0

    def test_paper_example4_path_product(self):
        amplitudes = np.zeros(6, dtype=complex)
        amplitudes[0] = 1.0
        amplitudes[3] = -1.0
        amplitudes[5] = 1.0
        dd = build_dd(StateVector(amplitudes / math.sqrt(3), (3, 2)))
        assert np.isclose(dd.amplitude((1, 1)), -1 / math.sqrt(3))

    def test_rejects_wrong_digit_count(self):
        dd = build_dd(ghz_state((3, 3)))
        with pytest.raises(DimensionError):
            dd.amplitude((0,))

    def test_rejects_digit_out_of_range(self):
        dd = build_dd(ghz_state((3, 3)))
        with pytest.raises(DimensionError):
            dd.amplitude((3, 0))


class TestTraversal:
    def test_nodes_visits_each_once(self):
        dd = build_dd(ghz_state((3, 3)))
        nodes = list(dd.nodes())
        assert len(nodes) == len({id(n) for n in nodes})

    def test_num_edges(self):
        dd = build_dd(uniform_state((3, 4)))
        # chain: one level-0 node (3 edges) + one level-1 node (4).
        assert dd.stats.num_edges == 7

    def test_nodes_per_level(self):
        dd = build_dd(ghz_state((3, 3)))
        assert dd.stats.nodes_per_level == {0: 1, 1: 3}

    def test_terminal_not_yielded(self):
        dd = build_dd(ghz_state((2, 2)))
        assert all(not node.is_terminal for node in dd.nodes())


class TestDistinctComplex:
    def test_ghz_has_three_values(self):
        # {0, 1, 1/sqrt(2)} for mixed GHZ over (3, 6, 2).
        dd = build_dd(ghz_state((3, 6, 2)))
        assert dd.stats.distinct_complex == 3

    def test_basis_state_has_two_values(self):
        dd = build_dd(StateVector([0, 1, 0, 0], (2, 2)))
        # {0, 1}
        assert dd.stats.distinct_complex == 2

    def test_uniform_state(self):
        dd = build_dd(uniform_state((2, 2)))
        # weights 1/sqrt(2) everywhere plus root weight 1.
        assert dd.stats.distinct_complex == 2


class TestProductDetection:
    def test_uniform_state_is_product_everywhere(self):
        dd = build_dd(uniform_state((3, 3)))
        for node in dd.nodes():
            assert dd.is_product_at(node)

    def test_ghz_root_is_not_product(self):
        dd = build_dd(ghz_state((3, 3)))
        assert not dd.is_product_at(dd.root.node)


class TestConstructionValidation:
    def test_rejects_root_at_wrong_level(self):
        table = UniqueTable()
        inner = table.get_node(
            1, [Edge(1.0, TERMINAL), Edge.zero()]
        )
        with pytest.raises(DecisionDiagramError):
            DecisionDiagram(Edge(1.0, inner), (2, 2), table)

    def test_rejects_terminal_root_with_weight(self):
        with pytest.raises(DecisionDiagramError):
            DecisionDiagram(Edge(1.0, TERMINAL), (2,), UniqueTable())

    def test_repr_contains_dims(self):
        dd = build_dd(ghz_state((3, 3)))
        assert "3, 3" in repr(dd)


class TestNodesMadeOnDemand:
    def test_built_diagram_makes_nodes_once(self):
        dd = build_dd(random_statevector((3, 2, 4), seed=3))
        assert dd.root is dd.root
        assert dd.level_nodes()[0] == [dd.root.node]
        assert sum(map(len, dd.level_nodes())) == dd.stats.num_nodes

    def test_concurrent_first_reads_share_one_graph(self):
        # Eight threads read the root of one fresh diagram at once; a
        # lost check-then-act would hand them different node graphs.
        dd = build_dd(random_statevector((4, 3, 3, 2, 2), seed=4))
        barrier = threading.Barrier(8)
        roots = []

        def read():
            barrier.wait(timeout=10)
            roots.append(dd.root)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(roots) == 8
        assert all(root is roots[0] for root in roots)
