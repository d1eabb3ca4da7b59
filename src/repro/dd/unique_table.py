"""Hash-consing of decision-diagram nodes.

The unique table guarantees that two canonically normalised nodes with
the same level and the same (weight, child) successor list are the same
Python object.  This implements the reduction rule of the paper: "two
edges pointing to the same node whenever it represents two identical
sub-trees, that would be otherwise stored twice" (Section 4.3).

Weights are canonicalised through a :class:`ComplexTable` before they
participate in the hash key, which makes sharing robust against
floating-point noise from different construction orders.

:func:`~repro.dd.builder.build_dd` and
:func:`~repro.dd.approximation.approximate` make level arrays, not
nodes; :func:`~repro.dd.levels.make_nodes` interns their rows through
:meth:`UniqueTable.get_node` when a diagram's node graph is first
read.  The other node-making code (DDTXT loading, arithmetic, DD
simulation, measurement) calls :meth:`UniqueTable.get_node` itself.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dd.edge import Edge
from repro.dd.node import DDNode
from repro.linalg.complex_table import ComplexTable

__all__ = ["UniqueTable"]


class UniqueTable:
    """Canonical store of decision-diagram nodes.

    Example:
        >>> table = UniqueTable()
        >>> a = table.get_node(0, [Edge(1.0, TERMINAL), Edge.zero()])
        >>> b = table.get_node(0, [Edge(1.0, TERMINAL), Edge.zero()])
        >>> a is b
        True
    """

    def __init__(self, tolerance: float = 1e-12):
        self._complex_table = ComplexTable(tolerance)
        self._nodes: dict[tuple, DDNode] = {}
        self._hits = 0
        self._misses = 0

    @property
    def complex_table(self) -> ComplexTable:
        """The complex table used to canonicalise weights."""
        return self._complex_table

    @property
    def num_nodes(self) -> int:
        """Number of distinct non-terminal nodes stored."""
        return len(self._nodes)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups resolved by sharing (0 when unused)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def canonical_weight(self, weight: complex) -> complex:
        """Return the canonical representative of an edge weight."""
        return self._complex_table.lookup(weight)

    def get_node(self, level: int, edges: Sequence[Edge]) -> DDNode:
        """Return the shared node for ``(level, edges)``.

        Edge weights are canonicalised; an existing structurally equal
        node is returned when available, otherwise a new node is
        interned and returned.
        """
        canonical_edges = tuple(
            Edge(self.canonical_weight(edge.weight), edge.node)
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
        if node is not None:
            self._hits += 1
            return node
        self._misses += 1
        node = DDNode(level, canonical_edges)
        self._nodes[key] = node
        return node

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"UniqueTable(nodes={len(self._nodes)}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
