"""The :class:`DecisionDiagram` facade.

Bundles a root edge, the register it is defined over, and the unique
table its nodes live in, and exposes queries (amplitudes, vector
reconstruction), structural statistics (DAG and tree node counts,
distinct complex values), and traversal helpers used by the synthesis
and approximation routines.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dd.edge import Edge
from repro.dd.node import DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DecisionDiagramError, DimensionError
from repro.linalg.complex_table import ComplexTable
from repro.registers import QuditRegister
from repro.registers.register import RegisterLike, as_register
from repro.states.statevector import StateVector

__all__ = ["DecisionDiagram", "DiagramStats"]


@dataclass(frozen=True)
class DiagramStats:
    """Structural statistics gathered in one DAG traversal.

    Produced by :meth:`DecisionDiagram.collect_stats`; the fields
    match the separate :meth:`~DecisionDiagram.num_nodes`,
    :meth:`~DecisionDiagram.num_edges`,
    :meth:`~DecisionDiagram.distinct_complex_values` and
    :meth:`~DecisionDiagram.nodes_per_level` queries exactly.

    Attributes:
        num_nodes: Distinct reachable non-terminal nodes (DAG size).
        num_edges: Total out-edges of reachable nodes.
        distinct_complex: Distinct complex values (root weight plus
            all edge weights) at the collection tolerance.
        nodes_per_level: Histogram of distinct nodes by level.
    """

    num_nodes: int
    num_edges: int
    distinct_complex: int
    nodes_per_level: dict[int, int] = field(default_factory=dict)


def _rebuild_object_diagram(text: str) -> "DecisionDiagram":
    """Pickle hook: reload a diagram from DDTXT."""
    from repro.dd import io

    return io.loads(text)


class DecisionDiagram:
    """An edge-weighted decision diagram over a mixed-dimensional register.

    Instances are produced by :func:`repro.dd.builder.build_dd` and by
    :func:`repro.dd.approximation.approximate`; direct construction is
    possible when the root edge already satisfies the canonical
    invariants.
    """

    __slots__ = ("_root", "_register", "_table")

    def __init__(
        self, root: Edge, register: RegisterLike, table: UniqueTable
    ):
        self._root = root
        self._register = as_register(register)
        self._table = table
        if not root.is_zero and root.node.is_terminal:
            raise DecisionDiagramError(
                "root edge of a non-trivial diagram must point to a node"
            )
        if not root.is_zero and root.node.level != 0:
            raise DecisionDiagramError(
                f"root node must be at level 0, got {root.node.level}"
            )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def root(self) -> Edge:
        """The root edge (its weight carries global norm and phase)."""
        return self._root

    @property
    def register(self) -> QuditRegister:
        """The register the diagram is defined over."""
        return self._register

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-qudit dimensions."""
        return self._register.dims

    @property
    def unique_table(self) -> UniqueTable:
        """The unique table interning the diagram's nodes."""
        return self._table

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def amplitude(self, digits: Sequence[int]) -> complex:
        """Amplitude of the basis state ``|digits>``.

        Computed by multiplying the edge weights along the path from
        the root, exactly as in Example 4 of the paper.
        """
        if len(digits) != self._register.num_qudits:
            raise DimensionError(
                f"expected {self._register.num_qudits} digits, "
                f"got {len(digits)}"
            )
        value = self._root.weight
        node = self._root.node
        for level, digit in enumerate(digits):
            if node.is_terminal:
                return 0.0 if self._root.is_zero else value
            if not 0 <= digit < node.dimension:
                raise DimensionError(
                    f"digit {digit} out of range at level {level}"
                )
            edge = node.successor(digit)
            if edge.is_zero:
                return 0.0
            value *= edge.weight
            node = edge.node
        return value

    def to_statevector(self) -> StateVector:
        """Reconstruct the dense state vector represented by the DD."""
        cache: dict[DDNode, np.ndarray] = {}
        dims = self.dims

        def expand(node: DDNode, level: int) -> np.ndarray:
            if node in cache:
                return cache[node]
            size = 1
            for dim in dims[level + 1 :]:
                size *= dim
            parts = []
            for edge in node.edges:
                if edge.is_zero:
                    parts.append(np.zeros(size, dtype=np.complex128))
                elif edge.node.is_terminal:
                    parts.append(
                        np.array([edge.weight], dtype=np.complex128)
                    )
                else:
                    parts.append(edge.weight * expand(edge.node, level + 1))
            vector = np.concatenate(parts)
            cache[node] = vector
            return vector

        if self._root.is_zero:
            return StateVector(
                np.zeros(self._register.size, dtype=np.complex128),
                self._register,
            )
        return StateVector(
            self._root.weight * expand(self._root.node, 0), self._register
        )

    # ------------------------------------------------------------------
    # Traversal and statistics
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[DDNode]:
        """Yield the distinct non-terminal nodes reachable from the root.

        Nodes are yielded in depth-first pre-order; each shared node is
        visited once (DAG traversal, not tree expansion).
        """
        if self._root.is_zero:
            return
        seen: set[int] = set()
        stack = [self._root.node]
        while stack:
            node = stack.pop()
            if id(node) in seen or node.is_terminal:
                continue
            seen.add(id(node))
            yield node
            for edge in reversed(node.edges):
                if not edge.is_zero and not edge.node.is_terminal:
                    stack.append(edge.node)

    def num_nodes(self) -> int:
        """Number of distinct reachable non-terminal nodes (DAG size)."""
        return sum(1 for _ in self.nodes())

    def num_edges(self) -> int:
        """Total number of out-edges of reachable nodes."""
        return sum(node.dimension for node in self.nodes())

    def distinct_complex_values(
        self, tolerance: float = 1e-12
    ) -> int:
        """Number of distinct complex values in the diagram.

        This is the "DistinctC" metric of Table 1: all edge weights of
        reachable nodes plus the root weight, deduplicated through a
        complex table at the given tolerance.
        """
        table = ComplexTable(tolerance)
        table.lookup(self._root.weight)
        for node in self.nodes():
            for weight in node.weights:
                table.lookup(weight)
        return len(table)

    def nodes_per_level(self) -> dict[int, int]:
        """Histogram of distinct reachable nodes by level."""
        histogram: dict[int, int] = {}
        for node in self.nodes():
            histogram[node.level] = histogram.get(node.level, 0) + 1
        return histogram

    def collect_stats(self, tolerance: float = 1e-12) -> DiagramStats:
        """Gather all structural statistics in a single traversal.

        ``prepare_state`` used to walk the DAG once per metric (node
        count, edge count, distinct complex values, per-level
        histogram); this visits every reachable node exactly once and
        accumulates all four, which matters when reports are produced
        for large batches.

        Args:
            tolerance: Uniquing tolerance for the DistinctC count
                (matches :meth:`distinct_complex_values`).
        """
        num_nodes = 0
        num_edges = 0
        histogram: dict[int, int] = {}
        table = ComplexTable(tolerance)
        lookup = table.lookup
        lookup(self._root.weight)
        for node in self.nodes():
            num_nodes += 1
            num_edges += node.dimension
            level = node.level
            histogram[level] = histogram.get(level, 0) + 1
            for edge in node.edges:
                lookup(edge.weight)
        return DiagramStats(
            num_nodes=num_nodes,
            num_edges=num_edges,
            distinct_complex=len(table),
            nodes_per_level=histogram,
        )

    def is_product_at(self, node: DDNode) -> bool:
        """Whether ``node`` factorises from its subtree (tensor rule)."""
        return node.unique_nonzero_child() is not None

    def __reduce__(self):
        """Serialise through the DDTXT text format.

        The text is children-first with repr-exact weights, so the
        payload is one string rather than a per-node object graph; the
        nodes are re-interned on load.
        """
        from repro.dd import io

        return (_rebuild_object_diagram, (io.dumps(self),))

    def __repr__(self) -> str:
        return (
            f"DecisionDiagram(dims={list(self.dims)}, "
            f"nodes={self.num_nodes()})"
        )
