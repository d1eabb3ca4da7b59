"""The :class:`DecisionDiagram` facade.

Bundles a root edge, the register it is defined over, the unique
table its nodes live in and its structural statistics
(:class:`DiagramStats`: the DAG size, the path-expanded visited size
and the DistinctC count of Table 1), and exposes queries (amplitudes,
vector reconstruction) and traversal helpers used by the synthesis
and approximation routines.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.node import DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DecisionDiagramError, DimensionError
from repro.linalg.complex_table import DEFAULT_TOLERANCE, ComplexTable
from repro.registers import QuditRegister
from repro.registers.register import RegisterLike, as_register
from repro.states.statevector import StateVector

__all__ = ["DecisionDiagram", "DiagramStats"]


@dataclass(frozen=True)
class DiagramStats:
    """Structural statistics of a diagram, fixed when it is made.

    :func:`~repro.dd.builder.build_dd` and
    :func:`~repro.dd.approximation.approximate` fill them while they
    create the nodes; every other diagram computes them with one walk
    on the first read of :attr:`DecisionDiagram.stats`.

    Attributes:
        num_nodes: Distinct reachable non-terminal nodes (DAG size).
        num_edges: Total out-edges of reachable nodes.
        distinct_complex: Distinct complex values (root weight plus
            all edge weights of reachable nodes) at the complex
            table's default tolerance: the DistinctC column.
        visited_nodes: Path-expanded size of the non-zero part, one
            terminal endpoint per zero or terminal out-edge included
            (see :func:`repro.dd.metrics.visited_tree_size`); 0 for a
            zero diagram.
        nodes_per_level: Histogram of distinct nodes by level.
    """

    num_nodes: int
    num_edges: int
    distinct_complex: int
    visited_nodes: int
    nodes_per_level: dict[int, int] = field(default_factory=dict)


def _has_close_pair(values: np.ndarray, gap: float) -> bool:
    """Whether two entries of ``values`` may lie within ``gap`` of each other.

    ``values`` must be sorted by real part, as ``np.sort`` orders
    complex values.  Runs of entries whose consecutive real parts are
    within ``gap`` hold every pair that is close in the real part;
    sorted by imaginary part, a run holding a close pair has two
    neighbours within ``gap``.  Never misses a close pair; may flag
    neighbours that are close in the imaginary part only.
    """
    run = np.concatenate(([0], np.cumsum(np.diff(values.real) > gap)))
    order = np.lexsort((values.imag, run))
    same_run = run[order][1:] == run[order][:-1]
    return bool(np.any(same_run & (np.diff(values.imag[order]) <= gap)))


def count_distinct_complex(values: np.ndarray, root: Edge) -> int:
    """DistinctC of the diagram under ``root``.

    ``values`` holds the root weight and every edge weight of the
    reachable nodes, repeats allowed.  When no two distinct values
    lie within twice the tolerance of each other, a complex table
    keeps each of them whatever the lookup order, so they are counted
    by equality.  Otherwise (ties that straddle the tolerance, or kept
    weights below it next to ``0j``) the count replays the table in
    the definition's order: the root weight, then the edge weights of
    the nodes in :meth:`DecisionDiagram.nodes` pre-order.
    """
    values = np.sort(values)
    distinct = values[np.concatenate(([True], values[1:] != values[:-1]))]
    if not _has_close_pair(distinct, 2.0 * DEFAULT_TOLERANCE):
        return int(distinct.size)
    table = ComplexTable(DEFAULT_TOLERANCE)
    table.lookup(root.weight)
    for node in _preorder(root):
        for weight in node.weights:
            table.lookup(weight)
    return len(table)


def diagram_stats(
    root: Edge, parents_first: Iterable[DDNode]
) -> DiagramStats:
    """Statistics of the diagram under ``root`` from a list of its nodes.

    ``parents_first`` lists distinct nodes, each after all of its
    parents, and holds every node reachable from ``root``; entries
    that are not reachable are skipped.  One pass counts each node's
    root-to-node paths; a node adds itself plus one terminal endpoint
    per zero or terminal edge to the visited tree once per path.
    """
    weights = [root.weight]
    histogram: dict[int, int] = {}
    num_edges = 0
    visited_nodes = 0
    paths: dict[int, int] = {} if root.is_zero else {id(root.node): 1}
    for node in parents_first:
        count = paths.get(id(node))
        if count is None:
            continue
        own = 1
        for edge in node.edges:
            weight = edge.weight
            weights.append(weight)
            child = edge.node
            if not child.edges or abs(weight) <= WEIGHT_ZERO_CUTOFF:
                own += 1
            elif child.level > node.level:
                paths[id(child)] = paths.get(id(child), 0) + count
            else:
                raise DecisionDiagramError(
                    f"node at level {node.level} points to a node at "
                    f"level {child.level}; children must sit below "
                    "their parents"
                )
        visited_nodes += count * own
        histogram[node.level] = histogram.get(node.level, 0) + 1
        num_edges += len(node.edges)
    return DiagramStats(
        num_nodes=sum(histogram.values()),
        num_edges=num_edges,
        distinct_complex=count_distinct_complex(
            np.array(weights, dtype=np.complex128), root
        ),
        visited_nodes=visited_nodes,
        nodes_per_level=dict(sorted(histogram.items())),
    )


def _preorder(root: Edge) -> Iterator[DDNode]:
    """Distinct non-terminal nodes under ``root``, depth-first pre-order."""
    if root.is_zero:
        return
    seen: set[int] = set()
    stack = [root.node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.is_terminal:
            continue
        seen.add(id(node))
        yield node
        for edge in reversed(node.edges):
            if not edge.is_zero and not edge.node.is_terminal:
                stack.append(edge.node)


def _rebuild_object_diagram(text: str) -> "DecisionDiagram":
    """Pickle hook: reload a diagram from DDTXT."""
    from repro.dd import io

    return io.loads(text)


class DecisionDiagram:
    """An edge-weighted decision diagram over a mixed-dimensional register.

    Instances are produced by :func:`repro.dd.builder.build_dd` and by
    :func:`repro.dd.approximation.approximate`, which also pass the
    :class:`DiagramStats` they counted while making the nodes; direct
    construction is possible when the root edge already satisfies the
    canonical invariants, and such a diagram computes its statistics
    with one walk when they are first read.
    """

    __slots__ = ("_root", "_register", "_table", "_stats")

    def __init__(
        self,
        root: Edge,
        register: RegisterLike,
        table: UniqueTable,
        stats: DiagramStats | None = None,
    ):
        self._root = root
        self._register = as_register(register)
        self._table = table
        self._stats = stats
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

    @property
    def stats(self) -> DiagramStats:
        """Structural statistics: Table 1's Nodes and DistinctC.

        Diagrams made by :func:`~repro.dd.builder.build_dd` or
        :func:`~repro.dd.approximation.approximate` carry them from
        construction; any other diagram counts them with one walk on
        the first read and keeps them.
        """
        if self._stats is None:
            # Levels grow from parent to child, so sorting by level
            # puts every node after its parents.
            self._stats = diagram_stats(
                self._root,
                sorted(self.nodes(), key=lambda node: node.level),
            )
        return self._stats

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
        return _preorder(self._root)

    def num_nodes(self) -> int:
        """Number of distinct reachable non-terminal nodes (DAG size)."""
        return self.stats.num_nodes

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
            f"root={self._root!r})"
        )
