"""The :class:`DecisionDiagram` facade.

Bundles a root edge, the register it is defined over, the unique
table its nodes live in and its structural statistics
(:class:`DiagramStats`: the DAG size, the path-expanded visited size
and the DistinctC count of Table 1), and exposes queries (amplitudes,
vector reconstruction) and traversal helpers used by the synthesis
and approximation routines.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dd.edge import Edge
from repro.dd.levels import DiagramLevels, walk_levels
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

    :func:`level_stats` counts them from the diagram's level arrays
    (:attr:`DecisionDiagram.levels`):
    :func:`~repro.dd.builder.build_dd` and
    :func:`~repro.dd.approximation.approximate` when they make the
    nodes, every other diagram on the first read of
    :attr:`DecisionDiagram.stats`.

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
    if values.size < 2:
        return False
    run = np.concatenate(([0], np.cumsum(np.diff(values.real) > gap)))
    order = np.lexsort((values.imag, run))
    same_run = run[order][1:] == run[order][:-1]
    return bool(np.any(same_run & (np.diff(values.imag[order]) <= gap)))


def _root_finds(values: np.ndarray, root: complex, tolerance: float) -> bool:
    """Whether a complex table holding only ``root`` finds an entry.

    Mirrors :meth:`ComplexTable.lookup` on such a table: the root must
    sit in the entry's grid cell or one of its eight neighbours, and
    within ``tolerance`` of it in both parts.
    """
    scale = 1.0 / tolerance
    return bool(np.any(
        (np.abs(np.rint(values.real * scale) - round(root.real * scale)) <= 1)
        & (np.abs(np.rint(values.imag * scale) - round(root.imag * scale)) <= 1)
        & (np.abs(values.real - root.real) <= tolerance)
        & (np.abs(values.imag - root.imag) <= tolerance)
    ))


def count_distinct_complex(edge_values: np.ndarray, root: Edge) -> int:
    """DistinctC of the diagram under ``root``.

    ``edge_values`` holds every edge weight of the reachable nodes,
    repeats allowed.  The definition feeds a fresh complex table the
    root weight, then the edge weights in :meth:`DecisionDiagram.nodes`
    pre-order.  When no two distinct edge values lie within twice the
    tolerance of each other, the table keeps each of them whatever the
    order, apart from the one (there can be no second) that the root
    entry, stored first, absorbs; at most one edge value lies within
    twice the tolerance of the root in that case, and it is absorbed
    exactly when a table holding only the root finds it.  Otherwise
    (ties that straddle the tolerance, kept weights below it next to
    ``0j``, or several edge values near the root) the count replays
    the table in the definition's order.
    """
    tolerance = DEFAULT_TOLERANCE
    gap = 2.0 * tolerance
    values = np.sort(np.asarray(edge_values, dtype=np.complex128))
    distinct = values[
        np.concatenate(([True], values[1:] != values[:-1]))[: values.size]
    ]
    root_weight = complex(root.weight)
    near = distinct[
        (np.abs(distinct.real - root_weight.real) <= gap)
        & (np.abs(distinct.imag - root_weight.imag) <= gap)
    ]
    if near.size <= 1 and not _has_close_pair(distinct, gap):
        return 1 + distinct.size - int(_root_finds(near, root_weight, tolerance))
    table = ComplexTable(tolerance)
    table.lookup(root_weight)
    for node in _preorder(root):
        for weight in node.weights:
            table.lookup(weight)
    return len(table)


#: Largest visited count that may still grow by a factor of ``d`` and
#: one more without leaving int64.
_INT64_HEADROOM = 2**62


def level_stats(levels: DiagramLevels, root: Edge) -> DiagramStats:
    """The statistics of the diagram under ``root`` from its level arrays.

    Visited sizes run bottom-up, one row per node: the node itself
    plus, per out-edge, the child's visited size or one terminal
    endpoint for a zero or terminal edge.  Counts that could overflow
    int64 switch to Python integers.
    """
    histogram: dict[int, int] = {}
    num_edges = 0
    visited = np.ones(1, dtype=np.int64)
    for level in range(len(levels.weights) - 1, -1, -1):
        rows, dimension = levels.weights[level].shape
        if rows:
            histogram[level] = rows
            num_edges += rows * dimension
        if visited.dtype != object and int(visited.max()) > (
            _INT64_HEADROOM // dimension
        ):
            visited = visited.astype(object)
        visited = np.concatenate(
            ([1], 1 + visited[levels.children[level] + 1].sum(axis=1))
        )
    return DiagramStats(
        num_nodes=sum(histogram.values()),
        num_edges=num_edges,
        distinct_complex=count_distinct_complex(
            np.concatenate([row.ravel() for row in levels.weights]), root
        ),
        visited_nodes=int(visited[1]) if visited.size > 1 else 0,
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
    level arrays and :class:`DiagramStats` they made with the nodes;
    direct construction is possible when the root edge already
    satisfies the canonical invariants, and such a diagram derives its
    level arrays with one walk when they or its statistics are first
    read.
    """

    __slots__ = ("_root", "_register", "_table", "_stats", "_levels")

    def __init__(
        self,
        root: Edge,
        register: RegisterLike,
        table: UniqueTable,
        stats: DiagramStats | None = None,
        levels: DiagramLevels | None = None,
    ):
        self._root = root
        self._register = as_register(register)
        self._table = table
        self._stats = stats
        self._levels = levels
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
    def levels(self) -> DiagramLevels:
        """Per-level arrays of the reachable distinct nodes.

        Diagrams made by :func:`~repro.dd.builder.build_dd` or
        :func:`~repro.dd.approximation.approximate` carry them from
        construction; any other diagram derives them with one walk on
        the first read and keeps them.

        Raises:
            DecisionDiagramError: If a child is not exactly one level
                below its parent.
        """
        if self._levels is None:
            self._levels = walk_levels(self._root, self.dims)
        return self._levels

    @property
    def stats(self) -> DiagramStats:
        """Structural statistics: Table 1's Nodes and DistinctC.

        Counted from :attr:`levels` by :func:`level_stats`, when the
        diagram is made or on the first read, and kept.
        """
        if self._stats is None:
            self._stats = level_stats(self.levels, self._root)
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
