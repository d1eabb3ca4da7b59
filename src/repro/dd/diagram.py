"""The :class:`DecisionDiagram` facade.

Bundles a root weight, the register the diagram is defined over, its
level arrays (:class:`~repro.dd.levels.DiagramLevels`) and its
structural statistics (:class:`DiagramStats`: the DAG size, the
path-expanded visited size and the DistinctC count of Table 1), and
exposes queries (amplitudes, vector reconstruction) and traversal
helpers.

A diagram made by :func:`~repro.dd.builder.build_dd` or
:func:`~repro.dd.approximation.approximate` holds no nodes: its root
edge, its nodes and its unique table are made from the level arrays,
by :func:`~repro.dd.levels.make_nodes`, the first time one of them is
read.  A diagram made by hand from a root edge derives its level arrays
with one walk instead.

:func:`count_distinct_complex` counts DistinctC from the level arrays:
by the distinct values when
:func:`~repro.linalg.complex_table.crowded` (the build's and the
approximation's crowding test) marks no edge value, else by replaying
a complex table in the definition's order.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.levels import (
    DiagramLevels,
    make_nodes,
    path_expanded_size,
    preorder_positions,
    walk_levels,
)
from repro.dd.node import DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DecisionDiagramError, DimensionError
from repro.linalg.complex_table import (
    DEFAULT_TOLERANCE,
    ComplexTable,
    crowded,
)
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
    arrays, every other diagram on the first read of
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


def count_distinct_complex(
    levels: DiagramLevels,
    root_weight: complex,
    apart: np.ndarray | None = None,
) -> int:
    """DistinctC of the diagram with these level arrays and root weight.

    The definition feeds a fresh complex table the root weight, then
    the edge weights in :meth:`DecisionDiagram.nodes` pre-order.  When
    no edge value is crowded (:func:`~repro.linalg.complex_table.crowded`,
    with ``0j`` counted as a value when an edge is zero), the table
    keeps each of them whatever the order, apart from the one (there
    can be no second) that the root entry, stored first, absorbs; at
    most one edge value lies within twice the tolerance of the root in
    that case, and it is absorbed exactly when a table holding only the
    root finds it.  Otherwise (ties that straddle the tolerance, kept
    weights below it next to ``0j``, or several edge values near the
    root) the count replays the table in the definition's order, which
    the level arrays give: that pre-order lists nodes by their
    lexicographically smallest root paths.

    ``apart``, when given, holds the distinct non-zero edge values,
    none crowded (a build that checked them passes them on), so only
    ``0j`` is left to check.
    """
    tolerance = DEFAULT_TOLERANCE
    gap = 2.0 * tolerance
    close = False
    if apart is None:
        marks, apart = crowded(
            np.concatenate([row[row != 0] for row in levels.weights]), gap
        )
        close = bool(marks.any())
    distinct = apart
    if not all(row.all() for row in levels.weights):
        distinct = np.concatenate((apart, [0j]))
        close = close or bool(np.any(
            (np.abs(apart.real) <= gap) & (np.abs(apart.imag) <= gap)
        ))
    root_weight = complex(root_weight)
    near = distinct[
        (np.abs(distinct.real - root_weight.real) <= gap)
        & (np.abs(distinct.imag - root_weight.imag) <= gap)
    ]
    if near.size <= 1 and not close:
        return 1 + distinct.size - int(_root_finds(near, root_weight, tolerance))
    positions = preorder_positions(list(levels.children))
    order = np.lexsort((
        np.concatenate([
            np.tile(np.arange(row.shape[1]), row.shape[0])
            for row in levels.weights
        ]),
        np.concatenate([
            np.repeat(position, row.shape[1])
            for position, row in zip(positions, levels.weights)
        ]),
    ))
    # Only first occurrences insert, so the batch's memo of repeated
    # values leaves the count as scalar lookups would.
    table = ComplexTable(tolerance)
    table.lookup(root_weight)
    table.lookup_many(
        np.concatenate([row.ravel() for row in levels.weights])[order]
    )
    return len(table)


def level_stats(
    levels: DiagramLevels,
    root_weight: complex,
    apart: np.ndarray | None = None,
) -> DiagramStats:
    """The statistics of a diagram from its level arrays and root weight.

    ``apart`` is passed on to :func:`count_distinct_complex`.
    """
    histogram: dict[int, int] = {}
    num_edges = 0
    for level, weights in enumerate(levels.weights):
        rows, dimension = weights.shape
        if rows:
            histogram[level] = rows
            num_edges += rows * dimension
    return DiagramStats(
        num_nodes=sum(histogram.values()),
        num_edges=num_edges,
        distinct_complex=count_distinct_complex(levels, root_weight, apart),
        visited_nodes=path_expanded_size(levels.children, 1),
        nodes_per_level=histogram,
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


def _nodes_of_rows(
    levels: DiagramLevels, root: Edge
) -> tuple[list[DDNode], ...]:
    """The node of every row of ``levels``, found from ``root`` along
    the child arrays."""
    nodes: list[list[DDNode]] = [[] if root.is_zero else [root.node]]
    for level in range(len(levels.children) - 1):
        below: list[DDNode] = [None] * levels.weights[level + 1].shape[0]
        for node, child_row in zip(
            nodes[level], levels.children[level].tolist()
        ):
            for edge, row in zip(node.edges, child_row):
                if row >= 0:
                    below[row] = edge.node
        nodes.append(below)
    return tuple(nodes)


#: Serialises making node graphs from level arrays, so threads reading
#: one diagram's nodes for the first time get the same objects.
_NODES_LOCK = threading.Lock()


def _rebuild_object_diagram(text: str) -> "DecisionDiagram":
    """Pickle hook: reload a diagram from DDTXT."""
    from repro.dd import io

    return io.loads(text)


class DecisionDiagram:
    """An edge-weighted decision diagram over a mixed-dimensional register.

    Instances are produced by :func:`repro.dd.builder.build_dd` and by
    :func:`repro.dd.approximation.approximate` through
    :meth:`from_levels`, with the level arrays and
    :class:`DiagramStats` they made; their nodes are made on the first
    read of :attr:`root`, :meth:`nodes`, :attr:`unique_table`,
    :meth:`amplitude` or :meth:`level_nodes`.  Direct construction from
    a root edge is possible when it already satisfies the canonical
    invariants; such a diagram derives its level arrays with one walk
    when they or its statistics are first read.
    """

    __slots__ = (
        "_root",
        "_root_weight",
        "_register",
        "_table",
        "_stats",
        "_levels",
        "_level_nodes",
    )

    def __init__(
        self,
        root: Edge,
        register: RegisterLike,
        table: UniqueTable,
        stats: DiagramStats | None = None,
        levels: DiagramLevels | None = None,
    ):
        self._root = root
        self._root_weight = root.weight
        self._register = as_register(register)
        self._table = table
        self._stats = stats
        self._levels = levels
        self._level_nodes = None
        if not root.is_zero and root.node.is_terminal:
            raise DecisionDiagramError(
                "root edge of a non-trivial diagram must point to a node"
            )
        if not root.is_zero and root.node.level != 0:
            raise DecisionDiagramError(
                f"root node must be at level 0, got {root.node.level}"
            )

    @classmethod
    def from_levels(
        cls,
        root_weight: complex,
        levels: DiagramLevels,
        register: RegisterLike,
        stats: DiagramStats | None = None,
        table: UniqueTable | None = None,
    ) -> "DecisionDiagram":
        """A diagram given by its root weight and level arrays alone.

        Its nodes are made when first read, interned into ``table``
        (a fresh table when ``None``).
        """
        diagram = cls.__new__(cls)
        diagram._root = None
        diagram._root_weight = complex(root_weight)
        diagram._register = as_register(register)
        diagram._table = table
        diagram._stats = stats
        diagram._levels = levels
        diagram._level_nodes = None
        return diagram

    def _make_nodes(self) -> None:
        """Make the node graph from the level arrays, once.

        Concurrent first reads of one diagram share one graph: the root
        edge is set last, under the lock, and only while still unset.
        """
        with _NODES_LOCK:
            if self._root is not None:
                return
            if self._table is None:
                self._table = UniqueTable()
            self._level_nodes = make_nodes(self._levels, self._table)
            top = self._level_nodes[0]
            self._root = (
                Edge(self._root_weight, top[0]) if top else Edge.zero()
            )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def root(self) -> Edge:
        """The root edge (its weight carries global norm and phase)."""
        if self._root is None:
            self._make_nodes()
        return self._root

    @property
    def root_weight(self) -> complex:
        """The root edge's weight, read without making any node."""
        return self._root_weight

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
        if self._root is None:
            self._make_nodes()
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
            self._stats = level_stats(self.levels, self._root_weight)
        return self._stats

    def level_nodes(self) -> tuple[list[DDNode], ...]:
        """The node of every row of :attr:`levels`, level by level."""
        if self._level_nodes is None:
            if self._root is None:
                self._make_nodes()
            else:
                self._level_nodes = _nodes_of_rows(self.levels, self._root)
        return self._level_nodes

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
        root = self.root
        value = root.weight
        node = root.node
        for level, digit in enumerate(digits):
            if node.is_terminal:
                return 0.0 if root.is_zero else value
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
        """Reconstruct the dense state vector represented by the DD.

        Expands the level arrays bottom-up: a row's vector is its
        weights times its children's vectors, digit by digit, and the
        root row's vector times the root weight is the state.
        """
        levels = self.levels
        if abs(self._root_weight) <= WEIGHT_ZERO_CUTOFF or not len(
            levels.weights[0]
        ):
            return StateVector(
                np.zeros(self._register.size, dtype=np.complex128),
                self._register,
            )
        below = None
        for level in range(len(levels.weights) - 1, -1, -1):
            weights = levels.weights[level]
            if below is None:
                vectors = np.where(
                    np.abs(weights) > WEIGHT_ZERO_CUTOFF, weights, 0j
                )
            else:
                # Row 0 of the padded block is the zero vector of the
                # -1 (zero-edge) children.
                padded = np.zeros(
                    (below.shape[0] + 1, below.shape[1]), dtype=np.complex128
                )
                padded[1:] = below
                vectors = (
                    weights[:, :, None] * padded[levels.children[level] + 1]
                ).reshape(weights.shape[0], -1)
            below = vectors
        return StateVector(self._root_weight * below[0], self._register)

    # ------------------------------------------------------------------
    # Traversal and statistics
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[DDNode]:
        """Yield the distinct non-terminal nodes reachable from the root.

        Nodes are yielded in depth-first pre-order; each shared node is
        visited once (DAG traversal, not tree expansion).
        """
        return _preorder(self.root)

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
            f"root_weight={self._root_weight:.6g})"
        )
