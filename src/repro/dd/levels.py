"""Per-level arrays of a decision diagram's reachable nodes.

Every edge of a canonical diagram goes exactly one level down, so the
reachable distinct nodes of each level form one block of rows:
:class:`DiagramLevels` holds, per level, their canonical weight rows
and the row of each edge's child on the next level (``-1`` for zero
and terminal edges).  The root node is row 0 of level 0.

:func:`~repro.dd.builder.build_dd` and
:func:`~repro.dd.approximation.approximate` make only these arrays and
a root weight, and keep the rows the root reaches, one per distinct
node, with :func:`compact_levels`.  The diagram's statistics, its
synthesis, its approximation and its fidelity are array programs over
them.  The node graph is made from them on demand by
:func:`make_nodes`, the one place the nodes of built and approximated
diagrams are made; a diagram made by hand from nodes derives its
arrays with :func:`walk_levels`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.node import TERMINAL, DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import DecisionDiagramError

__all__ = [
    "DiagramLevels",
    "compact_levels",
    "make_nodes",
    "merge_labels",
    "path_expanded_size",
    "preorder_positions",
    "walk_levels",
]

#: Largest count that may still grow by a factor of ``d`` and one more
#: without leaving int64.
_INT64_HEADROOM = 2**62


@dataclass(frozen=True, eq=False)
class DiagramLevels:
    """The reachable distinct nodes of a diagram, level by level.

    Attributes:
        weights: Per level, a ``(m, d)`` complex array; row ``i`` holds
            the out-edge weights of node ``i`` (exact ``0j`` on zero
            edges).  Level 0 holds the root node alone (nothing for a
            zero diagram).
        children: Per level, a ``(m, d)`` integer array; entry
            ``[i, j]`` is the row of edge ``j``'s child on the next
            level, ``-1`` for zero and terminal edges.
    """

    weights: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]


def walk_levels(root: Edge, dims: Sequence[int]) -> DiagramLevels:
    """The level arrays of the diagram under ``root``, in one walk.

    Rows of a level follow the order in which the level above first
    reaches them.

    Raises:
        DecisionDiagramError: If a node's dimension differs from its
            level's, or a child is not exactly one level below its
            parent.
    """
    weights = []
    children = []
    level_nodes = [] if root.is_zero else [root.node]
    for level, dimension in enumerate(dims):
        below: dict[int, int] = {}
        next_nodes: list[DDNode] = []
        weight_rows: list[tuple[complex, ...]] = []
        child_rows: list[list[int]] = []
        for node in level_nodes:
            if node.dimension != dimension:
                raise DecisionDiagramError(
                    f"node at level {level} has {node.dimension} "
                    f"successors, register expects {dimension}"
                )
            weight_rows.append(node.weights)
            child_row = []
            for edge in node.edges:
                child = edge.node
                if not child.edges or abs(edge.weight) <= WEIGHT_ZERO_CUTOFF:
                    child_row.append(-1)
                    continue
                if child.level != level + 1 or level + 1 >= len(dims):
                    raise DecisionDiagramError(
                        f"node at level {level} points to a node at "
                        f"level {child.level}; children must sit exactly "
                        "one level below their parents"
                    )
                index = below.get(id(child))
                if index is None:
                    index = below[id(child)] = len(next_nodes)
                    next_nodes.append(child)
                child_row.append(index)
            child_rows.append(child_row)
        weights.append(
            np.array(weight_rows, dtype=np.complex128).reshape(-1, dimension)
        )
        children.append(
            np.array(child_rows, dtype=np.intp).reshape(-1, dimension)
        )
        level_nodes = next_nodes
    return DiagramLevels(tuple(weights), tuple(children))


def _row_keys(weights: np.ndarray, children: np.ndarray) -> np.ndarray:
    """One opaque key per row: equal keys are equal nodes.

    A node's identity compares its weights with ``==``, so ``-0.0`` is
    folded to ``+0.0`` before the weights' bytes enter the key.
    """
    rows, dimension = weights.shape
    key = np.empty((rows, 3 * dimension), dtype=np.int64)
    key[:, : 2 * dimension] = (weights + 0.0).view(np.int64)
    key[:, 2 * dimension:] = children
    return key.view(np.dtype((np.void, key.itemsize * 3 * dimension))).ravel()


def merge_labels(
    weights: np.ndarray, children: np.ndarray, rows: np.ndarray
) -> np.ndarray | None:
    """Labels of one level's rows, equal for rows that are one node.

    Only ``rows`` are compared, on their weights and ``children`` (rows
    of the next level, or its labels); each is labelled with the first
    of its equals, every other row with itself.  Returns ``None`` when
    no two of them are one node.
    """
    _, first, inverse = np.unique(
        _row_keys(weights[rows], children[rows]),
        return_index=True,
        return_inverse=True,
    )
    if first.size == rows.size:
        return None
    labels = np.arange(weights.shape[0])
    labels[rows] = rows[first][inverse.ravel()]
    return labels


def compact_levels(
    weights: Sequence[np.ndarray],
    children: Sequence[np.ndarray],
    root_row: int,
    classes: Sequence[np.ndarray | None] | None = None,
) -> DiagramLevels:
    """Keep the rows reachable from ``root_row``, one per distinct node.

    The inputs are level arrays as made by a build or a rebuild: they
    may hold rows that no kept edge reaches, and rows that are one node
    (``classes[level]`` gives them one label; ``None`` means every row
    of the level is its own node).  Equal rows stand for one node, so
    the first reachable one stands for all of them; kept rows stay in
    their input order.
    """
    kept_rows: list[np.ndarray] = []
    remaps: list[np.ndarray] = []
    reached = np.array([root_row], dtype=np.intp)
    for level, level_weights in enumerate(weights):
        count = level_weights.shape[0]
        mark = np.zeros(count, dtype=bool)
        mark[reached] = True
        rows = np.flatnonzero(mark)
        remap = np.full(count, -1, dtype=np.intp)
        labels = None if classes is None else classes[level]
        if labels is None:
            remap[rows] = np.arange(rows.size)
        else:
            _, first, inverse = np.unique(
                labels[rows], return_index=True, return_inverse=True
            )
            # Number the nodes in the order of their first rows.
            rank = np.empty(first.size, dtype=np.intp)
            rank[np.argsort(first)] = np.arange(first.size)
            remap[rows] = rank[inverse.ravel()]
            rows = rows[np.sort(first)]
        kept_rows.append(rows)
        remaps.append(remap)
        below = children[level][rows]
        reached = below[below >= 0]
    compact_children = []
    for level, rows in enumerate(kept_rows):
        below = children[level][rows]
        if level + 1 < len(remaps):
            below = np.where(
                below >= 0, remaps[level + 1][np.maximum(below, 0)], -1
            )
        compact_children.append(below)
    return DiagramLevels(
        tuple(weights[level][rows] for level, rows in enumerate(kept_rows)),
        tuple(compact_children),
    )


def make_nodes(
    levels: DiagramLevels, table: UniqueTable
) -> tuple[list[DDNode], ...]:
    """The node of every row, interned into ``table``, level by level.

    Nodes are made bottom-up, one per row, each through
    :meth:`UniqueTable.get_node`; the weights are already canonical,
    so the table keeps them and its complex table ends up holding them.
    """
    zero_edge = Edge.zero()
    made: list[list[DDNode]] = []
    below: list[DDNode] = []
    for level in range(len(levels.weights) - 1, -1, -1):
        level_nodes = [
            table.get_node(level, [
                Edge(weight, TERMINAL if child < 0 else below[child])
                if weight
                else zero_edge
                for weight, child in zip(weight_row, child_row)
            ])
            for weight_row, child_row in zip(
                levels.weights[level].tolist(),
                levels.children[level].tolist(),
            )
        ]
        made.append(level_nodes)
        below = level_nodes
    return tuple(made[::-1])


def preorder_positions(
    children: Sequence[np.ndarray], reverse_digits: bool = False
) -> list[np.ndarray]:
    """Every row's index in a depth-first pre-order of the diagram.

    A depth-first walk from the root that takes children in digit order
    first reaches each node through its lexicographically smallest
    root path, so a level's path ranks follow from the level above
    (``rank * d + digit``, minimised over in-edges), and that minimum
    names the node's tree parent and digit.  In pre-order a node sits
    one after its tree parent plus the subtree sizes of its earlier
    siblings: those with smaller digits, or with larger digits when
    ``reverse_digits`` is set (which gives reversed post-order).
    """
    num_levels = len(children)
    counts = [level.shape[0] for level in children]
    rank = [np.zeros(1, dtype=np.intp)]
    tree_parent: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    tree_digit: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    for level in range(num_levels - 1):
        child = children[level]
        rows, digits = np.nonzero(child >= 0)
        keys = rank[level][rows] * child.shape[1] + digits
        first = np.full(counts[level + 1], np.iinfo(np.intp).max)
        np.minimum.at(first, child[rows, digits], keys)
        below = np.empty(counts[level + 1], dtype=np.intp)
        below[np.argsort(first)] = np.arange(counts[level + 1])
        rank.append(below)
        row_of_rank = np.empty(counts[level], dtype=np.intp)
        row_of_rank[rank[level]] = np.arange(counts[level])
        tree_parent.append(row_of_rank[first // child.shape[1]])
        tree_digit.append(first % child.shape[1])

    size = np.ones(counts[-1], dtype=np.int64)
    sizes = [size]
    for level in range(num_levels - 1, 0, -1):
        size = 1 + np.bincount(
            tree_parent[level], weights=size, minlength=counts[level - 1]
        ).astype(np.int64)
        sizes.append(size)
    sizes.reverse()

    positions = [np.zeros(1, dtype=np.int64)]
    for level in range(1, num_levels):
        digit = tree_digit[level]
        order = np.lexsort(
            (-digit if reverse_digits else digit, tree_parent[level])
        )
        parent = tree_parent[level][order]
        size = sizes[level][order]
        before = np.cumsum(size) - size
        starts = np.flatnonzero(
            np.concatenate(([True], parent[1:] != parent[:-1]))
        )
        group_base = np.repeat(
            before[starts], np.diff(np.append(starts, order.size))
        )
        position = np.empty(order.size, dtype=np.int64)
        position[order] = positions[level - 1][parent] + 1 + before - group_base
        positions.append(position)
    return positions


def path_expanded_size(children: Sequence[np.ndarray], endpoint: int) -> int:
    """Size of the diagram's tree expansion: every node once per root
    path, plus ``endpoint`` per zero or terminal out-edge of each.

    Runs bottom-up, one row per node.  Counts that could overflow int64
    switch to Python integers.  0 for a diagram without rows.
    """
    size = np.array([endpoint], dtype=np.int64)
    for child in reversed(children):
        if size.dtype != object and int(size.max()) > (
            _INT64_HEADROOM // child.shape[1]
        ):
            size = size.astype(object)
        size = np.concatenate(([endpoint], 1 + size[child + 1].sum(axis=1)))
    return int(size[1]) if size.size > 1 else 0
