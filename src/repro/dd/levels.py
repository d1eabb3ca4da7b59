"""Per-level arrays of a decision diagram's reachable nodes.

Every edge of a canonical diagram goes exactly one level down, so the
reachable distinct nodes of each level form one block of rows:
:class:`DiagramLevels` holds, per level, their canonical weight rows,
the row of each edge's child on the next level (``-1`` for zero and
terminal edges) and the :class:`~repro.dd.node.DDNode` objects.  The
root node is row 0 of level 0.

:func:`~repro.dd.builder.build_dd` and
:func:`~repro.dd.approximation.approximate` make these arrays while
they make the nodes and hand them to the diagram through
:func:`compact_levels`; any other diagram derives them with
:func:`walk_levels` on first use of
:attr:`~repro.dd.diagram.DecisionDiagram.levels`.  The diagram's
statistics, its approximation and its fidelity are array programs over
them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.node import DDNode
from repro.exceptions import DecisionDiagramError

__all__ = ["DiagramLevels", "compact_levels", "walk_levels"]


@dataclass(frozen=True, eq=False)
class DiagramLevels:
    """The reachable distinct nodes of a diagram, level by level.

    Attributes:
        weights: Per level, a ``(m, d)`` complex array; row ``i`` holds
            the out-edge weights of node ``i``.
        children: Per level, a ``(m, d)`` integer array; entry
            ``[i, j]`` is the row of edge ``j``'s child on the next
            level, ``-1`` for zero and terminal edges.
        nodes: Per level, the ``m`` nodes, one per row.  Level 0 holds
            the root node alone (nothing for a zero diagram).
    """

    weights: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    nodes: tuple[list[DDNode], ...]


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
    nodes = []
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
        nodes.append(level_nodes)
        level_nodes = next_nodes
    return DiagramLevels(tuple(weights), tuple(children), tuple(nodes))


def compact_levels(
    weights: Sequence[np.ndarray],
    children: Sequence[np.ndarray],
    nodes: Sequence[Sequence[DDNode | None]],
    root_row: int,
) -> DiagramLevels:
    """Keep the rows reachable from ``root_row``, one per distinct node.

    The inputs are level arrays as made by a build or a rebuild: they
    may hold rows that no kept edge reaches, and two rows whose nodes
    are one object (keys that interned to one node).  Such rows are
    equal, so the first reachable one stands for both; kept rows stay
    in their input order.
    """
    kept_rows: list[np.ndarray] = []
    kept_nodes: list[list[DDNode]] = []
    remaps: list[np.ndarray] = []
    reached = np.array([root_row], dtype=np.intp)
    for level, level_nodes in enumerate(nodes):
        mark = np.zeros(len(level_nodes), dtype=bool)
        mark[reached] = True
        rows = np.flatnonzero(mark)
        remap = np.full(len(level_nodes), -1, dtype=np.intp)
        if rows.size == len(level_nodes):
            row_nodes = list(level_nodes)
        else:
            row_nodes = [level_nodes[row] for row in rows.tolist()]
        if len(set(map(id, row_nodes))) == len(row_nodes):
            remap[rows] = np.arange(rows.size)
        else:
            first: dict[int, int] = {}
            remap[rows] = [
                first.setdefault(id(node), len(first)) for node in row_nodes
            ]
            keep = np.unique(remap[rows], return_index=True)[1]
            rows = rows[keep]
            row_nodes = [row_nodes[index] for index in keep.tolist()]
        kept_rows.append(rows)
        kept_nodes.append(row_nodes)
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
        tuple(kept_nodes),
    )
