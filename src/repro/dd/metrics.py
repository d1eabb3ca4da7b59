"""The node-counting metrics reported in Table 1 of the paper.

Reverse-engineering the published numbers (see DESIGN.md, Section 4)
shows that the paper uses two different node counts:

* the **Exact** column reports the size of the full decomposition
  *tree* of the dense vector, including one leaf per amplitude — a
  quantity that depends only on the qudit dimensions
  (:func:`decomposition_tree_size`), and
* the **Approximated** column reports the *visited* tree: non-zero
  subtrees expanded path-wise (shared nodes counted once per path)
  plus one terminal endpoint per out-edge of every visited node
  (:func:`visited_tree_size`).

Both are provided here, together with the path-expanded operation count
(:func:`synthesis_operation_count`) which satisfies
``visited_tree_size == synthesis_operation_count + 1`` — the identity
observable throughout Table 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dd.diagram import DecisionDiagram
from repro.dd.node import DDNode
from repro.registers.mixed_radix import validate_dims

__all__ = [
    "decomposition_tree_size",
    "visited_tree_size",
    "synthesis_operation_count",
    "path_expanded_node_count",
]


def decomposition_tree_size(dims: Sequence[int]) -> int:
    """Size of the full decomposition tree, leaves included.

    ``sum_{k=0}^{n} prod_{j<k} d_j``: one root, ``d_0`` level-1 nodes,
    ``d_0*d_1`` level-2 nodes, ..., and ``prod(dims)`` leaves.  This is
    the "Nodes" column of the Exact group in Table 1; for example
    ``decomposition_tree_size((3, 6, 2)) == 58``.
    """
    dims = validate_dims(dims)
    total = 1
    prefix = 1
    for dim in dims:
        prefix *= dim
        total += prefix
    return total


def _visited_size_of(node: DDNode, cache: dict[int, int]) -> int:
    """Visited-tree size contributed by ``node`` (path-expanded)."""
    cached = cache.get(id(node))
    if cached is not None:
        return cached
    total = 1  # the node itself
    for edge in node.edges:
        if edge.is_zero or edge.node.is_terminal:
            total += 1  # terminal endpoint of this edge
        else:
            total += _visited_size_of(edge.node, cache)
    cache[id(node)] = total
    return total


def visited_tree_size(dd: DecisionDiagram) -> int:
    """Path-expanded size of the non-zero part of the diagram.

    Counts every internal node once per root-to-node path plus one
    terminal endpoint per out-edge of a visited node.  This is the
    "Nodes" column of the Approximated group in Table 1 and always
    equals ``synthesis_operation_count(dd) + 1``.
    """
    if dd.root.is_zero:
        return 0
    return _visited_size_of(dd.root.node, {})


def _operations_of(node: DDNode, cache: dict[int, int]) -> int:
    """Operations emitted for ``node``'s subtree (path-expanded)."""
    cached = cache.get(id(node))
    if cached is not None:
        return cached
    # Each visited node of dimension d emits (d - 1) Givens rotations
    # plus one phase rotation (identity rotations included), matching
    # the paper's operation counts.
    total = node.dimension
    for edge in node.edges:
        if not edge.is_zero and not edge.node.is_terminal:
            total += _operations_of(edge.node, cache)
    cache[id(node)] = total
    return total


def synthesis_operation_count(dd: DecisionDiagram) -> int:
    """Number of controlled rotations the synthesis will emit.

    Closed-form companion of the synthesis routine: every visited node
    of dimension ``d`` contributes ``d`` operations (``d - 1`` Givens
    plus one phase rotation), summed over the path-expanded non-zero
    tree.  Matches the "Operations" column of Table 1.
    """
    if dd.root.is_zero:
        return 0
    return _operations_of(dd.root.node, {})


def path_expanded_node_count(dd: DecisionDiagram) -> int:
    """Number of internal node visits in the path-expanded tree.

    Shared nodes are counted once per incoming path; terminals are not
    counted.  Useful for quantifying how much sharing the diagram
    achieves versus its tree expansion.
    """
    cache: dict[int, int] = {}

    def visits(node: DDNode) -> int:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        total = 1
        for edge in node.edges:
            if not edge.is_zero and not edge.node.is_terminal:
                total += visits(edge.node)
        cache[id(node)] = total
        return total

    if dd.root.is_zero:
        return 0
    return visits(dd.root.node)
