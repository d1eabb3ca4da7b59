"""The node-counting metrics reported in Table 1 of the paper.

Reverse-engineering the published numbers shows that the paper uses
two different node counts (``tests/test_dd_metrics.py`` pins both
against the values printed in Table 1):

* the **Exact** column reports the size of the full decomposition
  *tree* of the dense vector, including one leaf per amplitude — a
  quantity that depends only on the qudit dimensions
  (:func:`decomposition_tree_size`), and
* the **Approximated** column reports the *visited* tree: non-zero
  subtrees expanded path-wise (shared nodes counted once per path)
  plus one terminal endpoint per out-edge of every visited node
  (:func:`visited_tree_size`, read from the diagram's
  :class:`~repro.dd.diagram.DiagramStats`).

Both are provided here, together with the path-expanded operation count
(:func:`synthesis_operation_count`) which satisfies
``visited_tree_size == synthesis_operation_count + 1`` — the identity
observable throughout Table 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dd.diagram import DecisionDiagram
from repro.dd.levels import path_expanded_size
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


def visited_tree_size(dd: DecisionDiagram) -> int:
    """Path-expanded size of the non-zero part of the diagram.

    Counts every internal node once per root-to-node path plus one
    terminal endpoint per out-edge of a visited node.  This is the
    "Nodes" column of the Approximated group in Table 1 and always
    equals ``synthesis_operation_count(dd) + 1``.  Zero for a zero
    diagram.
    """
    return dd.stats.visited_nodes


def synthesis_operation_count(dd: DecisionDiagram) -> int:
    """Number of controlled rotations the synthesis emits without the
    tensor-product rule.

    Closed-form companion of the synthesis routine run with
    ``tensor_elision=False`` (the Table-1 harness's setting): every
    visited node of dimension ``d`` contributes ``d`` operations
    (``d - 1`` Givens plus one phase rotation), summed over the
    path-expanded non-zero tree.  Each of those ``d`` out-edges ends in
    one visited node or one terminal endpoint, and every visit but the
    root's is such an end, so the count is ``visited_tree_size(dd) - 1``
    (0 for a zero diagram).  Matches the "Operations" column of Table 1.
    With the pipeline's default ``tensor_elision=True``, a node whose
    non-zero edges all share one child has that child synthesised once,
    so the emitted circuit can be shorter; this count is then an upper
    bound.
    """
    return max(dd.stats.visited_nodes - 1, 0)


def path_expanded_node_count(dd: DecisionDiagram) -> int:
    """Number of internal node visits in the path-expanded tree.

    Shared nodes are counted once per incoming path; terminals are not
    counted.  Useful for quantifying how much sharing the diagram
    achieves versus its tree expansion.  One bottom-up pass over the
    level arrays.
    """
    return path_expanded_size(dd.levels.children, 0)
