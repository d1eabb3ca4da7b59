"""Construction of decision diagrams from state vectors.

This implements the first step of the paper's pipeline (Section 4.1):
the state vector is split into ``d_k`` equal parts at each level ``k``,
each part becomes a successor, and the edge weights are the
normalisation factors computed bottom-up.  The fixed normalisation
scheme — L2 norm extraction plus making the first non-zero weight real
positive — yields canonical nodes, so the unique table merges all
identical sub-states and the diagram is maximally reduced.

Two construction kernels are provided:

* :func:`build_dd` — the vectorised level-by-level kernel: the
  amplitude array is reshaped to ``(num_blocks, d_level)``, block
  norms and pivot phases are computed with vectorised NumPy
  reductions, and every live block is keyed on its quantised weights
  and children *before* any per-node work.  Only the first block with
  each key has its weights canonicalised through the complex table,
  is converted to Python values and is interned as a heap
  ``DDNode``, so the per-node Python cost and memory are paid once
  per distinct node instead of once per tree block.
* :func:`build_dd_reference` — the original per-amplitude recursive
  kernel, kept as the executable specification.  The equivalence tests
  in ``tests/test_hotpaths.py`` assert that both kernels produce the
  same diagram (DAG size, root weight, per-node weights, amplitudes)
  on random mixed-radix states.

The vectorised kernel canonicalises every interned edge weight
through the table's shared complex table, like the reference.  One
caveat: weights are uniqued at a tolerance (~1e-12), so for
adversarial states whose distinct weights sit *within the uniquing
tolerance of each other*, near-boundary values may land in different
grid cells (or chain to different canonical representatives) and the
diagrams can differ by a node.  Any state whose distinct weights are
separated by more than the tolerance — i.e. everything outside
deliberately constructed collisions — produces identical diagrams
(:func:`normalize_edges` stays as the scalar reference for the
normalisation semantics).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dd.diagram import DecisionDiagram
from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.node import TERMINAL, DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import StateError
from repro.registers.register import as_register
from repro.states.statevector import StateVector

__all__ = ["build_dd", "build_dd_reference", "normalize_edges"]

_CUTOFF_SQ = WEIGHT_ZERO_CUTOFF * WEIGHT_ZERO_CUTOFF


def normalize_edges(
    raw_edges: list[Edge], table: UniqueTable, level: int
) -> Edge:
    """Intern a node for ``raw_edges`` and return its normalised in-edge.

    The raw edge weights may have any magnitudes; this routine extracts
    the L2 norm ``n`` and the phase ``lam`` of the first non-zero
    weight, divides all weights by ``n * lam`` (making the node
    canonical), and returns an edge with weight ``n * lam`` pointing to
    the interned node.  A list of all-zero edges yields the zero edge.
    """
    norm_sq = math.fsum(abs(edge.weight) ** 2 for edge in raw_edges)
    norm = math.sqrt(norm_sq)
    if norm <= WEIGHT_ZERO_CUTOFF:
        return Edge.zero()
    phase = 1.0 + 0.0j
    for edge in raw_edges:
        if abs(edge.weight) > WEIGHT_ZERO_CUTOFF:
            phase = edge.weight / abs(edge.weight)
            break
    factor = norm * phase
    normalized = [
        Edge(edge.weight / factor, edge.node)
        if abs(edge.weight) > WEIGHT_ZERO_CUTOFF
        else Edge.zero()
        for edge in raw_edges
    ]
    node = table.get_node(level, normalized)
    return Edge(factor, node)


def _normalize_level(
    weights: np.ndarray, node_ids: np.ndarray, dimension: int
):
    """Vectorised canonical normalisation of one level's blocks.

    The array program equivalent of :func:`normalize_edges` for the
    ``(num_blocks, dimension)`` block matrix of ``weights``: drop the
    all-zero blocks, extract per-row norms and pivot phases, divide,
    and zero out children below the structural cutoff.  Returns
    ``(live_rows, factor, normalized, kept_ids)`` for the live blocks,
    where ``live_rows`` indexes them among all blocks (``None`` when
    every block is live), ``factor`` is each row's in-edge weight,
    ``normalized`` the canonical weights (exact ``0j`` where dropped)
    and ``kept_ids`` the successor ids (0 where dropped).
    """
    block = weights.reshape(-1, dimension)
    block_ids = node_ids.reshape(-1, dimension)
    magnitude_sq = block.real**2 + block.imag**2
    norms = np.sqrt(magnitude_sq.sum(axis=1))
    live_rows = np.flatnonzero(norms > WEIGHT_ZERO_CUTOFF)
    if live_rows.size == block.shape[0]:
        live_rows = None
    else:
        block = block[live_rows]
        block_ids = block_ids[live_rows]
        magnitude_sq = magnitude_sq[live_rows]
        norms = norms[live_rows]

    # Phase of the first non-zero child, exactly as in normalize_edges
    # (rows whose children are all below the cutoff keep phase 1).
    nonzero_child = magnitude_sq > _CUTOFF_SQ
    first = np.argmax(nonzero_child, axis=1)[:, None]
    has_pivot = np.take_along_axis(nonzero_child, first, axis=1)
    pivot = np.take_along_axis(block, first, axis=1)[:, 0]
    pivot_mag = np.abs(pivot)
    safe_pivot_mag = np.where(pivot_mag > 0.0, pivot_mag, 1.0)
    phase = np.where(has_pivot[:, 0], pivot / safe_pivot_mag, 1.0)
    factor = norms * phase

    # Children are zeroed when the raw weight is below the cutoff
    # (normalize_edges) or the normalised one is (get_node's
    # Edge.zero() canonicalisation).
    normalized = block / factor[:, None]
    keep = nonzero_child & (
        normalized.real**2 + normalized.imag**2 > _CUTOFF_SQ
    )
    normalized = np.where(keep, normalized, 0.0)
    kept_ids = np.where(keep, block_ids, 0)
    return live_rows, factor, normalized, kept_ids


def build_dd(
    state: StateVector, table: UniqueTable | None = None
) -> DecisionDiagram:
    """Build the canonical decision diagram of a state vector.

    The vectorised level-wise construction; see the module docstring
    for the strategy and :func:`build_dd_reference` for the scalar
    specification it is tested against.

    Args:
        state: The state to represent (any norm; the root edge weight
            absorbs the global norm and phase).
        table: Optional unique table to intern into; sharing a table
            across diagrams lets equal sub-states of different
            diagrams share nodes.

    Returns:
        The decision diagram; ``dd.to_statevector()`` reproduces the
        input amplitudes up to rounding.

    Raises:
        StateError: If the state vector is entirely zero.
    """
    if table is None:
        table = UniqueTable()
    register = as_register(state.register)
    dims = register.dims

    # Upward-flowing per-block edge state: ``weights[b]`` is the edge
    # weight of block ``b`` and ``node_ids[b]`` indexes ``child_nodes``
    # (0 is the terminal; zero-weight blocks always carry id 0).
    weights = np.array(state.amplitudes, dtype=np.complex128, copy=True)
    weights[weights.real**2 + weights.imag**2 <= _CUTOFF_SQ] = 0.0
    node_ids = np.zeros(weights.shape[0], dtype=np.intp)
    child_nodes: list[DDNode] = [TERMINAL]

    complex_table = table.complex_table
    inv_quantum = 1.0 / complex_table.tolerance
    zero_edge = Edge.zero()
    get_node_canonical = table.get_node_canonical

    for level in range(len(dims) - 1, -1, -1):
        dimension = dims[level]
        num_blocks = weights.size // dimension
        live_rows, factor, normalized, kept_ids = _normalize_level(
            weights, node_ids, dimension
        )
        # Release the level's input before the key sort below, the
        # build's memory peak.
        del weights, node_ids

        # Key every live row on its weights, snapped to the complex
        # table's grid, and its children: rows sharing a key are one
        # node.  ``first`` lists the first row of each key in row
        # order (np.unique sorts the keys; restoring row order keeps
        # the complex table's representatives independent of that
        # sort) and ``row_node_ids`` maps every row to its key's
        # 1-based index.  Boundary stragglers with differing keys
        # still merge inside the unique table via their canonical
        # weights.
        key_matrix = np.empty((factor.size, 3 * dimension), np.int64)
        key_matrix[:, :dimension] = np.rint(normalized.real * inv_quantum)
        key_matrix[:, dimension:2 * dimension] = np.rint(
            normalized.imag * inv_quantum
        )
        key_matrix[:, 2 * dimension:] = kept_ids
        row_keys = key_matrix.view(
            np.dtype((np.void, key_matrix.itemsize * 3 * dimension))
        ).ravel()
        _, first, key_index = np.unique(
            row_keys, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        first = first[order]
        row_node_ids = np.argsort(order)[key_index] + 1

        # Canonicalise, list and intern the first row of each key only
        # (zero entries stay exact zeros, as in get_node, so the weight
        # row alone distinguishes kept from dropped edges).
        distinct = normalized[first]
        canon_flat = distinct.ravel()
        kept_positions = np.flatnonzero(canon_flat)
        canon_flat[kept_positions] = complex_table.lookup_many(
            canon_flat[kept_positions]
        )
        new_nodes: list[DDNode] = [TERMINAL]
        for weight_row, id_row in zip(
            distinct.tolist(), kept_ids[first].tolist()
        ):
            edges = [
                Edge(weight, child_nodes[child]) if weight else zero_edge
                for weight, child in zip(weight_row, id_row)
            ]
            new_nodes.append(get_node_canonical(level, edges))

        if live_rows is None:
            weights = factor
            node_ids = row_node_ids
        else:
            weights = np.zeros(num_blocks, dtype=np.complex128)
            weights[live_rows] = factor
            node_ids = np.zeros(num_blocks, dtype=np.intp)
            node_ids[live_rows] = row_node_ids
        child_nodes = new_nodes

    root_weight = complex(weights[0])
    if abs(root_weight) <= WEIGHT_ZERO_CUTOFF:
        raise StateError("cannot build a decision diagram of the zero state")
    root = Edge(root_weight, child_nodes[node_ids[0]])
    return DecisionDiagram(root, register, table)


def build_dd_reference(
    state: StateVector,
    table: UniqueTable | None = None,
) -> DecisionDiagram:
    """Scalar recursive reference kernel for :func:`build_dd`.

    Splits the amplitude array top-down, one Python call per tree node,
    normalising each node through :func:`normalize_edges`.  Retained as
    the executable specification the vectorised kernel is benchmarked
    and property-tested against; prefer :func:`build_dd` everywhere
    else.
    """
    if table is None:
        table = UniqueTable()
    register = as_register(state.register)
    dims = register.dims
    amplitudes = np.ascontiguousarray(state.amplitudes)

    def build(offset: int, length: int, level: int) -> Edge:
        """Build the edge for ``amplitudes[offset : offset + length]``."""
        if level == len(dims):
            weight = complex(amplitudes[offset])
            if abs(weight) <= WEIGHT_ZERO_CUTOFF:
                return Edge.zero()
            return Edge(weight, TERMINAL)
        dimension = dims[level]
        part = length // dimension
        children = [
            build(offset + digit * part, part, level + 1)
            for digit in range(dimension)
        ]
        return normalize_edges(children, table, level)

    root = build(0, register.size, 0)
    if root.is_zero:
        raise StateError("cannot build a decision diagram of the zero state")
    return DecisionDiagram(root, register, table)
