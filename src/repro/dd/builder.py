"""Construction of decision diagrams from state vectors.

This implements the first step of the paper's pipeline (Section 4.1):
the state vector is split into ``d_k`` equal parts at each level ``k``,
each part becomes a successor, and the edge weights are the
normalisation factors computed bottom-up.  The fixed normalisation
scheme — L2 norm extraction plus making the first non-zero weight real
positive — yields canonical nodes, so the unique table merges all
identical sub-states and the diagram is maximally reduced.

:func:`build_dd` is the vectorised level-by-level kernel: the
amplitude array is reshaped to ``(num_blocks, d_level)``, block norms
and pivot phases are computed with vectorised NumPy reductions, and
every live block is keyed on its quantised weights and children; the
first block with each key is one of the level's distinct rows.  The
build makes level arrays only, no ``DDNode`` and no ``Edge``: the
diagram keeps the distinct rows as its
:class:`~repro.dd.levels.DiagramLevels` (one top-down pass keeps the
rows reachable through kept edges, one per node) with its root weight,
its :class:`~repro.dd.diagram.DiagramStats` are counted from them, and
its node graph is made from them only when something reads it.

The complex table that uniques weights at a tolerance (~1e-12) is
replayed only where it can change a weight.  A fresh table returns a
kept weight unchanged unless another one crowds it
(:func:`~repro.linalg.complex_table.crowded`: lies within twice the
tolerance, or equals it with a zero of the other sign), and the
entries a crowded weight can meet are crowded too; so only the crowded
weights go through
:meth:`~repro.linalg.complex_table.ComplexTable.lookup_many`, deepest
level first, row-major, as a full replay would send them, and rows
whose canonical weights and children then coincide are merged.  With
no crowded weight (random states) the table is skipped and rows with
distinct keys are distinct nodes.  A unique table the caller passes
gets every weight.

The original per-amplitude recursive kernel is kept as a test oracle
in ``tests/kernel_oracles.py``; the equivalence tests in
``tests/test_hotpaths.py`` assert that both kernels produce the same
diagram (DAG size, root weight, per-node weights, amplitudes) on
random mixed-radix states.  One caveat: for adversarial states whose
distinct weights sit *within the uniquing tolerance of each other*,
near-boundary values may land in different grid cells (or chain to
different canonical representatives) and the diagrams can differ by a
node.  Any state whose distinct weights are separated by more than the
tolerance — i.e. everything outside deliberately constructed
collisions — produces identical diagrams (:func:`normalize_edges` stays
as the scalar reference for the normalisation semantics).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dd.diagram import DecisionDiagram, level_stats
from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.levels import compact_levels, hash_multipliers, merge_labels
from repro.dd.unique_table import UniqueTable
from repro.exceptions import StateError
from repro.linalg.complex_table import (
    DEFAULT_TOLERANCE,
    ComplexTable,
    crowded,
)
from repro.registers.register import as_register
from repro.states.statevector import StateVector

__all__ = ["build_dd", "normalize_edges"]

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


def _row_hashes(keys: np.ndarray) -> np.ndarray:
    """One ``uint64`` hash per row of an ``(m, c)`` ``int64`` key
    matrix (:func:`~repro.dd.levels.hash_multipliers`); equal rows hash
    equally."""
    return keys.view(np.uint64) @ hash_multipliers(keys.shape[1])


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct key, in row order, and every
    row's 0-based key index in that order.

    Rows are grouped by their hashes (:func:`_row_hashes`).  When no
    two hashes are equal, every row is its own key.  Otherwise each
    row's key is checked against its group's first; only a true
    collision sorts the keys themselves.
    """
    rows = keys.shape[0]
    hashes = _row_hashes(keys)
    ordered = np.sort(hashes)
    if not (ordered[1:] == ordered[:-1]).any():
        identity = np.arange(rows)
        return identity, identity
    _, first, key_index = np.unique(
        hashes, return_index=True, return_inverse=True
    )
    if not (keys == keys[first[key_index]]).all():
        _, first, key_index = np.unique(
            keys.view(
                np.dtype((np.void, keys.itemsize * keys.shape[1]))
            ).ravel(),
            return_index=True,
            return_inverse=True,
        )
    # np.unique sorts the keys; restoring row order keeps the complex
    # table's representatives independent of that sort.
    order = np.argsort(first)
    return first[order], np.argsort(order)[key_index.ravel()]


def _merge_rows(
    weights: list[np.ndarray],
    children: list[np.ndarray],
    changed: list[bool],
) -> list[np.ndarray | None]:
    """Label the rows that are one node, bottom-up.

    Two rows are one node when their weights are equal and their
    children are one node.  Rows of distinct keys can only become equal
    on a level where the complex table changed a weight (``changed``)
    or rows below were merged.  Returns per level the rows' labels
    (equal labels for one node) or ``None`` when every row is its own
    node.
    """
    classes: list[np.ndarray | None] = [None] * len(weights)
    below = None
    for level in range(len(weights) - 1, -1, -1):
        if below is None and not changed[level]:
            continue
        child = children[level]
        if below is not None:
            child = np.where(child >= 0, below[np.maximum(child, 0)], -1)
        below = classes[level] = merge_labels(
            weights[level], child, np.arange(child.shape[0])
        )
    return classes


def build_dd(
    state: StateVector, table: UniqueTable | None = None
) -> DecisionDiagram:
    """Build the canonical decision diagram of a state vector.

    The vectorised level-wise construction; see the module docstring
    for the strategy and the scalar oracle it is tested against.

    Args:
        state: The state to represent (any norm; the root edge weight
            absorbs the global norm and phase).
        table: Optional unique table to intern into; sharing a table
            across diagrams lets equal sub-states of different
            diagrams share nodes.  The nodes are interned when the
            build ends; without a table, no node is made until one is
            read.

    Returns:
        The decision diagram; ``dd.to_statevector()`` reproduces the
        input amplitudes up to rounding.

    Raises:
        StateError: If the state vector is entirely zero.
    """
    register = as_register(state.register)
    dims = register.dims

    # Upward-flowing per-block edge state: ``weights[b]`` is the edge
    # weight of block ``b`` and ``node_ids[b]`` its row among the
    # level below's distinct rows plus one (0 for the terminal; zero-
    # weight blocks always carry id 0).
    weights = np.array(state.amplitudes, dtype=np.complex128, copy=True)
    weights[weights.real**2 + weights.imag**2 <= _CUTOFF_SQ] = 0.0
    node_ids = np.zeros(weights.shape[0], dtype=np.intp)

    tolerance = (
        DEFAULT_TOLERANCE if table is None else table.complex_table.tolerance
    )
    inv_quantum = 1.0 / tolerance
    # Per level, deepest first: the weight rows and child rows of its
    # distinct rows.
    level_rows: list[tuple[np.ndarray, np.ndarray]] = []

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
        # order and ``row_node_ids`` maps every row to its key's
        # 1-based index.
        key_matrix = np.empty((factor.size, 3 * dimension), np.int64)
        key_matrix[:, :dimension] = np.rint(normalized.real * inv_quantum)
        key_matrix[:, dimension:2 * dimension] = np.rint(
            normalized.imag * inv_quantum
        )
        key_matrix[:, 2 * dimension:] = kept_ids
        first, key_index = _distinct_rows(key_matrix)
        row_node_ids = key_index + 1
        # The first row of each key is its distinct row (zero entries
        # stay exact zeros, so the weight row alone tells kept from
        # dropped edges).
        level_rows.append((normalized[first], kept_ids[first] - 1))

        if live_rows is None:
            weights = factor
            node_ids = row_node_ids
        else:
            weights = np.zeros(num_blocks, dtype=np.complex128)
            weights[live_rows] = factor
            node_ids = np.zeros(num_blocks, dtype=np.intp)
            node_ids[live_rows] = row_node_ids

    root_weight = complex(weights[0])
    if abs(root_weight) <= WEIGHT_ZERO_CUTOFF:
        raise StateError("cannot build a decision diagram of the zero state")
    root_row = int(node_ids[0]) - 1

    # The complex table would see the kept weights of the distinct rows,
    # deepest level first, row-major.  A weight no other weight crowds
    # (see crowded) comes back unchanged, and a table entry a crowded
    # weight can meet is crowded too, so the table is replayed, in that
    # order, over the crowded weights only.  With none, distinct rows
    # are distinct nodes; otherwise rows whose canonical weights and
    # children coincide are merged.  A caller's table may hold entries
    # near any weight, so every weight goes through it.
    flats = [distinct.reshape(-1) for distinct, _ in level_rows]
    positions = [np.flatnonzero(flat) for flat in flats]
    marks, apart = crowded(
        np.concatenate([flat[kept] for flat, kept in zip(flats, positions)]),
        2.0 * tolerance,
    )
    if table is not None:
        marks[:] = True
    top_down = level_rows[::-1]
    weight_rows = [distinct for distinct, _ in top_down]
    child_rows = [children for _, children in top_down]
    classes = None
    if marks.any():
        complex_table = (
            ComplexTable(tolerance) if table is None else table.complex_table
        )
        changed = []
        start = 0
        for flat, kept in zip(flats, positions):
            replayed = kept[marks[start:start + kept.size]]
            start += kept.size
            values = flat[replayed]
            canonical = complex_table.lookup_many(values)
            changed.append(not np.array_equal(
                canonical.view(np.int64), values.view(np.int64)
            ))
            flat[replayed] = canonical
        classes = _merge_rows(weight_rows, child_rows, changed[::-1])
        apart = None
    levels = compact_levels(weight_rows, child_rows, root_row, classes)
    if apart is not None and sum(map(len, levels.weights)) < sum(
        map(len, weight_rows)
    ):
        apart = None  # the dropped rows' values are not the diagram's
    diagram = DecisionDiagram.from_levels(
        root_weight,
        levels,
        register,
        level_stats(levels, root_weight, apart),
        table,
    )
    if table is not None:
        diagram.level_nodes()
    return diagram
