"""Fidelity-driven approximation of decision diagrams.

Implements the generalisation of [Hillmich et al., ACM TQC 2022]
described in Section 4.3 of the paper: the *contribution* of a node is
the total squared magnitude of all amplitudes whose root-to-leaf path
crosses the node; nodes (and individual leaf amplitudes, which the
paper's node metric counts as nodes) are greedily removed in order of
increasing contribution while the cumulative removed mass stays within
the budget ``1 - min_fidelity``.  After pruning, the diagram is
renormalised bottom-up, so the result is again canonical and represents
a unit-norm state whose fidelity with the original is ``1 - removed
mass`` exactly.

The pass runs level by level on the diagram's level arrays
(:attr:`~repro.dd.diagram.DecisionDiagram.levels`), as Mozafari et al.
prepare states level by level:

* **Scan order.**  Ties in contribution go to the node that comes
  first in reversed depth-first post-order (children in digit order),
  the order of the scalar implementation.  A node's depth-first tree
  parent is the parent on its lexicographically smallest root path,
  so the order follows from per-level path ranks, subtree sizes and
  sibling offsets, all NumPy reductions; rows are sorted into it once.
* **Passes.**  Subtree masses run bottom-up and influxes top-down,
  with the same ``_NEGLIGIBLE`` filters and the same summation order
  as a per-node walk (squared magnitudes are Python's ``abs(w) ** 2``),
  so contributions are bit-identical to it.  The greedy scan takes
  candidates in ``(contribution, position)`` order; within one pass a
  removed node blocks its ancestors (along parent links made once)
  and its descendants (read from the level arrays).
* **Rebuild.**  Pruning leaves a subtree it did not touch as it was, so
  its root is already normalised and its in-edge factor is 1.  A
  reachable row is *changed* when it lost an edge, has a changed
  child, or its weights are off unit norm (as a build's snapped
  near-tie rows can be).  Bottom-up, only the changed rows are
  normalised again, with :func:`~repro.dd.builder.normalize_edges`'
  arithmetic mapped over the rows (their raw weights carry the factor
  of each changed child), and written in place; every other row keeps
  its bytes.  The quotients get what a fresh complex table holding the
  input's weights gives in the per-node rebuild's probe order; as in
  the build, only the crowded ones
  (:func:`~repro.linalg.complex_table.crowded`) are looked up, after
  the crowded input weights, and with none crowded (random states
  with real amplitudes) no table is made, and the same crowding test
  hands the result's distinct weights to its statistics, as the
  build hands its own.  Rows that became one node are merged by row
  key, once a row hash shows that two might be.  No node is made, and
  no table is shared with the input.
* **Fidelity.**  ``|<original|approximated>|^2`` is summed bottom-up
  over the changed rows only, with the recursive inner product's
  arithmetic; an untouched child's subtree is the input's, so it adds
  its subtree mass.  The result carries its own level arrays and
  statistics.

Untouched rows keep a factor of exactly 1 where the per-node rebuild
gives a factor within a few rounding errors of it, so a rebuilt row's
weights, and an approximated circuit's angles, may differ from the
per-node rebuild's in their last bits.

The scalar per-node implementation is the test oracle in
``tests/approximation_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

import numpy as np

from repro.dd.diagram import DecisionDiagram, level_stats
from repro.dd.edge import WEIGHT_ZERO_CUTOFF
from repro.dd.levels import (
    DiagramLevels,
    compact_levels,
    hash_multipliers,
    merge_labels,
    preorder_positions,
)
from repro.dd.node import DDNode
from repro.exceptions import ApproximationError
from repro.linalg.complex_table import (
    DEFAULT_TOLERANCE,
    ComplexTable,
    crowded,
)

__all__ = [
    "ApproximationResult",
    "approximate",
    "fidelity_contributions",
]

#: Contributions below this threshold are treated as "already absent"
#: and skipped by the candidate scan (removing them changes nothing).
_NEGLIGIBLE = 1e-15

#: A reachable row whose norm lies this close to 1 is normalised
#: already: renormalising it would move its weights by rounding only,
#: far inside the complex table's 1e-12 tolerance.  A row further off
#: (a build's snapped near-tie row) is normalised again.
_DRIFT_BOUND = 1e-14


@dataclass
class ApproximationResult:
    """Outcome of :func:`approximate`.

    Attributes:
        diagram: The pruned, renormalised decision diagram.
        fidelity: Exact fidelity ``|<original|approximated>|^2``.
        removed_mass: Total squared-magnitude mass pruned away.
        removed_nodes: Number of internal nodes removed.
        removed_leaves: Number of individual leaf amplitudes removed.
        removal_log: Contributions of the removals, in removal order.
    """

    diagram: DecisionDiagram
    fidelity: float
    removed_mass: float
    removed_nodes: int
    removed_leaves: int
    removal_log: list[float] = field(default_factory=list)


def _in_scan_order(levels: DiagramLevels):
    """The level arrays with each level's rows in scan order.

    Scan order is reversed depth-first post-order (children in digit
    order), the order of the scalar implementation.  Returns
    ``(weights, children, positions, orders)`` lists, one entry per
    level; ``orders[level][i]`` is the input row that went to row ``i``.
    """
    positions = preorder_positions(list(levels.children), reverse_digits=True)
    orders = [np.argsort(position) for position in positions]
    new_rows = []
    for order in orders:
        new_row = np.empty(order.size, dtype=np.intp)
        new_row[order] = np.arange(order.size)
        new_rows.append(new_row)
    children = []
    for level, order in enumerate(orders):
        child = levels.children[level][order]
        if level + 1 < len(orders):
            child = np.where(
                child >= 0, new_rows[level + 1][np.maximum(child, 0)], -1
            )
        children.append(child)
    return (
        [weights[order] for weights, order in zip(levels.weights, orders)],
        children,
        [position[order] for position, order in zip(positions, orders)],
        orders,
    )


def _squared_magnitudes(weights: np.ndarray) -> np.ndarray:
    """``abs(w) ** 2`` of every weight, bit for bit as Python computes it.

    Python's complex ``abs`` is the C library's ``hypot`` and its float
    ``** 2`` the C library's ``pow``; ``np.hypot`` and
    ``np.float_power`` call the same functions.
    """
    return np.float_power(np.hypot(weights.real, weights.imag), 2.0)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` elementwise, with Python's complex product formula.

    Each part is rounded after every operation, as in CPython; NumPy's
    own complex multiply may fuse them.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` elementwise, with Python's complex division (Smith's
    algorithm, dividing by the larger part of ``b``); ``b`` is never 0.
    """
    a, b = np.broadcast_arrays(a, b)
    by_real = np.abs(b.real) >= np.abs(b.imag)
    by_imag = ~by_real
    ratio = np.empty(b.shape)
    np.divide(b.imag, b.real, out=ratio, where=by_real)
    np.divide(b.real, b.imag, out=ratio, where=by_imag)
    denom = np.where(
        by_real, b.real + b.imag * ratio, b.real * ratio + b.imag
    )
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = np.where(
        by_real, a.real + a.imag * ratio, a.real * ratio + a.imag
    ) / denom
    out.imag = np.where(
        by_real, a.imag - a.real * ratio, a.imag * ratio - a.real
    ) / denom
    return out


def _masses(
    magnitudes: list[np.ndarray], children: list[np.ndarray]
) -> list[np.ndarray]:
    """Squared norm of every row's subtree, bottom-up.

    Terms are added digit by digit from 0.0, as a per-node sum would.
    """
    masses: list[np.ndarray] = []
    below = None
    for level in range(len(magnitudes) - 1, -1, -1):
        magnitude = magnitudes[level]
        child = children[level]
        if below is None:
            terms = magnitude
        else:
            terms = magnitude * np.where(
                child >= 0, below[np.maximum(child, 0)], 1.0
            )
        terms = np.where(magnitude > _NEGLIGIBLE, terms, 0.0)
        total = np.zeros(magnitude.shape[0])
        for digit in range(magnitude.shape[1]):
            total += terms[:, digit]
        masses.append(total)
        below = total
    masses.reverse()
    return masses


def _influxes(
    magnitudes: list[np.ndarray],
    children: list[np.ndarray],
    root_magnitude: float,
) -> list[np.ndarray]:
    """Total squared path weight from the root into every row, top-down.

    ``np.bincount`` adds each child's in-flows in row-major order of
    the parent rows, i.e. in scan order and then digit order.
    """
    influx = [np.array([root_magnitude])]
    for level in range(len(magnitudes) - 1):
        incoming = influx[level]
        magnitude = magnitudes[level]
        child = children[level]
        flows = (
            (incoming[:, None] > _NEGLIGIBLE)
            & (child >= 0)
            & (magnitude > _NEGLIGIBLE)
        )
        influx.append(
            np.bincount(
                child[flows],
                weights=(incoming[:, None] * magnitude)[flows],
                minlength=children[level + 1].shape[0],
            )
        )
    return influx


def fidelity_contributions(dd: DecisionDiagram) -> dict[DDNode, float]:
    """Contribution of every reachable node of a canonical diagram.

    The contribution of a node is the summed squared magnitude of all
    amplitudes whose path crosses the node (Section 4.3 of the paper).
    For a normalised state the root contributes 1.
    """
    weights, children, _, orders = _in_scan_order(dd.levels)
    magnitudes = [_squared_magnitudes(level) for level in weights]
    influx = _influxes(magnitudes, children, abs(dd.root_weight) ** 2)
    masses = _masses(magnitudes, children)
    return {
        level_nodes[row]: value
        for level_nodes, order, incoming, mass in zip(
            dd.level_nodes(), orders, influx, masses
        )
        for row, value in zip(order.tolist(), (incoming * mass).tolist())
    }


class _Links:
    """Parent links of the scan-ordered rows, by global id, and the
    live child arrays.

    A row's global id is its level's offset plus its row.  Removing a
    node cuts exactly its in-edges, so the parent links are made once
    and a removed node is skipped as a child and not walked past as a
    parent.  Children are read from ``children``, the level arrays the
    scan cuts edges in.
    """

    def __init__(self, children: list[np.ndarray]):
        counts = [level.shape[0] for level in children]
        self.children = children
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(self.offsets[-1])
        # Every edge to a child: its parent's global id, level, row and
        # digit, and the child's global id.
        columns: list[list[np.ndarray]] = [
            [np.zeros(0, dtype=np.intp)] for _ in range(5)
        ]
        for level, child in enumerate(children):
            rows, digits = np.nonzero(child >= 0)
            for column, values in zip(columns, (
                rows + self.offsets[level],
                np.full(rows.size, level),
                rows,
                digits,
                child[rows, digits] + self.offsets[level + 1],
            )):
                column.append(values)
        parents, levels, rows, digits, targets = (
            np.concatenate(column) for column in columns
        )
        order = np.argsort(targets, kind="stable")
        self.parent_of = parents[order].tolist()
        self.edge_level = levels[order]
        self.edge_row = rows[order]
        self.edge_digit = digits[order]
        self.first_in = np.concatenate(
            ([0], np.cumsum(np.bincount(targets, minlength=total)))
        ).tolist()
        self.removed = bytearray(total)

    def block_relatives(
        self, node: int, level: int, blocked: bytearray
    ) -> None:
        """Block ``node`` (on ``level``), its descendants and its
        ancestors.

        Removing a node changes the current contribution of exactly
        these relatives (ancestors lose subtree mass, descendants lose
        influx), so within one pass they may no longer be removed at
        their pre-computed contributions.  The walks stop at blocked
        nodes, as a depth-first walk would; descendants go level by
        level, so a deepest-level node has none to walk.
        """
        removed = self.removed
        offsets = self.offsets
        blocked[node] = 1
        frontier = [node - int(offsets[level])]
        for depth in range(level, len(self.children) - 1):
            base = int(offsets[depth + 1])
            below = []
            for kid in self.children[depth][frontier].ravel().tolist():
                if (
                    kid >= 0
                    and not removed[kid + base]
                    and not blocked[kid + base]
                ):
                    blocked[kid + base] = 1
                    below.append(kid)
            if not below:
                break
            frontier = below
        parent_of = self.parent_of
        first_in = self.first_in
        up = parent_of[first_in[node]:first_in[node + 1]]
        while up:
            current = up.pop()
            if blocked[current]:
                continue
            blocked[current] = 1
            if not removed[current]:
                up.extend(parent_of[first_in[current]:first_in[current + 1]])


def _in_edge_factors(raw: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """``normalize_edges``' in-edge factor of every row of raw weights.

    The scalar normalisation's operations in its order, over whole
    rows: the norm is ``math.sqrt(math.fsum(abs(w) ** 2))``, the phase
    ``w / abs(w)`` of the first weight above the zero cutoff, the
    factor ``norm * phase``, each with Python's arithmetic, so every
    factor is bit-identical to the scalar one.  ``magnitudes`` are
    ``abs(raw)``.  Rows whose norm is below the zero cutoff get 0.
    """
    norms = np.sqrt(
        list(map(fsum, np.float_power(magnitudes, 2.0).tolist()))
    )
    rows = np.arange(raw.shape[0])
    first = np.argmax(magnitudes > WEIGHT_ZERO_CUTOFF, axis=1)
    pivot_magnitude = magnitudes[rows, first]
    has_pivot = pivot_magnitude > WEIGHT_ZERO_CUTOFF
    # w / abs(w) divides by a real: Smith's ratio is 0.0, the
    # denominator abs(w).
    pivot = raw[rows, first]
    divisor = np.where(has_pivot, pivot_magnitude, 1.0)
    phase = np.ones(raw.shape[0], dtype=np.complex128)
    phase.real = np.where(
        has_pivot, (pivot.real + pivot.imag * 0.0) / divisor, 1.0
    )
    phase.imag = np.where(
        has_pivot, (pivot.imag - pivot.real * 0.0) / divisor, 0.0
    )
    factors = _product(norms + 0j, phase)
    factors[norms <= WEIGHT_ZERO_CUTOFF] = 0.0
    return factors


def _merged_labels(
    weights: np.ndarray,
    children: np.ndarray,
    dirty: np.ndarray,
    reached: np.ndarray,
) -> np.ndarray | None:
    """Labels of one level's rows after a rebuild, equal for one node.

    Rows that were not rebuilt are distinct nodes, so only a rebuilt
    (``dirty``) row can equal another row.  Equal rows have equal
    64-bit row hashes, so unless two rebuilt rows, or a rebuilt row
    and an untouched reachable one, share a hash, every row is its own
    node.  Otherwise the rebuilt rows and the untouched rows sharing a
    hash with one are compared exactly
    (:func:`~repro.dd.levels.merge_labels`).  ``children`` holds the
    next level's labels.  Returns ``None`` when every row is its own
    node.
    """
    if not dirty.size:
        return None
    width = weights.shape[1]
    multipliers = hash_multipliers(3 * width)
    rows = np.flatnonzero(reached)
    hashes = (
        (weights[rows] + 0.0).view(np.uint64) * multipliers[: 2 * width]
    ).sum(axis=1) + (
        children[rows].astype(np.uint64) * multipliers[2 * width:]
    ).sum(axis=1)
    candidate = np.zeros(weights.shape[0], dtype=bool)
    candidate[dirty] = True
    rebuilt = candidate[rows]
    dirty_hashes = np.sort(hashes[rebuilt])
    clean_hashes = hashes[~rebuilt]
    found = np.minimum(
        np.searchsorted(dirty_hashes, clean_hashes), dirty_hashes.size - 1
    )
    shared = dirty_hashes[found] == clean_hashes
    if not shared.any() and not (dirty_hashes[1:] == dirty_hashes[:-1]).any():
        return None
    candidate[rows[~rebuilt][shared]] = True
    return merge_labels(weights, children, np.flatnonzero(candidate))


def _in_probe_order(
    entries: np.ndarray,
    children: list[np.ndarray],
    reach: list[np.ndarray],
    dirty_rows: list[np.ndarray],
    slots: list[np.ndarray],
) -> np.ndarray:
    """``entries`` of the rebuild's quotient batch, sorted into the
    order the per-node rebuild probes them: rows in depth-first
    post-order of the pruned diagram (the reverse of its scan order),
    digits in order.  The batch holds, level by level, the non-zero
    quotients (``slots``, row-major) of the ``dirty_rows``.
    """
    num_levels = len(children)
    remap = []
    for mark in reach:
        index = np.full(mark.size, -1, dtype=np.intp)
        index[mark] = np.arange(int(mark.sum()))
        remap.append(index)
    positions = preorder_positions([
        np.where(
            child >= 0,
            remap[level + 1][np.maximum(child, 0)]
            if level + 1 < num_levels else -1,
            -1,
        )[reach[level]]
        for level, child in enumerate(children)
    ], reverse_digits=True)
    digits = np.concatenate([
        slot % child.shape[1] for slot, child in zip(slots, children)
    ])
    row_positions = np.concatenate([
        positions[level][
            remap[level][dirty_rows[level][slot // child.shape[1]]]
        ]
        for level, (slot, child) in enumerate(zip(slots, children))
    ])
    return entries[np.lexsort((digits[entries], -row_positions[entries]))]


def _reachable(children: list[np.ndarray]) -> list[np.ndarray]:
    """Per level, which rows the root (row 0 of level 0) reaches."""
    reach = [np.ones(1, dtype=bool)]
    for level in range(len(children) - 1):
        below = children[level][reach[level]]
        mark = np.zeros(children[level + 1].shape[0], dtype=bool)
        mark[below[below >= 0]] = True
        reach.append(mark)
    return reach


def _rebuild(
    weights: list[np.ndarray],
    children: list[np.ndarray],
    lost: list[np.ndarray],
    inputs: list[np.ndarray],
    orders: list[np.ndarray],
):
    """Renormalise the rows of the pruned diagram that changed,
    bottom-up.

    ``weights``, ``children`` and ``lost`` are the pruned levels in
    scan order; ``inputs`` are the input's weight levels and
    ``orders[level][i]`` the input row of scan row ``i``.  A reachable
    row is *changed* when it lost an edge, has a changed child, or its
    own weights are off unit norm by more than ``_DRIFT_BOUND`` (as a
    build's snapped near-tie rows can be).  Every other reachable row
    roots a subtree the pruning left as it was: it is already
    normalised, keeps its weights and has the in-edge factor 1.  A
    changed row gets the in-edge factor and quotients that
    :func:`~repro.dd.builder.normalize_edges` gives its raw weights
    (which carry the factor of each changed child), with Python's
    arithmetic, and is written in place.  The quotients get the
    representatives a complex table holding the input's non-zero edge
    weights gives when it sees them in the order the per-node rebuild
    probes them (depth-first post-order); only the crowded ones
    (:func:`~repro.linalg.complex_table.crowded`) are looked up, after
    the crowded weights.  Rows that became one node are merged by key.

    Returns the root row's factor (0 when nothing is left), the
    result's level arrays (``None`` when no row changed), for
    :func:`~repro.dd.diagram.level_stats` the result's distinct
    non-zero weights when none of them is crowded (else ``None``), and
    the changed rows of every level.
    """
    num_levels = len(children)
    reach = _reachable(children)

    # Bottom-up: the changed rows, their factors and their quotients.
    changed_rows: list[np.ndarray] = [np.zeros(0, dtype=np.intp)] * num_levels
    factors: list[np.ndarray] = [np.zeros(0, np.complex128)] * num_levels
    slots: list[np.ndarray] = [np.zeros(0, dtype=np.intp)] * num_levels
    quotients: list[np.ndarray] = [np.zeros(0, np.complex128)] * num_levels
    # Over the level below: which rows changed, and their factors.
    changed_below = factor_below = None
    for level in range(num_levels - 1, -1, -1):
        parts = weights[level].view(np.float64)
        changed = lost[level] | (
            np.abs(np.sqrt(np.einsum("ij,ij->i", parts, parts)) - 1.0)
            > _DRIFT_BOUND
        )
        if changed_below is not None:
            child = children[level]
            changed |= (
                (child >= 0) & changed_below[np.maximum(child, 0)]
            ).any(axis=1)
        rows = np.flatnonzero(changed & reach[level])
        changed_rows[level] = rows
        if not rows.size:
            changed_below = None
            continue
        # The raw edges of normalize_edges: 0j below the zero cutoff,
        # the weight on an edge to the terminal or an untouched child,
        # the child's factor times the weight on an edge to a changed
        # one.
        weight = weights[level][rows]
        kids = children[level][rows]
        live = np.hypot(weight.real, weight.imag) > WEIGHT_ZERO_CUTOFF
        raw = np.where(live, weight, 0j)
        if changed_below is not None:
            scaled = live & (kids >= 0)
            scaled[scaled] = changed_below[kids[scaled]]
            raw[scaled] = _product(factor_below[kids[scaled]], raw[scaled])
        magnitudes = np.hypot(raw.real, raw.imag)
        row_factors = factors[level] = _in_edge_factors(raw, magnitudes)
        # normalize_edges divides every raw weight above the zero
        # cutoff by the factor; get_node drops quotients below it.
        divided = (magnitudes > WEIGHT_ZERO_CUTOFF) & (
            row_factors != 0
        )[:, None]
        quotient = np.zeros(raw.shape, dtype=np.complex128)
        quotient[divided] = _quotient(
            raw[divided],
            np.broadcast_to(row_factors[:, None], raw.shape)[divided],
        )
        quotient[
            np.hypot(quotient.real, quotient.imag) <= WEIGHT_ZERO_CUTOFF
        ] = 0.0
        kept = quotient.ravel()
        slots[level] = np.flatnonzero(kept)
        quotients[level] = kept[slots[level]]
        count = weights[level].shape[0]
        changed_below = np.zeros(count, dtype=bool)
        changed_below[rows] = True
        factor_below = np.zeros(count, dtype=np.complex128)
        factor_below[rows] = row_factors

    if not changed_rows[0].size:
        return 1.0 + 0.0j, None, None, changed_rows

    # The per-node rebuild looks the quotients up in a table holding the
    # input's weights, in its probe order.  Only a crowded quotient can
    # come back changed, and only crowded entries can change it, so the
    # table holds the crowded weights and sees the crowded quotients
    # only, in that order.  The result's weights are the quotients and
    # those of the reachable rows left as they are: with none of them
    # crowded, their distinct values go on to the statistics.
    nonzero = [level != 0 for level in inputs]
    values = np.concatenate(
        [level[mask] for level, mask in zip(inputs, nonzero)]
    )
    canonical = np.concatenate(quotients)
    keep = []
    for level, mask in enumerate(nonzero):
        untouched = reach[level].copy()
        untouched[changed_rows[level]] = False
        by_input = np.empty_like(untouched)
        by_input[orders[level]] = untouched
        keep.append(np.broadcast_to(by_input[:, None], mask.shape)[mask])
    keep.append(np.ones(canonical.size, dtype=bool))
    keep = np.concatenate(keep)
    marks, apart = crowded(
        np.concatenate((values, canonical)), 2.0 * DEFAULT_TOLERANCE, keep
    )
    if marks[keep].any():
        apart = None
    replay = np.flatnonzero(marks[values.size:])
    if replay.size:
        table = ComplexTable(DEFAULT_TOLERANCE)
        table.lookup_many(values[marks[:values.size]])
        replay = _in_probe_order(replay, children, reach, changed_rows, slots)
        canonical[replay] = table.lookup_many(canonical[replay])

    # Bottom-up again: write the changed rows in place (zero edges point
    # nowhere) and label the rows that became one node.
    classes: list[np.ndarray | None] = [None] * num_levels
    labels = None
    start = canonical.size
    for level in range(num_levels - 1, -1, -1):
        rows = changed_rows[level]
        start -= slots[level].size
        if rows.size:
            width = weights[level].shape[1]
            canon = np.zeros(rows.size * width, dtype=np.complex128)
            canon[slots[level]] = canonical[start:start + slots[level].size]
            canon = canon.reshape(rows.size, width)
            weights[level][rows] = canon
            children[level][rows] = np.where(
                canon != 0, children[level][rows], -1
            )
        child = children[level]
        if labels is not None:
            child = np.where(child >= 0, labels[np.maximum(child, 0)], -1)
        labels = classes[level] = _merged_labels(
            weights[level], child, rows[factors[level] != 0], reach[level]
        )
    # Rows that became one node share their weights, and a row left
    # with nothing (factor 0) has no quotients; any other row that no
    # edge reaches now takes its weights out of the result.
    if apart is not None:
        for level, (before, after) in enumerate(
            zip(reach, _reachable(children))
        ):
            gone = before & ~after
            gone[changed_rows[level][factors[level] == 0]] = False
            if gone.any():
                apart = None
                break
    return complex(factors[0][0]), compact_levels(
        weights, children, 0, classes
    ), apart, changed_rows


def _overlap(
    bra_weights: list[np.ndarray],
    ket_weights: list[np.ndarray],
    children: list[np.ndarray],
    changed_rows: list[np.ndarray],
    masses: list[np.ndarray],
) -> complex:
    """``<input|rebuild>`` of an approximation, root weights left out.

    ``bra_weights`` are the input's weight levels in scan order;
    ``ket_weights`` and ``children`` the rebuild's before compaction,
    where every row stands in its input row's place, so each row's
    partner is itself (rows that became one node have equal weights
    and children).  ``changed_rows`` are :func:`_rebuild`'s changed
    rows; an untouched row's subtree is the input's, so its overlap is
    its subtree mass, read from ``masses`` (:func:`_masses` of the
    pruned levels).  Only the changed rows are summed, bottom-up with
    the recursive inner product's arithmetic: ``conj(a) * b *
    overlap(children)`` added digit by digit from 0.
    """
    num_levels = len(children)
    changed = below = None
    for level in range(num_levels - 1, -1, -1):
        rows = changed_rows[level]
        weight_a = bra_weights[level][rows]
        weight_b = ket_weights[level][rows]
        both = (
            np.hypot(weight_a.real, weight_a.imag) > WEIGHT_ZERO_CUTOFF
        ) & (np.hypot(weight_b.real, weight_b.imag) > WEIGHT_ZERO_CUTOFF)
        terms = _product(np.conj(weight_a), weight_b)
        if changed is not None:
            kids = children[level][rows]
            both &= kids >= 0
            kids = np.maximum(kids, 0)
            terms = _product(terms, np.where(
                changed[kids], below[kids], masses[level + 1][kids]
            ))
        value = np.zeros(rows.size, dtype=np.complex128)
        for digit in range(both.shape[1]):
            value = np.where(both[:, digit], value + terms[:, digit], value)
        count = bra_weights[level].shape[0]
        changed = np.zeros(count, dtype=bool)
        changed[rows] = True
        below = np.zeros(count, dtype=np.complex128)
        below[rows] = value
    if not changed[0]:
        return complex(masses[0][0])
    return complex(below[0])


def approximate(
    dd: DecisionDiagram,
    min_fidelity: float,
    granularity: str = "nodes",
) -> ApproximationResult:
    """Prune a decision diagram down to a fidelity budget.

    Args:
        dd: The (canonical, unit-norm) diagram to approximate.
        min_fidelity: Lower bound on ``|<original|result>|^2``; must be
            in ``(0, 1]``.  ``1.0`` returns ``dd`` itself, with
            fidelity 1 and nothing removed.
        granularity: ``"nodes"`` (default) removes whole nodes, the
            paper's formulation ("removing nodes from the decision
            diagram until a threshold fidelity is reached");
            ``"amplitudes"`` additionally allows pruning individual
            terminal amplitudes, trading fidelity for diagram size at
            a finer grain.

    Returns:
        An :class:`ApproximationResult`; its ``fidelity`` field is the
        exact achieved fidelity, always >= ``min_fidelity``.  The
        result's diagram holds level arrays only; its nodes are made
        when first read.

    Raises:
        ApproximationError: If ``min_fidelity`` is out of range, the
            granularity is unknown or the diagram is zero.
    """
    if not 0.0 < min_fidelity <= 1.0:
        raise ApproximationError(
            f"min_fidelity must be in (0, 1], got {min_fidelity}"
        )
    if granularity not in ("nodes", "amplitudes"):
        raise ApproximationError(
            f"unknown granularity {granularity!r}; "
            "expected 'nodes' or 'amplitudes'"
        )
    if min_fidelity == 1.0:
        return ApproximationResult(
            diagram=dd,
            fidelity=1.0,
            removed_mass=0.0,
            removed_nodes=0,
            removed_leaves=0,
        )
    if abs(dd.root_weight) <= WEIGHT_ZERO_CUTOFF:
        raise ApproximationError("cannot approximate the zero diagram")
    levels = dd.levels
    original_weights, original_children, positions, orders = _in_scan_order(
        levels
    )
    weights = [level.copy() for level in original_weights]
    children = [level.copy() for level in original_children]
    magnitudes = [_squared_magnitudes(level) for level in weights]
    lost = [np.zeros(level.shape[0], dtype=bool) for level in weights]
    root_magnitude = abs(dd.root_weight) ** 2
    all_positions = np.concatenate(positions[1:] or [np.zeros(0, np.int64)])
    links = None
    # A relative slack keeps boundary removals (contribution exactly
    # equal to the budget, up to rounding) from being rejected.
    budget = (1.0 - min_fidelity) * (1.0 + 1e-9) + 1e-12
    removed_mass = 0.0
    removed_nodes = 0
    removed_leaves = 0
    removal_log: list[float] = []

    while budget > _NEGLIGIBLE:
        progressed = False
        influx = _influxes(magnitudes, children, root_magnitude)
        if granularity == "amplitudes":
            # Leaf amplitudes are mutually independent (removing one
            # never changes another's influx or weight), so the whole
            # ascending prefix that fits the budget goes in one pass
            # with exact accounting.
            for mass, level, row, digit in _leaf_candidates(
                influx, magnitudes, children, positions
            ):
                if mass > budget:
                    break  # sorted ascending: nothing further fits
                magnitudes[level][row, digit] = 0.0
                weights[level][row, digit] = 0.0
                lost[level][row] = True
                removed_leaves += 1
                budget -= mass
                removed_mass += mass
                removal_log.append(mass)
                progressed = True
        # Whole-node pass.  Node contributions of relatives interact
        # (ancestors lose mass, descendants lose influx); candidates
        # that are not related can be removed in the same pass at
        # their pre-computed — exact — contributions.  The root is
        # never a candidate: removing it would erase the state.
        masses = _masses(magnitudes, children)
        contributions = np.concatenate(
            [incoming * mass for incoming, mass in zip(influx[1:], masses[1:])]
            or [np.zeros(0)]
        )
        candidates = np.flatnonzero(contributions > _NEGLIGIBLE)
        candidates = candidates[
            np.lexsort((all_positions[candidates], contributions[candidates]))
        ]
        ordered = contributions[candidates]
        fits = np.searchsorted(ordered, budget, side="right")
        cut_edges: list[int] = []
        if fits:
            if links is None:
                links = _Links(children)
            blocked = bytearray(len(links.removed))
            nodes = candidates[:fits] + links.offsets[1]
            for contribution, node, level in zip(
                ordered[:fits].tolist(),
                nodes.tolist(),
                (np.searchsorted(links.offsets, nodes, side="right") - 1)
                .tolist(),
            ):
                if contribution > budget:
                    break
                if blocked[node]:
                    continue
                links.block_relatives(node, level, blocked)
                links.removed[node] = 1
                cut_edges.extend(
                    range(links.first_in[node], links.first_in[node + 1])
                )
                removed_nodes += 1
                budget -= contribution
                removed_mass += contribution
                removal_log.append(contribution)
                progressed = True
        if cut_edges:
            cut = np.array(cut_edges, dtype=np.intp)
            # bincount, not np.unique: the latter imports numpy.ma on
            # first use.
            for level in np.flatnonzero(
                np.bincount(links.edge_level[cut])
            ).tolist():
                at_level = cut[links.edge_level[cut] == level]
                rows = links.edge_row[at_level]
                digits = links.edge_digit[at_level]
                magnitudes[level][rows, digits] = 0.0
                weights[level][rows, digits] = 0.0
                children[level][rows, digits] = -1
                lost[level][rows] = True
        if not progressed:
            break

    root_factor, rebuilt_levels, apart, changed_rows = _rebuild(
        weights, children, lost, list(levels.weights), orders
    )
    if root_factor == 0:  # pragma: no cover - budget < 1 guards
        raise ApproximationError("approximation removed the entire state")
    if rebuilt_levels is None:
        rebuilt_levels = levels
    rebuilt = root_factor * dd.root_weight
    root_weight = rebuilt / abs(rebuilt)
    result_dd = DecisionDiagram.from_levels(
        root_weight,
        rebuilt_levels,
        dd.register,
        level_stats(rebuilt_levels, root_weight, apart),
    )
    # ``masses`` are the last pass's (the budget, at least 1e-12, lets
    # the loop run once); untouched rows' masses never change.
    overlap = (
        dd.root_weight.conjugate()
        * root_weight
        * _overlap(original_weights, weights, children, changed_rows, masses)
    )
    fidelity = abs(overlap) ** 2
    return ApproximationResult(
        diagram=result_dd,
        fidelity=float(min(max(fidelity, 0.0), 1.0)),
        removed_mass=removed_mass,
        removed_nodes=removed_nodes,
        removed_leaves=removed_leaves,
        removal_log=removal_log,
    )


def _leaf_candidates(
    influx: list[np.ndarray],
    magnitudes: list[np.ndarray],
    children: list[np.ndarray],
    positions: list[np.ndarray],
) -> list[tuple[float, int, int, int]]:
    """Leaf-amplitude candidates ``(mass, level, row, digit)``, ascending.

    A leaf candidate is one terminal edge (one amplitude); zeroing it
    never changes the influx of any other node, so the listed masses
    are mutually independent and sum exactly.  Ties go to the earlier
    row in scan order, then the lower digit.
    """
    parts = []
    for level, (incoming, magnitude, child) in enumerate(
        zip(influx, magnitudes, children)
    ):
        rows, digits = np.nonzero(
            (incoming[:, None] > _NEGLIGIBLE)
            & (child < 0)
            & (magnitude > _NEGLIGIBLE)
        )
        parts.append((
            incoming[rows] * magnitude[rows, digits],
            positions[level][rows],
            np.full(rows.size, level),
            rows,
            digits,
        ))
    mass, position, level, row, digit = (
        np.concatenate(column) for column in zip(*parts)
    )
    order = np.lexsort((digit, position, mass))
    return list(zip(
        mass[order].tolist(),
        level[order].tolist(),
        row[order].tolist(),
        digit[order].tolist(),
    ))
