"""Scalar oracle of :func:`repro.dd.approximation.approximate`.

The per-node implementation that ``approximate`` replaced: a mutable
deep copy of the diagram (one ``_MutableNode`` per distinct node, in
reversed depth-first post-order), dict walks for subtree masses and
influxes on every pass, the greedy scan in ``(contribution,
position)`` order with relatives blocked per pass, a per-node
``_rebuild`` through :func:`repro.dd.builder.normalize_edges`, and
the fidelity from the recursive
:func:`repro.dd.arithmetic.inner_product`.  The property tests of
``tests/test_dd_approximation.py`` and
``benchmarks/bench_hotpaths.py`` compare every result of
``approximate`` with it.

:func:`overlap_reference` is the level-array overlap ``approximate``
used before it summed the changed rows only: it pairs the rows the two
diagrams reach together level by level.  :func:`changed_rows_reference`
names the rows ``approximate``'s rebuild normalises again, by their
definition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dd.approximation import ApproximationResult, _product
from repro.dd.arithmetic import inner_product
from repro.dd.builder import normalize_edges
from repro.dd.diagram import DecisionDiagram
from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.node import DDNode, TERMINAL
from repro.dd.unique_table import UniqueTable
from repro.exceptions import ApproximationError

__all__ = [
    "approximate_oracle",
    "changed_rows_reference",
    "fidelity_contributions_oracle",
    "overlap_reference",
]

#: Contributions below this threshold are treated as "already absent"
#: and skipped by the candidate scan (removing them changes nothing).
_NEGLIGIBLE = 1e-15


class _MutableNode:
    """Mutable mirror of a DD node used during pruning."""

    __slots__ = ("level", "weights", "children")

    def __init__(self, level: int, weights: list[complex],
                 children: list["_MutableNode | None"]):
        self.level = level
        self.weights = weights
        self.children = children  # None encodes the terminal


def _mutable_copy(dd: DecisionDiagram) -> tuple[_MutableNode, complex,
                                                list[_MutableNode]]:
    """Deep-copy the reachable DAG into mutable nodes.

    Returns the mutable root, the root edge weight, and all mutable
    nodes in topological (root-first) order.  Sharing is preserved:
    a shared DD node maps to a single mutable node.
    """
    mapping: dict[int, _MutableNode] = {}
    order: list[_MutableNode] = []

    def convert(node: DDNode) -> _MutableNode:
        existing = mapping.get(id(node))
        if existing is not None:
            return existing
        mutable = _MutableNode(node.level, list(node.weights),
                               [None] * node.dimension)
        mapping[id(node)] = mutable
        for digit, edge in enumerate(node.edges):
            if not edge.is_zero and not edge.node.is_terminal:
                mutable.children[digit] = convert(edge.node)
        order.append(mutable)
        return mutable

    root = convert(dd.root.node)
    # ``order`` is children-first; reverse for root-first topological order.
    order.reverse()
    return root, dd.root.weight, order


def _subtree_masses(order: list[_MutableNode]) -> dict[int, float]:
    """Squared-norm of each mutable subtree (children-first pass)."""
    masses: dict[int, float] = {}
    for node in reversed(order):
        total = 0.0
        for weight, child in zip(node.weights, node.children):
            magnitude = abs(weight) ** 2
            if magnitude <= _NEGLIGIBLE:
                continue
            total += magnitude * (1.0 if child is None
                                  else masses[id(child)])
        masses[id(node)] = total
    return masses


def _influxes(root: _MutableNode, root_weight: complex,
              order: list[_MutableNode]) -> dict[int, float]:
    """Total squared path weight from the root into each node."""
    influx: dict[int, float] = {id(node): 0.0 for node in order}
    influx[id(root)] = abs(root_weight) ** 2
    for node in order:
        incoming = influx[id(node)]
        if incoming <= _NEGLIGIBLE:
            continue
        for weight, child in zip(node.weights, node.children):
            if child is not None and abs(weight) ** 2 > _NEGLIGIBLE:
                influx[id(child)] += incoming * abs(weight) ** 2
    return influx


def fidelity_contributions_oracle(dd: DecisionDiagram) -> dict[DDNode, float]:
    """Contribution of every reachable node of a canonical diagram.

    The contribution of a node is the summed squared magnitude of all
    amplitudes whose path crosses the node (Section 4.3 of the paper).
    For a normalised state the root contributes 1.
    """
    root, root_weight, order = _mutable_copy(dd)
    masses = _subtree_masses(order)
    influx = _influxes(root, root_weight, order)
    # Map mutable ids back to the original DD nodes.
    result: dict[DDNode, float] = {}
    mutable_by_id = {id(m): m for m in order}
    # Rebuild the correspondence by walking both structures in parallel.
    pairs: dict[int, DDNode] = {}

    def pair(node: DDNode, mutable: _MutableNode) -> None:
        if id(mutable) in pairs:
            return
        pairs[id(mutable)] = node
        for edge, child in zip(node.edges, mutable.children):
            if child is not None:
                pair(edge.node, child)

    pair(dd.root.node, root)
    for mutable_id, node in pairs.items():
        mutable = mutable_by_id[mutable_id]
        result[node] = influx[mutable_id] * masses[id(mutable)]
    return result


def _leaf_candidates(
    root: _MutableNode,
    root_weight: complex,
    order: list[_MutableNode],
) -> list[tuple[float, int, _MutableNode, int]]:
    """List leaf-amplitude candidates ``(mass, tiebreak, node, digit)``.

    A leaf candidate is one terminal edge (one amplitude); zeroing it
    never changes the influx of any other node, so the listed masses
    are mutually independent and sum exactly — the whole ascending
    prefix that fits the budget can be removed in one pass.
    """
    influx = _influxes(root, root_weight, order)
    result: list[tuple[float, int, _MutableNode, int]] = []
    for position, node in enumerate(order):
        incoming = influx[id(node)]
        if incoming <= _NEGLIGIBLE:
            continue
        for digit, (weight, child) in enumerate(
            zip(node.weights, node.children)
        ):
            if child is None and abs(weight) ** 2 > _NEGLIGIBLE:
                result.append(
                    (incoming * abs(weight) ** 2, position, node, digit)
                )
    result.sort(key=lambda item: (item[0], item[1]))
    return result


def _node_candidates(
    root: _MutableNode,
    root_weight: complex,
    order: list[_MutableNode],
) -> list[tuple[float, int, _MutableNode]]:
    """List whole-node candidates ``(contribution, tiebreak, node)``.

    Contributions are current (influx times remaining subtree mass).
    The root is never a candidate — removing it would erase the state.
    """
    masses = _subtree_masses(order)
    influx = _influxes(root, root_weight, order)
    result: list[tuple[float, int, _MutableNode]] = []
    for position, node in enumerate(order):
        if node is root:
            continue
        contribution = influx[id(node)] * masses[id(node)]
        if contribution > _NEGLIGIBLE:
            result.append((contribution, position, node))
    result.sort(key=lambda item: (item[0], item[1]))
    return result


def _remove_node(
    target: _MutableNode,
    parents: dict[int, list[_MutableNode]],
) -> None:
    """Zero every edge pointing at ``target``."""
    for parent in parents.get(id(target), []):
        for digit, child in enumerate(parent.children):
            if child is target:
                parent.weights[digit] = 0.0
                parent.children[digit] = None


def _parents_map(
    order: list[_MutableNode],
) -> dict[int, list[_MutableNode]]:
    """Reverse adjacency of the mutable graph (child id -> parents)."""
    parents: dict[int, list[_MutableNode]] = {}
    for node in order:
        for child in node.children:
            if child is not None:
                parents.setdefault(id(child), []).append(node)
    return parents


def _mark_relatives(
    node: _MutableNode,
    parents: dict[int, list[_MutableNode]],
    blocked: set[int],
) -> None:
    """Block ``node``, its ancestors, and its descendants.

    Removing a node changes the current contribution of exactly these
    relatives (ancestors lose subtree mass, descendants lose influx),
    so within one batched pass they may no longer be removed at their
    pre-computed contributions.
    """
    stack = [node]
    while stack:  # descendants
        current = stack.pop()
        if id(current) in blocked:
            continue
        blocked.add(id(current))
        stack.extend(
            child for child in current.children if child is not None
        )
    up = list(parents.get(id(node), []))
    while up:  # ancestors
        current = up.pop()
        if id(current) in blocked:
            continue
        blocked.add(id(current))
        up.extend(parents.get(id(current), []))


def _rebuild(
    root: _MutableNode, root_weight: complex, table: UniqueTable
) -> Edge:
    """Re-canonicalise a pruned mutable graph into shared DD nodes."""
    cache: dict[int, Edge] = {}

    def rebuild(node: _MutableNode) -> Edge:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        raw: list[Edge] = []
        for weight, child in zip(node.weights, node.children):
            if abs(weight) <= WEIGHT_ZERO_CUTOFF:
                raw.append(Edge.zero())
            elif child is None:
                raw.append(Edge(weight, TERMINAL))
            else:
                raw.append(rebuild(child).scaled(weight))
        edge = normalize_edges(raw, table, node.level)
        cache[id(node)] = edge
        return edge

    return rebuild(root).scaled(root_weight)


def approximate_oracle(
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
        exact achieved fidelity, always >= ``min_fidelity``.

    Raises:
        ApproximationError: If ``min_fidelity`` is out of range or the
            granularity is unknown.
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
    table = dd.unique_table
    root, root_weight, order = _mutable_copy(dd)
    # A relative slack keeps boundary removals (contribution exactly
    # equal to the budget, up to rounding) from being rejected.
    budget = (1.0 - min_fidelity) * (1.0 + 1e-9) + 1e-12
    removed_mass = 0.0
    removed_nodes = 0
    removed_leaves = 0
    removal_log: list[float] = []

    while budget > _NEGLIGIBLE:
        progressed = False
        if granularity == "amplitudes":
            # Leaf amplitudes are mutually independent (removing one
            # never changes another's influx or weight), so the whole
            # ascending prefix that fits the budget goes in one pass
            # with exact accounting.
            for mass, _, node, digit in _leaf_candidates(
                root, root_weight, order
            ):
                if mass > budget:
                    break  # sorted ascending: nothing further fits
                node.weights[digit] = 0.0
                node.children[digit] = None
                removed_leaves += 1
                budget -= mass
                removed_mass += mass
                removal_log.append(mass)
                progressed = True
        # Whole-node pass.  Node contributions of relatives interact
        # (ancestors lose mass, descendants lose influx); candidates
        # that are not related can be removed in the same pass at
        # their pre-computed — exact — contributions.
        parents = _parents_map(order)
        blocked: set[int] = set()
        for contribution, _, node in _node_candidates(
            root, root_weight, order
        ):
            if contribution > budget:
                break
            if id(node) in blocked:
                continue
            _mark_relatives(node, parents, blocked)
            _remove_node(node, parents)
            removed_nodes += 1
            budget -= contribution
            removed_mass += contribution
            removal_log.append(contribution)
            progressed = True
        if not progressed:
            break

    rebuilt = _rebuild(root, root_weight, table)
    # Renormalise the approximated state to unit norm, keeping its phase.
    magnitude = abs(rebuilt.weight)
    if magnitude <= WEIGHT_ZERO_CUTOFF:  # pragma: no cover - budget < 1 guards
        raise ApproximationError("approximation removed the entire state")
    normalized_root = Edge(rebuilt.weight / magnitude, rebuilt.node)
    result_dd = DecisionDiagram(normalized_root, dd.register, table)
    fidelity = abs(inner_product(dd, result_dd)) ** 2
    return ApproximationResult(
        diagram=result_dd,
        fidelity=float(min(max(fidelity, 0.0), 1.0)),
        removed_mass=removed_mass,
        removed_nodes=removed_nodes,
        removed_leaves=removed_leaves,
        removal_log=removal_log,
    )


def overlap_reference(bra, ket) -> complex:
    """``<bra|ket>`` of two level-array diagrams, root weights left out.

    ``bra`` and ``ket`` are ``(weights, children)`` lists over one
    register, each with its root node at row 0 of level 0.  The pairs
    of rows the two diagrams reach together are listed top-down; each
    pair's overlap is then summed bottom-up with the recursion's
    arithmetic, ``conj(a) * b * overlap(children)`` added digit by
    digit from 0.
    """
    bra_weights, bra_children = bra
    ket_weights, ket_children = ket
    num_levels = len(bra_weights)
    pairs = (np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))
    levels = []
    for level in range(num_levels):
        rows_a, rows_b = pairs
        weight_a = bra_weights[level][rows_a]
        weight_b = ket_weights[level][rows_b]
        both = (np.hypot(weight_a.real, weight_a.imag) > WEIGHT_ZERO_CUTOFF) & (
            np.hypot(weight_b.real, weight_b.imag) > WEIGHT_ZERO_CUTOFF
        )
        slot = np.full(both.shape, -1, dtype=np.intp)
        if level + 1 < num_levels:
            child_a = bra_children[level][rows_a]
            child_b = ket_children[level][rows_b]
            both &= (child_a >= 0) & (child_b >= 0)
            width = ket_weights[level + 1].shape[0]
            keys, slot[both] = np.unique(
                (child_a * width + child_b)[both], return_inverse=True
            )
            pairs = (keys // width, keys % width)
        levels.append((weight_a, weight_b, both, slot))
    value = None
    for weight_a, weight_b, both, slot in reversed(levels):
        terms = _product(np.conj(weight_a), weight_b)
        below = (
            1.0 + 0.0j if value is None
            else value[np.maximum(slot, 0)]
        )
        terms = _product(terms, below)
        value = np.zeros(both.shape[0], dtype=np.complex128)
        for digit in range(both.shape[1]):
            value = np.where(both[:, digit], value + terms[:, digit], value)
    return complex(value[0])


def changed_rows_reference(weights, children, lost) -> list[list[int]]:
    """The changed rows of pruned scan-order levels, by their
    definition, one row at a time: a row the root reaches is changed
    if it lost an edge, its weights are off unit norm by more than
    1e-14, or one of its children is changed.  ``weights``,
    ``children`` and ``lost`` are what ``approximate`` hands its
    rebuild.  Returns each level's changed rows, ascending."""
    num_levels = len(children)
    reached = [{0}]
    for level in range(num_levels - 1):
        reached.append({
            kid
            for row in reached[level]
            for kid in children[level][row].tolist()
            if kid >= 0
        })
    changed: list[set[int]] = [set() for _ in range(num_levels)]
    for level in range(num_levels - 1, -1, -1):
        for row in reached[level]:
            norm = math.sqrt(sum(
                abs(weight) ** 2 for weight in weights[level][row].tolist()
            ))
            if (
                lost[level][row]
                or abs(norm - 1.0) > 1e-14
                or any(
                    kid >= 0 and kid in changed[level + 1]
                    for kid in children[level][row].tolist()
                )
            ):
                changed[level].add(row)
    return [sorted(rows) for rows in changed]
