"""Circuit synthesis from decision diagrams (Section 4.2 of the paper).

The routine traverses the decision diagram once and, for every visited
node of dimension ``d``, emits a ladder of ``d - 1`` two-level Givens
rotations followed by one two-level phase rotation, each controlled on
the root-to-node path (one ``(qudit, level)`` control per ancestor
edge).  The emitted circuit *disentangles* the represented state down
to ``|0...0>``; the preparation circuit is its reversed adjoint.
Complexity is linear in the number of path-expanded DD nodes, matching
the paper's complexity claim.

The tensor-product rule of Section 4.3 is applied on the fly: when all
non-zero edges of a node point to the same child, the subtree is
synthesised once *without* a control on that node's qudit.

The circuit is emitted as a :class:`~repro.circuit.table.CircuitTable`:
one block of rows per visited node, under one control row.  A node's
ladder is computed once per distinct node and reused on every path
through it, and no :class:`~repro.circuit.gate.Gate` object is built.
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.table import GIVENS, PHASE, CircuitTable
from repro.core.angles import disentangling_rotation
from repro.dd.diagram import DecisionDiagram
from repro.dd.node import DDNode
from repro.exceptions import SynthesisError

__all__ = ["synthesize_unpreparation", "synthesize_preparation"]


def _node_ladder(
    node: DDNode, emit_identity_rotations: bool
) -> list[tuple[int, int, int, float, float]]:
    """Rows ``(kind, lower, upper, theta, phi)`` merging ``node``'s
    weights into level 0."""
    rows = []
    weights = list(node.weights)
    for upper in range(node.dimension - 1, 0, -1):
        lower = upper - 1
        theta, phi, merged = disentangling_rotation(
            weights[lower], weights[upper]
        )
        weights[lower] = merged
        weights[upper] = 0.0
        if emit_identity_rotations or abs(theta) > 1e-14:
            rows.append((GIVENS, lower, upper, theta, phi))
    # The residual phase on level 0; for canonically normalised nodes
    # (first non-zero weight real positive) this is exactly zero, but
    # it is computed -- not assumed -- so non-canonical diagrams stay
    # correct.
    residual_phase = cmath.phase(weights[0]) if weights[0] != 0 else 0.0
    if emit_identity_rotations or abs(residual_phase) > 1e-14:
        rows.append((PHASE, 0, 1, 2.0 * residual_phase, 0.0))
    return rows


def _unpreparation_table(
    dd: DecisionDiagram,
    tensor_elision: bool,
    emit_identity_rotations: bool,
) -> CircuitTable:
    """The disentangling circuit of ``dd`` as a table.

    The walk is post-order: a node's block follows the blocks of its
    subtree.  Each distinct node's ladder is stored once; every visit
    records the ladder's id and the current root-path control row,
    and the rows are gathered from the ladders in one vectorised pass.
    """
    if dd.root.is_zero:
        raise SynthesisError("cannot synthesise the zero state")
    ladder_ids: dict[DDNode, int] = {}
    ladder_rows: list[tuple[int, int, int, float, float]] = []
    ladder_starts = [0]
    ladder_targets: list[int] = []
    visits: list[int] = []
    control_rows: list[int] = []
    path = [-1] * len(dd.dims)

    def unprepare(node: DDNode) -> None:
        shared_child = (
            node.unique_nonzero_child() if tensor_elision else None
        )
        if shared_child is not None:
            if not shared_child.is_terminal:
                # Tensor-product rule: one uncontrolled-by-this-qudit
                # recursion covers every non-zero branch.
                unprepare(shared_child)
        else:
            level = node.level
            for digit, edge in node.nonzero_edges():
                if not edge.node.is_terminal:
                    path[level] = digit
                    unprepare(edge.node)
            path[level] = -1
        ladder = ladder_ids.get(node)
        if ladder is None:
            ladder = ladder_ids[node] = len(ladder_targets)
            ladder_rows.extend(_node_ladder(node, emit_identity_rotations))
            ladder_starts.append(len(ladder_rows))
            ladder_targets.append(node.level)
        visits.append(ladder)
        control_rows.extend(path)

    unprepare(dd.root.node)

    starts = np.asarray(ladder_starts, dtype=np.int64)
    visit = np.asarray(visits, dtype=np.int64)
    lengths = starts[visit + 1] - starts[visit]
    offsets = np.zeros(visit.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    source = np.repeat(starts[visit] - offsets[:-1], lengths) + np.arange(
        offsets[-1]
    )
    columns = (
        np.array(ladder_rows, dtype=np.float64).reshape(-1, 5)
        if ladder_rows
        else np.zeros((0, 5))
    )
    return CircuitTable(
        dd.dims,
        kind=columns[source, 0].astype(np.uint8),
        target=np.repeat(
            np.asarray(ladder_targets, dtype=np.int32)[visit], lengths
        ),
        lower=columns[source, 1].astype(np.int32),
        upper=columns[source, 2].astype(np.int32),
        theta=columns[source, 3],
        phi=columns[source, 4],
        offsets=offsets,
        controls=np.asarray(control_rows, dtype=np.int16).reshape(
            visit.size, len(dd.dims)
        ),
    )


def synthesize_unpreparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """Synthesise the circuit mapping the DD's state to ``|0...0>``.

    Args:
        dd: Decision diagram of the state (canonical, non-zero).
        tensor_elision: Apply the tensor-product rule — subtrees whose
            parent factorises are synthesised once without the parent
            control.  Disable to obtain per-path controls everywhere.
        emit_identity_rotations: Emit rotations with zero angle (the
            paper counts them; disabling yields shorter circuits with
            identical action).

    Returns:
        Circuit ``U`` with ``U|psi> = w |0...0>`` where ``w`` is the
        DD's root weight (a pure phase for unit-norm states).

    Raises:
        SynthesisError: If the diagram is zero.
    """
    return Circuit.from_table(
        _unpreparation_table(dd, tensor_elision, emit_identity_rotations)
    )


def synthesize_preparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """Synthesise the circuit preparing the DD's state from ``|0...0>``.

    The reversed adjoint of :func:`synthesize_unpreparation` (its
    table reversed, with ``theta`` and ``delta`` negated), with the
    root weight's phase applied as a global phase so the prepared
    state matches the diagram exactly (not merely up to phase).

    Returns:
        Circuit ``P`` with ``P|0...0> = |psi> / ||psi||``.
    """
    table = _unpreparation_table(
        dd, tensor_elision, emit_identity_rotations
    )
    preparation = Circuit.from_table(table.inverse())
    preparation.global_phase = cmath.phase(dd.root.weight)
    return preparation
