"""Gate-by-gate synthesis: the oracle of the level-major synthesis.

This is the synthesis routine as it stood before synthesis became an
array program: a depth-first walk of the decision diagram's nodes that
appends one validated :class:`~repro.circuit.gate.Gate` per operation,
emitting each visit's ladder after its subtree's (post-order), with
each node's ladder from the scalar
:func:`~repro.core.angles.disentangling_rotation`.  The preparation
circuit is ``Circuit.inverse`` of the unpreparation one.

:mod:`repro.core.synthesis` emits the same blocks level by level,
deepest level first, each level's blocks grouped by control mask, so
its table is this circuit's rows stably sorted by target level, deepest
first, then by control mask (:func:`level_major_order`), with angles
equal up to rounding.  :func:`level_major_mismatches` checks that
contract; the tests and ``benchmarks/bench_hotpaths.py`` compare the
two with it, and :func:`oracle_visits` lists the visits in post-order
for the tests' legality check of the reordering.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.controls import Control
from repro.circuit.gates import GivensRotation, PhaseRotation
from repro.circuit.table import GIVENS, PHASE, CircuitTable
from repro.core.angles import disentangling_rotation
from repro.dd.diagram import DecisionDiagram
from repro.dd.node import DDNode
from repro.exceptions import SynthesisError

__all__ = [
    "level_major_mismatches",
    "level_major_order",
    "oracle_preparation",
    "oracle_unpreparation",
    "oracle_visits",
]

#: Largest angle difference the contract allows: NumPy's ``arctan2``
#: and ``hypot`` may differ from ``math``'s in the last bit.
ANGLE_TOLERANCE = 1e-12


def _post_order(
    dd: DecisionDiagram,
    tensor_elision: bool,
    visit: Callable[[DDNode, tuple[Control, ...]], None],
) -> None:
    """Call ``visit(node, controls)`` for every visit of the depth-first
    walk, each after the visits of its subtree."""
    if dd.root.is_zero:
        raise SynthesisError("cannot synthesise the zero state")

    def unprepare(node: DDNode, controls: tuple[Control, ...]) -> None:
        shared_child = (
            node.unique_nonzero_child() if tensor_elision else None
        )
        if shared_child is not None:
            if not shared_child.is_terminal:
                unprepare(shared_child, controls)
        else:
            for digit, edge in node.nonzero_edges():
                if not edge.node.is_terminal:
                    unprepare(
                        edge.node,
                        controls + (Control(node.level, digit),),
                    )
        visit(node, controls)

    unprepare(dd.root.node, ())


def _emit_node_ladder(
    circuit: Circuit,
    node: DDNode,
    controls: tuple[Control, ...],
    emit_identity_rotations: bool,
) -> None:
    """Emit the rotations that merge ``node``'s weights into level 0."""
    target = node.level
    weights = list(node.weights)
    for upper in range(node.dimension - 1, 0, -1):
        lower = upper - 1
        theta, phi, merged = disentangling_rotation(
            weights[lower], weights[upper]
        )
        weights[lower] = merged
        weights[upper] = 0.0
        if emit_identity_rotations or abs(theta) > 1e-14:
            circuit.append(
                GivensRotation(target, lower, upper, theta, phi, controls)
            )
    residual_phase = cmath.phase(weights[0]) if weights[0] != 0 else 0.0
    if emit_identity_rotations or abs(residual_phase) > 1e-14:
        circuit.append(
            PhaseRotation(target, 0, 1, 2.0 * residual_phase, controls)
        )


def oracle_visits(
    dd: DecisionDiagram, tensor_elision: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The visits of the depth-first walk, in post-order.

    Returns:
        ``(targets, controls)``: each visit's level and its ``(B, n)``
        control row, ``-1`` for no control.
    """
    targets = []
    rows = []

    def visit(node: DDNode, controls: tuple[Control, ...]) -> None:
        row = [-1] * len(dd.dims)
        for control in controls:
            row[control.qudit] = control.level
        targets.append(node.level)
        rows.append(row)

    _post_order(dd, tensor_elision, visit)
    return (
        np.array(targets, dtype=np.int64),
        np.array(rows, dtype=np.int64).reshape(-1, len(dd.dims)),
    )


def oracle_unpreparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """The circuit mapping the DD's state to ``|0...0>``, gate by gate."""
    circuit = Circuit(dd.register)
    _post_order(
        dd,
        tensor_elision,
        lambda node, controls: _emit_node_ladder(
            circuit, node, controls, emit_identity_rotations
        ),
    )
    return circuit


def oracle_preparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """The preparation circuit: the inverse of the unpreparation one."""
    preparation = oracle_unpreparation(
        dd,
        tensor_elision=tensor_elision,
        emit_identity_rotations=emit_identity_rotations,
    ).inverse()
    preparation.global_phase = cmath.phase(dd.root.weight)
    return preparation


def level_major_order(targets: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """The stable order that sorts rows (or visits) by target level,
    deepest first, then by control mask: the mask read qudit by qudit
    from qudit 0, a free qudit before a controlled one.

    ``controls`` holds one control row per entry, ``-1`` for none.
    """
    masks = controls >= 0
    return np.lexsort(tuple(masks.T[::-1]) + (-targets,))


def level_major_mismatches(
    table: CircuitTable, oracle: Circuit
) -> list[str]:
    """Where ``table`` breaks the level-major contract against
    ``oracle`` (an :func:`oracle_unpreparation` circuit).

    The contract: ``table``'s rows are the oracle's gates stably
    sorted by target level, deepest first, then by control mask
    (:func:`level_major_order`), with the same kind, target, levels
    and control row per row, and angles (``theta``, and ``phi`` of
    Givens rows) within :data:`ANGLE_TOLERANCE`.

    Returns:
        The names of the columns that differ; empty when it holds.
    """
    gates = oracle.gates
    if table.dims != oracle.dims or table.num_rows != len(gates):
        return ["shape"]
    controls = np.full((len(gates), len(table.dims)), -1, dtype=np.int64)
    for row, gate in enumerate(gates):
        for control in gate.controls:
            controls[row, control.qudit] = control.level
    givens = np.array(
        [isinstance(gate, GivensRotation) for gate in gates], dtype=bool
    )
    expected = {
        "kind": np.where(givens, GIVENS, PHASE),
        "target": np.array([gate.target for gate in gates], dtype=np.int64),
        "lower": np.array([gate.level_i for gate in gates], dtype=np.int64),
        "upper": np.array([gate.level_j for gate in gates], dtype=np.int64),
        "controls": controls,
    }
    order = level_major_order(expected["target"], controls)
    produced = {
        "kind": table.kind,
        "target": table.target,
        "lower": table.lower,
        "upper": table.upper,
        "controls": table.controls[table.row_blocks()],
    }
    mismatches = [
        name
        for name, column in expected.items()
        if not np.array_equal(produced[name], column[order])
    ]
    theta = np.array(
        [gate.theta if flag else gate.delta for gate, flag in zip(gates, givens)],
        dtype=np.float64,
    )
    if np.any(np.abs(table.theta - theta[order]) > ANGLE_TOLERANCE):
        mismatches.append("theta")
    phi = np.array(
        [gate.phi if flag else 0.0 for gate, flag in zip(gates, givens)],
        dtype=np.float64,
    )
    if np.any(
        np.abs(table.phi - phi[order])[givens[order]] > ANGLE_TOLERANCE
    ):
        mismatches.append("phi")
    return mismatches
