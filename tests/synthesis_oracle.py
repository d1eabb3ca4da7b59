"""Gate-by-gate synthesis: the oracle of the columnar synthesis.

This is the synthesis routine as it stood before synthesis emitted a
:class:`~repro.circuit.table.CircuitTable`: it walks the decision
diagram the same way and appends one validated
:class:`~repro.circuit.gate.Gate` per operation, and the preparation
circuit is ``Circuit.inverse`` of the unpreparation one.  The tests
(and ``benchmarks/bench_hotpaths.py``) compare
:mod:`repro.core.synthesis` with it, QDASM text byte for byte.
"""

from __future__ import annotations

import cmath

from repro.circuit.circuit import Circuit
from repro.circuit.controls import Control
from repro.circuit.gates import GivensRotation, PhaseRotation
from repro.core.angles import disentangling_rotation
from repro.dd.diagram import DecisionDiagram
from repro.dd.node import DDNode
from repro.exceptions import SynthesisError

__all__ = ["oracle_preparation", "oracle_unpreparation"]


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


def oracle_unpreparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """The circuit mapping the DD's state to ``|0...0>``, gate by gate."""
    if dd.root.is_zero:
        raise SynthesisError("cannot synthesise the zero state")
    circuit = Circuit(dd.register)

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
        _emit_node_ladder(
            circuit, node, controls, emit_identity_rotations
        )

    unprepare(dd.root.node, ())
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
