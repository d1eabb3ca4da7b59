"""Reproductions of the paper's figures (textual form).

The four figures of the paper are illustrative rather than data plots;
each function here regenerates the underlying artefact and returns a
printable description, so ``python -m repro figures`` documents that
every figure's content is reproduced by this library:

* Figure 1 — the two-qutrit GHZ preparation circuit,
* Figure 2 — the three-step pipeline (DD, approximation, synthesis)
  on a state with subtree masses 0.5 / 0.4 / 0.1,
* Figure 3 — the qutrit-qubit state ``(|00> - |11> + |21>)/sqrt(3)``
  and its decision diagram,
* Figure 4 — the two-qutrit uniform-root DD and the first rotation
  ``R_{1,2}`` synthesised from it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.text import draw
from repro.core.angles import disentangling_rotation
from repro.core.preparation import prepare_state
from repro.dd.builder import build_dd
from repro.dd.dot import to_dot
from repro.dd.metrics import synthesis_operation_count
from repro.states.library import ghz_state
from repro.states.statevector import StateVector

__all__ = ["figure1", "figure2", "figure3", "figure4"]


def figure1() -> str:
    """Two-qutrit GHZ state preparation (Figure 1).

    The paper's hand-built circuit uses a qutrit Hadamard and two
    controlled increments; our synthesis realises the same state with
    multi-controlled rotations.  Both are shown to prepare
    ``(|00> + |11> + |22>)/sqrt(3)`` exactly.
    """
    target = ghz_state((3, 3))
    result = prepare_state(target)
    lines = [
        "Figure 1: state preparation of the two-qutrit GHZ state",
        f"target: {target}",
        "",
        "synthesised circuit (multi-controlled two-level rotations):",
        draw(result.circuit),
        "",
        f"operations: {result.report.operations}, "
        f"fidelity: {result.report.fidelity:.10f}",
    ]
    return "\n".join(lines)


def figure2() -> str:
    """Three-step pipeline with subtree masses 0.5/0.4/0.1 (Figure 2).

    Builds a qutrit-qubit state whose root subtrees carry probability
    masses 0.5, 0.4 and 0.1, approximates at fidelity 0.9 (pruning the
    0.1 subtree, exactly as in the figure), and synthesises circuits
    before and after.  After pruning, the two surviving root edges
    point to the same child, so the tensor-product rule removes the
    root control from the lower qudit's rotations.
    """
    # Root successors: |0> with mass 0.5, |1> with mass 0.4 (same
    # child sub-state), |2> with mass 0.1 (a different sub-state).
    child = np.array([1.0, 1.0]) / math.sqrt(2.0)
    other = np.array([1.0, 0.0])
    amplitudes = np.concatenate(
        [
            math.sqrt(0.5) * child,
            math.sqrt(0.4) * child,
            math.sqrt(0.1) * other,
        ]
    )
    state = StateVector(amplitudes, (3, 2))
    exact = prepare_state(state, tensor_elision=True)
    approx = prepare_state(
        state, min_fidelity=0.90, tensor_elision=True
    )
    lines = [
        "Figure 2: the three steps of state preparation",
        "1st step - decision diagram of the state "
        "(root subtree masses 0.5 / 0.4 / 0.1):",
        f"  DAG nodes: {exact.exact_diagram.stats.num_nodes}, "
        f"visited: {exact.exact_diagram.stats.visited_nodes}",
        "2nd step - approximation at fidelity 0.90 prunes the 0.1 "
        "subtree:",
        f"  visited nodes: {approx.diagram.stats.visited_nodes}, "
        f"achieved fidelity: {approx.report.approximation_fidelity:.3f}",
        "3rd step - synthesis:",
        f"  exact circuit: {exact.report.operations} operations, "
        f"median controls {exact.report.median_controls}",
        f"  approximated circuit: {approx.report.operations} "
        f"operations, median controls "
        f"{approx.report.median_controls} "
        "(tensor rule removed the root control)",
    ]
    return "\n".join(lines)


def figure3() -> str:
    """Qutrit-qubit decision diagram of Example 4 (Figure 3).

    The state ``(|00> - |11> + |21>)/sqrt(3)`` over dims (3, 2); the
    second and third root edges share one child node, and the
    amplitude of ``|11>`` reads off the path as
    ``1/sqrt(3) * (-1) * 1``.
    """
    amplitudes = np.zeros(6, dtype=complex)
    amplitudes[0] = 1.0   # |00>
    amplitudes[3] = -1.0  # |11>
    amplitudes[5] = 1.0   # |21>
    amplitudes /= math.sqrt(3.0)
    state = StateVector(amplitudes, (3, 2))
    dd = build_dd(state)
    shared = dd.root.node.successor(1).node is dd.root.node.successor(2).node
    lines = [
        "Figure 3: state vector and decision diagram of "
        "(|00> - |11> + |21>)/sqrt(3) on a qutrit-qubit register",
        f"  DAG nodes (excl. terminal): {dd.stats.num_nodes}",
        f"  root edges 1 and 2 share a child: {shared}",
        f"  amplitude(|11>) = {dd.amplitude((1, 1)):.6f} "
        f"(expected {-1 / math.sqrt(3.0):.6f})",
        "",
        "DOT rendering:",
        to_dot(dd),
    ]
    return "\n".join(lines)


def figure4() -> str:
    """Synthesis step on a two-qutrit DD (Figure 4).

    A root node with three equal-weight edges; the first ladder step
    is the rotation ``R_{1,2}`` merging the weight of level 2 into
    level 1, exactly the step depicted in the figure.
    """
    weight = 1.0 / math.sqrt(3.0)
    theta, phi, merged = disentangling_rotation(weight, weight)
    state = ghz_state((3, 3))
    dd = build_dd(state)
    result = prepare_state(state)
    # The root ladder opens the preparation circuit (the synthesis is
    # the reversed disentangling sequence); find its R_{1,2} rotation.
    first = next(
        gate
        for gate in result.circuit.gates
        if gate.target == 0
        and getattr(gate, "level_j", None) == 2
    )
    lines = [
        "Figure 4: DD of a two-qutrit state and the rotation "
        "synthesised from its root node",
        f"  root weights: ({weight:.4f}, {weight:.4f}, {weight:.4f})",
        "  ladder step R_{1,2} merging level 2 into level 1:",
        f"    theta = {theta:.6f} rad "
        f"(= 2*atan(1) = {2 * math.atan(1.0):.6f})",
        f"    phi   = {phi:.6f} rad",
        f"    merged weight magnitude = {abs(merged):.6f}",
        f"  operations for the full state: "
        f"{synthesis_operation_count(dd)}",
        f"  last gate of the preparation circuit: {first!r}",
    ]
    return "\n".join(lines)
