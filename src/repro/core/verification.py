"""Verification of synthesised circuits against target states.

Verification is the one dense simulation every exact pipeline run
pays, as in the paper: the synthesised rotation circuit runs on
``|0...0>`` through the in-place kernel
:func:`~repro.simulator.statevector_sim.simulate_inplace` (one d x d
matrix per block of its table, in emitted order; the level-major
synthesis emits each level's blocks together, so the many small
blocks of a deep level run as a few batched matmuls), and the result
is compared with the target.  A gate-list circuit (hand-built, parsed
or transpiled) runs gate by gate, with each distinct local matrix
built once per call.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.states.fidelity import fidelity
from repro.states.statevector import StateVector
from repro.simulator.statevector_sim import simulate_inplace

__all__ = ["verify_preparation", "prepared_state"]


def prepared_state(circuit: Circuit) -> StateVector:
    """Simulate the circuit on ``|0...0>`` and return the result."""
    buffer = np.zeros(circuit.register.size, dtype=np.complex128)
    buffer[0] = 1.0
    simulate_inplace(circuit, buffer)
    return StateVector(buffer, circuit.register)


def verify_preparation(circuit: Circuit, target: StateVector) -> float:
    """Return ``|<target|circuit(0...0)>|^2``.

    The target is normalised before comparison, so callers may pass
    unnormalised amplitude vectors.
    """
    produced = prepared_state(circuit)
    return fidelity(target.normalized(), produced)
