"""Verification of synthesised circuits against target states.

Verification is the one dense simulation every exact pipeline run
pays, as in the paper: the synthesised rotation circuit runs on
``|0...0>`` through the in-place kernel
:func:`~repro.simulator.statevector_sim.simulate_inplace` (one d x d
matrix per block of its table, in emitted order; the level-major
synthesis emits each level's blocks together, so the many small
blocks of a deep level run as a few batched matmuls), and the result
is compared with the target.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.states.fidelity import fidelity
from repro.states.statevector import StateVector
from repro.simulator.statevector_sim import (
    GateMatrixCache,
    simulate_inplace,
)

__all__ = ["verify_preparation", "prepared_state"]


def prepared_state(
    circuit: Circuit,
    matrix_cache: GateMatrixCache | None = None,
) -> StateVector:
    """Simulate the circuit on ``|0...0>`` and return the result.

    Args:
        circuit: The preparation circuit.
        matrix_cache: Gate-matrix memo to reuse across calls for
            gate-list circuits; a fresh one per call when ``None``.
    """
    buffer = np.zeros(circuit.register.size, dtype=np.complex128)
    buffer[0] = 1.0
    simulate_inplace(circuit, buffer, matrix_cache)
    return StateVector(buffer, circuit.register)


def verify_preparation(
    circuit: Circuit,
    target: StateVector,
    matrix_cache: GateMatrixCache | None = None,
) -> float:
    """Return ``|<target|circuit(0...0)>|^2``.

    The target is normalised before comparison, so callers may pass
    unnormalised amplitude vectors.  ``matrix_cache`` is forwarded to
    :func:`prepared_state`.
    """
    produced = prepared_state(circuit, matrix_cache)
    return fidelity(target.normalized(), produced)
