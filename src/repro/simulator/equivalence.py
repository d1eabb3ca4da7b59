"""Equivalence checking of qudit circuits.

Used to validate transpilation passes: two circuits are equivalent
when they implement the same unitary, optionally up to a global phase.
Small registers are checked exactly through the dense unitary; larger
ones are probed with random states (a sound Monte-Carlo check: random
complex-Gaussian states distinguish distinct unitaries with
probability 1).  Probe runs go through :func:`simulate`, the same
in-place kernel that verifies every synthesised circuit.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.exceptions import SimulationError
from repro.simulator.statevector_sim import simulate
from repro.simulator.unitary_builder import (
    MAX_DENSE_DIMENSION,
    circuit_unitary,
)
from repro.states.statevector import StateVector

__all__ = ["circuits_equivalent"]

#: Registers up to this size are checked exactly.
_DENSE_LIMIT = 512


def _phase_aligned(matrix: np.ndarray) -> np.ndarray:
    flat = matrix.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat))]
    if abs(pivot) < 1e-14:
        return matrix
    return matrix * (abs(pivot) / pivot)


def circuits_equivalent(
    first: Circuit,
    second: Circuit,
    up_to_global_phase: bool = True,
    tolerance: float = 1e-9,
    probes: int = 4,
    rng: np.random.Generator | int | None = None,
) -> bool:
    """Decide whether two circuits implement the same unitary.

    Args:
        first: First circuit.
        second: Second circuit over the same register.
        up_to_global_phase: Ignore a constant phase between the two.
        tolerance: Numerical tolerance of the comparison.
        probes: Number of random probe states for the Monte-Carlo
            path (used when the register is too large to densify).
        rng: Generator or seed for the probe states.

    Raises:
        SimulationError: If the circuits act on different registers or
            the register exceeds :data:`MAX_DENSE_DIMENSION` even for
            probing (probing has no hard limit, so this only triggers
            through the dense path).
    """
    if first.register != second.register:
        raise SimulationError(
            f"cannot compare circuits over {first.dims} and "
            f"{second.dims}"
        )
    size = first.register.size
    if size <= min(_DENSE_LIMIT, MAX_DENSE_DIMENSION):
        matrix_a = circuit_unitary(first)
        matrix_b = circuit_unitary(second)
        if up_to_global_phase:
            matrix_a = _phase_aligned(matrix_a)
            matrix_b = _phase_aligned(matrix_b)
        return bool(
            np.allclose(matrix_a, matrix_b, atol=tolerance, rtol=0.0)
        )
    generator = (
        rng
        if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng)
    )
    for _ in range(max(1, probes)):
        amplitudes = generator.normal(size=size) + 1j * generator.normal(
            size=size
        )
        probe = StateVector(
            amplitudes / np.linalg.norm(amplitudes), first.dims
        )
        out_a = simulate(first, probe).amplitudes
        out_b = simulate(second, probe).amplitudes
        if up_to_global_phase:
            overlap = np.vdot(out_a, out_b)
            if abs(abs(overlap) - 1.0) > tolerance:
                return False
        elif not np.allclose(out_a, out_b, atol=tolerance, rtol=0.0):
            return False
    return True
