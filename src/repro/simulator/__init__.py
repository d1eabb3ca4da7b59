"""Simulators for mixed-dimensional qudit circuits.

Two independent execution paths are provided:

* :mod:`repro.simulator.statevector_sim` — dense numpy simulation,
  the reference implementation used for verification (one in-place
  kernel applies the circuit block by block, in emitted order, and a
  table's small disjoint same-target blocks in batches), and
* :mod:`repro.simulator.dd_sim` — simulation directly on decision
  diagrams (in the spirit of [Mato/Hillmich/Wille, QCE 2023], the
  paper's reference [12]), exercising the DD arithmetic layer.

Having both lets the test suite cross-validate every gate type.
"""

from repro.simulator.dd_sim import apply_gate_dd, simulate_dd
from repro.simulator.statevector_sim import (
    apply_gate,
    apply_gate_inplace,
    simulate,
    simulate_inplace,
)
from repro.simulator.unitary_builder import circuit_unitary, gate_unitary

__all__ = [
    "apply_gate",
    "apply_gate_dd",
    "apply_gate_inplace",
    "circuit_unitary",
    "gate_unitary",
    "simulate",
    "simulate_dd",
    "simulate_inplace",
]
