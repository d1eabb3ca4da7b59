"""Quantum circuit intermediate representation for mixed-dim qudits."""

from repro.circuit.circuit import Circuit
from repro.circuit.controls import Control
from repro.circuit.gate import Gate
from repro.circuit.gates import (
    ClockGate,
    FourierGate,
    GivensRotation,
    PermutationGate,
    PhaseRotation,
    ShiftGate,
    UnitaryGate,
)
from repro.circuit.stats import CircuitStatistics, statistics
from repro.circuit.table import CircuitTable

__all__ = [
    "Circuit",
    "CircuitStatistics",
    "CircuitTable",
    "ClockGate",
    "Control",
    "FourierGate",
    "Gate",
    "GivensRotation",
    "PermutationGate",
    "PhaseRotation",
    "ShiftGate",
    "UnitaryGate",
    "statistics",
]
