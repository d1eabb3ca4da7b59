"""The :class:`Circuit` container.

A circuit is an ordered list of gates over a fixed mixed-dimensional
register, plus a tracked global phase.  Gates are validated on append,
so a constructed circuit is always executable by the simulator.

A synthesised circuit is stored instead as one validated
:class:`~repro.circuit.table.CircuitTable` (see
:meth:`Circuit.from_table`): counts, statistics, the inverse, pickling,
simulation and QDASM read its columns, and :class:`Gate` objects are
built only when a caller asks for them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from repro.circuit.gate import Gate
from repro.circuit.table import KIND_NAMES, CircuitTable
from repro.exceptions import CircuitError
from repro.registers import QuditRegister
from repro.registers.register import RegisterLike, as_register

__all__ = ["Circuit"]


class Circuit:
    """An ordered gate list over a mixed-dimensional qudit register.

    Example:
        >>> from repro.circuit import Circuit, GivensRotation
        >>> qc = Circuit((3, 2))
        >>> qc.append(GivensRotation(0, 0, 1, 1.2, 0.0))
        >>> qc.num_operations
        1
    """

    def __init__(self, register: RegisterLike):
        self._register = as_register(register)
        # Exactly one authoritative store: the gate list, or (for a
        # circuit made by from_table) the table, with ``_gates`` None.
        self._gates: list[Gate] | None = []
        self._table: CircuitTable | None = None
        # Gates built from the table on demand; never pickled.
        self._views: list[Gate] | None = None
        # QDASM JSON literal kept by ``qasm.literal_once`` (or the text
        # ``qasm.loads(keep_text=True)`` read); dropped by every change
        # and never pickled.
        self._literal = None
        self._global_phase = 0.0
        # Number of leading gates known valid for this register;
        # append keeps it current, so ensure_validated() is O(1) for
        # circuits built through the public API.
        self._validated_operations = 0

    @classmethod
    def from_table(cls, table: CircuitTable) -> "Circuit":
        """A circuit stored as ``table`` (validated when it was built).

        The circuit keeps only the table until the first
        :meth:`append` or :meth:`extend`, which turns it into a gate
        list.
        """
        circuit = cls(table.dims)
        circuit._gates = None
        circuit._table = table
        return circuit

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def register(self) -> QuditRegister:
        """The register the circuit acts on."""
        return self._register

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-qudit dimensions."""
        return self._register.dims

    @property
    def num_qudits(self) -> int:
        """Number of qudits."""
        return self._register.num_qudits

    @property
    def table(self) -> CircuitTable | None:
        """The columnar store, or ``None`` for a gate-list circuit."""
        return self._table

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in application order."""
        return tuple(self._gate_list())

    @property
    def num_operations(self) -> int:
        """Number of gates in the circuit."""
        table = self._table
        return table.num_rows if table is not None else len(self._gates)

    @property
    def global_phase(self) -> float:
        """Global phase (radians) accumulated by the circuit."""
        return self._global_phase

    @global_phase.setter
    def global_phase(self, value: float) -> None:
        self._global_phase = math.remainder(float(value), 2.0 * math.pi)
        self._literal = None

    def _gate_list(self) -> list[Gate]:
        table = self._table
        if table is None:
            return self._gates
        views = self._views
        if views is None:
            # Idempotent: threads sharing the circuit may both build
            # the (equal) list; whichever assignment lands is kept.
            views = table.gates()
            self._views = views
        return views

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> None:
        """Validate and append a gate.

        Raises:
            CircuitError: If the gate does not fit the register.
        """
        gate.validate(self.dims)
        self._literal = None
        if self._table is not None:
            self._gates = list(self._gate_list())
            self._validated_operations = len(self._gates)
            self._table = None
            self._views = None
        self._gates.append(gate)
        if self._validated_operations == len(self._gates) - 1:
            self._validated_operations = len(self._gates)

    def ensure_validated(self) -> None:
        """Guarantee every gate has been validated for this register.

        :meth:`append` validates each gate on entry, and a table is
        validated when it is built, so this is a counter comparison
        for circuits built through the public API; simulation kernels
        call it once per circuit instead of paying ``gate.validate``
        per gate per run.  Gates that joined the list without passing
        through ``append`` are validated here in one pass (the
        container's only mutators are ``append`` and ``extend``, so
        this is a defensive path).

        Raises:
            CircuitError: If an unvalidated gate does not fit.
        """
        if self._table is not None:
            return
        if self._validated_operations == len(self._gates):
            return
        dims = self.dims
        start = min(self._validated_operations, len(self._gates))
        for gate in self._gates[start:]:
            gate.validate(dims)
        self._validated_operations = len(self._gates)

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append multiple gates in order."""
        for gate in gates:
            self.append(gate)

    def add_global_phase(self, phase: float) -> None:
        """Accumulate a global phase (radians)."""
        self.global_phase = self._global_phase + phase

    # ------------------------------------------------------------------
    # Derived circuits
    # ------------------------------------------------------------------
    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (reversed inverted gates)."""
        if self._table is not None:
            result = Circuit.from_table(self._table.inverse())
        else:
            result = Circuit(self._register)
            for gate in reversed(self._gates):
                result.append(gate.inverse())
        result.global_phase = -self._global_phase
        return result

    def compose(self, other: "Circuit") -> "Circuit":
        """Return ``self`` followed by ``other``.

        Raises:
            CircuitError: If the registers differ.
        """
        if other.register != self._register:
            raise CircuitError(
                f"cannot compose circuits over {self.dims} and {other.dims}"
            )
        result = Circuit(self._register)
        result.extend(self._gate_list())
        result.extend(other._gate_list())
        result.global_phase = self._global_phase + other._global_phase
        return result

    def copy(self) -> "Circuit":
        """Return a shallow copy (gates and tables are immutable)."""
        if self._table is not None:
            result = Circuit.from_table(self._table)
        else:
            result = Circuit(self._register)
            result.extend(self._gates)
        result.global_phase = self._global_phase
        return result

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def count_by_name(self) -> dict[str, int]:
        """Histogram of gate counts keyed by gate name."""
        table = self._table
        if table is not None:
            counts = np.bincount(table.kind, minlength=len(KIND_NAMES))
            return {
                name: int(count)
                for name, count in zip(KIND_NAMES, counts)
                if count
            }
        histogram: dict[str, int] = {}
        for gate in self._gates:
            histogram[gate.name] = histogram.get(gate.name, 0) + 1
        return histogram

    def control_counts(self) -> np.ndarray:
        """Number of controls of each gate, in circuit order."""
        table = self._table
        if table is not None:
            return table.control_counts()
        return np.fromiter(
            (gate.num_controls for gate in self._gates),
            dtype=np.int64,
            count=len(self._gates),
        )

    def depth(self) -> int:
        """Greedy circuit depth (gates on disjoint qudits parallelise)."""
        busy_until: dict[int, int] = {}
        depth = 0
        for gate in self._gate_list():
            start = max(
                (busy_until.get(q, 0) for q in gate.qudits), default=0
            )
            finish = start + 1
            for qudit in gate.qudits:
                busy_until[qudit] = finish
            depth = max(depth, finish)
        return depth

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gate_list())

    def __len__(self) -> int:
        return self.num_operations

    def __getitem__(self, index: int) -> Gate:
        return self._gate_list()[index]

    def __getstate__(self) -> dict:
        # A table circuit pickles as its columns, never as gates.
        state = self.__dict__.copy()
        state["_views"] = None
        state["_literal"] = None
        return state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Circuit):
            if self._register != other._register or not math.isclose(
                self._global_phase, other._global_phase, abs_tol=1e-12
            ):
                return False
            if self._table is not None and other._table is not None:
                return self._table.same_operations(other._table)
            return self._gate_list() == other._gate_list()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"Circuit(dims={list(self.dims)}, "
            f"operations={self.num_operations})"
        )

    def __str__(self) -> str:
        lines = [f"Circuit on dims {list(self.dims)}:"]
        for position, gate in enumerate(self._gate_list()):
            lines.append(f"  {position:4d}: {gate!r}")
        if self._global_phase:
            lines.append(f"  global phase: {self._global_phase:.6g}")
        return "\n".join(lines)
