"""Per-row QDASM writer and gate-list parser: the oracles of the
columnar codec in :mod:`repro.circuit.qasm`.

* :func:`oracle_dumps` writes a table circuit one f-string per row,
  with one control field per block, and a gate list one
  :func:`repro.circuit.qasm._gate_line` per gate.  ``qasm.dumps``
  writes the same bytes from the table's columns.
* :func:`oracle_loads` parses QDASM one :class:`Gate` per line into a
  gate-list circuit, appending (and so validating) each gate.
  ``qasm.loads`` fills table columns instead; it must return a circuit
  ``==`` to this one, and refuse with a
  :class:`~repro.exceptions.SerializationError` exactly the texts this
  parser refuses.

The tests (``tests/test_qasm.py``, ``tests/test_circuit_table.py``)
compare the codec with these, and ``benchmarks/bench_hotpaths.py``
measures against them.
"""

from __future__ import annotations

import math

from repro.circuit.circuit import Circuit
from repro.circuit.controls import Control
from repro.circuit.gates import (
    ClockGate,
    FourierGate,
    GivensRotation,
    PermutationGate,
    PhaseRotation,
    ShiftGate,
)
from repro.circuit.qasm import _HEADER, _gate_line
from repro.circuit.table import GIVENS, CircuitTable
from repro.exceptions import SerializationError

__all__ = ["oracle_dumps", "oracle_loads", "table_lines"]


def table_lines(table: CircuitTable) -> list[str]:
    """QDASM lines of a table's rows: one control field per block."""
    kind = table.kind.tolist()
    target = table.target.tolist()
    lower = table.lower.tolist()
    upper = table.upper.tolist()
    theta = table.theta.tolist()
    phi = table.phi.tolist()
    offsets = table.offsets.tolist()
    lines = []
    for block, row in enumerate(table.controls.tolist()):
        pairs = ",".join(
            f"{qudit}:{level}" for qudit, level in enumerate(row)
            if level >= 0
        )
        controls = f" ctrl={pairs}" if pairs else ""
        for r in range(offsets[block], offsets[block + 1]):
            if kind[r] == GIVENS:
                lines.append(
                    f"givens t={target[r]} i={lower[r]} j={upper[r]} "
                    f"theta={theta[r]!r} phi={phi[r]!r}{controls}"
                )
            else:
                lines.append(
                    f"phase t={target[r]} i={lower[r]} j={upper[r]} "
                    f"delta={theta[r]!r}{controls}"
                )
    return lines


def oracle_dumps(circuit: Circuit) -> str:
    """QDASM text of ``circuit``, written line by line."""
    lines = [_HEADER, "dims " + " ".join(str(d) for d in circuit.dims)]
    table = circuit.table
    if table is not None:
        lines.extend(table_lines(table))
    else:
        lines.extend(_gate_line(gate) for gate in circuit.gates)
    if circuit.global_phase:
        lines.append(f"globalphase {circuit.global_phase!r}")
    return "\n".join(lines) + "\n"


def _parse_angle(text: str, name: str, line_no: int) -> float:
    """A finite float, or a :class:`SerializationError`."""
    try:
        value = float(text)
    except ValueError as error:
        raise SerializationError(
            f"line {line_no}: malformed {name} {text!r}"
        ) from error
    if not math.isfinite(value):
        raise SerializationError(
            f"line {line_no}: {name} must be finite, got {text!r}"
        )
    return value


def _parse_fields(tokens: list[str], line_no: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise SerializationError(
                f"line {line_no}: malformed field {token!r}"
            )
        key, value = token.split("=", 1)
        fields[key] = value
    return fields


def _parse_controls(field: str | None, line_no: int) -> list[Control]:
    if not field:
        return []
    controls = []
    for pair in field.split(","):
        try:
            qudit_text, level_text = pair.split(":")
            controls.append(Control(int(qudit_text), int(level_text)))
        except (ValueError, TypeError) as error:
            raise SerializationError(
                f"line {line_no}: malformed control {pair!r}"
            ) from error
    return controls


def oracle_loads(text: str) -> Circuit:
    """Parse QDASM text into a gate-list circuit, one gate per line.

    Raises:
        SerializationError: On any malformed input.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines or lines[0] != _HEADER:
        raise SerializationError(f"missing header {_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("dims "):
        raise SerializationError("missing 'dims' declaration")
    try:
        circuit = Circuit(
            tuple(int(token) for token in lines[1].split()[1:])
        )
    except ValueError as error:
        raise SerializationError(
            f"malformed 'dims' declaration ({error})"
        ) from error

    for offset, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        mnemonic = tokens[0]
        if mnemonic == "globalphase":
            if len(tokens) != 2:
                raise SerializationError(
                    f"line {offset}: malformed globalphase"
                )
            circuit.add_global_phase(
                _parse_angle(tokens[1], "globalphase", offset)
            )
            continue
        fields = _parse_fields(tokens[1:], offset)
        controls = _parse_controls(fields.pop("ctrl", None), offset)
        try:
            if mnemonic == "givens":
                circuit.append(
                    GivensRotation(
                        int(fields["t"]), int(fields["i"]),
                        int(fields["j"]),
                        _parse_angle(fields["theta"], "theta", offset),
                        _parse_angle(fields["phi"], "phi", offset),
                        controls,
                    )
                )
            elif mnemonic == "phase":
                circuit.append(
                    PhaseRotation(
                        int(fields["t"]), int(fields["i"]),
                        int(fields["j"]),
                        _parse_angle(fields["delta"], "delta", offset),
                        controls,
                    )
                )
            elif mnemonic == "shift":
                circuit.append(
                    ShiftGate(int(fields["t"]),
                              int(fields.get("amount", 1)), controls)
                )
            elif mnemonic == "clock":
                circuit.append(
                    ClockGate(int(fields["t"]),
                              int(fields.get("amount", 1)), controls)
                )
            elif mnemonic == "fourier":
                circuit.append(
                    FourierGate(int(fields["t"]), controls=controls)
                )
            elif mnemonic == "perm":
                permutation = [
                    int(p) for p in fields["map"].split(",")
                ]
                circuit.append(
                    PermutationGate(int(fields["t"]), permutation,
                                    controls)
                )
            else:
                raise SerializationError(
                    f"line {offset}: unknown gate {mnemonic!r}"
                )
        except KeyError as error:
            raise SerializationError(
                f"line {offset}: missing field {error}"
            ) from error
        except SerializationError:
            raise
        except ValueError as error:
            raise SerializationError(
                f"line {offset}: malformed number ({error})"
            ) from error
    return circuit
