"""Textual serialisation of circuits ("QDASM").

A minimal line-oriented format for mixed-dimensional qudit circuits,
sufficient for storing synthesis results and for round-tripping in
tests.  Example document::

    QDASM 1.0
    dims 3 6 2
    givens t=1 i=0 j=1 theta=1.5707963 phi=0 ctrl=0:1
    phase t=2 i=0 j=1 delta=0.5 ctrl=0:1,1:3
    shift t=0 amount=2
    globalphase 0.25

Controls are ``qudit:level`` pairs separated by commas.  Angles are
plain floats (radians); parsing uses ``repr`` round-trippable output.
A circuit stored as a :class:`~repro.circuit.table.CircuitTable` is
written straight from its columns, with the same text a gate list of
the same operations gives.  :func:`literal_once` keeps a circuit's
text on the circuit as a :class:`QdasmLiteral`, its JSON string
literal, for circuits that are written into many JSON documents.
"""

from __future__ import annotations

import json
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
from repro.circuit.table import GIVENS, CircuitTable
from repro.exceptions import SerializationError

__all__ = ["QdasmLiteral", "dumps", "literal_once", "loads"]

_HEADER = "QDASM 1.0"


def _controls_field(gate) -> str:
    if not gate.controls:
        return ""
    pairs = ",".join(f"{c.qudit}:{c.level}" for c in gate.controls)
    return f" ctrl={pairs}"


def _table_lines(table: CircuitTable) -> list[str]:
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


def _gate_line(gate) -> str:
    if isinstance(gate, GivensRotation):
        return (
            f"givens t={gate.target} i={gate.level_i} j={gate.level_j} "
            f"theta={gate.theta!r} phi={gate.phi!r}"
            + _controls_field(gate)
        )
    if isinstance(gate, PhaseRotation):
        return (
            f"phase t={gate.target} i={gate.level_i} j={gate.level_j} "
            f"delta={gate.delta!r}" + _controls_field(gate)
        )
    if isinstance(gate, ShiftGate):
        return (
            f"shift t={gate.target} amount={gate.amount}"
            + _controls_field(gate)
        )
    if isinstance(gate, ClockGate):
        return (
            f"clock t={gate.target} amount={gate.amount}"
            + _controls_field(gate)
        )
    if isinstance(gate, FourierGate):
        return f"fourier t={gate.target}" + _controls_field(gate)
    if isinstance(gate, PermutationGate):
        perm = ",".join(str(p) for p in gate.permutation)
        return f"perm t={gate.target} map={perm}" + _controls_field(gate)
    raise SerializationError(f"gate {gate.name!r} has no QDASM form")


def dumps(circuit: Circuit) -> str:
    """Serialise a circuit to QDASM text.

    Raises:
        SerializationError: If the circuit contains a gate type
            without a textual form (e.g. :class:`UnitaryGate`).
    """
    lines = [_HEADER, "dims " + " ".join(str(d) for d in circuit.dims)]
    table = circuit.table
    if table is not None:
        lines.extend(_table_lines(table))
    else:
        lines.extend(_gate_line(gate) for gate in circuit.gates)
    if circuit.global_phase:
        lines.append(f"globalphase {circuit.global_phase!r}")
    return "\n".join(lines) + "\n"


class QdasmLiteral:
    """QDASM text held as its JSON string literal.

    ``json`` is ``json.dumps(text).encode()``: the quoted, escaped,
    UTF-8 form a JSON document splices in as is
    (:func:`repro.net.protocol.encode_envelope` does).  ``str()``
    decodes it back to the text.
    """

    __slots__ = ("json",)

    def __init__(self, text: str):
        self.json = json.dumps(text).encode()

    def __str__(self) -> str:
        return json.loads(self.json)


def literal_once(circuit: Circuit) -> QdasmLiteral:
    """:func:`dumps` as a :class:`QdasmLiteral`, made on the first call
    and kept on ``circuit``.

    Later calls return that same object until the circuit changes.
    It lives as long as the circuit does: for a cached circuit, as
    long as its cache entry.

    Raises:
        SerializationError: As :func:`dumps`.
    """
    literal = circuit._literal
    if literal is None:
        literal = circuit._literal = QdasmLiteral(dumps(circuit))
    return literal


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


def loads(text: str) -> Circuit:
    """Parse QDASM text back into a circuit.

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
        # int() failures and DimensionError (a ValueError) alike.
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
