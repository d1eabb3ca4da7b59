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
written from its columns, with the same text a gate list of the same
operations gives: one ``repr`` per angle and per distinct ``phi``, one
row head per distinct (kind, target, levels) and one control field per
block, joined once.  :func:`loads` reads rows back into table columns,
so a text whose operations are all ``givens`` and ``phase`` rows
becomes a table circuit; any other gate makes it a gate list.

A circuit's text also travels inside JSON documents, as a
:class:`QdasmLiteral`: its JSON string literal.  :func:`literal`
writes that literal directly, with the same pieces as :func:`dumps`
joined by ``\\n`` line ends between quotes, so the text is never
escaped; :func:`literal_once` keeps it on the circuit, for circuits
that are written into many documents.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate
from repro.circuit.gates import (
    ClockGate,
    FourierGate,
    GivensRotation,
    PermutationGate,
    PhaseRotation,
    ShiftGate,
)
from repro.circuit.table import GIVENS, PHASE, CircuitTable
from repro.exceptions import CircuitError, SerializationError

__all__ = [
    "QdasmLiteral", "dumps", "keeps_literal", "literal", "literal_once",
    "loads",
]

_HEADER = "QDASM 1.0"


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _controls_field(gate) -> str:
    if not gate.controls:
        return ""
    pairs = ",".join(f"{c.qudit}:{c.level}" for c in gate.controls)
    return f" ctrl={pairs}"


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


def _objects(strings: list[str]) -> np.ndarray:
    """A 1-D object array of ``strings``, for lookups by index array."""
    array = np.empty(len(strings), dtype=object)
    array[:] = strings
    return array


def _row_heads(table: CircuitTable) -> np.ndarray:
    """Each row's ``givens t=… i=… j=… theta=`` or ``phase t=… i=…
    j=… delta=``, made once per distinct (kind, target, levels)."""
    width = len(table.dims)
    span = max(table.dims)
    code = (
        (table.kind.astype(np.int64) * width + table.target) * span
        + table.lower
    ) * span + table.upper
    codes, head_of_row = np.unique(code, return_inverse=True)
    heads = []
    for value in codes.tolist():
        value, upper = divmod(value, span)
        value, lower = divmod(value, span)
        kind, target = divmod(value, width)
        if kind == GIVENS:
            heads.append(f"givens t={target} i={lower} j={upper} theta=")
        else:
            heads.append(f"phase t={target} i={lower} j={upper} delta=")
    return _objects(heads)[head_of_row]


def _phi_fields(table: CircuitTable) -> np.ndarray:
    """Each row's `` phi=…`` (empty for a phase row), with one ``repr``
    per distinct bit pattern, so that ``-0.0`` keeps its sign."""
    patterns, phi_of_row = np.unique(
        table.phi.view(np.int64), return_inverse=True
    )
    fields = [
        " phi=" + repr(value)
        for value in patterns.view(np.float64).tolist()
    ]
    fields.append("")
    phi_of_row[table.kind != GIVENS] = len(patterns)
    return _objects(fields)[phi_of_row]


def _control_fields(table: CircuitTable, end: str) -> np.ndarray:
    """Each block's `` ctrl=q:l,…`` field and line ``end``, built column
    by column from per-qudit lookups."""
    fields = np.full(table.num_blocks, "", dtype=object)
    for qudit, column in enumerate(table.controls.T):
        top = int(column.max(initial=-1))
        if top < 0:
            continue
        lookup = _objects(
            [""] + [f",{qudit}:{level}" for level in range(top + 1)]
        )
        fields += lookup[column.astype(np.intp) + 1]
    return _objects([
        " ctrl=" + field[1:] + end if field else end
        for field in fields.tolist()
    ])


def _table_pieces(table: CircuitTable, end: str) -> list[str]:
    """The table's QDASM lines as head, angle, ``phi`` and control
    pieces (each line closed by ``end``), interleaved in row order for
    one join."""
    rows = table.num_rows
    pieces: list[str] = [""] * (4 * rows)
    if rows:
        pieces[0::4] = _row_heads(table).tolist()
        pieces[1::4] = map(repr, table.theta.tolist())
        pieces[2::4] = _phi_fields(table).tolist()
        pieces[3::4] = np.repeat(
            _control_fields(table, end), table.block_lengths()
        ).tolist()
    return pieces


def _write(circuit: Circuit, end: str, quote: str = "") -> str:
    """The QDASM lines of ``circuit``, each closed by ``end``, with
    ``quote`` before and after them."""
    pieces = [
        quote + _HEADER + end + "dims "
        + " ".join(str(d) for d in circuit.dims) + end
    ]
    table = circuit.table
    if table is not None:
        pieces += _table_pieces(table, end)
    else:
        pieces += [_gate_line(gate) + end for gate in circuit.gates]
    if circuit.global_phase:
        pieces.append(f"globalphase {circuit.global_phase!r}{end}")
    pieces.append(quote)
    return "".join(pieces)


def dumps(circuit: Circuit) -> str:
    """Serialise a circuit to QDASM text.

    Raises:
        SerializationError: If the circuit contains a gate type
            without a textual form (e.g. :class:`UnitaryGate`).
    """
    return _write(circuit, "\n")


class QdasmLiteral:
    """QDASM text held as its JSON string literal.

    ``json`` is ``json.dumps(text).encode()``: the quoted, escaped,
    UTF-8 form a JSON document splices in as is
    (:func:`repro.net.protocol.encode_envelope` does).  ``str()``
    gives the text.  Made from the text (``QdasmLiteral(text)``), a
    literal escapes it on the first read of ``json``; :func:`literal`
    makes one from the bytes the writer writes (``encoded=``).
    """

    __slots__ = ("_text", "_json")

    def __init__(
        self, text: str | None = None, *, encoded: bytes | None = None
    ):
        self._text = text
        self._json = encoded

    @property
    def json(self) -> bytes:
        encoded = self._json
        if encoded is None:
            encoded = self._json = json.dumps(self._text).encode()
        return encoded

    def __str__(self) -> str:
        if self._text is not None:
            return self._text
        return json.loads(self._json)


def literal(circuit: Circuit) -> QdasmLiteral:
    """The :class:`QdasmLiteral` kept on ``circuit``, or else one
    written for this call and not kept.

    The writer joins :func:`dumps`' pieces with ``\\n`` line ends
    between quotes.  QDASM holds no other character that JSON escapes
    (no quote, backslash, control or non-ASCII character), so the
    bytes are ``json.dumps(dumps(circuit)).encode()``.

    Raises:
        SerializationError: As :func:`dumps`.
    """
    kept = circuit._literal
    if kept is not None:
        return kept
    return QdasmLiteral(encoded=_write(circuit, "\\n", '"').encode())


def keeps_literal(circuit: Circuit) -> bool:
    """Whether ``circuit`` keeps a literal, so that :func:`literal`
    returns it and writes nothing."""
    return circuit._literal is not None


def literal_once(circuit: Circuit) -> QdasmLiteral:
    """:func:`literal`, kept on ``circuit`` by the first call.

    Later calls return that same object until the circuit changes.
    It lives as long as the circuit does: for a cached circuit, as
    long as its cache entry.

    Raises:
        SerializationError: As :func:`dumps`.
    """
    kept = circuit._literal
    if kept is None:
        kept = circuit._literal = literal(circuit)
    return kept


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
#: A rotation line as :func:`dumps` writes it, as (head, angle, phi,
#: control field) groups; a phase row's ``phi`` group is empty.  Any
#: other spelling is read field by field (:func:`_read_line`).
_GIVENS_ROW = re.compile(
    r"(givens t=[0-9]+ i=[0-9]+ j=[0-9]+) theta=(\S+) phi=(\S+)"
    r"(?: ctrl=(\S+))?"
)
_PHASE_ROW = re.compile(
    r"(phase t=[0-9]+ i=[0-9]+ j=[0-9]+) delta=(\S+)()(?: ctrl=(\S+))?"
)

#: The largest dimension, row level and control level a table's
#: ``int64``, ``int32`` and ``int16`` columns hold.
_DIM_MAX = int(np.iinfo(np.int64).max)
_LEVEL_MAX = int(np.iinfo(np.int32).max)
_CONTROL_LEVEL_MAX = int(np.iinfo(np.int16).max)


def _at_line(line_no: int, error: SerializationError) -> SerializationError:
    return SerializationError(f"line {line_no}: {error}")


def _parse_angle(text: str, name: str) -> float:
    """A finite float, or a :class:`SerializationError`."""
    try:
        value = float(text)
    except ValueError as error:
        raise SerializationError(f"malformed {name} {text!r}") from error
    if not math.isfinite(value):
        raise SerializationError(f"{name} must be finite, got {text!r}")
    return value


def _control_row(
    field: str, dims: tuple[int, ...], row: list[int]
) -> list[int]:
    """``row`` (a level per qudit, ``-1`` for none) with the pairs of
    ``field`` added, as a new list.  Refused as a gate's controls are
    refused: a pair that is not two integers, a negative or
    out-of-range qudit or level, or two levels on one qudit."""
    row = list(row)
    for pair in field.split(","):
        try:
            qudit_text, level_text = pair.split(":")
            qudit, level = int(qudit_text), int(level_text)
        except ValueError as error:
            raise SerializationError(
                f"malformed control {pair!r}"
            ) from error
        if qudit < 0 or level < 0:
            raise SerializationError(f"malformed control {pair!r}")
        if qudit >= len(dims) or level >= dims[qudit]:
            raise SerializationError(
                f"control {pair} out of range for dims {list(dims)}"
            )
        if row[qudit] not in (-1, level):
            raise SerializationError(
                f"conflicting controls on qudit {qudit}: levels "
                f"{row[qudit]} and {level}"
            )
        row[qudit] = level
    return row


def _parse_head(
    head: str, dims: tuple[int, ...]
) -> tuple[int, int, int, int]:
    """``(kind, target, lower, upper)`` of a ``"<kind> t=… i=… j=…"``
    head, with the target and both levels in range."""
    mnemonic, *fields = head.split(" ")
    try:
        target, lower, upper = (int(field[2:]) for field in fields)
    except ValueError as error:
        raise SerializationError(f"malformed number ({error})") from error
    if not 0 <= target < len(dims):
        raise SerializationError(
            f"target {target} out of range for {len(dims)} qudits"
        )
    if not (0 <= lower < dims[target] and 0 <= upper < dims[target]):
        raise SerializationError(
            f"levels ({lower}, {upper}) out of range for dimension "
            f"{dims[target]}"
        )
    if max(lower, upper) > _LEVEL_MAX:
        raise SerializationError(
            f"level {max(lower, upper)} beyond {_LEVEL_MAX}, the largest "
            "a table row holds"
        )
    return (GIVENS if mnemonic == "givens" else PHASE), target, lower, upper


def _read_gate(
    mnemonic: str, fields: dict[str, str], controls: list[tuple[int, int]]
) -> Gate:
    """A shift, clock, Fourier or permutation gate from its fields."""
    if mnemonic == "shift":
        return ShiftGate(
            int(fields["t"]), int(fields.get("amount", 1)), controls
        )
    if mnemonic == "clock":
        return ClockGate(
            int(fields["t"]), int(fields.get("amount", 1)), controls
        )
    if mnemonic == "fourier":
        return FourierGate(int(fields["t"]), controls=controls)
    if mnemonic == "perm":
        permutation = [int(p) for p in fields["map"].split(",")]
        return PermutationGate(int(fields["t"]), permutation, controls)
    raise SerializationError(f"unknown gate {mnemonic!r}")


def _read_line(
    line: str, dims: tuple[int, ...]
) -> tuple[str, tuple | float | Gate]:
    """A line the row patterns do not match, field by field.

    Returns ``("row", (head, angle, phi, ctrl))`` for a rotation, in the
    form of the row patterns' groups, ``("phase", value)`` for a
    ``globalphase`` line, or ``("gate", gate)`` for any other gate,
    validated for ``dims``.
    """
    tokens = line.split()
    mnemonic = tokens[0]
    if mnemonic == "globalphase":
        if len(tokens) != 2:
            raise SerializationError("malformed globalphase")
        return "phase", _parse_angle(tokens[1], "globalphase")
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise SerializationError(f"malformed field {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    control_field = fields.pop("ctrl", None) or None
    try:
        if mnemonic in ("givens", "phase"):
            target, lower, upper = (
                int(fields["t"]), int(fields["i"]), int(fields["j"])
            )
            head = f"{mnemonic} t={target} i={lower} j={upper}"
            if mnemonic == "phase":
                return "row", (head, fields["delta"], "", control_field)
            if not fields["phi"]:
                raise SerializationError("malformed phi ''")
            return "row", (
                head, fields["theta"], fields["phi"], control_field
            )
        controls = []
        if control_field:
            row = _control_row(control_field, dims, [-1] * len(dims))
            controls = [
                (qudit, level) for qudit, level in enumerate(row)
                if level >= 0
            ]
        gate = _read_gate(mnemonic, fields, controls)
        gate.validate(dims)
        return "gate", gate
    except KeyError as error:
        raise SerializationError(f"missing field {error}") from error
    except SerializationError:
        raise
    except ValueError as error:
        # int() failures and CircuitError (a ValueError) alike.
        raise SerializationError(f"malformed number ({error})") from error


def _by_distinct(
    values: tuple, parse, row_lines: list[int], order=None
) -> tuple[list, np.ndarray]:
    """``parse`` of each distinct value, once (sorted by ``order`` if
    given), and each row's index into those results; a refusal names
    the value's first line."""
    ids = {value: k for k, value in enumerate(dict.fromkeys(values))}
    parsed = {}
    for value in sorted(ids, key=order) if order else ids:
        try:
            parsed[value] = parse(value)
        except SerializationError as error:
            raise _at_line(row_lines[values.index(value)], error) from error
    return [parsed[value] for value in ids], np.fromiter(
        map(ids.__getitem__, values), np.int64, len(values)
    )


def _control_rows(
    fields: tuple, dims: tuple[int, ...], row_lines: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The control row of each distinct ``ctrl`` field (``None`` for
    none), and each row's index into them.

    Shorter fields are read first, and a field whose text before its
    last comma is also a field extends that field's row by one pair:
    a synthesised block is controlled as its parent block plus one
    qudit.  Nearly every distinct field of synthesised text has such
    a prefix; on dense-12, whose fields run to eleven pairs, parsing
    each field whole took 204 ms against 119 ms (docs/performance.md).
    """
    rows: dict[str | None, list[int]] = {None: [-1] * len(dims)}

    def read(field: str | None) -> list[int]:
        if field not in rows:
            head, comma, pair = field.rpartition(",")
            if comma and head in rows:
                row = _control_row(pair, dims, rows[head])
            else:
                row = _control_row(field, dims, rows[None])
            if max(row) > _CONTROL_LEVEL_MAX:
                raise SerializationError(
                    f"control level {max(row)} beyond "
                    f"{_CONTROL_LEVEL_MAX}, the largest a table holds"
                )
            rows[field] = row
        return rows[field]

    parsed, field_of_row = _by_distinct(
        fields, read, row_lines, order=lambda field: len(field or "")
    )
    return np.array(parsed, np.int16).reshape(-1, len(dims)), field_of_row


def _read_table(
    dims: tuple[int, ...], rows: list[tuple], row_lines: list[int]
) -> CircuitTable:
    """The table of ``rows`` (head, angle, phi, control-field groups);
    ``row_lines`` gives each row's line number for errors."""
    if not rows:
        return CircuitTable(
            dims, (), (), (), (), (), (), (0,),
            np.empty((0, len(dims)), np.int16),
        )
    heads, angles, phis, fields = zip(*rows)
    parsed, head_of_row = _by_distinct(
        heads, lambda head: _parse_head(head, dims), row_lines
    )
    kind, target, lower, upper = np.array(parsed, np.int32)[head_of_row].T
    try:
        theta = np.fromiter(map(float, angles), np.float64, len(angles))
    except ValueError:
        theta = None
    if theta is None or not np.isfinite(theta).all():
        # Find the line to blame.
        for angle, line_no in zip(angles, row_lines):
            try:
                _parse_angle(angle, "angle")
            except SerializationError as error:
                raise _at_line(line_no, error) from error
    parsed, phi_of_row = _by_distinct(
        phis,
        lambda text: _parse_angle(text, "phi") if text else 0.0,
        row_lines,
    )
    phi = np.array(parsed)[phi_of_row]
    # Blocks are the runs of rows with equal control fields.
    controls, field_of_row = _control_rows(fields, dims, row_lines)
    starts = np.flatnonzero(field_of_row[1:] != field_of_row[:-1]) + 1
    offsets = np.concatenate(([0], starts, [len(rows)]))
    try:
        return CircuitTable(
            dims, kind, target, lower, upper, theta, phi, offsets,
            controls[field_of_row[offsets[:-1]]],
        )
    except CircuitError as error:
        # ControlError (a CircuitError) included.
        raise SerializationError(f"invalid rotation ({error})") from error


def loads(text: str, *, keep_text: bool = False) -> Circuit:
    """Parse QDASM text back into a circuit.

    A text whose operations are all ``givens`` and ``phase`` rows
    gives a circuit backed by a :class:`CircuitTable`, whose blocks
    are the runs of rows with equal control fields; any other gate
    gives a gate list.  ``globalphase`` lines add up in order.  With
    ``keep_text`` the circuit keeps ``text`` as its
    :class:`QdasmLiteral` (escaped on first use), so a circuit that
    is passed on is written as the text it came in.

    Raises:
        SerializationError: On any malformed input, and on a value a
            table's integer columns cannot hold: a dimension above
            ``2**63 - 1``, a row level above ``2**31 - 1`` or a control
            level of a row above ``2**15 - 1``.
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
    dims = circuit.dims
    if max(dims) > _DIM_MAX:
        raise SerializationError(
            f"dimension {max(dims)} beyond {_DIM_MAX}, the largest a "
            "table holds"
        )

    rows: list[tuple] = []
    row_lines: list[int] = []
    gates: list[tuple[int, Gate]] = []
    phases: list[float] = []
    givens_row = _GIVENS_ROW.fullmatch
    phase_row = _PHASE_ROW.fullmatch
    for line_no, line in enumerate(lines[2:], start=3):
        match = givens_row(line) or phase_row(line)
        if match is not None:
            rows.append(match.groups())
            row_lines.append(line_no)
            continue
        try:
            what, value = _read_line(line, dims)
        except SerializationError as error:
            raise _at_line(line_no, error) from error
        if what == "row":
            rows.append(value)
            row_lines.append(line_no)
        elif what == "phase":
            phases.append(value)
        else:
            gates.append((len(rows), value))

    table = _read_table(dims, rows, row_lines)
    if gates:
        row_gates = table.gates()
        start = 0
        for position, gate in gates:
            circuit.extend(row_gates[start:position])
            circuit.append(gate)
            start = position
        circuit.extend(row_gates[start:])
    else:
        circuit = Circuit.from_table(table)
    for phase in phases:
        circuit.add_global_phase(phase)
    if keep_text:
        circuit._literal = QdasmLiteral(text)
    return circuit
