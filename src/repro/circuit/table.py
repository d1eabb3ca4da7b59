"""Columnar (structure-of-arrays) storage of a rotation circuit.

Synthesis (Section 4.2 of the paper) emits, for every visited DD node,
a ladder of ``d - 1`` two-level Givens rotations plus one phase
rotation, all under the node's root-path control pattern.  A
:class:`CircuitTable` stores that circuit as columns instead of one
:class:`~repro.circuit.gate.Gate` object per operation:

* one entry per *row* (operation), in circuit order: ``kind``
  (:data:`GIVENS` or :data:`PHASE`), ``target``, ``lower`` and
  ``upper`` (the two levels), ``theta`` (``delta`` for a phase row) and
  ``phi`` (unused by phase rows);
* rows are grouped into *blocks* (``offsets[b]:offsets[b + 1]``), one
  per visited node, and every block has one ``int16`` control row of
  length ``n`` where ``controls[b, q]`` is the control level on qudit
  ``q`` or ``-1`` for "no control" (which also covers tensor-elided
  qudits).

A table is validated once, vectorised, at construction — under the
conditions :meth:`Gate.validate` and
:func:`~repro.circuit.controls.normalize_controls` check per gate —
and is immutable afterwards, so any holder may execute it without
re-checking.  :meth:`CircuitTable.gates` builds the equivalent gate
list on demand.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuit.controls import Control
from repro.circuit.gate import Gate
from repro.circuit.gates import GivensRotation, PhaseRotation
from repro.exceptions import CircuitError, ControlError

__all__ = ["CircuitTable", "GIVENS", "PHASE"]

#: Row kind of a two-level Givens rotation ``R_{lower,upper}(theta, phi)``.
GIVENS = 0
#: Row kind of a two-level phase rotation ``RZ_{lower,upper}(theta)``.
PHASE = 1

#: Gate name of each row kind (the ``Gate.name`` of its view class).
KIND_NAMES = (GivensRotation.name, PhaseRotation.name)


def _int_column(values, dtype, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise CircuitError(f"column {name!r} must hold integers")
    column = array.astype(dtype)
    if column.dtype != array.dtype and not np.array_equal(column, array):
        raise CircuitError(
            f"column {name!r} holds values beyond {np.dtype(dtype).name}"
        )
    return column


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


class CircuitTable:
    """An immutable, validated structure-of-arrays rotation circuit.

    Args:
        dims: Register dimensions the rows act on.
        kind, target, lower, upper, theta, phi: Row columns, one entry
            per operation in circuit order.
        offsets: Block boundaries: ``B + 1`` non-decreasing row
            offsets from 0 to the row count (blocks may be empty).
        controls: ``(B, len(dims))`` control levels, ``-1`` for none.

    Raises:
        CircuitError: If a column is malformed, a target or level is
            out of range, the two levels of a row coincide, or a block
            controls the target of one of its rows.
        ControlError: If a control level is out of range.
    """

    __slots__ = (
        "dims", "kind", "target", "lower", "upper", "theta", "phi",
        "offsets", "controls",
    )

    def __init__(
        self,
        dims: Sequence[int],
        kind,
        target,
        lower,
        upper,
        theta,
        phi,
        offsets,
        controls,
    ):
        self.dims = tuple(int(d) for d in dims)
        self.kind = _int_column(kind, np.uint8, "kind")
        self.target = _int_column(target, np.int32, "target")
        self.lower = _int_column(lower, np.int32, "lower")
        self.upper = _int_column(upper, np.int32, "upper")
        self.theta = np.asarray(theta, dtype=np.float64)
        self.phi = np.asarray(phi, dtype=np.float64)
        self.offsets = _int_column(offsets, np.int64, "offsets")
        self.controls = _int_column(controls, np.int16, "controls")
        if self.controls.size == 0:
            self.controls = self.controls.reshape(-1, len(self.dims))
        self._validate()
        for column in self._columns():
            column.setflags(write=False)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (
            self.kind, self.target, self.lower, self.upper, self.theta,
            self.phi, self.offsets, self.controls,
        )

    def _validate(self) -> None:
        dims = np.asarray(self.dims, dtype=np.int64)
        num_qudits = dims.size
        rows = self.kind.shape
        for name in ("target", "lower", "upper", "theta", "phi"):
            if getattr(self, name).shape != rows or len(rows) != 1:
                raise CircuitError(
                    f"column {name!r} has shape {getattr(self, name).shape}"
                    f", expected {rows} like 'kind'"
                )
        offsets = self.offsets
        if (
            offsets.ndim != 1
            or offsets.size == 0
            or offsets[0] != 0
            or offsets[-1] != rows[0]
            or np.any(np.diff(offsets) < 0)
        ):
            raise CircuitError(
                "block offsets must rise from 0 to the row count"
            )
        if self.controls.shape != (offsets.size - 1, num_qudits):
            raise CircuitError(
                f"controls have shape {self.controls.shape}, expected "
                f"({offsets.size - 1}, {num_qudits})"
            )
        bad = self.kind > PHASE
        if bad.any():
            raise CircuitError(
                f"unknown row kind {int(self.kind[_first(bad)])}"
            )
        target = self.target
        bad = (target < 0) | (target >= num_qudits)
        if bad.any():
            raise CircuitError(
                f"target {int(target[_first(bad)])} out of range for "
                f"{num_qudits} qudits"
            )
        lower, upper = self.lower, self.upper
        bad = (lower < 0) | (upper < 0)
        if bad.any():
            row = _first(bad)
            raise CircuitError(
                f"levels must be >= 0, got ({int(lower[row])}, "
                f"{int(upper[row])})"
            )
        bad = lower == upper
        if bad.any():
            raise CircuitError(
                f"levels must differ, got {int(lower[_first(bad)])} twice"
            )
        dimension = dims[target]
        bad = np.maximum(lower, upper) >= dimension
        if bad.any():
            row = _first(bad)
            raise CircuitError(
                f"{KIND_NAMES[self.kind[row]]} levels ({int(lower[row])}, "
                f"{int(upper[row])}) out of range for dimension "
                f"{int(dimension[row])}"
            )
        controls = self.controls
        bad = (controls < -1) | (controls >= dims)
        if bad.any():
            block, qudit = np.argwhere(bad)[0]
            raise ControlError(
                f"control level {int(controls[block, qudit])} out of "
                f"range for qudit {int(qudit)} of dimension "
                f"{int(dims[qudit])}"
            )
        bad = controls[self.row_blocks(), target] >= 0
        if bad.any():
            raise CircuitError(
                f"gate target {int(target[_first(bad)])} cannot also be "
                "a control"
            )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of operations."""
        return int(self.kind.size)

    @property
    def num_blocks(self) -> int:
        """Number of blocks (control rows)."""
        return int(self.offsets.size - 1)

    def block_lengths(self) -> np.ndarray:
        """Rows per block."""
        return np.diff(self.offsets)

    def row_blocks(self) -> np.ndarray:
        """Block index of every row."""
        return np.repeat(
            np.arange(self.num_blocks), self.block_lengths()
        )

    def control_counts(self) -> np.ndarray:
        """Number of controls of every row, in circuit order."""
        per_block = np.count_nonzero(self.controls >= 0, axis=1)
        return np.repeat(per_block, self.block_lengths())

    # ------------------------------------------------------------------
    # Derived tables and views
    # ------------------------------------------------------------------
    def inverse(self) -> "CircuitTable":
        """The adjoint: rows and blocks reversed, angles negated.

        ``phi`` is kept: ``R(theta, phi)^-1 = R(-theta, phi)`` and
        ``RZ(delta)^-1 = RZ(-delta)``.
        """
        lengths = self.block_lengths()[::-1]
        offsets = np.zeros_like(self.offsets)
        np.cumsum(lengths, out=offsets[1:])
        result = CircuitTable.__new__(CircuitTable)
        result.dims = self.dims
        result.kind = self.kind[::-1].copy()
        result.target = self.target[::-1].copy()
        result.lower = self.lower[::-1].copy()
        result.upper = self.upper[::-1].copy()
        result.theta = -self.theta[::-1]
        result.phi = self.phi[::-1].copy()
        result.offsets = offsets
        result.controls = self.controls[::-1].copy()
        # The rows and control rows of a valid table, reordered: valid.
        for column in result._columns():
            column.setflags(write=False)
        return result

    def gates(self) -> list[Gate]:
        """The rows as :class:`Gate` objects, in circuit order."""
        kind = self.kind.tolist()
        target = self.target.tolist()
        lower = self.lower.tolist()
        upper = self.upper.tolist()
        theta = self.theta.tolist()
        phi = self.phi.tolist()
        offsets = self.offsets.tolist()
        gates: list[Gate] = []
        for block, row in enumerate(self.controls.tolist()):
            controls = tuple(
                Control(qudit, level)
                for qudit, level in enumerate(row)
                if level >= 0
            )
            for r in range(offsets[block], offsets[block + 1]):
                if kind[r] == GIVENS:
                    gate = GivensRotation(
                        target[r], lower[r], upper[r], theta[r], phi[r],
                        controls,
                    )
                else:
                    gate = PhaseRotation(
                        target[r], lower[r], upper[r], theta[r], controls
                    )
                gates.append(gate)
        return gates

    def same_operations(self, other: "CircuitTable") -> bool:
        """Whether both tables hold equal gates, row by row.

        The column analogue of comparing :meth:`gates` lists: block
        boundaries and the unused ``phi`` of phase rows do not count.
        """
        if self.dims != other.dims or self.num_rows != other.num_rows:
            return False
        givens = self.kind == GIVENS
        return bool(
            np.array_equal(self.kind, other.kind)
            and np.array_equal(self.target, other.target)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.theta, other.theta)
            and np.array_equal(self.phi[givens], other.phi[givens])
            and np.array_equal(
                self.controls[self.row_blocks()],
                other.controls[other.row_blocks()],
            )
        )

    def __reduce__(self):
        return (
            CircuitTable,
            (self.dims,) + self._columns(),
        )

    def __repr__(self) -> str:
        return (
            f"CircuitTable(dims={list(self.dims)}, rows={self.num_rows}, "
            f"blocks={self.num_blocks})"
        )
