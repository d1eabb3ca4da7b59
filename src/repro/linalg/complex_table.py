"""Tolerance-based uniquing of complex numbers.

Decision-diagram packages store edge weights in a *complex table* so
that numerically equal weights are represented by a single canonical
object [Zulehner/Hillmich/Wille, ICCAD 2019].  The table serves two
purposes in this reproduction:

* it makes node hashing robust against floating-point noise (two
  weights closer than the tolerance hash identically), and
* it implements the "DistinctC" metric of Table 1 of the paper — the
  number of unique complex values occurring in a decision diagram.

The implementation snaps the real and imaginary parts onto a grid of
spacing ``tolerance``; each canonical value is stored under its own
grid cell, and a lookup probes the value's cell plus the eight
neighbouring cells, which guarantees that any two numbers within
``tolerance`` (infinity norm) of a stored representative map to that
representative.  Distinct canonical values can never share a cell:
two values in the same cell differ by less than the tolerance in both
components, so the second would have been merged into the first.

A table returns a value unchanged, and stores it without changing any
other lookup, unless another value *crowds* it (lies within twice the
tolerance, or equals it with a zero of the other sign); :func:`crowded`
is the one test of that, and the DD build, the approximation's rebuild
and the DistinctC count use it to replay a table over the crowded
values only, or to skip it.
:meth:`ComplexTable.lookup_many` is a memoised loop over
:meth:`ComplexTable.lookup`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["ComplexTable", "crowded"]

#: Default snapping tolerance; DD weights are normalised so their
#: magnitudes are O(1), making an absolute tolerance appropriate.
DEFAULT_TOLERANCE = 1e-12

#: Offsets of the eight neighbouring grid cells; the value's own cell
#: is probed first (and exactly once) by :meth:`ComplexTable._find`.
_NEIGHBOUR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class ComplexTable:
    """A canonical store of complex values with tolerance-based lookup.

    Example:
        >>> table = ComplexTable()
        >>> a = table.lookup(0.5 + 0.5j)
        >>> b = table.lookup(0.5 + 0.5j + 1e-15)
        >>> a is b
        True
        >>> len(table)
        1
    """

    __slots__ = ("_tolerance", "_cells", "_values")

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self._tolerance = tolerance
        # Maps grid cell -> the canonical value snapped into that cell.
        self._cells: dict[tuple[int, int], complex] = {}
        self._values: list[complex] = []

    @property
    def tolerance(self) -> float:
        """The lookup tolerance of this table."""
        return self._tolerance

    def _cell_of(self, value: complex) -> tuple[int, int]:
        scale = 1.0 / self._tolerance
        return (round(value.real * scale), round(value.imag * scale))

    def _close(self, a: complex, b: complex) -> bool:
        return (
            abs(a.real - b.real) <= self._tolerance
            and abs(a.imag - b.imag) <= self._tolerance
        )

    def _find(
        self, value: complex, cell: tuple[int, int]
    ) -> complex | None:
        """Return the stored representative of ``value``, if any.

        Probes the value's own cell first, then the eight neighbouring
        cells (a representative within tolerance always lies in one of
        the nine).  Shared by :meth:`lookup` and :meth:`__contains__`.
        """
        cells = self._cells
        stored = cells.get(cell)
        if stored is not None and self._close(stored, value):
            return stored
        cell_re, cell_im = cell
        for delta_re, delta_im in _NEIGHBOUR_OFFSETS:
            stored = cells.get((cell_re + delta_re, cell_im + delta_im))
            if stored is not None and self._close(stored, value):
                return stored
        return None

    def lookup(self, value: complex) -> complex:
        """Return the canonical representative of ``value``.

        If no stored value lies within the tolerance, ``value`` itself
        becomes canonical and is returned.
        """
        value = complex(value)
        cell = self._cell_of(value)
        found = self._find(value, cell)
        if found is not None:
            return found
        self._cells[cell] = value
        self._values.append(value)
        return value

    def lookup_many(self, values: np.ndarray) -> np.ndarray:
        """:meth:`lookup` of every entry of ``values``, in order.

        Repeated identical inputs are resolved through a batch-local
        memo: a repeat gets its first occurrence's representative, even
        where a closer entry was stored in between (scalar lookups
        would return that one).  Only first occurrences can insert, so
        the table ends up holding what scalar lookups would store.

        Returns:
            An array of the same shape whose entries are the canonical
            representatives of the inputs.
        """
        flat = np.ascontiguousarray(values, dtype=np.complex128).ravel()
        lookup = self.lookup
        memo: dict[complex, complex] = {}
        canonical = []
        for value in flat.tolist():
            found = memo.get(value)
            if found is None:
                found = memo[value] = lookup(value)
            canonical.append(found)
        return np.array(canonical, dtype=np.complex128).reshape(
            np.shape(values)
        )

    def __contains__(self, value: complex) -> bool:
        value = complex(value)
        return self._find(value, self._cell_of(value)) is not None

    def __len__(self) -> int:
        """Number of distinct canonical values stored."""
        return len(self._values)

    def __iter__(self) -> Iterator[complex]:
        return iter(self._values)

    def __repr__(self) -> str:
        return (
            f"ComplexTable(tolerance={self._tolerance!r}, "
            f"entries={len(self._values)})"
        )


def crowded(
    values: np.ndarray,
    gap: float,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of ``values`` a complex table might change.

    A table with tolerance ``gap / 2`` fed ``values`` in any order
    returns an entry unchanged unless an entry of another value lies
    within ``gap`` of it in both parts, or an equal one differs from it
    in the sign of a zero (the table returns the first of two such
    twins for both).  Storing an uncrowded entry changes no other
    lookup either, so replaying a table over the crowded entries only,
    in their order, gives a full replay's answers.

    Sorted by real part, runs of entries whose real parts step by at
    most ``gap`` hold every pair close in the real part; sorted by
    imaginary part within a run, every entry between two close ones is
    within ``gap`` of its neighbours, so marking both entries of each
    such neighbour pair whose bytes differ never misses one (it may
    mark entries close in one part only).  Entries with equal bytes,
    adjacent in that order, share the mark.  Only entries of equal
    value (bytes equal, or differing in the sign of a zero) can swap
    places between two sorts, so the marks and the set of distinct
    entries do not depend on how the sort orders ties.

    ``keep``, when given, masks the entries whose distinct values are
    returned; every entry is still marked.  Entries added to a set can
    only join runs and fill the gaps between neighbours, so an entry
    marked among the kept ones alone is marked among all: with no kept
    entry marked, the kept entries are uncrowded among themselves.

    Returns the mark of every entry and the distinct entries (among
    the kept ones, when ``keep`` is given).
    """
    if not values.size:
        return np.zeros(0, dtype=bool), values
    by_real = np.argsort(values.real)
    run = np.concatenate(
        ([0], np.cumsum(np.diff(values.real[by_real]) > gap))
    )
    lex = np.lexsort((values.imag[by_real], run))
    order = by_real[lex]
    ordered = values[order]
    bits = ordered.view(np.int64).reshape(-1, 2)
    differ = (bits[1:] != bits[:-1]).any(axis=1)
    close = (
        differ
        & (run[lex][1:] == run[lex][:-1])
        & (np.abs(np.diff(ordered.imag)) <= gap)
    )
    mark = np.zeros(values.size, dtype=bool)
    mark[1:] |= close
    mark[:-1] |= close
    group = np.concatenate(([0], np.cumsum(differ)))
    marks = np.empty(values.size, dtype=bool)
    marks[order] = np.bincount(group, weights=mark)[group] > 0
    if keep is None:
        return marks, ordered[np.concatenate(([True], differ))]
    kept = np.flatnonzero(keep[order])
    firsts = np.ones(kept.size, dtype=bool)
    firsts[1:] = group[kept[1:]] != group[kept[:-1]]
    return marks, ordered[kept[firsts]]
