"""Tests for tolerance-based complex uniquing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linalg.complex_table import ComplexTable


class TestLookup:
    def test_first_lookup_returns_value(self):
        table = ComplexTable()
        assert table.lookup(0.5 + 0.25j) == 0.5 + 0.25j

    def test_near_duplicate_is_merged(self):
        table = ComplexTable(tolerance=1e-12)
        first = table.lookup(0.5)
        second = table.lookup(0.5 + 1e-15)
        assert first == second
        assert len(table) == 1

    def test_distinct_values_are_kept(self):
        table = ComplexTable(tolerance=1e-12)
        table.lookup(0.5)
        table.lookup(0.6)
        assert len(table) == 2

    def test_boundary_values_merge(self):
        # Values straddling a grid-cell boundary still unify.
        table = ComplexTable(tolerance=1e-6)
        base = 1.5e-6
        first = table.lookup(base)
        second = table.lookup(base + 4e-7)
        assert first == second

    def test_negative_and_positive_zero(self):
        table = ComplexTable()
        assert table.lookup(-0.0) == table.lookup(0.0)
        assert len(table) == 1

    def test_complex_components_independent(self):
        table = ComplexTable(tolerance=1e-9)
        table.lookup(1.0 + 1.0j)
        table.lookup(1.0 - 1.0j)
        assert len(table) == 2


class TestContains:
    def test_contains_after_lookup(self):
        table = ComplexTable()
        table.lookup(0.25j)
        assert 0.25j in table

    def test_contains_near_value(self):
        table = ComplexTable(tolerance=1e-9)
        table.lookup(0.25)
        assert (0.25 + 1e-12) in table

    def test_not_contains(self):
        table = ComplexTable()
        table.lookup(0.25)
        assert 0.5 not in table


class TestValidation:
    def test_rejects_zero_tolerance(self):
        with pytest.raises(ValueError):
            ComplexTable(tolerance=0.0)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            ComplexTable(tolerance=-1e-9)


class TestIteration:
    def test_iterates_canonical_values(self):
        table = ComplexTable()
        table.lookup(1.0)
        table.lookup(2.0)
        assert sorted(v.real for v in table) == [1.0, 2.0]

    def test_repr_mentions_entries(self):
        table = ComplexTable()
        table.lookup(1.0)
        assert "entries=1" in repr(table)


class TestProperties:
    @given(
        st.lists(
            st.complex_numbers(
                max_magnitude=10.0, allow_nan=False, allow_infinity=False
            ),
            max_size=40,
        )
    )
    def test_lookup_idempotent(self, values):
        table = ComplexTable()
        canon = [table.lookup(v) for v in values]
        assert [table.lookup(c) for c in canon] == canon

    @given(
        st.complex_numbers(
            max_magnitude=5.0, allow_nan=False, allow_infinity=False
        ),
        st.floats(min_value=-4e-13, max_value=4e-13),
    )
    def test_perturbation_within_tolerance_merges(self, value, epsilon):
        table = ComplexTable(tolerance=1e-12)
        first = table.lookup(value)
        second = table.lookup(value + epsilon)
        assert first == second


class TestLookupMany:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-6, max_value=6),
                st.integers(min_value=-6, max_value=6),
                st.sampled_from([0.0, 0.5, 0.5 - 0.25j]),
            ),
            max_size=30,
            unique_by=lambda entry: entry,
        )
    )
    def test_matches_scalar_lookups_without_repeats(self, entries):
        # Values a few tolerances apart, so lookups merge and chain.
        values = np.array(
            [complex(re, im) * 4e-13 + base for re, im, base in entries],
            dtype=np.complex128,
        )
        values = values[np.sort(np.unique(values, return_index=True)[1])]
        scalar = ComplexTable(tolerance=1e-12)
        expected = np.array(
            [scalar.lookup(value) for value in values.tolist()],
            dtype=np.complex128,
        )
        batch = ComplexTable(tolerance=1e-12)
        assert batch.lookup_many(values).tobytes() == expected.tobytes()
        assert list(batch) == list(scalar)

    def test_repeat_keeps_its_first_representative(self):
        # The memo answers the second 0 with the representative the
        # first one got, though -4e-13 was stored in 0's own cell in
        # between; scalar lookups find that closer entry.
        values = np.array([9e-13, 0.0, -4e-13, 0.0], dtype=np.complex128)
        batch = ComplexTable(tolerance=1e-12).lookup_many(values)
        assert batch.tolist() == [9e-13, 9e-13, -4e-13, 9e-13]
        scalar = ComplexTable(tolerance=1e-12)
        assert [scalar.lookup(value) for value in values.tolist()] == [
            9e-13, 9e-13, -4e-13, -4e-13,
        ]

    def test_keeps_the_shape(self):
        table = ComplexTable()
        out = table.lookup_many(np.array([[0.5, 0.5 + 1e-15], [1j, 0.5]]))
        assert out.shape == (2, 2)
        assert out[0, 1] == 0.5 and out[1, 1] == 0.5
        assert table.lookup_many(np.zeros(0)).shape == (0,)
