"""Tests for the benchmark harness (Table 1, figures, rendering)."""

import numpy as np
import pytest

from repro.analysis.benchmarks_def import (
    BENCHMARK_FAMILIES,
    TABLE1_ROWS,
    BenchmarkCase,
    benchmark_state,
)
from repro.analysis.figures import figure1, figure2, figure3, figure4
from repro.analysis.rendering import render_table
from repro.analysis.scaling import (
    approximation_tradeoff,
    synthesis_scaling,
)
from repro.analysis.table1 import (
    format_rows,
    run_table1,
    run_table1_row,
)


class TestBenchmarkDefinitions:
    def test_row_count_matches_paper(self):
        assert len(TABLE1_ROWS) == 14

    def test_family_distribution(self):
        families = [case.family for case in TABLE1_ROWS]
        assert families.count("Emb. W-State") == 3
        assert families.count("GHZ State") == 3
        assert families.count("W-State") == 3
        assert families.count("Random State") == 5

    def test_all_families_instantiable(self):
        rng = np.random.default_rng(0)
        for name, factory in BENCHMARK_FAMILIES.items():
            state = factory((3, 6, 2), rng)
            assert state.is_normalized(), name

    def test_benchmark_state_deterministic_families(self):
        case = TABLE1_ROWS[0]
        assert benchmark_state(case, rng=1) == benchmark_state(case, rng=2)

    def test_benchmark_state_random_family_varies(self):
        case = TABLE1_ROWS[-1]
        a = benchmark_state(case, rng=1)
        b = benchmark_state(case, rng=2)
        assert not a.isclose(b)


class TestRunRow:
    def test_ghz_row_matches_table1(self):
        case = BenchmarkCase("GHZ State", (3, 6, 2), "[1x3,1x6,1x2]", True)
        row = run_table1_row(case, runs=1)
        assert row.exact.tree_nodes == 58
        assert row.exact.operations == 19
        assert row.exact.distinct_complex == 3
        assert row.approx.visited_nodes == 20
        assert row.approx.operations == 19
        assert row.approx.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_w_row_matches_table1(self):
        case = BenchmarkCase("W-State", (9, 5, 6, 3),
                             "[1x9,1x5,1x6,1x3]", True)
        row = run_table1_row(case, runs=1)
        assert row.exact.tree_nodes == 1135
        assert row.exact.operations == 186
        assert row.exact.median_controls == 2.0

    def test_random_row_exact_ops(self):
        case = BenchmarkCase("Random State", (3, 6, 2),
                             "[1x3,1x6,1x2]", False)
        row = run_table1_row(case, runs=2)
        assert row.exact.operations == 57
        assert row.approx.fidelity >= 0.98 - 1e-9
        assert row.approx.operations <= row.exact.operations

    def test_cells_shape(self):
        case = TABLE1_ROWS[3]
        row = run_table1_row(case, runs=1)
        assert len(row.cells()) == 14


#: Table 1's structural columns from ``run_table1_row(case, runs=1)``
#: with the default seed, per row: (Nodes, DistinctC, Operations,
#: #Controls) of the exact group, then of the approximated group.
#: Exact Nodes is the decomposition tree size, approximated Nodes the
#: visited tree size.  The W rows' DistinctC (5/9/11) counts the root
#: weight, which equals an edge weight there, once.
TABLE1_GOLDEN = {
    ("Emb. W-State", (3, 6, 2)): ((58, 5, 21, 1.0), (22, 5, 21, 1.0)),
    ("Emb. W-State", (9, 5, 6, 3)): ((1135, 7, 49, 2.0), (50, 7, 49, 2.0)),
    ("Emb. W-State", (4, 7, 4, 4, 3, 5)): (
        (8657, 11, 91, 3.0), (92, 11, 91, 3.0)
    ),
    ("GHZ State", (3, 6, 2)): ((58, 3, 19, 1.0), (20, 3, 19, 1.0)),
    ("GHZ State", (9, 5, 6, 3)): ((1135, 3, 51, 2.0), (52, 3, 51, 2.0)),
    ("GHZ State", (4, 7, 4, 4, 3, 5)): (
        (8657, 3, 73, 2.0), (74, 3, 73, 2.0)
    ),
    ("W-State", (3, 6, 2)): ((58, 5, 37, 1.0), (38, 5, 37, 1.0)),
    ("W-State", (9, 5, 6, 3)): ((1135, 9, 186, 2.0), (187, 9, 186, 2.0)),
    ("W-State", (4, 7, 4, 4, 3, 5)): (
        (8657, 11, 262, 4.0), (263, 11, 262, 4.0)
    ),
    ("Random State", (3, 6, 2)): ((58, 58, 57, 2.0), (54, 53, 53, 2.0)),
    ("Random State", (9, 5, 6, 3)): (
        (1135, 1135, 1134, 3.0), (1045, 1016, 1044, 3.0)
    ),
    ("Random State", (6, 6, 5, 3, 3)): (
        (2383, 2383, 2382, 4.0), (2218, 2163, 2217, 4.0)
    ),
    ("Random State", (5, 4, 2, 5, 5, 2)): (
        (3266, 3266, 3265, 5.0), (2986, 2847, 2985, 5.0)
    ),
    ("Random State", (4, 7, 4, 4, 3, 5)): (
        (8657, 8657, 8656, 5.0), (8222, 8133, 8221, 5.0)
    ),
}


class TestTable1Golden:
    @pytest.mark.parametrize(
        "case",
        TABLE1_ROWS,
        ids=[
            f"{case.family}-{'x'.join(map(str, case.dims))}"
            for case in TABLE1_ROWS
        ],
    )
    def test_structural_columns(self, case):
        row = run_table1_row(case, runs=1)
        exact, approx = TABLE1_GOLDEN[(case.family, case.dims)]
        assert (
            row.exact.tree_nodes,
            row.exact.distinct_complex,
            row.exact.operations,
            row.exact.median_controls,
        ) == exact
        assert (
            row.approx.visited_nodes,
            row.approx.distinct_complex,
            row.approx.operations,
            row.approx.median_controls,
        ) == approx


class TestRunTable:
    def test_subset_run(self):
        cases = [c for c in TABLE1_ROWS if c.dims == (3, 6, 2)]
        rows = run_table1(runs=1, cases=cases)
        assert len(rows) == 4
        text = format_rows(rows)
        assert "GHZ State" in text and "Random State" in text


class TestFigures:
    def test_figure1_mentions_fidelity_one(self):
        assert "fidelity: 1.0000000000" in figure1()

    def test_figure2_prunes(self):
        text = figure2()
        assert "achieved fidelity: 0.900" in text
        assert "5 operations" in text

    def test_figure3_sharing_true(self):
        assert "share a child: True" in figure3()

    def test_figure4_theta(self):
        assert "1.570796" in figure4()


class TestScalingDrivers:
    def test_scaling_points_monotone_nodes(self):
        points = synthesis_scaling(
            dims_ladder=[(2, 2), (3, 2, 2), (3, 3, 2, 2)], repeats=1
        )
        sizes = [p.visited_nodes for p in points]
        assert sizes == sorted(sizes)

    def test_tradeoff_respects_thresholds(self):
        points = approximation_tradeoff(
            dims=(3, 3, 2), thresholds=[1.0, 0.9, 0.7]
        )
        for point in points:
            assert point.achieved_fidelity >= point.min_fidelity - 1e-9

    def test_tradeoff_tolerates_thresholds_above_one(self):
        # Historical behaviour: thresholds >= 1.0 mean "exact", they
        # must not be rejected by the pipeline config validation.
        points = approximation_tradeoff(
            dims=(3, 3), thresholds=[1.05, 0.9]
        )
        assert points[0].achieved_fidelity == 1.0
        assert points[0].min_fidelity == 1.05

    def test_tradeoff_sizes_decrease(self):
        points = approximation_tradeoff(
            dims=(3, 3, 2), thresholds=[1.0, 0.9, 0.7, 0.5]
        )
        sizes = [p.visited_nodes for p in points]
        assert sizes == sorted(sizes, reverse=True)


class TestRendering:
    def test_alignment(self):
        text = render_table(
            ["a", "long_header"], [[1, 2.5], [10, 3.25]]
        )
        lines = text.splitlines()
        assert len(set(len(line) for line in lines[0:1])) == 1

    def test_none_rendered_as_dash(self):
        text = render_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_title(self):
        text = render_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_whole_floats_one_decimal(self):
        text = render_table(["x"], [[58.0]])
        assert "58.0" in text
