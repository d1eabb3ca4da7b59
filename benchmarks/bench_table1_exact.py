"""E1 — Table 1, "Exact" column group.

Times the exact synthesis (the paper's "Time" column covers
approximation + synthesis; for the exact flow that is synthesis alone)
and prints the full row metrics: Nodes, DistinctC, Operations,
#Controls.  Paper-expected values for the structured rows are asserted
exactly; see EXPERIMENTS.md for the measured-vs-paper table.
"""

from __future__ import annotations

from repro.circuit.stats import statistics
from repro.core.synthesis import synthesize_preparation
from repro.dd.metrics import (
    decomposition_tree_size,
    synthesis_operation_count,
)

#: Paper Table 1 "Operations" (exact) for the structured rows.
PAPER_EXACT_OPERATIONS = {
    ("Emb. W-State", (3, 6, 2)): 21,
    ("Emb. W-State", (9, 5, 6, 3)): 49,
    ("Emb. W-State", (4, 7, 4, 4, 3, 5)): 91,
    ("GHZ State", (3, 6, 2)): 19,
    ("GHZ State", (9, 5, 6, 3)): 51,
    ("GHZ State", (4, 7, 4, 4, 3, 5)): 73,
    ("W-State", (3, 6, 2)): 37,
    ("W-State", (9, 5, 6, 3)): 186,
    ("W-State", (4, 7, 4, 4, 3, 5)): 262,
}

#: Paper Table 1 "Nodes" (exact) for every dims configuration.
PAPER_TREE_NODES = {
    (3, 6, 2): 58,
    (9, 5, 6, 3): 1135,
    (6, 6, 5, 3, 3): 2383,
    (5, 4, 2, 5, 5, 2): 3266,
    (4, 7, 4, 4, 3, 5): 8657,
}


def test_table1_exact_synthesis(benchmark, table1_dd):
    case, state, dd = table1_dd
    circuit = benchmark(
        synthesize_preparation, dd, tensor_elision=False
    )
    stats = statistics(circuit)
    tree_nodes = decomposition_tree_size(case.dims)
    distinct = dd.stats.distinct_complex
    print(
        f"\n[E1/exact] {case.family} {case.label}: "
        f"nodes={tree_nodes} distinct_c={distinct} "
        f"operations={stats.num_operations} "
        f"median_controls={stats.median_controls}"
    )

    assert tree_nodes == PAPER_TREE_NODES[case.dims]
    assert stats.num_operations == synthesis_operation_count(dd)
    expected_ops = PAPER_EXACT_OPERATIONS.get((case.family, case.dims))
    if expected_ops is not None:
        assert stats.num_operations == expected_ops
    else:
        # Random states: operations = tree nodes - 1 (paper identity).
        assert stats.num_operations == tree_nodes - 1
