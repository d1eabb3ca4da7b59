"""Auxiliary — decision-diagram construction and verification costs.

Not a paper table, but useful context for the Table 1 "Time" column:
the paper times approximation + synthesis only; DD construction and
fidelity verification happen outside the timed span.  This bench
quantifies both so EXPERIMENTS.md can report the full pipeline cost.
"""

from __future__ import annotations

from repro.dd.builder import build_dd
from repro.simulator.statevector_sim import simulate
from repro.core.synthesis import synthesize_preparation
from repro.analysis.benchmarks_def import benchmark_state


def test_dd_construction(benchmark, table1_case):
    state = benchmark_state(table1_case, rng=2024)
    dd = benchmark(build_dd, state)
    print(
        f"\n[aux/build] {table1_case.family} {table1_case.label}: "
        f"{dd.stats.num_nodes} DAG nodes"
    )
    assert dd.to_statevector().isclose(state, tolerance=1e-9)


def test_verification_simulation(benchmark, table1_dd):
    case, state, dd = table1_dd
    circuit = synthesize_preparation(dd, tensor_elision=False)
    produced = benchmark.pedantic(
        simulate, args=(circuit,), rounds=1, iterations=1
    )
    from repro.states.fidelity import fidelity

    achieved = fidelity(state, produced)
    print(
        f"\n[aux/verify] {case.family} {case.label}: "
        f"fidelity={achieved:.10f}"
    )
    assert achieved >= 1.0 - 1e-9
