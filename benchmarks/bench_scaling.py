"""E7 — linear-time synthesis claim (Section 5).

"The method is efficient, since the synthesis routine has time
complexity linear in the number of nodes of the DD."  This benchmark
measures synthesis wall time over a ladder of growing random states
and asserts that time per visited node stays within a constant band
(sub-quadratic growth), regenerating the scaling series printed by
``python -m repro scaling``.
"""

from __future__ import annotations

import time

from repro.analysis.scaling import SCALING_DIMS
from repro.core.synthesis import synthesize_preparation
from repro.dd.builder import build_dd
from repro.states.random_states import random_state


def test_synthesis_scaling_is_linear(benchmark):
    diagrams = [
        build_dd(random_state(dims, rng=7)) for dims in SCALING_DIMS
    ]

    def run_ladder():
        timings = []
        for dd in diagrams:
            start = time.perf_counter()
            synthesize_preparation(dd)
            timings.append(time.perf_counter() - start)
        return timings

    timings = benchmark.pedantic(run_ladder, rounds=3, iterations=1)
    sizes = [dd.stats.visited_nodes for dd in diagrams]
    per_node = [t / n for t, n in zip(timings, sizes)]
    print("\n[E7/scaling] dims, visited nodes, us/node:")
    for dims, nodes, unit in zip(SCALING_DIMS, sizes, per_node):
        print(f"  {dims}: {nodes} nodes, {unit * 1e6:.2f} us/node")

    # Linearity check: cost per node on the largest instance must stay
    # within a small constant factor of the small-instance cost.
    # (A quadratic routine would scale per-node cost by ~100x over
    # this ladder, which spans ~280x in size.)
    baseline = min(per_node[:3])
    assert per_node[-1] <= 12.0 * baseline


def test_synthesis_time_tracks_dd_size_not_state_size(benchmark):
    """A sparse state on a big register synthesises fast.

    The paper's efficiency argument: cost follows the DD, not the
    Hilbert-space dimension.  A GHZ state over a 4x4x4x4x4 register
    (1024 amplitudes, 69 visited DD nodes) must synthesise faster than
    a dense random state over a 4x smaller register (341 nodes).
    """
    from repro.states.library import ghz_state

    big_sparse = build_dd(ghz_state((4, 4, 4, 4, 4)))
    small_dense = build_dd(random_state((4, 4, 4, 4), rng=3))

    def timed(dd):
        # Minimum over repeats: the robust microbenchmark estimator.
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            synthesize_preparation(dd)
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        return timed(big_sparse), timed(small_dense)

    sparse_time, dense_time = benchmark.pedantic(
        run, rounds=3, iterations=1
    )
    print(
        f"\n[E7/sparsity] GHZ(4^5, 1024 amplitudes): "
        f"{sparse_time * 1e3:.2f} ms vs random(4^4, 256 amplitudes): "
        f"{dense_time * 1e3:.2f} ms"
    )
    assert (
        big_sparse.stats.visited_nodes < small_dense.stats.visited_nodes
    )
    assert sparse_time < dense_time
