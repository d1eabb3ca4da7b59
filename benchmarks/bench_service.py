"""Serving-layer benchmark: concurrency, micro-batching, sharding.

Not a paper experiment — this measures the async sharded serving
layer (`repro.service`) built on the engine seam, and doubles as the
acceptance check of its two core guarantees:

* **determinism** — >= 32 concurrent clients receive outcomes
  identical (up to wall times and cache flags) to a serial
  ``PreparationEngine.run_batch`` of the same jobs,
* **shard transparency** — replaying one workload through a
  :meth:`~repro.cluster.ShardPlacement.local` placement and through a
  plain :class:`~repro.engine.CircuitCache` yields the *same* aggregated
  cache counters (the shard partition is observationally invisible
  while no shard evicts).

Run under pytest (``pytest benchmarks/bench_service.py -s``) or
directly (``python benchmarks/bench_service.py``).
"""

from __future__ import annotations

import asyncio
import time

from repro.cluster import ShardPlacement
from repro.engine import (
    CircuitCache,
    PreparationEngine,
    PreparationJob,
    comparable_outcome,
)
from repro.service import AsyncPreparationService

NUM_CLIENTS = 32


def make_workload() -> list[PreparationJob]:
    """A small mixed-dimensional workload with one duplicate."""
    return [
        PreparationJob(dims=(3, 6, 2), family="ghz"),
        PreparationJob(dims=(2, 2, 2), family="w"),
        PreparationJob(dims=(3, 3), family="random", params={"rng": 7}),
        PreparationJob(dims=(2, 3), family="random", params={"rng": 11}),
        PreparationJob(dims=(3, 6, 2), family="ghz"),  # duplicate
        PreparationJob(
            dims=(2, 2, 3), family="dicke", params={"excitations": 2}
        ),
    ]


async def _serve_concurrently(jobs, num_clients):
    service = AsyncPreparationService(num_shards=4, max_batch_size=32)
    start = time.perf_counter()
    async with service:
        results = await asyncio.gather(*(
            service.run_batch(jobs) for _ in range(num_clients)
        ))
    elapsed = time.perf_counter() - start
    return results, elapsed, service


def test_service_concurrent_clients_match_serial_engine():
    jobs = make_workload()
    results, elapsed, service = asyncio.run(
        _serve_concurrently(jobs, NUM_CLIENTS)
    )

    reference = PreparationEngine().run_batch(jobs)
    expected = [comparable_outcome(o) for o in reference.outcomes]
    for result in results:
        assert [
            comparable_outcome(o) for o in result.outcomes
        ] == expected

    stats = service.stats()
    assert stats.requests == NUM_CLIENTS * len(jobs)
    # Micro-batching did its job: requests coalesced, each distinct
    # target was synthesised exactly once across all clients.
    assert stats.batches_dispatched < stats.requests
    assert stats.engine.jobs_executed == 5  # 6 jobs, 1 duplicate
    requests_per_second = stats.requests / elapsed
    print(
        f"\n[service/concurrency] {NUM_CLIENTS} clients x "
        f"{len(jobs)} jobs = {stats.requests} requests in "
        f"{elapsed:.3f}s = {requests_per_second:.0f} req/s, "
        f"{stats.batches_dispatched} micro-batches "
        f"(largest {stats.largest_batch}), all outcomes identical "
        f"to the serial engine"
    )


def _replay(cache) -> PreparationEngine:
    """Run the workload twice (cold + warm) through one cache."""
    engine = PreparationEngine(cache=cache)
    engine.run_batch(make_workload())
    engine.run_batch(make_workload())
    return engine


def test_sharded_stats_sum_to_unsharded_counts():
    unsharded = _replay(CircuitCache(capacity=256))
    sharded_cache = ShardPlacement.local(num_shards=4, capacity=256)
    sharded = _replay(sharded_cache)

    assert sharded_cache.stats == unsharded.cache.stats
    # The aggregate really is the field-wise sum over the shards.
    assert sum(s.hits for s in sharded_cache.shard_stats()) == (
        sharded_cache.stats.hits
    )
    assert sum(s.lookups for s in sharded_cache.shard_stats()) == (
        sharded_cache.stats.lookups
    )
    assert (
        sharded.stats().cache_hits == unsharded.stats().cache_hits
    )
    occupied = sum(
        1 for shard in sharded_cache.backends if len(shard.cache) > 0
    )
    print(
        f"\n[service/sharding] replayed workload: sharded "
        f"{sharded_cache.stats.as_dict()} == unsharded "
        f"{unsharded.cache.stats.as_dict()}; "
        f"{occupied}/{sharded_cache.num_shards} shards occupied"
    )


def main() -> None:
    jobs = make_workload()
    results, elapsed, service = asyncio.run(
        _serve_concurrently(jobs, NUM_CLIENTS)
    )
    stats = service.stats()
    print(
        f"{NUM_CLIENTS} clients x {len(jobs)} jobs: "
        f"{stats.requests} requests in {elapsed:.3f}s "
        f"({stats.requests / elapsed:.0f} req/s), "
        f"{stats.batches_dispatched} micro-batches, "
        f"largest {stats.largest_batch}"
    )
    reference = PreparationEngine().run_batch(jobs)
    expected = [comparable_outcome(o) for o in reference.outcomes]
    identical = all(
        [comparable_outcome(o) for o in result.outcomes] == expected
        for result in results
    )
    print(f"outcomes identical to serial engine: {identical}")
    assert identical

    unsharded = _replay(CircuitCache(capacity=256))
    sharded_cache = ShardPlacement.local(num_shards=4, capacity=256)
    _replay(sharded_cache)
    match = sharded_cache.stats == unsharded.cache.stats
    print(f"sharded stats sum to unsharded counts: {match}")
    assert match
    print("service stats:", stats.summary())


if __name__ == "__main__":
    main()
