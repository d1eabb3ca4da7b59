#!/usr/bin/env python3
"""Concurrent serving with the async sharded preparation service.

Spins up an :class:`repro.service.AsyncPreparationService` — a
micro-batching asyncio front end over the
:class:`repro.engine.PreparationEngine` with a content-key-sharded
circuit cache — and serves a mixed-dimensional workload to many
concurrent clients at once.  Demonstrates that:

* concurrent single-job submissions coalesce into micro-batches,
* every client receives outcomes identical (up to wall times and
  cache flags) to a plain serial ``run_batch`` of the same jobs,
* the sharded cache's aggregated statistics obey
  ``hits + misses == lookups``.

Run:  python examples/async_service.py [output-dir]
"""

import asyncio
import sys

from repro.engine import (
    PreparationEngine,
    PreparationJob,
    comparable_outcome,
)
from repro.service import AsyncPreparationService

NUM_CLIENTS = 12

WORKLOAD = [
    PreparationJob(dims=(3, 6, 2), family="ghz"),
    PreparationJob(dims=(2, 2, 2), family="w"),
    PreparationJob(dims=(3, 3), family="random", params={"rng": 7}),
    PreparationJob(dims=(3, 6, 2), family="ghz"),  # duplicate
]


async def client(service, client_id: int):
    """One client: submit the workload and await all outcomes."""
    result = await service.run_batch(WORKLOAD)
    ok = sum(1 for outcome in result.outcomes if outcome.ok)
    print(
        f"  client {client_id:>2}: {ok}/{len(result)} ok "
        f"in {result.wall_time:.3f}s"
    )
    return result


async def serve() -> list:
    service = AsyncPreparationService(num_shards=4, max_batch_size=16)
    async with service:
        results = await asyncio.gather(*(
            client(service, client_id)
            for client_id in range(NUM_CLIENTS)
        ))
    stats = service.stats()
    print("\nservice stats:", stats.summary())

    # Concurrency actually coalesced: far fewer engine batches than
    # requests, and the engine synthesised each distinct state once.
    assert stats.requests == NUM_CLIENTS * len(WORKLOAD)
    assert stats.batches_dispatched < stats.requests
    assert stats.engine.jobs_executed == 3, "3 distinct targets"

    cache_stats = service.engine.cache.stats
    assert (
        cache_stats.hits + cache_stats.misses == cache_stats.lookups
    ), "cache stats invariant"
    return results


def main() -> None:
    # The optional output-dir argument (passed by the test harness)
    # is unused: the service is in-memory end to end.
    _ = sys.argv[1:]

    print(f"serving {NUM_CLIENTS} concurrent clients:")
    results = asyncio.run(serve())

    # Every client got the same answer a plain serial engine gives.
    reference = PreparationEngine().run_batch(WORKLOAD)
    expected = [comparable_outcome(o) for o in reference.outcomes]
    for result in results:
        assert [
            comparable_outcome(o) for o in result.outcomes
        ] == expected
    print(
        f"all {NUM_CLIENTS} clients match the serial reference "
        f"engine ({len(WORKLOAD)} jobs each)"
    )


if __name__ == "__main__":
    main()
