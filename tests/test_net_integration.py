"""Acceptance tests of the network front end: real sockets, many
concurrent clients, equivalence with the in-process path.

The contract (see ISSUE 5 / docs/serving.md): a duplicate-heavy
workload submitted by >= 16 concurrent remote HTTP clients yields
outcomes identical to an in-process
``PreparationEngine.run_batch`` of the same job multiset modulo
timings, with *identical* cache hit counts, and a shutdown in mid-air
drains every accepted request exactly once.
"""

from __future__ import annotations

import asyncio

from repro.cluster import ShardPlacement
from repro.engine import PreparationEngine, PreparationJob
from repro.net import (
    HttpServer,
    ReproClient,
    comparable_wire_outcome,
    outcome_to_wire,
)
from repro.service import AsyncPreparationService

NUM_CLIENTS = 16

#: Duplicate-heavy: 6 slots, 4 distinct targets, and every client
#: submits the same list, so across 16 clients each distinct circuit
#: is synthesised once and served 95 times from the cache.
WORKLOAD = [
    {"family": "ghz", "dims": [3, 6, 2]},
    {"family": "w", "dims": [2, 2, 2]},
    {"family": "ghz", "dims": [3, 6, 2]},
    {"family": "random", "dims": [3, 3], "params": {"rng": 7}},
    {"family": "w", "dims": [2, 2, 2]},
    {"family": "dicke", "dims": [2, 2, 3], "params": {"excitations": 2}},
]


def reference_wire_outcomes() -> list[dict]:
    """The in-process truth: one serial batch, comparable wire form."""
    jobs = [
        PreparationJob(
            dims=tuple(raw["dims"]), family=raw["family"],
            params=raw.get("params", {}),
        )
        for raw in WORKLOAD
    ]
    batch = PreparationEngine().run_batch(jobs)
    return [
        comparable_wire_outcome(outcome_to_wire(outcome))
        for outcome in batch.outcomes
    ]


def reference_cache_counts() -> tuple[int, int]:
    """Hits/misses of the same job multiset run fully in process."""
    jobs = [
        PreparationJob(
            dims=tuple(raw["dims"]), family=raw["family"],
            params=raw.get("params", {}),
        )
        for raw in WORKLOAD
    ] * NUM_CLIENTS
    engine = PreparationEngine(cache=ShardPlacement.local(num_shards=4))
    engine.run_batch(jobs)
    stats = engine.stats()
    return stats.cache_hits, stats.cache_misses


async def serve_and_query():
    service = AsyncPreparationService(num_shards=4)
    await service.start()
    server = await HttpServer(service).start()

    async def one_client():
        async with ReproClient("127.0.0.1", server.port) as client:
            result = await client.batch(WORKLOAD)
            return result["outcomes"]

    try:
        per_client = await asyncio.gather(
            *(one_client() for _ in range(NUM_CLIENTS))
        )
        async with ReproClient("127.0.0.1", server.port) as client:
            stats = await client.stats()
    finally:
        await server.stop()
    return per_client, stats


def test_concurrent_remote_clients_match_in_process():
    per_client, stats = asyncio.run(serve_and_query())
    expected = reference_wire_outcomes()

    assert len(per_client) == NUM_CLIENTS
    for outcomes in per_client:
        assert [
            comparable_wire_outcome(outcome) for outcome in outcomes
        ] == expected

    # Cache traffic identical to running the same multiset in one
    # in-process batch: every slot is one counted lookup, every
    # distinct key is one miss — regardless of how the network layer
    # split the traffic into micro-batches.
    expected_hits, expected_misses = reference_cache_counts()
    engine_stats = stats["engine"]
    assert engine_stats["cache_hits"] == expected_hits
    assert engine_stats["cache_misses"] == expected_misses
    assert engine_stats["jobs_submitted"] == (
        NUM_CLIENTS * len(WORKLOAD)
    )
    assert (
        engine_stats["cache_hits"] + engine_stats["cache_misses"]
        == engine_stats["cache_lookups"]
    )


def test_shutdown_drains_without_drops_or_duplicates():
    async def scenario():
        service = AsyncPreparationService(num_shards=4)
        await service.start()
        server = await HttpServer(service).start()

        clients = []
        inflight = []
        for _ in range(8):
            client = ReproClient("127.0.0.1", server.port)
            await client.connect()
            clients.append(client)
            inflight.append(asyncio.ensure_future(
                client.prepare(WORKLOAD[0])
            ))
        await asyncio.sleep(0.02)  # requests reach the server
        await server.stop()

        outcomes = await asyncio.gather(*inflight)
        for client in clients:
            await client.aclose()
        return outcomes

    outcomes = asyncio.run(scenario())
    # Exactly one response per accepted request, every one served.
    assert len(outcomes) == 8
    assert all(outcome["ok"] for outcome in outcomes)
