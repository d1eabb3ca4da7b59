"""Tests for the async sharded serving layer (`repro.service`)."""

from __future__ import annotations

import asyncio
import contextlib
import sys
import threading
import time

import pytest

from repro.cluster import ShardPlacement, modulo_index
from repro.engine import (
    CacheEntry,
    CacheStats,
    CircuitCache,
    PreparationEngine,
    PreparationJob,
    comparable_outcome,
)
from repro.exceptions import EngineError
from repro.service import AsyncPreparationService, MicroBatchQueue


def ghz_job(dims=(2, 2), **kwargs) -> PreparationJob:
    return PreparationJob(dims=dims, family="ghz", **kwargs)


WORKLOAD = [
    PreparationJob(dims=(3, 6, 2), family="ghz"),
    PreparationJob(dims=(2, 2, 2), family="w"),
    PreparationJob(dims=(3, 3), family="random", params={"rng": 7}),
    PreparationJob(dims=(3, 6, 2), family="ghz"),  # duplicate
]


#: A job no test serves otherwise: it keeps its shard's worker busy in
#: :func:`blocked_shard`.
BLOCKER = PreparationJob(dims=(2, 5), family="ghz")

#: Small jobs to pick misses for a chosen shard from (:func:`jobs_on`).
CANDIDATES = [
    ghz_job(dims=(a, b))
    for a in range(2, 7) for b in range(2, 7) if (a, b) != (2, 5)
]


def shard_of(service, job) -> int:
    """Index of the shard that owns ``job``'s key."""
    return service.placement.shard_index(service.engine.job_key(job))


def jobs_on(service, shard, count) -> list[PreparationJob]:
    """``count`` jobs of :data:`CANDIDATES` owned by ``shard``."""
    found = [job for job in CANDIDATES if shard_of(service, job) == shard]
    assert len(found) >= count, "too few candidates on the shard"
    return found[:count]


@contextlib.asynccontextmanager
async def blocked_shard(service):
    """Keep the worker of :data:`BLOCKER`'s shard busy running it
    until the block exits."""
    engine = service.engine
    ran, release = threading.Event(), threading.Event()
    run_batch = engine.run_batch

    def blocking_run_batch(jobs, keys=None, states=None):
        jobs = list(jobs)
        result = run_batch(jobs, keys=keys, states=states)
        if any(job is BLOCKER for job in jobs):
            ran.set()
            release.wait(10.0)
        return result

    engine.run_batch = blocking_run_batch
    try:
        blocked = asyncio.ensure_future(service.submit(BLOCKER))
        assert await asyncio.to_thread(ran.wait, 10.0)
        yield
        release.set()
        assert (await blocked).ok
    finally:
        release.set()
        del engine.run_batch


async def behind_a_busy_worker(service, requests):
    """Run ``requests`` (coroutines) while :data:`BLOCKER` keeps its
    shard's worker busy, and free the worker once all their misses
    are queued, so that those on its shard leave as one batch.

    Returns their results (exceptions included) and the service stats
    from before they were sent.
    """
    async with blocked_shard(service):
        before = service.stats()
        tasks = [asyncio.ensure_future(request) for request in requests]
        deadline = time.monotonic() + 10.0
        while service.queue_depth() < len(tasks):
            assert time.monotonic() < deadline, "misses never queued"
            await asyncio.sleep(0.001)
    results = await asyncio.gather(*tasks, return_exceptions=True)
    return results, before


@pytest.fixture(scope="module")
def entry_factory():
    """Build real cache entries (one synthesis, many keys)."""
    outcome = PreparationEngine().submit(ghz_job())

    def build(key: str = "k") -> CacheEntry:
        return CacheEntry(
            key=key, circuit=outcome.circuit, report=outcome.report
        )

    return build


def shards_of(placement: ShardPlacement) -> list[CircuitCache]:
    """The local cache shards of a placement, in routing order."""
    return [backend.cache for backend in placement.backends]


class TestShardIndex:
    def test_deterministic_and_in_range(self):
        for num_shards in (1, 2, 7):
            for key in ("a", "b", "deadbeef" * 8):
                index = modulo_index(key, num_shards)
                assert 0 <= index < num_shards
                assert index == modulo_index(key, num_shards)

    def test_distributes_across_all_shards(self):
        hit = {modulo_index(f"key-{i}", 4) for i in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_not_salted_like_builtin_hash(self):
        # Pin a value: must be stable across processes and versions.
        assert modulo_index("k", 4) == modulo_index("k", 4)
        assert modulo_index("", 1) == 0

    def test_local_placement_routes_by_modulo_index(self):
        placement = ShardPlacement.local(num_shards=4)
        for index in range(50):
            key = f"key-{index}"
            assert placement.shard_index(key) == modulo_index(key, 4)


class TestLocalPlacement:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError, match="num_shards"):
            ShardPlacement.local(num_shards=0)
        with pytest.raises(EngineError, match="capacity"):
            ShardPlacement.local(num_shards=2, capacity=-1)

    def test_capacity_split_totals(self):
        cache = ShardPlacement.local(num_shards=4, capacity=10)
        assert [s.capacity for s in shards_of(cache)] == [3, 3, 2, 2]
        assert sum(s.capacity for s in shards_of(cache)) == 10
        empty = ShardPlacement.local(num_shards=3, capacity=0)
        assert [s.capacity for s in shards_of(empty)] == [0, 0, 0]

    def test_nonzero_capacity_never_starves_a_shard(self):
        # capacity < num_shards must not hand some shards capacity 0:
        # CircuitCache treats 0 as "memory layer disabled", so keys
        # routed there would re-synthesise forever.
        cache = ShardPlacement.local(num_shards=4, capacity=2)
        assert [s.capacity for s in shards_of(cache)] == [1, 1, 1, 1]

    def test_entry_routed_to_owning_shard(self, entry_factory):
        cache = ShardPlacement.local(num_shards=4, capacity=8)
        entry = entry_factory("some-key")
        cache.put(entry)
        owner = cache.shard_index("some-key")
        assert len(cache) == 1
        for index, shard in enumerate(shards_of(cache)):
            assert len(shard) == (1 if index == owner else 0)
        assert cache.get("some-key") is entry
        assert "some-key" in cache
        assert cache.peek("some-key") is entry

    def test_stats_aggregate_is_fieldwise_sum(self, entry_factory):
        cache = ShardPlacement.local(num_shards=3, capacity=9)
        for index in range(6):
            cache.put(entry_factory(f"key-{index}"))
            cache.get(f"key-{index}")
        cache.get("absent-1")
        cache.get("absent-2")
        total = CacheStats()
        for shard in shards_of(cache):
            total = total.merged(shard.stats)
        assert cache.stats == total
        assert cache.stats.hits == 6
        assert cache.stats.misses == 2
        assert (
            cache.stats.hits + cache.stats.misses
            == cache.stats.lookups
        )
        assert len(cache.shard_stats()) == 3

    def test_matches_unsharded_cache_on_replayed_workload(self):
        def replay(cache):
            engine = PreparationEngine(cache=cache)
            engine.run_batch(WORKLOAD)
            engine.run_batch(WORKLOAD)
            return engine

        unsharded = replay(CircuitCache(capacity=64))
        sharded_cache = ShardPlacement.local(num_shards=4, capacity=64)
        sharded = replay(sharded_cache)
        assert sharded_cache.stats == unsharded.cache.stats
        assert (
            sharded.stats().cache_hits == unsharded.stats().cache_hits
        )
        assert len(sharded_cache) == len(unsharded.cache)

    def test_single_shard_equals_plain_cache(self, entry_factory):
        plain = CircuitCache(capacity=4)
        single = ShardPlacement.local(num_shards=1, capacity=4)
        for cache in (plain, single):
            cache.put(entry_factory("a"))
            cache.get("a")
            cache.get("absent")
        assert single.stats == plain.stats

    def test_per_shard_disk_directories(self, entry_factory, tmp_path):
        cache = ShardPlacement.local(
            num_shards=2, capacity=4, disk_dir=tmp_path
        )
        for index in range(4):
            cache.put(entry_factory(f"key-{index}"))
        written = sorted(p.name for p in tmp_path.iterdir())
        assert all(name.startswith("shard-") for name in written)
        files = list(tmp_path.glob("shard-*/*.json"))
        assert len(files) == 4
        # Every file sits in the directory of the shard owning its key.
        for path in files:
            key = path.stem
            assert (
                path.parent.name
                == f"shard-{cache.shard_index(key):02d}"
            )

    def test_disk_layer_shared_across_instances(
        self, entry_factory, tmp_path
    ):
        writer = ShardPlacement.local(
            num_shards=2, capacity=4, disk_dir=tmp_path
        )
        writer.put(entry_factory("persisted"))
        reader = ShardPlacement.local(
            num_shards=2, capacity=4, disk_dir=tmp_path
        )
        loaded = reader.get("persisted")
        assert loaded is not None
        assert reader.stats.disk_hits == 1

    def test_contains_consistent_with_corrupt_shard_file(self, tmp_path):
        cache = ShardPlacement.local(
            num_shards=2, capacity=4, disk_dir=tmp_path
        )
        owner = cache.shard_index("bad")
        shard_dir = tmp_path / f"shard-{owner:02d}"
        shard_dir.mkdir(parents=True)
        (shard_dir / "bad.json").write_text("{not json")
        assert "bad" not in cache
        assert cache.get("bad") is None

    def test_engine_integration_warm_rerun(self):
        engine = PreparationEngine(
            cache=ShardPlacement.local(num_shards=4, capacity=64)
        )
        cold = engine.run_batch(WORKLOAD)
        warm = engine.run_batch(WORKLOAD)
        assert not cold.failures
        assert warm.num_cache_hits == len(WORKLOAD)
        assert engine.stats().jobs_executed == 3


class TestMicroBatchQueue:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError):
            MicroBatchQueue(max_batch_size=0)

    def test_drains_already_queued_jobs_into_one_batch(self):
        async def scenario():
            queue = MicroBatchQueue(max_batch_size=8)
            futures = [queue.put(ghz_job()) for _ in range(5)]
            batch = await queue.next_batch()
            assert [q.future for q in batch] == futures
            assert queue.stats.batches_formed == 1
            assert queue.stats.largest_batch == 5

        asyncio.run(scenario())

    def test_max_batch_size_is_a_hard_cap(self):
        async def scenario():
            queue = MicroBatchQueue(max_batch_size=2)
            for _ in range(5):
                queue.put(ghz_job())
            sizes = [
                len(await queue.next_batch()) for _ in range(3)
            ]
            assert sizes == [2, 2, 1]
            assert queue.stats.full_batches == 2

        asyncio.run(scenario())

    def test_close_drains_then_signals_none(self):
        async def scenario():
            queue = MicroBatchQueue(max_batch_size=8)
            for _ in range(3):
                queue.put(ghz_job())
            assert queue.pending() == 3
            queue.close()
            assert queue.pending() == 3  # sentinel is not a job
            batch = await queue.next_batch()
            assert len(batch) == 3
            assert queue.pending() == 0
            assert await queue.next_batch() is None
            assert await queue.next_batch() is None  # stays closed
            assert queue.pending() == 0
            with pytest.raises(EngineError, match="closed"):
                queue.put(ghz_job())

        asyncio.run(scenario())

    def test_lone_job_leaves_at_once(self):
        # No timer: a job that arrives while the consumer waits is
        # handed out in the next turn of the loop, alone.
        async def scenario():
            queue = MicroBatchQueue(max_batch_size=8)
            task = asyncio.ensure_future(queue.next_batch())
            await asyncio.sleep(0)
            future = queue.put(ghz_job())
            await asyncio.sleep(0)
            assert task.done()
            assert [queued.future for queued in task.result()] == [future]
            assert queue.stats.batches_formed == 1
            assert queue.stats.full_batches == 0

        asyncio.run(scenario())


class TestAsyncPreparationService:
    def test_outcomes_match_serial_engine(self):
        async def scenario():
            async with AsyncPreparationService(num_shards=4) as service:
                return await service.run_batch(WORKLOAD)

        served = asyncio.run(scenario())
        reference = PreparationEngine().run_batch(WORKLOAD)
        assert [
            comparable_outcome(o) for o in served.outcomes
        ] == [comparable_outcome(o) for o in reference.outcomes]

    def test_concurrent_clients_smoke(self):
        # The short concurrency smoke run by CI: 32 clients at once.
        num_clients = 32
        jobs = [ghz_job(), PreparationJob(dims=(2, 2, 2), family="w")]

        async def scenario():
            async with AsyncPreparationService(num_shards=2) as service:
                results = await asyncio.gather(*(
                    service.run_batch(jobs) for _ in range(num_clients)
                ))
            return results, service.stats()

        results, stats = asyncio.run(scenario())
        assert len(results) == num_clients
        assert all(not result.failures for result in results)
        assert stats.requests == num_clients * len(jobs)
        assert stats.batches_dispatched < stats.requests
        assert stats.engine.jobs_executed == len(jobs)
        reference = PreparationEngine().run_batch(jobs)
        expected = [
            comparable_outcome(o) for o in reference.outcomes
        ]
        for result in results:
            assert [
                comparable_outcome(o) for o in result.outcomes
            ] == expected

    def test_single_submissions_coalesce_into_micro_batches(self):
        async def scenario():
            async with AsyncPreparationService(
                num_shards=1, max_batch_size=16
            ) as service:
                outcomes, before = await behind_a_busy_worker(
                    service, [service.submit(ghz_job()) for _ in range(6)]
                )
            return outcomes, before, service.stats()

        outcomes, before, stats = asyncio.run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        assert stats.requests - before.requests == 6
        # All six submissions were queued while the only worker was
        # busy, so they travel as one engine batch.
        assert stats.batches_dispatched - before.batches_dispatched == 1
        assert stats.largest_batch == 6
        # Dedup inside the batch.
        assert stats.engine.jobs_executed - before.engine.jobs_executed == 1

    def test_misses_behind_a_busy_slot_leave_together(self):
        # Six distinct misses queued while the only shard's worker is
        # busy ride one batch and are each synthesised once, though
        # they arrive 10 ms apart: the worker takes no batch while it
        # runs one.
        jobs = [
            ghz_job(dims=dims)
            for dims in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 4)]
        ]

        async def scenario():
            async with AsyncPreparationService(num_shards=1) as service:

                async def submit_after(delay, job):
                    await asyncio.sleep(delay)
                    return await service.submit(job)

                outcomes, before = await behind_a_busy_worker(
                    service,
                    [
                        submit_after(0.01 * position, job)
                        for position, job in enumerate(jobs)
                    ],
                )
            return outcomes, before, service.stats()

        outcomes, before, stats = asyncio.run(scenario())
        assert all(outcome.ok and not outcome.cache_hit for outcome in outcomes)
        assert stats.batches_dispatched - before.batches_dispatched == 1
        assert stats.largest_batch == 6
        assert stats.engine.jobs_executed - before.engine.jobs_executed == 6

    def test_failures_are_outcomes_not_exceptions(self):
        bad = ghz_job(params={"levels": 5})

        async def scenario():
            async with AsyncPreparationService() as service:
                return await service.run_batch([ghz_job(), bad])

        result = asyncio.run(scenario())
        assert [o.ok for o in result.outcomes] == [True, False]
        assert result.outcomes[1].error_type == "DimensionError"

    def test_submit_requires_running_service(self):
        async def scenario():
            service = AsyncPreparationService()
            with pytest.raises(EngineError, match="not running"):
                await service.submit(ghz_job())
            async with service:
                outcome = await service.submit(ghz_job())
                assert outcome.ok
            with pytest.raises(EngineError, match="not running"):
                await service.submit(ghz_job())

        asyncio.run(scenario())

    def test_stop_drains_pending_requests(self):
        async def scenario():
            service = AsyncPreparationService(max_batch_size=4)
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(ghz_job()))
                for _ in range(6)
            ]
            await asyncio.sleep(0)   # let every submit enqueue
            await service.stop()     # must not drop queued jobs
            outcomes = await asyncio.gather(*tasks)
            assert all(outcome.ok for outcome in outcomes)

        asyncio.run(scenario())

    def test_restart_after_stop(self):
        async def scenario():
            service = AsyncPreparationService()
            async with service:
                first = await service.submit(ghz_job())
            async with service:
                second = await service.submit(ghz_job())
            assert first.ok and second.ok
            # Second run is served from the engine's warm cache.
            assert second.cache_hit
            return service.stats()

        stats = asyncio.run(scenario())
        # Serving counters are lifetime-cumulative across restarts,
        # like the engine counters they sit next to.  The warm second
        # request is answered at the door, so only the first one rode
        # a micro-batch.
        assert stats.requests == 2
        assert stats.batches_dispatched == 1

    def test_door_hits_count_requests_not_batches(self):
        # A warm request is answered at the door: it counts as a
        # request and a cache hit, but rides no micro-batch.
        async def scenario():
            async with AsyncPreparationService() as service:
                await service.submit(ghz_job())
                cold = service.stats()
                hits = [await service.submit(ghz_job()) for _ in range(3)]
                batch = await service.run_batch([ghz_job(), ghz_job()])
                return cold, hits + list(batch.outcomes), service.stats()

        cold, hits, warm = asyncio.run(scenario())
        assert (cold.requests, cold.batches_dispatched) == (1, 1)
        assert all(outcome.cache_hit for outcome in hits)
        assert warm.requests == 6
        assert warm.batches_dispatched == 1
        assert warm.engine.cache_hits == 5
        assert warm.engine.cache_misses == 1
        assert warm.engine.jobs_submitted == 6

    def test_stop_answers_requests_inside_the_door(self, monkeypatch):
        # stop() begins while three requests are still being keyed on
        # worker threads: their misses are queued and answered, and a
        # request arriving after stop() began is refused.
        async def scenario():
            service = AsyncPreparationService()
            key_and_state = service.engine.key_and_state

            def slow_key_and_state(job):
                time.sleep(0.1)
                return key_and_state(job)

            monkeypatch.setattr(
                service.engine, "key_and_state", slow_key_and_state
            )
            await service.start()
            waiters = [
                asyncio.ensure_future(service.submit(ghz_job(dims)))
                for dims in [(2, 2), (2, 3), (3, 2)]
            ]
            await asyncio.sleep(0)   # every submit is inside the door
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0)
            with pytest.raises(EngineError, match="not running"):
                await service.submit(ghz_job())
            await stopping
            outcomes = await asyncio.wait_for(
                asyncio.gather(*waiters), timeout=5.0
            )
            return outcomes, service.stats()

        outcomes, stats = asyncio.run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        assert not any(outcome.cache_hit for outcome in outcomes)
        assert stats.requests == 3
        assert stats.engine.jobs_executed == 3

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(EngineError, match="num_shards"):
            AsyncPreparationService(num_shards=0)
        with pytest.raises(EngineError, match="num_shards"):
            AsyncPreparationService(num_shards=-3)

    def test_cancellation_propagates_out_of_dispatch(self, monkeypatch):
        # A CancelledError raised while a micro-batch is in flight
        # (event-loop teardown) must cancel the waiters AND keep
        # propagating so the shard's worker itself dies; swallowing
        # it would leave an uncancellable loop that hangs shutdown.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()

            def cancelled_run_batch(jobs, keys=None, states=None):
                raise asyncio.CancelledError

            monkeypatch.setattr(
                service.engine, "run_batch", cancelled_run_batch
            )
            with pytest.raises(asyncio.CancelledError):
                await service.submit(ghz_job())
            await asyncio.sleep(0)
            assert not service.running
            # Stopping a service whose worker died cancelled must not
            # re-raise that stale CancelledError into the caller.
            await service.stop()
            await service.stop()   # idempotent

        asyncio.run(scenario())

    def test_restart_after_a_worker_died(self, monkeypatch):
        # start() on a service whose worker died cancelled stops it
        # first, then serves again on fresh workers.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()

            def cancelled_run_batch(jobs, keys=None, states=None):
                raise asyncio.CancelledError

            monkeypatch.setattr(
                service.engine, "run_batch", cancelled_run_batch
            )
            with pytest.raises(asyncio.CancelledError):
                await service.submit(ghz_job())
            monkeypatch.undo()
            await asyncio.sleep(0)
            assert not service.running
            await service.start()
            assert service.running
            outcome = await service.submit(ghz_job())
            await service.stop()
            return outcome

        assert asyncio.run(scenario()).ok

    def test_stop_fails_requests_stranded_by_dead_dispatcher(self):
        # If the workers are cancelled while requests are still
        # queued, stop() must resolve those futures (with an error)
        # instead of leaving their awaiters hanging forever.
        async def scenario():
            service = AsyncPreparationService(max_batch_size=1)
            await service.start()
            waiters = [
                asyncio.ensure_future(service.submit(ghz_job()))
                for _ in range(3)
            ]
            await asyncio.sleep(0)      # let every submit enqueue
            for worker in service._workers:
                worker.cancel()
            await service.stop()
            # Every awaiter resolves promptly — outcome or error,
            # never a hang.
            results = await asyncio.wait_for(
                asyncio.gather(*waiters, return_exceptions=True),
                timeout=5.0,
            )
            assert len(results) == 3
            for result in results:
                assert isinstance(result, BaseException) or result.ok
            assert any(
                isinstance(result, EngineError)
                and "before the request" in str(result)
                for result in results
            )

        asyncio.run(scenario())

    def test_custom_engine_is_respected(self):
        engine = PreparationEngine(cache=CircuitCache(capacity=8))

        async def scenario():
            async with AsyncPreparationService(engine=engine) as service:
                await service.submit(ghz_job())
                return service

        service = asyncio.run(scenario())
        assert service.engine is engine
        assert engine.stats().jobs_submitted == 1

    def test_sharded_disk_cache_survives_service_restart(self, tmp_path):
        async def scenario():
            async with AsyncPreparationService(
                num_shards=2, disk_dir=tmp_path
            ) as service:
                return await service.submit(ghz_job())

        first = asyncio.run(scenario())
        assert first.ok and not first.cache_hit

        async def scenario_two():
            async with AsyncPreparationService(
                num_shards=2, disk_dir=tmp_path
            ) as service:
                outcome = await service.submit(ghz_job())
                return outcome, service.stats()

        second, stats = asyncio.run(scenario_two())
        assert second.cache_hit
        assert stats.engine.disk_hits == 1
        assert stats.engine.jobs_executed == 0

    def test_single_shard_disk_layout(self, tmp_path):
        # One shard is a one-shard placement: its entries live under
        # disk_dir/shard-00, like every shard of a larger fleet.
        async def scenario():
            async with AsyncPreparationService(
                num_shards=1, disk_dir=tmp_path
            ) as service:
                return await service.submit(ghz_job())

        assert asyncio.run(scenario()).ok
        assert [p.name for p in tmp_path.iterdir()] == ["shard-00"]
        assert len(list((tmp_path / "shard-00").glob("*.json"))) == 1

    def test_stats_summary_readable(self):
        async def scenario():
            async with AsyncPreparationService() as service:
                await service.submit(ghz_job())
                return service.stats()

        stats = asyncio.run(scenario())
        text = stats.summary()
        assert "requests=1" in text
        assert "jobs=1" in text


class TestMicroBatchQueueEdgeCases:
    def test_drain_on_close_preserves_submission_order(self):
        async def scenario():
            queue = MicroBatchQueue(max_batch_size=3)
            futures = [queue.put(ghz_job()) for _ in range(7)]
            queue.close()
            drained = []
            while True:
                batch = await queue.next_batch()
                if batch is None:
                    break
                drained.extend(queued.future for queued in batch)
            return futures, drained, queue.stats

        futures, drained, stats = asyncio.run(scenario())
        # Every accepted job comes out exactly once, in order.
        assert drained == futures
        assert stats.batches_formed == 3  # 3 + 3 + 1

    def test_submit_after_close_raises_clean_error(self):
        async def scenario():
            queue = MicroBatchQueue()
            queue.put(ghz_job())
            queue.close()
            with pytest.raises(EngineError, match="closed"):
                queue.put(ghz_job())
            # The refusal is clean: nothing already accepted is lost,
            # and the queue still reports itself closed.
            assert queue.closed
            batch = await queue.next_batch()
            assert len(batch) == 1
            assert await queue.next_batch() is None

        asyncio.run(scenario())


class TestStatsToDict:
    def test_engine_stats_round_trip(self):
        from repro.engine import PreparationEngine

        engine = PreparationEngine()
        engine.run_batch([ghz_job(), ghz_job(dims=(2, 2, 2))])
        stats = engine.stats()
        payload = stats.to_dict()
        assert payload["jobs_submitted"] == 2
        assert payload["cache_lookups"] == (
            payload["cache_hits"] + payload["cache_misses"]
        )
        import json

        restored = type(stats).from_dict(json.loads(json.dumps(payload)))
        assert restored == stats

    def test_service_stats_round_trip(self):
        from repro.service.service import ServiceStats

        async def scenario():
            async with AsyncPreparationService() as service:
                await service.submit(ghz_job())
                return service.stats()

        stats = asyncio.run(scenario())
        payload = stats.to_dict()
        assert payload["requests"] == 1
        assert payload["engine"]["jobs_submitted"] == 1
        import json

        restored = ServiceStats.from_dict(json.loads(json.dumps(payload)))
        assert restored == stats

    def test_from_dict_tolerates_extra_keys(self):
        from repro.engine import PreparationEngine

        stats = PreparationEngine().stats()
        payload = {**stats.to_dict(), "new_field_from_the_future": 1}
        assert type(stats).from_dict(payload) == stats


class TestPerShardDispatch:
    """Each shard has its own queue and worker: batches on disjoint
    shards run concurrently, batches of one shard serialise — and
    outcomes stay equal either way."""

    @staticmethod
    def _disjoint_shard_jobs(engine, want_same=False):
        """Two single-job workloads on different (or equal) shards.

        Sixteen candidates: content keys fold in the circuit format, so
        every format change deals the candidates to shards anew, and
        eight of them once all landed on one shard of two.
        """
        candidates = [
            ghz_job(dims=dims)
            for dims in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2),
                         (2, 2, 3), (3, 6, 2), (2, 4), (4, 2), (3, 4),
                         (2, 2, 2, 2), (5, 2), (2, 5), (3, 3, 2), (4, 3),
                         (2, 6)]
        ]
        cache = engine.cache
        first = candidates[0]
        first_shard = cache.shard_index(engine.job_key(first))
        for candidate in candidates[1:]:
            shard = cache.shard_index(engine.job_key(candidate))
            if (shard == first_shard) == want_same:
                return first, candidate
        pytest.skip("no shard-colliding candidate pair found")

    def _concurrency_probe(self, want_same):
        import threading

        from repro.engine import PreparationEngine

        class ProbedEngine(PreparationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.concurrent = 0
                self.max_concurrent = 0
                self.probe_lock = threading.Lock()

            def run_batch(self, jobs, keys=None, states=None):
                with self.probe_lock:
                    self.concurrent += 1
                    self.max_concurrent = max(
                        self.max_concurrent, self.concurrent
                    )
                import time as _time

                _time.sleep(0.05)   # widen the overlap window
                try:
                    return super().run_batch(jobs, keys=keys, states=states)
                finally:
                    with self.probe_lock:
                        self.concurrent -= 1

        engine = ProbedEngine(cache=ShardPlacement.local(num_shards=2))
        job_a, job_b = self._disjoint_shard_jobs(
            engine, want_same=want_same
        )

        async def scenario():
            async with AsyncPreparationService(
                engine=engine, max_batch_size=1
            ) as service:
                outcomes = await asyncio.gather(
                    service.submit(job_a), service.submit(job_b)
                )
            return outcomes

        outcomes = asyncio.run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        return engine.max_concurrent, outcomes

    def test_disjoint_shards_dispatch_concurrently(self):
        max_concurrent, _ = self._concurrency_probe(want_same=False)
        assert max_concurrent == 2

    def test_same_shard_batches_serialise(self):
        max_concurrent, _ = self._concurrency_probe(want_same=True)
        assert max_concurrent == 1

    def test_unseeded_random_jobs_key_independently(self):
        # Two identical unseeded random payloads in one micro-batch
        # must resolve (and key) independently — shard routing must
        # never collapse them into one key, or the second would be
        # served the first one's circuit as an intra-batch duplicate.
        async def scenario():
            async with AsyncPreparationService(
                num_shards=4, max_batch_size=2
            ) as service:
                return await service.run_batch([
                    PreparationJob(dims=(2, 2), family="random"),
                    PreparationJob(dims=(2, 2), family="random"),
                ])

        result = asyncio.run(scenario())
        first, second = result.outcomes
        assert first.ok and second.ok
        assert first.key != second.key
        assert second.cache_hit is False

    def test_concurrent_dispatch_outcomes_equal_serial(self):
        from repro.engine import PreparationEngine, comparable_outcome

        jobs = [
            ghz_job(dims=(3, 6, 2)),
            ghz_job(dims=(2, 2, 2)),
            PreparationJob(dims=(3, 3), family="random",
                           params={"rng": 7}),
            ghz_job(dims=(3, 6, 2)),   # duplicate
        ]

        async def scenario():
            async with AsyncPreparationService(
                num_shards=4, max_batch_size=2
            ) as service:
                results = await asyncio.gather(*(
                    service.run_batch(jobs) for _ in range(8)
                ))
            return results, service.stats()

        results, stats = asyncio.run(scenario())
        reference = PreparationEngine().run_batch(jobs)
        expected = [comparable_outcome(o) for o in reference.outcomes]
        for result in results:
            assert [
                comparable_outcome(o) for o in result.outcomes
            ] == expected
        # Counter determinism: every slot is one counted lookup,
        # every distinct key one miss, despite concurrent dispatch.
        assert stats.engine.cache_misses == 3
        assert stats.engine.cache_hits == 8 * len(jobs) - 3

    def test_counters_hold_when_door_threads_contend(self):
        # More callers than executor threads and a short switch
        # interval: door threads count hits on the shared engine and
        # cache counters together, and no update may be lost.
        distinct = [
            ghz_job(dims=dims)
            for dims in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]
        ]
        jobs = distinct * 16
        clients = 64

        async def scenario():
            async with AsyncPreparationService(num_shards=4) as service:
                owners = {shard_of(service, job) for job in distinct}
                await service.run_batch(distinct)
                results = await asyncio.wait_for(
                    asyncio.gather(*(
                        service.run_batch(jobs) for _ in range(clients)
                    )),
                    timeout=60.0,
                )
            return results, owners, service.stats()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, owners, stats = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert all(result.num_cache_hits == len(jobs) for result in results)
        total = clients * len(jobs) + len(distinct)
        assert stats.requests == total
        # The cold call's misses leave as one batch per owner shard.
        assert stats.batches_dispatched == len(owners)
        assert stats.engine.jobs_submitted == total
        assert stats.engine.cache_lookups == total
        assert stats.engine.cache_misses == len(distinct)

    def test_fast_group_does_not_wait_for_slow_group(self):
        # Two misses sent at once on two shards: each shard's worker
        # runs its own batch, so the fast job resolves while the slow
        # one still runs.
        class SlowEngine(PreparationEngine):
            slow_job = None

            def run_batch(self, jobs, keys=None, states=None):
                jobs = list(jobs)
                if any(job is self.slow_job for job in jobs):
                    time.sleep(0.4)
                return super().run_batch(jobs, keys=keys, states=states)

        engine = SlowEngine(cache=ShardPlacement.local(num_shards=2))
        slow, fast = self._disjoint_shard_jobs(engine)
        engine.slow_job = slow

        async def timed(service, job):
            outcome = await service.submit(job)
            return outcome, time.perf_counter()

        async def scenario():
            async with AsyncPreparationService(
                engine=engine, max_batch_size=2
            ) as service:
                results = await asyncio.gather(
                    timed(service, slow), timed(service, fast)
                )
            return results, service.stats()

        results, stats = asyncio.run(scenario())
        (slow_outcome, slow_done), (fast_outcome, fast_done) = results
        assert slow_outcome.ok and fast_outcome.ok
        assert stats.batches_dispatched == 2
        assert slow_done - fast_done >= 0.2

    def test_group_exception_fails_only_its_group(self):
        # A batch that raises fails only its own requests, and its
        # shard's worker goes on to serve the next one.
        class BrokenShardEngine(PreparationEngine):
            broken_job = None

            def run_batch(self, jobs, keys=None, states=None):
                jobs = list(jobs)
                if any(job is self.broken_job for job in jobs):
                    raise RuntimeError("shard exploded")
                return super().run_batch(jobs, keys=keys, states=states)

        engine = BrokenShardEngine(
            cache=ShardPlacement.local(num_shards=2)
        )
        broken, healthy = self._disjoint_shard_jobs(engine)
        engine.broken_job = broken

        async def scenario():
            async with AsyncPreparationService(
                engine=engine, max_batch_size=2
            ) as service:
                results = await asyncio.gather(
                    service.submit(broken),
                    service.submit(healthy),
                    return_exceptions=True,
                )
                engine.broken_job = None
                again = await asyncio.wait_for(
                    service.submit(broken), timeout=5.0
                )
                running = service.running
            return results, again, running, service.stats()

        (failed, served), again, running, stats = asyncio.run(scenario())
        assert stats.batches_dispatched == 3
        assert isinstance(failed, RuntimeError)
        assert served.ok
        assert running
        assert again.ok and not again.cache_hit

    def test_idle_shard_is_not_held_behind_a_busy_one(self):
        # Shard A's worker runs BLOCKER and a second A miss waits for
        # it; a miss for shard B still resolves at once.
        async def scenario():
            async with AsyncPreparationService(num_shards=2) as service:
                busy = shard_of(service, BLOCKER)
                (second,) = jobs_on(service, busy, 1)
                (idle,) = jobs_on(service, 1 - busy, 1)
                async with blocked_shard(service):
                    before = service.stats()
                    waiting = asyncio.ensure_future(service.submit(second))
                    deadline = time.monotonic() + 10.0
                    while not (
                        service.queue_depth()
                        or service.stats().batches_dispatched
                        > before.batches_dispatched
                    ):
                        assert time.monotonic() < deadline, "never queued"
                        await asyncio.sleep(0.001)
                    served = await asyncio.wait_for(
                        service.submit(idle), timeout=2.0
                    )
                    held = not waiting.done()
                return served, held, await waiting

        served, held, second = asyncio.run(scenario())
        assert served.ok and not served.cache_hit
        assert held
        assert second.ok

    def test_misses_for_a_busy_shard_leave_together(self):
        # Three misses queued behind BLOCKER on its shard leave as one
        # batch of three when the shard's worker frees, though the
        # other shard's worker is idle.
        async def scenario():
            async with AsyncPreparationService(num_shards=2) as service:
                jobs = jobs_on(service, shard_of(service, BLOCKER), 3)
                outcomes, before = await behind_a_busy_worker(
                    service, [service.submit(job) for job in jobs]
                )
            return outcomes, before, service.stats()

        outcomes, before, stats = asyncio.run(scenario())
        assert all(outcome.ok for outcome in outcomes)
        assert stats.batches_dispatched - before.batches_dispatched == 1
        assert stats.largest_batch == 3
        assert stats.engine.jobs_executed - before.engine.jobs_executed == 3


def count_thread_hops(monkeypatch) -> list:
    """Record every ``asyncio.to_thread`` call, by function name."""
    calls = []
    original = asyncio.to_thread

    async def counted(function, *args, **kwargs):
        calls.append(function.__name__)
        return await original(function, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counted)
    return calls


class TestLoopDoor:
    """Memoised in-memory hits are answered on the event loop; every
    other job of a call takes the door's thread."""

    SEEDED = PreparationJob(dims=(3, 3), family="random", params={"rng": 3})
    DICKE = PreparationJob(
        dims=(2, 3, 2), family="dicke", params={"excitations": 2}
    )

    def test_warm_hits_make_no_thread_hop(self, monkeypatch):
        jobs = [self.SEEDED, self.DICKE, ghz_job()]

        async def scenario():
            async with AsyncPreparationService(num_shards=2) as service:
                await service.run_batch(jobs)
                cold = service.stats()
                hops = count_thread_hops(monkeypatch)
                single = await service.submit(self.DICKE)
                batch = await service.run_batch(jobs + jobs)
                return cold, single, batch, hops, service.stats()

        cold, single, batch, hops, warm = asyncio.run(scenario())
        assert hops == []
        assert single.cache_hit
        assert all(outcome.cache_hit for outcome in batch.outcomes)
        assert warm.requests == cold.requests + 7
        assert warm.batches_dispatched == cold.batches_dispatched
        assert warm.engine.cache_hits == cold.engine.cache_hits + 7
        assert warm.engine.cache_lookups == cold.engine.cache_lookups + 7
        assert warm.engine.jobs_submitted == (
            cold.engine.jobs_submitted + 7
        )

    def test_warm_door_hits_never_resolve(self, monkeypatch):
        async def scenario():
            async with AsyncPreparationService() as service:
                await service.run_batch([self.SEEDED, self.DICKE])

                def refused(job):
                    raise AssertionError(f"resolved {job.label}")

                monkeypatch.setattr(PreparationJob, "resolve_state", refused)
                return [
                    await service.submit(self.SEEDED),
                    await service.submit(self.DICKE),
                ]

        outcomes = asyncio.run(scenario())
        assert all(outcome.ok and outcome.cache_hit for outcome in outcomes)

    def test_unmemoised_jobs_of_a_call_take_the_thread(self, monkeypatch):
        unseeded = PreparationJob(dims=(2, 2), family="random")

        async def scenario():
            async with AsyncPreparationService() as service:
                await service.submit(self.SEEDED)
                hops = count_thread_hops(monkeypatch)
                batch = await service.run_batch([self.SEEDED, unseeded])
                return hops, batch

        hops, batch = asyncio.run(scenario())
        # One hop keys the unseeded job; its miss then rides a batch.
        assert hops.count("_look_up") == 1
        assert hops.count("run_batch") == 1
        hit, miss = batch.outcomes
        assert hit.cache_hit and miss.ok and not miss.cache_hit

    def test_a_never_seen_job_resolves_once(self, monkeypatch):
        # The door resolves the state to key the job; the miss carries
        # it to run_batch, which synthesises it without resolving it
        # again.
        job = PreparationJob(
            dims=(3, 6, 2), family="random", params={"rng": 21}
        )
        calls = []
        original = PreparationJob.resolve_state

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(PreparationJob, "resolve_state", counted)

        async def scenario():
            async with AsyncPreparationService() as service:
                return await service.submit(job)

        outcome = asyncio.run(scenario())
        assert outcome.ok and not outcome.cache_hit
        assert calls == [job]

    def test_disk_only_entry_takes_the_thread_once(
        self, monkeypatch, tmp_path
    ):
        async def scenario():
            async with AsyncPreparationService(
                num_shards=2, disk_dir=tmp_path
            ) as service:
                await service.submit(self.SEEDED)
                service.engine.cache.clear()   # memory only; key memoised
                before = service.stats()
                hops = count_thread_hops(monkeypatch)
                first = await service.submit(self.SEEDED)
                second = await service.submit(self.SEEDED)
                return before, hops, first, second, service.stats()

        before, hops, first, second, after = asyncio.run(scenario())
        assert first.cache_hit and second.cache_hit
        # The disk hit is probed on the door's thread; the promoted
        # entry then answers on the loop.
        assert hops == ["_look_up"]
        assert after.engine.disk_hits == before.engine.disk_hits + 1
        assert after.engine.cache_hits == before.engine.cache_hits + 2
        assert after.engine.cache_lookups == before.engine.cache_lookups + 2
        assert after.batches_dispatched == before.batches_dispatched

    def test_busy_shard_lock_sends_the_call_to_the_thread(
        self, monkeypatch
    ):
        import threading

        held = threading.Event()
        release = threading.Event()

        def hold(lock):
            with lock:
                held.set()
                release.wait(5.0)

        async def scenario():
            async with AsyncPreparationService(num_shards=2) as service:
                await service.submit(self.SEEDED)
                key = service.engine.job_key(self.SEEDED)
                shard = service.engine.cache.shard_for(key)
                holder = threading.Thread(target=hold, args=(shard.lock,))
                holder.start()
                assert await asyncio.to_thread(held.wait, 5.0)
                hops = count_thread_hops(monkeypatch)
                ticks = 0

                async def ticker():
                    nonlocal ticks
                    while True:
                        await asyncio.sleep(0.005)
                        ticks += 1

                ticking = asyncio.ensure_future(ticker())
                answer = asyncio.ensure_future(service.submit(self.SEEDED))
                await asyncio.sleep(0.2)
                ticks_while_held = ticks
                pending_while_held = not answer.done()
                release.set()
                outcome = await asyncio.wait_for(answer, timeout=5.0)
                ticking.cancel()
                holder.join(timeout=5.0)
                assert not holder.is_alive()
                return hops, ticks_while_held, pending_while_held, outcome

        hops, ticks, pending, outcome = asyncio.run(scenario())
        assert hops == ["_look_up"]
        assert pending
        assert ticks >= 10
        assert outcome.ok and outcome.cache_hit
