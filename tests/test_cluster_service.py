"""Integration tests for cluster serving (`repro.cluster.service`).

These spin up real shard-server subprocesses through
:class:`ShardSupervisor` and drive them through
:class:`ClusterPreparationService`, checking the acceptance contract
of the cluster front end:

* outcomes are identical to a single in-process engine run, and the
  fleet-aggregated cache counters match the single-process replay,
* killing a shard mid-batch loses zero requests — every future
  resolves with a success (failover) or a structured per-job failure,
* ``/healthz`` grows per-shard detail in cluster mode while the plain
  service keeps its historical shape.

The shard-link tests (probe connection, malformed shard responses)
use in-process servers and stubs instead of subprocesses.
"""

from __future__ import annotations

import asyncio
import signal
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterPreparationService,
    RemoteShard,
    ShardAddress,
    ShardPlacement,
    ShardSupervisor,
)
from repro.engine import (
    PreparationEngine,
    PreparationJob,
    comparable_outcome,
)
from repro.engine.cache import CircuitCache
from repro.exceptions import ClusterConfigError
from repro.net import ClientError, HttpServer, ReproClient
from repro.service import AsyncPreparationService

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)

# Duplicate-heavy, like real preparation traffic: 4 distinct states,
# each requested 6 times.
DISTINCT = [
    PreparationJob(dims=(3, 6, 2), family="ghz"),
    PreparationJob(dims=(2, 2, 2), family="w"),
    PreparationJob(dims=(3, 3), family="random", params={"rng": 7}),
    PreparationJob(dims=(2, 3), family="random", params={"rng": 11}),
]
WORKLOAD = DISTINCT * 6


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def fleet():
    supervisor = ShardSupervisor(3, replicas=2)
    supervisor.start()
    yield supervisor
    supervisor.terminate(timeout=15.0)


class TestConstruction:
    def test_exactly_one_of_placement_or_config(self, tmp_path):
        with pytest.raises(ClusterConfigError, match="exactly one"):
            ClusterPreparationService()

    def test_rejects_local_placement(self):
        from repro.cluster import LocalShard

        placement = ShardPlacement(
            [LocalShard("shard-00", CircuitCache(capacity=4))]
        )
        with pytest.raises(ClusterConfigError, match="remote"):
            ClusterPreparationService(placement)


class TestOutcomesAndStats:
    def test_matches_in_process_engine_and_aggregates_cache(
        self, fleet
    ):
        async def scenario():
            service = ClusterPreparationService(
                config=fleet.cluster_config()
            )
            async with service:
                result = await service.run_batch(WORKLOAD)
                stats = await service.wire_stats()
                health = service.shard_health()
            return result, stats, health

        result, stats, health = run(scenario())

        # Outcome identity with one in-process engine.
        assert not result.failures
        engine = PreparationEngine()
        reference = engine.run_batch(WORKLOAD)
        assert [
            comparable_outcome(o) for o in result.outcomes
        ] == [comparable_outcome(o) for o in reference.outcomes]

        # Fleet-aggregated engine counters equal the single-process
        # replay: same keys, same dedup, just spread over 3 shards.
        assert stats["engine"]["cache_hits"] == engine.stats().cache_hits
        assert (
            stats["engine"]["cache_misses"]
            == engine.stats().cache_misses
        )
        assert stats["engine"]["jobs_submitted"] == len(WORKLOAD)

        # The cluster breakdown names every shard, all reachable.
        cluster = stats["cluster"]
        assert cluster["num_shards"] == 3
        assert cluster["healthy"] == 3
        assert cluster["strategy"] == "ring"
        assert [row["id"] for row in cluster["shards"]] == [
            "shard-00", "shard-01", "shard-02",
        ]
        assert all(row["reachable"] for row in cluster["shards"])

        # Health rows in placement order, all healthy.
        assert [row["id"] for row in health] == [
            "shard-00", "shard-01", "shard-02",
        ]
        assert all(row["healthy"] for row in health)

    def test_duplicates_colocate_on_one_shard(self, fleet):
        # The ring must send payload-identical jobs to one shard, or
        # the fleet would synthesise (and cache) the state N times.
        async def scenario():
            service = ClusterPreparationService(
                config=fleet.cluster_config()
            )
            async with service:
                await service.run_batch(WORKLOAD)
                return await service.wire_stats()

        stats = run(scenario())
        per_shard_misses = [
            row["engine"]["cache_misses"]
            for row in stats["cluster"]["shards"]
        ]
        assert sum(per_shard_misses) == len(DISTINCT)


class TestShardLossMidBatch:
    def test_zero_lost_requests_when_a_shard_dies(self, fleet):
        # Enough distinct jobs that every shard owns some, slow
        # enough that the kill lands mid-flight.
        jobs = [
            PreparationJob(
                dims=(3, 3, 2), family="random", params={"rng": seed}
            )
            for seed in range(48)
        ]

        async def scenario():
            service = ClusterPreparationService(
                config=fleet.cluster_config()
            )
            async with service:
                batch = asyncio.ensure_future(service.run_batch(jobs))
                await asyncio.sleep(0.05)
                fleet._children[0].process.send_signal(signal.SIGKILL)
                # The acceptance bound: resolve every request, never
                # hang.  60s is far above one batch's synthesis time.
                result = await asyncio.wait_for(batch, timeout=60.0)
                # The kill may land after shard-00's groups already
                # finished; then only the active probe notices.  Wait
                # out a few health intervals.
                deadline = asyncio.get_running_loop().time() + 10.0
                while asyncio.get_running_loop().time() < deadline:
                    health = service.shard_health()
                    if not health[0]["healthy"]:
                        break
                    await asyncio.sleep(0.25)
            return result, health

        result, health = run(scenario())

        # Zero lost: one resolved outcome per submitted job, each a
        # success (failover took it) or a structured failure.
        assert len(result.outcomes) == len(jobs)
        for outcome in result.outcomes:
            if not outcome.ok:
                assert outcome.error_type in (
                    "ShardUnavailableError", "ClientError",
                )
                assert outcome.message
        # replicas=2 means a single shard loss is fully absorbed
        # unless both chain entries were the victim — impossible with
        # distinct ring successors — so everything should in fact
        # succeed once the client notices the dead socket.
        assert not result.failures

        by_id = {row["id"]: row for row in health}
        assert by_id["shard-00"]["healthy"] is False

    def test_failover_before_batch_and_recovery_rows(self, fleet):
        # Kill a shard *before* traffic: its keys route straight to
        # replicas, and wire_stats reports it unreachable.
        fleet._children[1].process.send_signal(signal.SIGKILL)
        fleet._children[1].process.wait()

        async def scenario():
            service = ClusterPreparationService(
                config=fleet.cluster_config()
            )
            async with service:
                result = await service.run_batch(WORKLOAD)
                stats = await service.wire_stats()
            return result, stats

        result, stats = run(scenario())
        assert not result.failures
        reference = PreparationEngine().run_batch(WORKLOAD)
        assert [
            comparable_outcome(o) for o in result.outcomes
        ] == [comparable_outcome(o) for o in reference.outcomes]
        rows = {
            row["id"]: row for row in stats["cluster"]["shards"]
        }
        assert rows["shard-01"]["reachable"] is False
        assert stats["cluster"]["healthy"] == 2


class TestHealthzDetail:
    def test_cluster_healthz_lists_shards(self, fleet):
        async def scenario():
            service = ClusterPreparationService(
                config=fleet.cluster_config()
            )
            await service.start()
            try:
                async with HttpServer(service) as server:
                    async with ReproClient(
                        "127.0.0.1", server.port
                    ) as client:
                        return await client.ping()
            finally:
                await service.stop()

        health = run(scenario())
        assert health["status"] == "ok"
        assert [row["id"] for row in health["shards"]] == [
            "shard-00", "shard-01", "shard-02",
        ]
        for row in health["shards"]:
            assert set(row) == {
                "id", "addr", "healthy", "inflight",
                "last_probe_seconds", "consecutive_failures",
            }
            assert row["consecutive_failures"] == 0

    def test_plain_healthz_keeps_historical_shape(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            try:
                async with HttpServer(service) as server:
                    async with ReproClient(
                        "127.0.0.1", server.port
                    ) as client:
                        return await client.ping()
            finally:
                await service.stop()

        health = run(scenario())
        assert "shards" not in health
        assert set(health) == {
            "status", "accepting", "uptime_seconds",
            "inflight_requests", "v",
        }


class TestConnectTimeout:
    def test_default_is_unbounded_as_before(self):
        client = ReproClient("127.0.0.1", 1)
        assert client.connect_timeout is None

    def test_connect_timeout_fails_fast_with_transport_error(self):
        # TEST-NET-1 (RFC 5737) is never routable: the connect either
        # hangs (timeout fires) or the network refuses it outright —
        # both must surface as a fast transport ClientError.
        async def scenario():
            client = ReproClient(
                "192.0.2.1", 9, connect_timeout=0.5,
            )
            try:
                with pytest.raises(ClientError) as info:
                    await asyncio.wait_for(client.ping(), timeout=10.0)
            finally:
                await client.aclose()
            return info.value

        started = time.monotonic()
        error = run(scenario())
        assert error.code == "transport"
        assert time.monotonic() - started < 10.0


class TestProbeConnection:
    """Health probes travel on their own connection to the shard, but
    a failed probe still closes the batch connection too."""

    def test_probe_does_not_wait_behind_a_slow_batch(self):
        class SlowBatchService(AsyncPreparationService):
            async def run_batch(self, jobs):
                await asyncio.sleep(1.5)
                return await super().run_batch(jobs)

        async def scenario():
            service = SlowBatchService()
            await service.start()
            async with HttpServer(service) as server:
                shard = RemoteShard(
                    "shard-00", "127.0.0.1", server.port,
                    health_timeout=0.5,
                )
                loop = asyncio.get_running_loop()
                try:
                    batch = asyncio.ensure_future(
                        shard.run_jobs([DISTINCT[0]])
                    )
                    await asyncio.sleep(0.2)  # the batch is in flight
                    probing = loop.time()
                    healthy = await shard.check_health()
                    probe_seconds = loop.time() - probing
                    outcomes = await batch
                finally:
                    await shard.aclose()
            return healthy, probe_seconds, outcomes

        healthy, probe_seconds, outcomes = run(scenario())
        assert healthy is True
        assert probe_seconds < 0.5
        assert [outcome.ok for outcome in outcomes] == [True]

    def test_failed_probe_fails_the_inflight_batch(self):
        # A black-holed shard: connections are accepted, nothing is
        # ever answered.  The batch must fail over shortly after the
        # failed probe, not after its 60 s request timeout.
        async def scenario():
            async def black_hole(reader, writer):
                try:
                    await reader.read()
                finally:
                    writer.close()

            listener = await asyncio.start_server(
                black_hole, "127.0.0.1", 0
            )
            port = listener.sockets[0].getsockname()[1]
            shard = RemoteShard(
                "shard-00", "127.0.0.1", port,
                request_timeout=60.0, health_timeout=0.3,
            )
            loop = asyncio.get_running_loop()
            try:
                batch = asyncio.ensure_future(
                    shard.run_jobs([DISTINCT[0]])
                )
                await asyncio.sleep(0.1)  # the batch is in flight
                healthy = await shard.check_health()
                probed = loop.time()
                with pytest.raises(ClientError) as info:
                    await asyncio.wait_for(batch, timeout=10.0)
                failed_after = loop.time() - probed
            finally:
                await shard.aclose()
                listener.close()
                await listener.wait_closed()
            return healthy, info.value, failed_after

        healthy, error, failed_after = run(scenario())
        assert healthy is False
        assert error.code == "transport"
        assert failed_after < 2.0

    def test_failed_stats_fetch_leaves_the_batch_alone(self):
        # Stats travel on the probe connection under health_timeout;
        # unlike a failed probe, a failed fetch does not touch the
        # batch connection.
        async def scenario():
            async def black_hole(reader, writer):
                try:
                    await reader.read()
                finally:
                    writer.close()

            listener = await asyncio.start_server(
                black_hole, "127.0.0.1", 0
            )
            port = listener.sockets[0].getsockname()[1]
            shard = RemoteShard(
                "shard-00", "127.0.0.1", port,
                request_timeout=60.0, health_timeout=0.3,
            )
            try:
                batch = asyncio.ensure_future(
                    shard.run_jobs([DISTINCT[0]])
                )
                await asyncio.sleep(0.1)  # the batch is in flight
                with pytest.raises(ClientError) as info:
                    await asyncio.wait_for(shard.fetch_stats(), 5.0)
                batch_pending = not batch.done()
            finally:
                await shard.aclose()
                listener.close()
                await listener.wait_closed()
            with pytest.raises(ClientError):
                await batch
            return info.value, batch_pending

        error, batch_pending = run(scenario())
        assert error.code == "transport"
        assert batch_pending is True


class TestMalformedShardResponse:
    def test_shard_answering_garbage_fails_over(self):
        # shard-00 passes its health probe but answers every other
        # request with a body that is not an envelope.  Its groups
        # must fail over to the replica rather than fail with a raw
        # parsing exception.
        jobs = [
            PreparationJob(
                dims=(2, 3), family="random", params={"rng": seed}
            )
            for seed in range(16)
        ]
        healthz = (
            b'{"v": 1, "ok": true, "result": {"status": "ok"}}'
        )

        async def garbling_shard(reader, writer):
            try:
                while True:
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n"):
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    await reader.readexactly(length)
                    body = (
                        healthz if head.startswith(b"GET /healthz")
                        else b"[1,2,3]"
                    )
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                        % len(body) + body
                    )
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        async def scenario():
            garbler = await asyncio.start_server(
                garbling_shard, "127.0.0.1", 0
            )
            shard_service = AsyncPreparationService()
            await shard_service.start()
            replica = await HttpServer(shard_service).start()
            config = ClusterConfig(
                shards=(
                    ShardAddress(
                        "shard-00", "127.0.0.1",
                        garbler.sockets[0].getsockname()[1],
                    ),
                    ShardAddress("shard-01", "127.0.0.1", replica.port),
                ),
                replicas=2,
                health_interval=60.0,
            )
            try:
                async with ClusterPreparationService(
                    config=config
                ) as service:
                    result = await service.run_batch(jobs)
                    health = service.shard_health()
                    stats = await service.wire_stats()
            finally:
                await replica.stop()
                garbler.close()
                await garbler.wait_closed()
            return result, health, stats["cluster"]["failovers"]

        result, health, failovers = run(scenario())
        assert not result.failures
        reference = PreparationEngine().run_batch(jobs)
        assert [
            comparable_outcome(o) for o in result.outcomes
        ] == [comparable_outcome(o) for o in reference.outcomes]
        assert failovers >= 1
        assert health[0]["healthy"] is False


class TestFrontEndDoor:
    """The front end keys a repeated description from the engine's
    memo and queues it from the event loop."""

    def test_memoised_jobs_are_queued_from_the_loop(self, monkeypatch):
        hops = []
        original = asyncio.to_thread

        async def counted(function, *args, **kwargs):
            hops.append(getattr(function, "__self__", None))
            return await original(function, *args, **kwargs)

        async def scenario():
            shard_service = AsyncPreparationService()
            await shard_service.start()
            shard = await HttpServer(shard_service).start()
            config = ClusterConfig(
                shards=(ShardAddress("shard-00", "127.0.0.1", shard.port),),
                health_interval=60.0,
            )
            try:
                async with ClusterPreparationService(config=config) as front:
                    monkeypatch.setattr(asyncio, "to_thread", counted)
                    cold = await front.run_batch(DISTINCT)
                    cold_hops = hops.count(front)
                    warm = await front.run_batch(DISTINCT + DISTINCT)
                    warm_hops = hops.count(front) - cold_hops
                    stats = front.stats()
            finally:
                await shard.stop()
            return cold, cold_hops, warm, warm_hops, stats

        cold, cold_hops, warm, warm_hops, stats = run(scenario())
        assert (cold_hops, warm_hops) == (1, 0)
        assert not any(outcome.cache_hit for outcome in cold.outcomes)
        assert all(outcome.cache_hit for outcome in warm.outcomes)
        assert stats.requests == 12
        assert [comparable_outcome(o) for o in warm.outcomes] == [
            comparable_outcome(o) for o in cold.outcomes + cold.outcomes
        ]
