"""Cluster front end: micro-batching router over remote shard servers.

:class:`ClusterPreparationService` is an
:class:`~repro.service.AsyncPreparationService` whose execution seam
(``_dispatch_group``) ships each shard's micro-batch to a
:class:`~repro.cluster.RemoteShard` backend instead of running the
in-process engine.  Everything above the seam — the door that keys
each request once, one queue and one worker per shard, tracing spans,
stats counters — is the plain service, unchanged.  The front end
holds no circuits, so its door answers nothing: every request is
queued on its owner shard's queue and forwarded.

Routing is by content key on a consistent-hash ring, so duplicate
requests (the common case for DD preparation workloads) always land
on the shard that already holds their circuit.  Key derivation costs
a state resolution, so the front end's keying engine memoises the
key of every description that fixes its state
(:meth:`~repro.engine.PreparationEngine.job_key`), and the door
queues such a repeat from the event loop — duplicate-heavy traffic
routes at dict-lookup cost.  The key is used *only* for routing: each
shard computes its own content keys from the payload it receives.

Failover: each key has a preference chain (owner plus
``replicas - 1`` distinct ring successors).  A shard that refuses the
connection, times out, or is draining fails the *batch* over to the
next candidate on the chain of its first job; a request whose whole
chain is down comes back as a structured per-job failure
(``shard_unavailable``) — never a hang, never a silent drop.  A
background health loop probes every shard so traffic prefers healthy
replicas and recovered shards rejoin.
"""

from __future__ import annotations

import asyncio
import time

from ..engine.cache import CircuitCache
from ..engine.engine import EngineStats, PreparationEngine
from ..engine.results import JobFailure
from ..exceptions import ClusterConfigError
from ..net.client import ClientError
from ..obs import log as obs_log
from ..obs.metrics import MetricsRegistry
from ..service.batching import QueuedJob
from ..service.service import AsyncPreparationService
from .backends import FAILOVER_CODES, RemoteShard
from .config import ClusterConfig
from .placement import ShardPlacement

__all__ = ["ClusterPreparationService"]

_LOGGER = obs_log.get_logger("cluster")


class ClusterPreparationService(AsyncPreparationService):
    """Micro-batching front end routing to a remote shard fleet.

    Args:
        placement: A fully remote :class:`ShardPlacement`, or ``None``
            to build one from ``config``.
        config: The :class:`~repro.cluster.ClusterConfig` to
            materialise when ``placement`` is not given (exactly one
            of the two is required).
        max_batch_size: Micro-batch size cap, as on the base service.
        metrics: Registry for the ``repro_cluster_*`` instruments (and
            the base service's serving metrics).
    """

    def __init__(
        self,
        placement: ShardPlacement | None = None,
        *,
        config: ClusterConfig | None = None,
        max_batch_size: int = 32,
        metrics: MetricsRegistry | None = None,
    ):
        if (placement is None) == (config is None):
            raise ClusterConfigError(
                "give exactly one of 'placement' or 'config'"
            )
        if placement is None:
            placement = config.to_placement()
        if placement.is_local:
            raise ClusterConfigError(
                "a cluster front end needs remote shards; for local "
                "fleets use AsyncPreparationService over "
                "ShardPlacement.local"
            )
        self.config = config
        self._health_interval = (
            config.health_interval if config is not None else 2.0
        )
        # The front-end engine exists only to derive content keys for
        # routing (its key memo resolves each deterministic
        # description once); capacity 0 keeps it from shadow-caching
        # circuits the shards own.
        engine = PreparationEngine(cache=CircuitCache(capacity=0))
        super().__init__(
            engine,
            max_batch_size=max_batch_size,
            metrics=metrics,
            placement=placement,
        )
        self._health_task: asyncio.Task | None = None
        self._failover_count = 0
        self._shard_requests = None
        self._shard_seconds = None
        self._shard_failovers = None
        self._shard_healthy = None
        if metrics is not None:
            self._shard_requests = metrics.counter(
                "repro_cluster_requests_total",
                "Micro-batches shipped to each shard.",
                labels=("shard",),
            )
            self._shard_seconds = metrics.histogram(
                "repro_cluster_request_seconds",
                "Wall time of one shard round trip (whole batch).",
                labels=("shard",),
                exemplars=True,
            )
            self._shard_failovers = metrics.counter(
                "repro_cluster_failovers_total",
                "Batches moved off a shard (by the shard failed away "
                "from).",
                labels=("shard",),
            )
            self._shard_healthy = metrics.gauge(
                "repro_cluster_shard_healthy",
                "1 when the shard's last probe or request succeeded.",
                labels=("shard",),
            )
            metrics.register_collector(self._collect_cluster_samples)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusterPreparationService":
        await super().start()
        if self._health_task is None or self._health_task.done():
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )
        return self

    async def stop(self) -> None:
        try:
            await super().stop()
        finally:
            task, self._health_task = self._health_task, None
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            # Clients reconnect on demand, so closing here is safe
            # even if the service is started again.
            await self.placement.aclose()

    async def _health_loop(self) -> None:
        """Probe every shard each interval; keep the gauges honest."""
        while True:
            for backend in self.placement.remote_backends():
                healthy = await backend.check_health()
                if self._shard_healthy is not None:
                    self._shard_healthy.set(
                        1.0 if healthy else 0.0, backend.shard_id
                    )
            await asyncio.sleep(self._health_interval)

    # ------------------------------------------------------------------
    # Dispatch (each shard's worker sends its batch to a remote shard,
    # failing over along the chain of the batch's first job)
    # ------------------------------------------------------------------
    @staticmethod
    def _distinct_traces(traces) -> list[tuple]:
        """Distinct ``(trace, dispatch_span)`` pairs of one batch.

        One shard round trip may serve jobs from several client
        traces (micro-batching coalesces requests); every distinct
        trace gets its own ``remote_call`` span and its own copy of
        the grafted shard subtree.
        """
        distinct: list[tuple] = []
        seen: set[int] = set()
        for entry in traces:
            if entry is not None and id(entry[0]) not in seen:
                seen.add(id(entry[0]))
                distinct.append(entry)
        return distinct

    async def _dispatch_group(
        self,
        chain: tuple[int, ...],
        batch: list[QueuedJob],
        traces,
    ) -> None:
        """Run one shard's batch remotely, failing over along
        ``chain``.

        The queued keys only routed the batch: each shard keys the
        payloads it receives.
        """
        jobs = [queued.job for queued in batch]
        batch_traces = self._distinct_traces(traces)
        last_error: ClientError | None = None
        for attempt, index in enumerate(chain):
            backend = self.placement.backend(index)
            assert isinstance(backend, RemoteShard)
            if not backend.healthy and attempt < len(chain) - 1:
                # Known-bad shard and a replica remains: skip straight
                # to it.  The last candidate is always tried — a probe
                # may simply not have noticed the shard recovering.
                self._note_failover(backend)
                for trace, parent in batch_traces:
                    trace.add_span(
                        "skip_unhealthy",
                        start=trace.offset(),
                        duration=0.0,
                        parent=parent,
                        shard=backend.shard_id,
                        attempt=attempt,
                        consecutive_failures=(
                            backend.consecutive_failures
                        ),
                        last_probe_seconds=backend.last_probe_seconds,
                    )
                continue
            started = time.perf_counter()
            remote_spans = [
                (trace, trace.begin_span(
                    "remote_call",
                    parent=parent,
                    shard=backend.shard_id,
                    addr=backend.addr,
                    attempt=attempt,
                ))
                for trace, parent in batch_traces
            ]
            # One context per round trip: the shard adopts the first
            # trace's id, and its subtree is grafted into every trace
            # of the batch.
            trace_context = (
                remote_spans[0][0].context(parent=remote_spans[0][1])
                if remote_spans else None
            )
            try:
                outcomes = await backend.run_jobs(
                    jobs, trace_context=trace_context
                )
            except ClientError as error:
                for trace, span in remote_spans:
                    span.annotate(error_code=error.code)
                    span.finish()
                if error.code not in FAILOVER_CODES:
                    # Semantic refusal: every replica would repeat it.
                    # Surface per job, shard stays in rotation.
                    self._deliver(
                        batch,
                        [
                            JobFailure(
                                job=job,
                                key=None,
                                error_type="ClientError",
                                message=(
                                    f"shard {backend.shard_id} refused "
                                    f"the request ({error.code}): "
                                    f"{error}"
                                ),
                            )
                            for job in jobs
                        ],
                    )
                    return
                last_error = error
                self._note_failover(backend)
                if self._shard_healthy is not None:
                    self._shard_healthy.set(0.0, backend.shard_id)
                continue
            # Read with no await since run_jobs returned, so no other
            # round trip on this backend can have replaced it.
            subtree = backend.last_remote_trace
            for trace, span in remote_spans:
                if subtree is not None:
                    trace.graft(
                        subtree, parent=span, shard=backend.shard_id,
                    )
                span.finish()
            if self._shard_requests is not None:
                self._shard_requests.labels(backend.shard_id).inc()
                self._shard_seconds.labels(backend.shard_id).observe(
                    time.perf_counter() - started,
                    exemplar=(
                        batch_traces[0][0].request_id
                        if batch_traces else None
                    ),
                )
            if self._shard_healthy is not None:
                self._shard_healthy.set(1.0, backend.shard_id)
            self._deliver(batch, outcomes)
            return
        # Chain exhausted: structured failure, never a hang.
        message = (
            f"no shard available for this request (tried "
            f"{[self.placement.backend(i).shard_id for i in chain]})"
        )
        if last_error is not None:
            message += f"; last error: {last_error}"
        self._deliver(
            batch,
            [
                JobFailure(
                    job=job,
                    key=None,
                    error_type="ShardUnavailableError",
                    message=message,
                )
                for job in jobs
            ],
        )

    def _note_failover(self, backend: RemoteShard) -> None:
        self._failover_count += 1
        if self._shard_failovers is not None:
            self._shard_failovers.labels(backend.shard_id).inc()
        _LOGGER.warning(
            "shard_failover", shard=backend.shard_id,
            addr=backend.addr,
        )

    # ------------------------------------------------------------------
    # Fleet-wide observability
    # ------------------------------------------------------------------
    def shard_health(self) -> list[dict]:
        """Per-shard health rows for ``/healthz`` cluster detail."""
        return self.placement.describe()

    def _collect_cluster_samples(self):
        rows = self.placement.describe()
        return [
            ("repro_cluster_shards", "gauge",
             "Shards in the placement.", len(rows)),
            ("repro_cluster_shards_healthy", "gauge",
             "Shards whose last probe or request succeeded.",
             sum(1 for row in rows if row["healthy"])),
        ]

    async def wire_stats(self) -> dict:
        """Fleet-aggregated stats for ``/v1/stats``.

        The front end's own queue counters stay top-level; ``engine``
        becomes the field-wise sum of every reachable shard's engine
        counters (the front-end keying engine never executes jobs);
        ``cluster`` carries the per-shard breakdown.
        """
        backends = self.placement.remote_backends()
        snapshots = await asyncio.gather(
            *(backend.fetch_stats() for backend in backends),
            return_exceptions=True,
        )
        engine_total = {
            spec: 0 for spec in EngineStats.__dataclass_fields__
        }
        shard_rows = []
        for backend, snapshot in zip(backends, snapshots):
            row = backend.describe()
            if isinstance(snapshot, BaseException):
                if not isinstance(snapshot, ClientError):
                    raise snapshot
                row["reachable"] = False
                row["error"] = str(snapshot)
            else:
                row["reachable"] = True
                row["requests"] = snapshot.get("requests")
                row["batches_dispatched"] = snapshot.get(
                    "batches_dispatched"
                )
                engine = snapshot.get("engine", {})
                row["engine"] = engine
                for name in engine_total:
                    value = engine.get(name)
                    if isinstance(value, (int, float)):
                        engine_total[name] += value
            shard_rows.append(row)
        payload = self.stats().to_dict()
        payload["engine"] = engine_total
        payload["cluster"] = {
            "num_shards": len(backends),
            "healthy": sum(
                1 for row in shard_rows if row["healthy"]
            ),
            "failovers": self._failover_count,
            "strategy": self.placement.strategy,
            "replicas": self.placement.replicas,
            "shards": shard_rows,
        }
        return payload

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"ClusterPreparationService({state}, "
            f"shards={self.placement.num_shards}, "
            f"strategy={self.placement.strategy!r})"
        )
