"""Asyncio front end over the :class:`~repro.engine.PreparationEngine`.

:class:`AsyncPreparationService` turns the blocking, batch-oriented
engine into a concurrent server: any number of client coroutines
``await submit(job)`` (or ``run_batch(jobs)``).  Each call passes the
*door* once.  A job the engine has keyed before (its key memoised)
and whose entry is in memory is answered on the event loop, as a
counted cache hit; every other job is keyed and probed, disk
included, on one executor thread (``asyncio.to_thread``) per call,
and a hit found there is answered without waiting for a batch.  Only
misses, each carrying its key, enter a queue: the
:class:`~repro.service.batching.MicroBatchQueue` of the cache shard
that owns the key.  Every shard has one long-lived worker task, which
takes everything queued for its shard (up to the batch size cap) as
one micro-batch and ships it to ``engine.run_batch`` on an executor
thread, keeping the event loop free while synthesis runs.  A lone
miss leaves at once; misses that arrive while their shard's worker
is busy leave together.  Workers of different shards run
concurrently, while one worker serialises its shard's batches, so
cache counters stay identical to serial dispatch.

Determinism: the engine itself guarantees that a job's outcome does
not depend on batch composition (content-addressed caching plus
intra-batch dedup), so outcomes served through this layer are
identical to a direct serial ``run_batch`` of the same jobs up to
scheduling-dependent fields — compare with
:func:`repro.engine.comparable_outcome`.

Typical use::

    import asyncio
    from repro.engine import PreparationJob
    from repro.service import AsyncPreparationService

    async def client(service, dims):
        return await service.submit(
            PreparationJob(dims=dims, family="ghz")
        )

    async def main():
        async with AsyncPreparationService() as service:
            outcomes = await asyncio.gather(
                *(client(service, (2, 2)) for _ in range(64))
            )
        print(service.stats().summary())

    asyncio.run(main())
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterable
from dataclasses import dataclass

from repro.cluster.placement import ShardPlacement
from repro.engine.engine import EngineStats, PreparationEngine
from repro.engine.executor import ExecutionBackend
from repro.engine.jobs import PreparationJob
from repro.pipeline.pipeline import Pipeline
from repro.engine.results import BatchResult, JobOutcome
from repro.exceptions import EngineError
from repro.obs import log as obs_log
from repro.obs.metrics import BATCH_SIZE_BUCKETS, MetricsRegistry
from repro.obs.tracing import DISPATCH_TRACES, Span, Trace, current_trace
from repro.service.batching import (
    BatchQueueStats,
    MicroBatchQueue,
    QueuedJob,
)
from repro.states.statevector import StateVector

__all__ = ["AsyncPreparationService", "ServiceStats"]


_LOGGER = obs_log.get_logger("service")


def _set_exception_if_pending(
    future: asyncio.Future, error: BaseException
) -> None:
    if not future.done():
        future.set_exception(error)


def _fail_batch_later(
    batch: list["QueuedJob"], error: BaseException
) -> None:
    """Deliver a fatal dispatch error to the waiters *next* tick.

    Fatal signals (cancellation at teardown) must end the shard's
    worker before the waiters wake — a waiter resuming first would
    observe a service that still looks running while its worker is
    already doomed.  Deferring by one ``call_soon`` hop gives that
    order.
    """
    loop = asyncio.get_running_loop()
    for queued in batch:
        loop.call_soon(_set_exception_if_pending, queued.future, error)


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of the serving layer plus the engine underneath.

    Attributes:
        requests: Jobs accepted by ``submit`` / ``run_batch``, hits
            answered at the door included.
        batches_dispatched: Micro-batches dispatched, one per shard
            batch: one ``engine.run_batch`` call (one remote round
            trip on a cluster front end).  Only misses travel in one,
            so a door hit never adds a batch.
        largest_batch: Biggest micro-batch formed so far.
        full_batches: Micro-batches that reached the size cap.
        engine: Lifetime engine counters (cache traffic included).
    """

    requests: int
    batches_dispatched: int
    largest_batch: int
    full_batches: int
    engine: EngineStats

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (``GET /v1/stats`` and ``serve --json``
        emit exactly this); inverse of :meth:`from_dict`."""
        return {
            "requests": self.requests,
            "batches_dispatched": self.batches_dispatched,
            "largest_batch": self.largest_batch,
            "full_batches": self.full_batches,
            "engine": self.engine.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload) -> "ServiceStats":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        return cls(
            requests=payload["requests"],
            batches_dispatched=payload["batches_dispatched"],
            largest_batch=payload["largest_batch"],
            full_batches=payload["full_batches"],
            engine=EngineStats.from_dict(payload["engine"]),
        )

    def summary(self) -> str:
        """One-line human-readable form (used by the CLI)."""
        return (
            f"requests={self.requests} "
            f"batches={self.batches_dispatched} "
            f"largest_batch={self.largest_batch} | "
            + self.engine.summary()
        )


class AsyncPreparationService:
    """Concurrent, micro-batching server over a preparation engine.

    Args:
        engine: The engine to serve from; ``None`` builds a default
            one over :meth:`ShardPlacement.local(num_shards,
            cache_capacity, disk_dir)
            <repro.cluster.ShardPlacement.local>`.
        num_shards: Shard count of the default cache (ignored when an
            ``engine`` is given).
        cache_capacity: Total capacity of the default cache.
        disk_dir: Disk root of the default cache; shard ``shard-NN``
            stores its entries under ``disk_dir/shard-NN``.
        executor: Execution backend of the default engine.
        pipeline: Custom :class:`~repro.pipeline.Pipeline` for the
            default engine (its signature joins every cache key);
            ``None`` runs each job's default pipeline.  Mutually
            exclusive with ``engine``.
        max_batch_size: Micro-batch size cap.  Misses that arrive
            while their shard's worker is busy wait in the shard's
            queue and leave together, up to this many per batch.
        metrics: A :class:`~repro.obs.MetricsRegistry` to publish
            serving metrics into (queue-wait and micro-batch-size
            histograms, per-error-type job-failure counts, uptime
            and queue-depth gauges).  When the default engine is
            built here it shares the registry; a caller-supplied
            ``engine`` keeps whatever registry it was built with.
            ``None`` leaves the service un-instrumented.
        placement: Explicit :class:`~repro.cluster.ShardPlacement` to
            route on instead of the one implied by the engine's cache
            (fixed at construction: swapping ``engine.cache`` later
            does not re-route).  Used by the cluster front end, whose
            shards are remote; plain deployments leave this ``None``.

    The service must be running before ``submit`` is called: either
    ``await service.start()`` / ``await service.stop()`` explicitly,
    or use it as an async context manager.  ``stop()`` lets requests
    already inside the door queue their misses, then lets every
    shard's worker answer its queue before returning — no accepted
    request is dropped.
    """

    def __init__(
        self,
        engine: PreparationEngine | None = None,
        *,
        num_shards: int = 4,
        cache_capacity: int = 256,
        disk_dir=None,
        executor: ExecutionBackend | str | None = None,
        pipeline: "Pipeline | None" = None,
        max_batch_size: int = 32,
        metrics: MetricsRegistry | None = None,
        placement: ShardPlacement | None = None,
    ):
        if engine is not None and pipeline is not None:
            raise EngineError(
                "give either a ready engine or a pipeline for the "
                "default engine, not both"
            )
        if engine is None:
            engine = PreparationEngine(
                cache=ShardPlacement.local(
                    num_shards, cache_capacity, disk_dir
                ),
                executor=executor,
                pipeline=pipeline,
                metrics=metrics,
            )
        self.engine = engine
        self.metrics = metrics
        self._queue_wait = None
        self._batch_size = None
        self._job_failures = None
        if metrics is not None:
            self._queue_wait = metrics.histogram(
                "repro_queue_wait_seconds",
                "Time a miss waited in its shard's queue for the "
                "shard's worker.",
            )
            self._batch_size = metrics.histogram(
                "repro_batch_size",
                "Jobs per dispatched micro-batch.",
                buckets=BATCH_SIZE_BUCKETS,
            )
            self._job_failures = metrics.counter(
                "repro_job_failures_total",
                "Jobs that came back as failures, by error type.",
                labels=("error",),
            )
            metrics.register_collector(self._collect_samples)
        self._started_monotonic: float | None = None
        self._max_batch_size = max_batch_size
        # All routing decisions go through the placement: the engine's
        # cache (a placement itself, or one plain shard) unless the
        # cluster front end injects its remote fleet.
        self.placement = (
            placement
            if placement is not None
            else ShardPlacement.over_cache(self.engine.cache)
        )
        # One queue and one worker per shard, in shard order.
        self._queues: list[MicroBatchQueue] = []
        self._workers: list[asyncio.Task] = []
        # Serving counters of queues retired by stop(): stats() stays
        # lifetime-cumulative across stop()/start() cycles, matching
        # the engine counters it is reported next to.
        self._retired_stats = BatchQueueStats()
        # Jobs accepted at the door, hits and misses alike.
        self._requests = 0
        # Calls between the door's running check and the queueing of
        # their misses; stop() waits until there are none.
        self._inside_door = 0
        self._door_idle: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._workers) and not any(
            worker.done() for worker in self._workers
        )

    async def start(self) -> "AsyncPreparationService":
        """Start one worker per shard; idempotent while running.

        A service one of whose workers died (cancelled mid-batch) is
        stopped first, which fails the dead worker's queued requests.
        """
        if self.running:
            return self
        if self._workers:
            await self.stop()
        if self._started_monotonic is None:
            self._started_monotonic = time.monotonic()
        for queue in self._queues:
            self._retired_stats = self._retired_stats.merged(queue.stats)
        self._queues = [
            MicroBatchQueue(max_batch_size=self._max_batch_size)
            for _ in range(self.placement.num_shards)
        ]
        # The workers and the door's idle event live on the running
        # loop, so (re)create them at start time.
        self._door_idle = asyncio.Event()
        if not self._inside_door:
            self._door_idle.set()
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._serve_shard(queue))
            for queue in self._queues
        ]
        return self

    async def stop(self) -> None:
        """Queue the misses of requests inside the door, let every
        worker answer its queue, then stop the workers."""
        if not self._workers:
            return
        # From here on the service is not running: new requests are
        # refused at the door.
        workers, self._workers = self._workers, []
        try:
            # Requests already past the running check are being keyed
            # on worker threads; their misses join the queues before
            # they close, so the workers answer them.
            await self._door_idle.wait()
        finally:
            for queue in self._queues:
                queue.close()
        try:
            for worker in workers:
                try:
                    await worker
                except asyncio.CancelledError:
                    # The worker died cancelled (teardown mid-batch).
                    # That is *its* cancellation, not ours: swallowing
                    # it here must not abort the caller's cleanup.
                    # Only re-raise when the caller itself is being
                    # cancelled.
                    if not worker.cancelled():
                        raise
        finally:
            # A worker that answered its queue leaves nothing here.
            # One that died leaves queued requests whose awaiters
            # would otherwise hang forever: fail them explicitly.
            for queue in self._queues:
                for queued in queue.drain_pending():
                    _set_exception_if_pending(queued.future, EngineError(
                        "service stopped before the request was "
                        "dispatched"
                    ))

    async def __aenter__(self) -> "AsyncPreparationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def submit(self, job: PreparationJob) -> JobOutcome:
        """Serve one job: a cache hit at once, a miss in a micro-batch
        shared with concurrent submissions.

        Per-job errors come back as
        :class:`~repro.engine.JobFailure` outcomes exactly as from
        ``engine.run_batch``; only infrastructure-level errors (e.g. a
        dead worker pool) raise.
        """
        self._require_running("submit()")
        (answer,) = await self._door([job])
        return await answer

    async def run_batch(
        self, jobs: Iterable[PreparationJob]
    ) -> BatchResult:
        """Serve a batch concurrently, preserving submission order.

        The jobs pass the door together; their misses enter the
        shared micro-batch queue individually, so batches from
        several concurrent clients coalesce.  Outcomes come back in
        this call's submission order regardless.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        self._require_running("run_batch()")
        answers = await self._door(jobs)
        outcomes = await asyncio.gather(*answers)
        return BatchResult(
            outcomes=tuple(outcomes),
            wall_time=time.perf_counter() - start,
        )

    def _require_running(self, call: str) -> None:
        if not self.running:
            raise EngineError(
                "service is not running; use 'async with' or call "
                f"start() before {call}"
            )

    async def _door(
        self, jobs: list[PreparationJob]
    ) -> list[asyncio.Future]:
        """Key ``jobs`` once, answer their hits, queue their misses.

        A job whose key is memoised and whose entry sits in memory
        under a free shard lock is answered on the event loop; on a
        remote placement a memoised job is queued from the loop.  One
        executor thread keys and probes every other job of the call
        (disk included).  The work runs under a ``door`` span of the
        request; a hit is resolved at once (traced as a zero-duration
        ``cache_hit`` span of the request), a miss enters the queue
        of the shard that owns its key, carrying the key and, when
        keying resolved it, the state.  Returns one future per job, in
        order.
        """
        self._requests += len(jobs)
        self._inside_door += 1
        self._door_idle.clear()
        try:
            trace = current_trace()
            door = (
                trace.begin_span("door", jobs=len(jobs))
                if trace is not None else None
            )
            try:
                looked_up = self._look_up_on_loop(jobs)
                rest = [
                    position for position, pair in enumerate(looked_up)
                    if pair is None
                ]
                if door is not None:
                    door.annotate(threaded=len(rest))
                if rest:
                    threaded = await asyncio.to_thread(
                        self._look_up, [jobs[position] for position in rest]
                    )
                    for position, pair in zip(rest, threaded):
                        looked_up[position] = pair
            finally:
                if door is not None:
                    door.finish()
            loop = asyncio.get_running_loop()
            answers = []
            for job, (key, hit, state) in zip(jobs, looked_up):
                if hit is None:
                    owner = self.placement.shard_index(key or "")
                    answers.append(self._queues[owner].put(job, key, state))
                    continue
                if trace is not None:
                    trace.add_span(
                        "cache_hit",
                        start=trace.offset(),
                        duration=0.0,
                        key=key[:16],
                    )
                answer = loop.create_future()
                answer.set_result(hit)
                answers.append(answer)
            return answers
        finally:
            self._inside_door -= 1
            if not self._inside_door:
                self._door_idle.set()

    def _look_up_on_loop(
        self, jobs: list[PreparationJob]
    ) -> list[tuple[str, JobOutcome | None, None] | None]:
        """``(key, hit, None)`` per job the event loop can settle,
        ``None`` for the rest.

        Settled are jobs with a memoised key that are either held in
        memory by a local shard whose lock is free (a counted hit) or
        owned by a remote shard (a miss to queue).  Reads no disk,
        resolves no state and never waits for a lock.
        """
        local = self.placement.is_local
        looked_up = []
        for job in jobs:
            key = self.engine.memoised_key(job)
            if key is None:
                looked_up.append(None)
            elif not local:
                looked_up.append((key, None, None))
            else:
                hit = self.engine.memory_hit(job, key)
                looked_up.append(
                    (key, hit, None) if hit is not None else None
                )
        return looked_up

    def _look_up(
        self, jobs: list[PreparationJob]
    ) -> list[
        tuple[str | None, JobOutcome | None, StateVector | None]
    ]:
        """``(key, hit, state)`` per job: its content key, its cached
        outcome (``None`` on a miss) and, for a local miss whose key
        was made by resolving it, its state.

        Runs on an executor thread.  Shards that live in another
        process are not probed: every job is a miss for them, and
        they resolve what they receive themselves, so no state is
        kept for them.
        """
        probe = self.placement.is_local
        looked_up = []
        for job in jobs:
            key, state = self._routing_key(job)
            hit = (
                self.engine.cached_outcome(job, key)
                if probe and key is not None else None
            )
            looked_up.append(
                (key, hit, state if probe and hit is None else None)
            )
        return looked_up

    def uptime(self) -> float:
        """Seconds since the service first started (0.0 before)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def queue_depth(self) -> int:
        """Misses queued but not yet taken by their shard's worker."""
        return sum(queue.pending() for queue in self._queues)

    def _collect_samples(self):
        """Scrape-time samples of counters the service already keeps."""
        stats = self.stats()
        return [
            ("repro_service_uptime_seconds", "gauge",
             "Seconds since the service first started.",
             self.uptime()),
            ("repro_queue_depth", "gauge",
             "Jobs waiting in the shards' queues right now.",
             self.queue_depth()),
            ("repro_batches_dispatched_total", "counter",
             "Micro-batches dispatched, one per shard batch.",
             stats.batches_dispatched),
            ("repro_largest_batch", "gauge",
             "Biggest micro-batch formed so far.",
             stats.largest_batch),
        ]

    def stats(self) -> ServiceStats:
        """Snapshot of serving-layer and engine counters."""
        queue_stats = self._retired_stats
        for queue in self._queues:
            queue_stats = queue_stats.merged(queue.stats)
        return ServiceStats(
            requests=self._requests,
            batches_dispatched=queue_stats.batches_formed,
            largest_batch=queue_stats.largest_batch,
            full_batches=queue_stats.full_batches,
            engine=self.engine.stats(),
        )

    # ------------------------------------------------------------------
    # Shard workers
    # ------------------------------------------------------------------
    async def _serve_shard(self, queue: MicroBatchQueue) -> None:
        """Dispatch one shard's queue, one micro-batch at a time, until
        it is closed and empty.

        Each batch is everything queued for the shard (up to the size
        cap), so a lone miss leaves at once and the misses queued
        while the previous batch ran leave together.  One worker per
        shard serialises the shard's batches, so cache hit/miss
        counters stay identical to strictly serial dispatch, while
        workers of different shards run concurrently.  An
        ``Exception`` fails only its batch's requests and the worker
        goes on; any other signal (cancellation at teardown) fails
        them one tick later and ends the worker.
        """
        while True:
            batch = await queue.next_batch()
            if batch is None:
                return
            traces, spans = self._begin_dispatch(batch)
            started = time.perf_counter()
            try:
                await self._dispatch_group(
                    tuple(self.placement.preference(batch[0].key or "")),
                    batch,
                    traces,
                )
            except Exception as error:  # noqa: BLE001 - fan out to waiters
                for queued in batch:
                    _set_exception_if_pending(queued.future, error)
            except BaseException as error:
                # CancelledError (loop shutdown) and other
                # non-Exception signals must keep propagating, or the
                # worker becomes uncancellable and hangs event-loop
                # teardown.
                _fail_batch_later(batch, error)
                raise
            finally:
                for span in spans:
                    span.finish()
            _LOGGER.debug(
                "batch_dispatched",
                jobs=len(batch),
                duration=round(time.perf_counter() - started, 6),
            )

    def _routing_key(
        self, job: PreparationJob
    ) -> tuple[str | None, StateVector | None]:
        """Content key of ``job``, made once at the door, and the state
        resolved to make it; ``(None, None)`` if unkeyable.

        The key picks the owning shard, probes its cache and travels
        with a miss to dispatch, so ``run_batch`` does not resolve a
        hit's state again; the state travels with it, so a miss is not
        resolved twice either.  ``engine.job_key`` memoises only
        descriptions that fix the state: two unseeded random jobs
        with identical payloads resolve (and key) independently — a
        shared key would make ``run_batch`` serve the second job the
        first one's circuit as an intra-batch duplicate.  (A miss is
        synthesised from the state its key was made from; only
        deterministic jobs get deterministic counters.)  A job whose
        state cannot even be resolved gets ``None``; ``run_batch``
        turns it into a :class:`~repro.engine.JobFailure`.
        """
        try:
            return self.engine.key_and_state(job)
        except Exception:  # noqa: BLE001 - failure handled in run_batch
            return None, None

    async def _dispatch_group(
        self,
        chain: tuple[int, ...],
        batch: list[QueuedJob],
        traces: list["tuple[Trace, Span] | None"],
    ) -> None:
        """Run one shard's micro-batch on the engine, on an executor
        thread.

        The execution seam: :class:`~repro.cluster.ClusterPreparationService`
        overrides it to send the batch to a remote shard, failing over
        along ``chain`` (the owner first).  An ``Exception`` raised
        here fails only this batch's requests.
        """
        # Plant the batch's traces in this context: asyncio.to_thread
        # copies it, carrying them into the engine's worker thread.
        token = (
            DISPATCH_TRACES.set(tuple(traces)) if any(traces) else None
        )
        try:
            result = await asyncio.to_thread(
                self.engine.run_batch,
                [queued.job for queued in batch],
                keys=[queued.key for queued in batch],
                states=[queued.state for queued in batch],
            )
        finally:
            if token is not None:
                DISPATCH_TRACES.reset(token)
        self._deliver(batch, result.outcomes)

    def _deliver(
        self, batch: list[QueuedJob], outcomes: Iterable[JobOutcome]
    ) -> None:
        """Resolve a batch's waiters, counting failed outcomes."""
        for queued, outcome in zip(batch, outcomes):
            if not outcome.ok and self._job_failures is not None:
                self._job_failures.labels(outcome.error_type).inc()
            if not queued.future.done():
                queued.future.set_result(outcome)

    def _begin_dispatch(
        self, batch: list[QueuedJob]
    ) -> tuple[list["tuple[Trace, Span] | None"], list[Span]]:
        """Close the batch's queue-wait spans, open its dispatch spans.

        Returns the per-job ``(trace, dispatch_span)`` pairs (``None``
        for untraced jobs) to plant in :data:`DISPATCH_TRACES`, plus
        the opened spans so the caller can finish them.
        """
        now = time.perf_counter()
        traces: list[tuple[Trace, Span] | None] = []
        spans: list[Span] = []
        for queued in batch:
            if queued.queue_span is not None:
                queued.queue_span.finish(now)
            if self._queue_wait is not None and queued.enqueued_at:
                self._queue_wait.observe(
                    max(0.0, now - queued.enqueued_at)
                )
            if queued.trace is None:
                traces.append(None)
                continue
            span = queued.trace.begin_span(
                "dispatch",
                parent=(
                    queued.queue_span.parent
                    if queued.queue_span is not None else None
                ),
                start=now,
                batch_size=len(batch),
            )
            traces.append((queued.trace, span))
            spans.append(span)
        if self._batch_size is not None:
            self._batch_size.observe(len(batch))
        return traces, spans

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"AsyncPreparationService({state}, "
            f"max_batch_size={self._max_batch_size}, "
            f"engine={self.engine!r})"
        )
