"""Asyncio front end over the :class:`~repro.engine.PreparationEngine`.

:class:`AsyncPreparationService` turns the blocking, batch-oriented
engine into a concurrent server: any number of client coroutines
``await submit(job)`` (or ``run_batch(jobs)``).  Each call passes the
*door* once.  A job the engine has keyed before (its key memoised)
and whose entry is in memory is answered on the event loop, as a
counted cache hit; every other job is keyed and probed, disk
included, on one executor thread (``asyncio.to_thread``) per call,
and a hit found there is answered without waiting for a batch.  Only
misses, each carrying its key, enter a
:class:`~repro.service.batching.MicroBatchQueue`.  The dispatch loop
takes a free dispatch slot, then everything queued (up to the batch
size cap) as one micro-batch: a lone miss leaves at once, and misses
that arrive while every slot is busy leave together.  It splits each
micro-batch into one group per owning cache shard and ships every
group to ``engine.run_batch`` on an executor thread, keeping the
event loop free while synthesis runs.  Each group holds
only its own shard's dispatch lock: groups on different shards run
concurrently, while groups sharing a shard serialise on it, so cache
counters stay identical to serial dispatch.

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

    Fatal signals (cancellation at teardown) must reach the dispatcher
    loop before the waiters wake — a waiter resuming first would
    observe a service that still looks running while its dispatcher is
    already doomed.  Deferring by one ``call_soon`` hop restores the
    ordering the inline-dispatch implementation had.
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
        batches_dispatched: Micro-batches shipped to the engine.  Only
            misses travel in one, so a door hit never adds a batch.
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
        max_batch_size: Micro-batch size cap.
        max_concurrent_batches: Micro-batches allowed in flight at
            once (the dispatch slots); ``None`` defaults to the shard
            count.  Misses that arrive while every slot is busy wait
            in the queue and leave as one batch when a slot frees.
            Every batch runs as per-shard groups, each under its own
            shard's dispatch lock: groups on different shards run
            concurrently, groups sharing a shard serialise on it,
            which keeps cache counters identical to serial dispatch.
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
    already inside the door queue their misses, then drains the
    queue before returning — no accepted request is dropped.
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
        max_concurrent_batches: int | None = None,
        metrics: MetricsRegistry | None = None,
        placement: ShardPlacement | None = None,
    ):
        if (
            max_concurrent_batches is not None
            and max_concurrent_batches < 1
        ):
            raise EngineError(
                f"max_concurrent_batches must be >= 1, "
                f"got {max_concurrent_batches}"
            )
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
                "Time a miss waited in the micro-batch queue for a "
                "free dispatch slot.",
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
        self._max_concurrent_batches = (
            max_concurrent_batches
            if max_concurrent_batches is not None
            else self.placement.num_shards
        )
        self._shard_locks: list[asyncio.Lock] = []
        self._batch_slots: asyncio.Semaphore | None = None
        self._queue: MicroBatchQueue | None = None
        self._dispatcher: asyncio.Task | None = None
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
        return (
            self._dispatcher is not None
            and not self._dispatcher.done()
            and self._queue is not None
            and not self._queue.closed
        )

    async def start(self) -> "AsyncPreparationService":
        """Start the dispatch loop; idempotent while running."""
        if self.running:
            return self
        if self._started_monotonic is None:
            self._started_monotonic = time.monotonic()
        if self._queue is not None:
            self._retired_stats = self._retired_stats.merged(
                self._queue.stats
            )
        self._queue = MicroBatchQueue(max_batch_size=self._max_batch_size)
        # Per-shard dispatch locks, the in-flight bound and the door's
        # idle event live on the running loop, so (re)create them at
        # start time.
        self._shard_locks = [
            asyncio.Lock() for _ in range(self.placement.num_shards)
        ]
        self._batch_slots = asyncio.Semaphore(
            self._max_concurrent_batches
        )
        self._door_idle = asyncio.Event()
        if not self._inside_door:
            self._door_idle.set()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(self._queue)
        )
        return self

    async def stop(self) -> None:
        """Queue the misses of requests inside the door, drain queued
        jobs, then stop the dispatch loop."""
        if self._queue is None or self._dispatcher is None:
            return
        # From here on the service is not running: new requests are
        # refused at the door.
        dispatcher, self._dispatcher = self._dispatcher, None
        try:
            # Requests already past the running check are being keyed
            # on worker threads; their misses join the queue before it
            # closes, so the drain below answers them.
            await self._door_idle.wait()
        finally:
            self._queue.close()
        try:
            await dispatcher
        except asyncio.CancelledError:
            # The dispatcher died cancelled (teardown mid-batch).
            # That is *its* cancellation, not ours: swallowing it here
            # must not abort the caller's cleanup.  Only re-raise when
            # the caller itself is being cancelled.
            if not dispatcher.cancelled():
                raise
        finally:
            # A dispatcher that drained normally leaves nothing here.
            # One that died (cancelled / crashed) leaves queued
            # requests whose awaiters would otherwise hang forever —
            # fail them explicitly.
            for queued in self._queue.drain_pending():
                if not queued.future.done():
                    queued.future.set_exception(EngineError(
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
        ``cache_hit`` span of the request), a miss enters the
        micro-batch queue with its key.  Returns one future per job,
        in order.
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
            for job, (key, hit) in zip(jobs, looked_up):
                if hit is None:
                    answers.append(self._queue.put(job, key))
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
    ) -> list[tuple[str, JobOutcome | None] | None]:
        """``(key, hit)`` per job the event loop can settle, ``None``
        for the rest.

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
                looked_up.append((key, None))
            else:
                hit = self.engine.memory_hit(job, key)
                looked_up.append((key, hit) if hit is not None else None)
        return looked_up

    def _look_up(
        self, jobs: list[PreparationJob]
    ) -> list[tuple[str | None, JobOutcome | None]]:
        """``(key, hit)`` per job: its content key and its cached
        outcome, ``None`` on a miss.

        Runs on an executor thread.  Shards that live in another
        process are not probed: every job is a miss for them.
        """
        probe = self.placement.is_local
        looked_up = []
        for job in jobs:
            key = self._routing_key(job)
            hit = (
                self.engine.cached_outcome(job, key)
                if probe and key is not None else None
            )
            looked_up.append((key, hit))
        return looked_up

    def uptime(self) -> float:
        """Seconds since the service first started (0.0 before)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def queue_depth(self) -> int:
        """Misses queued but not yet handed to a dispatch task."""
        return self._queue.pending() if self._queue is not None else 0

    def _collect_samples(self):
        """Scrape-time samples of counters the service already keeps."""
        stats = self.stats()
        return [
            ("repro_service_uptime_seconds", "gauge",
             "Seconds since the service first started.",
             self.uptime()),
            ("repro_queue_depth", "gauge",
             "Jobs waiting in the micro-batch queue right now.",
             self.queue_depth()),
            ("repro_batches_dispatched_total", "counter",
             "Micro-batches shipped to the engine.",
             stats.batches_dispatched),
            ("repro_largest_batch", "gauge",
             "Biggest micro-batch formed so far.",
             stats.largest_batch),
        ]

    def stats(self) -> ServiceStats:
        """Snapshot of serving-layer and engine counters."""
        queue_stats = self._retired_stats.merged(
            self._queue.stats
            if self._queue is not None
            else BatchQueueStats()
        )
        return ServiceStats(
            requests=self._requests,
            batches_dispatched=queue_stats.batches_formed,
            largest_batch=queue_stats.largest_batch,
            full_batches=queue_stats.full_batches,
            engine=self.engine.stats(),
        )

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    async def _dispatch_loop(self, queue: MicroBatchQueue) -> None:
        """Take a free slot, then the next micro-batch, and ship it;
        disjoint shards run in parallel.

        The slot comes first, so a batch leaves as soon as it is
        taken: a lone miss at once, and the misses queued while every
        slot was busy together, when one frees.  Each batch becomes
        its own dispatch task; inside it, every per-shard group takes
        its shard's lock: groups on disjoint shards overlap, groups
        sharing a shard (in particular: duplicate-heavy traffic)
        serialise on it, so cache hit/miss counters stay identical to
        strictly serial dispatch.  A slot held when the loop ends is
        not given back: ``start()`` makes new slots.
        """
        inflight: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        slots = self._batch_slots
        next_batch: asyncio.Task | None = None
        try:
            while True:
                if next_batch is None:
                    await slots.acquire()
                    next_batch = loop.create_task(queue.next_batch())
                await asyncio.wait(
                    {next_batch, *inflight},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                # A dispatch that died of cancellation (teardown
                # mid-batch) must kill the whole loop, exactly as it
                # did when dispatch was awaited inline.
                self._reap(inflight)
                if not next_batch.done():
                    continue
                batch = next_batch.result()
                next_batch = None
                if batch is None:
                    return
                dispatch = loop.create_task(
                    self._dispatch_sharded(batch)
                )
                # Clean up via done callback, not inside the task: a
                # task cancelled before its coroutine first runs never
                # reaches _dispatch_sharded's except/finally, which
                # would leak the slot and strand the batch's waiters.
                def _finish_dispatch(task, *, batch=batch):
                    slots.release()
                    if task.cancelled():
                        error = EngineError(
                            "service stopped before the batch was "
                            "dispatched"
                        )
                        for queued in batch:
                            _set_exception_if_pending(
                                queued.future, error
                            )

                dispatch.add_done_callback(_finish_dispatch)
                inflight.add(dispatch)
        except BaseException:
            # The loop is dying (cancellation, crashed queue): take
            # the in-flight dispatches down with it so their waiters
            # are failed rather than stranded.
            for task in inflight:
                task.cancel()
            raise
        finally:
            # Teardown must not await when nothing is pending: a
            # dispatcher dying of a propagated cancellation finishes
            # in the same loop tick, as the inline-dispatch version
            # did.
            self._abandon_next_batch(next_batch)
            pending = [task for task in inflight if not task.done()]
            if pending:
                await asyncio.gather(
                    *pending, return_exceptions=True
                )

    @staticmethod
    def _reap(inflight: set[asyncio.Task]) -> None:
        """Drop finished dispatch tasks; re-raise fatal ones.

        Dispatch tasks resolve per-job errors onto their waiters and
        finish cleanly — the only way one *fails* is a non-``Exception``
        signal (cancellation at loop teardown), which must propagate so
        the dispatcher dies instead of looping uncancellably.
        """
        for task in [t for t in inflight if t.done()]:
            inflight.discard(task)
            if task.cancelled():
                raise asyncio.CancelledError
            error = task.exception()
            if error is not None:
                raise error

    @staticmethod
    def _fail_orphaned_batch(next_batch: asyncio.Task) -> None:
        """Fail the waiters of a batch nobody will dispatch."""
        if next_batch.cancelled() or next_batch.exception() is not None:
            return
        for queued in next_batch.result() or ():
            if not queued.future.done():
                queued.future.set_exception(EngineError(
                    "service stopped before the request was "
                    "dispatched"
                ))

    @classmethod
    def _abandon_next_batch(
        cls, next_batch: asyncio.Task | None
    ) -> None:
        """Tear down a pending ``next_batch`` without losing its jobs.

        The task may (yet) complete with a batch the dead loop will
        never dispatch; those waiters must be failed explicitly or
        they hang forever.  Synchronous on purpose — see the caller.
        """
        if next_batch is None:
            return
        if next_batch.done():
            cls._fail_orphaned_batch(next_batch)
        else:
            next_batch.cancel()
            next_batch.add_done_callback(cls._fail_orphaned_batch)

    def _routing_key(self, job: PreparationJob) -> str | None:
        """Content key of ``job``, made once at the door; ``None`` if
        unkeyable.

        The key picks the owning shard, probes its cache and travels
        with a miss to dispatch, so ``run_batch`` does not resolve a
        hit's state again.  ``engine.job_key`` memoises only
        descriptions that fix the state: two unseeded random jobs
        with identical payloads resolve (and key) independently — a
        shared key would make ``run_batch`` serve the second job the
        first one's circuit as an intra-batch duplicate.  (An unseeded
        random job may still resolve differently here and in the
        engine, which re-keys the state it actually synthesises; only
        deterministic jobs get deterministic counters.)  A job whose
        state cannot even be resolved gets ``None``; ``run_batch``
        turns it into a :class:`~repro.engine.JobFailure`.
        """
        try:
            return self.engine.job_key(job)
        except Exception:  # noqa: BLE001 - failure handled in run_batch
            return None

    def _group_batch(
        self, batch: list[QueuedJob]
    ) -> list[tuple[tuple[int, ...], list[int]]]:
        """Split a batch into per-owner groups with failover chains.

        Returns ``(chain, positions)`` pairs: the shard-index
        preference chain the group will try in order (owner first),
        and the batch positions it carries.  Jobs whose key could not
        be derived go to the key-space origin (any shard reproduces
        the failure identically).
        """
        groups: dict[int, tuple[tuple[int, ...], list[int]]] = {}
        for position, queued in enumerate(batch):
            chain = tuple(self.placement.preference(queued.key or ""))
            groups.setdefault(chain[0], (chain, []))[1].append(position)
        return list(groups.values())

    async def _dispatch_sharded(self, batch: list[QueuedJob]) -> None:
        """Run one micro-batch as concurrent per-shard groups."""
        try:
            traces, spans = self._begin_dispatch(batch)
            started = time.perf_counter()
            try:
                groups = self._group_batch(batch)
                await asyncio.gather(*(
                    self._dispatch_group(chain, positions, batch, traces)
                    for chain, positions in groups
                ))
            finally:
                for span in spans:
                    span.finish()
            _LOGGER.debug(
                "batch_dispatched",
                jobs=len(batch),
                groups=len(groups),
                duration=round(time.perf_counter() - started, 6),
            )
        except BaseException as error:  # noqa: BLE001 - fan out to waiters
            # Failures outside a group (cancellation at teardown)
            # would otherwise strand the batch's waiters.
            if isinstance(error, Exception):
                for queued in batch:
                    _set_exception_if_pending(queued.future, error)
            else:
                # CancelledError (loop shutdown) and other
                # non-Exception signals must keep propagating, or the
                # dispatcher task becomes uncancellable and hangs
                # event-loop teardown; the waiters are failed one tick
                # later, after the dispatcher has observed the death.
                _fail_batch_later(batch, error)
                raise

    async def _dispatch_group(
        self,
        chain: tuple[int, ...],
        positions: list[int],
        batch: list[QueuedJob],
        traces: list["tuple[Trace, Span] | None"],
    ) -> None:
        """Run one shard group on the engine under its owner's lock.

        The execution seam: :class:`~repro.cluster.ClusterPreparationService`
        overrides it to ship the group to remote shards instead.  An
        ``Exception`` fails only this group's waiters.
        """
        jobs = [batch[position].job for position in positions]
        keys = [batch[position].key for position in positions]
        group_traces = tuple(traces[position] for position in positions)
        async with self._shard_locks[chain[0]]:
            # Plant the group's traces in this context: asyncio.to_thread
            # copies it, carrying them into the engine's worker thread.
            token = (
                DISPATCH_TRACES.set(group_traces)
                if any(group_traces) else None
            )
            try:
                result = await asyncio.to_thread(
                    self.engine.run_batch, jobs, keys=keys
                )
            except Exception as error:  # noqa: BLE001 - fan out to waiters
                for position in positions:
                    _set_exception_if_pending(
                        batch[position].future, error
                    )
                return
            finally:
                if token is not None:
                    DISPATCH_TRACES.reset(token)
        self._deliver(positions, batch, result.outcomes)

    def _deliver(
        self,
        positions: list[int],
        batch: list[QueuedJob],
        outcomes: Iterable[JobOutcome],
    ) -> None:
        """Resolve a group's waiters, counting failed outcomes."""
        for position, outcome in zip(positions, outcomes):
            if not outcome.ok and self._job_failures is not None:
                self._job_failures.labels(outcome.error_type).inc()
            future = batch[position].future
            if not future.done():
                future.set_result(outcome)

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
