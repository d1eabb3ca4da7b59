"""Micro-batching queue for the async serving layer.

Single-job requests arriving concurrently are worth far more to the
engine as one batch: intra-batch deduplication collapses identical
targets, the process pool amortises its dispatch overhead, and the
cache is probed once per distinct key.  The service keeps one
:class:`MicroBatchQueue` per cache shard; each hands its consumer
(that shard's worker) everything queued so far, up to
``max_batch_size`` jobs, as soon as one job is there: it never waits
for partners.  Jobs coalesce while the consumer is busy, so requests
that arrive while their shard's worker runs a batch leave together,
and a lone request leaves at once.

All coordination is plain ``asyncio``; nothing here touches threads.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.engine.jobs import PreparationJob
from repro.exceptions import EngineError
from repro.obs.tracing import Span, Trace, current_trace
from repro.states.statevector import StateVector

__all__ = ["BatchQueueStats", "MicroBatchQueue", "QueuedJob"]


@dataclass(frozen=True)
class QueuedJob:
    """One enqueued request: the job plus the future its client awaits.

    Attributes:
        job: The submitted job.
        future: Resolved with the job's outcome by the shard's
            worker.
        key: The job's content key, made once when the request
            entered the service (``None`` if the job could not be
            keyed: the engine then reports its failure).
        state: The state resolved to make ``key``, for the engine to
            synthesise without resolving the job again (``None`` when
            the key came from the engine's memo).
        trace: The request's :class:`~repro.obs.Trace` when the
            submitting context was traced (captured at enqueue time,
            so the worker — a different task — can keep recording
            spans for the right request).
        queue_span: The open ``queue_wait`` span; the worker finishes
            it when the batch leaves the queue.
        enqueued_at: ``time.perf_counter()`` at enqueue, for the
            queue-wait histogram.
    """

    job: PreparationJob
    future: asyncio.Future
    key: str | None = None
    state: StateVector | None = None
    trace: Trace | None = None
    queue_span: Span | None = None
    enqueued_at: float = 0.0


@dataclass
class BatchQueueStats:
    """Counters describing how requests coalesced into batches.

    Attributes:
        batches_formed: Micro-batches handed to the consumer.
        largest_batch: Size of the biggest batch formed so far.
        full_batches: Batches that reached the size cap,
            ``max_batch_size``.
    """

    batches_formed: int = 0
    largest_batch: int = 0
    full_batches: int = 0

    def merged(self, other: "BatchQueueStats") -> "BatchQueueStats":
        """Combine two snapshots: counters sum, ``largest_batch`` maxes."""
        return BatchQueueStats(
            batches_formed=self.batches_formed + other.batches_formed,
            largest_batch=max(self.largest_batch, other.largest_batch),
            full_batches=self.full_batches + other.full_batches,
        )


class _Closed:
    """Sentinel enqueued by ``close()`` to wake the consumer."""


_CLOSED = _Closed()


class MicroBatchQueue:
    """Coalesce queued jobs into bounded micro-batches.

    Args:
        max_batch_size: Hard cap on jobs per batch (>= 1).

    Raises:
        EngineError: For a non-positive size.
    """

    def __init__(self, max_batch_size: int = 32):
        if max_batch_size < 1:
            raise EngineError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size
        self.stats = BatchQueueStats()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Jobs enqueued but not yet handed out in a batch."""
        # After close() the queue also holds the sentinel, which is
        # not a job.
        return max(
            0, self._queue.qsize() - (1 if self._closed else 0)
        )

    def put(
        self,
        job: PreparationJob,
        key: str | None = None,
        state: StateVector | None = None,
    ) -> asyncio.Future:
        """Enqueue a job, its content key and the state resolved to
        make the key; returns the future its outcome will land on."""
        if self._closed:
            raise EngineError(
                "micro-batch queue is closed; no new jobs accepted"
            )
        future = asyncio.get_running_loop().create_future()
        trace = current_trace()
        queue_span = (
            trace.begin_span("queue_wait")
            if trace is not None else None
        )
        self._queue.put_nowait(QueuedJob(
            job=job,
            future=future,
            key=key,
            state=state,
            trace=trace,
            queue_span=queue_span,
            enqueued_at=time.perf_counter(),
        ))
        return future

    def close(self) -> None:
        """Stop accepting jobs; the consumer drains what is queued.

        After the already-enqueued jobs have been batched out,
        :meth:`next_batch` returns ``None``.
        """
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(_CLOSED)

    def drain_pending(self) -> list[QueuedJob]:
        """Remove and return jobs still queued, without batching them.

        For teardown paths where no consumer will run again (e.g. the
        shard's worker died): the caller must resolve the returned jobs'
        futures itself or their awaiters hang forever.
        """
        pending: list[QueuedJob] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not isinstance(item, _Closed):
                pending.append(item)
        if self._closed:
            # Keep the sentinel armed for any further next_batch call.
            self._queue.put_nowait(_CLOSED)
        return pending

    async def next_batch(self) -> list[QueuedJob] | None:
        """Wait for the next micro-batch, or ``None`` once drained.

        Blocks until at least one job is available, then returns it
        with every job queued behind it, up to ``max_batch_size``.
        It never waits for more jobs to arrive.
        """
        first = await self._queue.get()
        if isinstance(first, _Closed):
            # Re-arm the sentinel so every later call also returns
            # None instead of blocking on an empty, closed queue.
            self._queue.put_nowait(_CLOSED)
            return None
        batch = [first]
        while len(batch) < self.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if isinstance(item, _Closed):
                # Put the sentinel back so the *next* call returns
                # None; this batch still carries the drained jobs.
                self._queue.put_nowait(_CLOSED)
                break
            batch.append(item)
        self.stats.batches_formed += 1
        self.stats.largest_batch = max(
            self.stats.largest_batch, len(batch)
        )
        if len(batch) == self.max_batch_size:
            self.stats.full_batches += 1
        return batch
