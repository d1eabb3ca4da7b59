"""The :class:`PreparationEngine` facade.

Turns the one-shot :func:`repro.prepare_state` pipeline into a
throughput engine: jobs are content-hashed, served from the circuit
cache when possible, deduplicated within a batch, and executed on a
serial or multi-process backend.  Every job yields a structured
outcome in submission order; a failing job never aborts its batch.

Typical use::

    from repro.engine import PreparationEngine, PreparationJob

    engine = PreparationEngine(executor="parallel")
    jobs = [PreparationJob(dims=(3, 6, 2), family="ghz"),
            PreparationJob(dims=(2, 2, 2), family="w")]
    batch = engine.run_batch(jobs)
    for outcome in batch.successes:
        print(outcome.job.label, outcome.report.operations)
    print(engine.stats())
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields

from repro.core.preparation import prepare_state
from repro.pipeline.pipeline import Pipeline
from repro.states.statevector import StateVector
from repro.engine.cache import CacheEntry, CircuitCache
from repro.engine.executor import ExecutionBackend, as_executor
from repro.exceptions import EngineError
from repro.engine.jobs import PreparationJob, content_key
from repro.obs import log as obs_log
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.engine.results import (
    BatchResult,
    JobFailure,
    JobOutcome,
    JobSuccess,
)

__all__ = ["EngineStats", "PreparationEngine"]


_LOGGER = obs_log.get_logger("engine")

#: Bound on each engine's description -> content-key memo.
_KEY_MEMO_SIZE = 4096

#: Families whose state is drawn from ``params["rng"]``: without a
#: seed, two equal descriptions are two different states.
_SEEDED_FAMILIES = frozenset({"random", "random_sparse"})


def _memo_description(job: PreparationJob) -> str | None:
    """Canonical JSON of ``job`` without its label, or ``None`` when
    the description does not fix the state.

    ``None`` for raw amplitudes (their key is their hash), for an
    unseeded random family, and for params that do not encode as JSON
    (a ``numpy.random.Generator``, complex factors): only a
    description that names one state may share a key.
    """
    if job.family is None:
        return None
    if job.family in _SEEDED_FAMILIES and job.params.get("rng") is None:
        return None
    description = job.describe()
    del description["label"]
    try:
        return json.dumps(
            description, sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError):
        return None


def _execute_job(
    task: tuple[PreparationJob, str, StateVector, Pipeline | None],
) -> JobOutcome:
    """Worker entry point: run one job's pipeline, capturing any error.

    The target state is resolved exactly once, by ``run_batch`` when
    it computes the content key, and shipped here with the task —
    re-resolving would let a nondeterministic builder (e.g. an
    unseeded random family) hand the worker a *different* state than
    the one the key addresses, poisoning the cache.  ``pipeline`` is
    the engine's custom pipeline (``None`` runs the default pipeline
    for the job's config).

    An optional fifth task element carries tracing state:

    * under the serial executor, the request's live
      ``(trace, parent_span)`` — re-established as the current trace
      around the pipeline run, under an ``execute`` span, so every
      pipeline pass lands as a span of the right request;
    * under a process-pool executor, a picklable
      ``("ledger", trace_id, parent_span_id)`` sentinel — the worker
      records the same spans into a private :class:`~repro.obs.Trace`
      and returns ``(outcome, trace.export())`` so the engine grafts
      the subtree back onto the live request trace.

    Module-level so it pickles for ``ProcessPoolExecutor`` dispatch.
    """
    job, key, state, pipeline = task[:4]
    traced = task[4] if len(task) > 4 else None
    start = time.perf_counter()
    ledger_trace = None
    if (
        isinstance(traced, tuple)
        and len(traced) == 3
        and traced[0] == "ledger"
    ):
        ledger_trace = tracing.Trace(traced[1], transport="worker")
        ledger_trace.remote_parent = traced[2]
        traced = (ledger_trace, None)
    execute_span = None
    tokens = None
    if traced is not None:
        trace, parent = traced
        execute_span = trace.begin_span(
            "execute", parent=parent, start=start, key=key[:16]
        )
        tokens = (
            tracing.CURRENT_TRACE.set(trace),
            tracing.CURRENT_SPAN.set(execute_span),
        )

    def _deliver(outcome: JobOutcome):
        if ledger_trace is None:
            return outcome
        # Close the execute span before exporting (the enclosing
        # ``finally`` only runs after this return value is built);
        # ``finish`` is idempotent, so the second call is a no-op.
        if execute_span is not None:
            execute_span.finish()
        return outcome, ledger_trace.export()

    try:
        result = prepare_state(
            state, config=job.options, pipeline=pipeline
        )
        return _deliver(JobSuccess(
            job=job,
            key=key,
            circuit=result.circuit,
            report=result.report,
            cache_hit=False,
            elapsed=time.perf_counter() - start,
            stage_timings=tuple(
                (timing.stage, timing.seconds)
                for timing in result.timings
            ),
        ))
    except Exception as error:  # noqa: BLE001 - per-job isolation
        if execute_span is not None:
            execute_span.annotate(
                error=type(error).__name__
            )
        return _deliver(JobFailure(
            job=job,
            key=key,
            error_type=type(error).__name__,
            message=str(error),
            elapsed=time.perf_counter() - start,
        ))
    finally:
        if tokens is not None:
            tracing.CURRENT_SPAN.reset(tokens[1])
            tracing.CURRENT_TRACE.reset(tokens[0])
        if execute_span is not None:
            execute_span.finish()


@dataclass(frozen=True)
class EngineStats:
    """Lifetime counters of one engine instance.

    Attributes:
        jobs_submitted: Jobs seen across all batches, plus the hits
            served by :meth:`PreparationEngine.cached_outcome`.
        jobs_executed: Jobs that actually ran synthesis (cache misses
            after deduplication).
        jobs_failed: Jobs that ended in a :class:`JobFailure`.
        cache_lookups / cache_hits / cache_misses / cache_stores /
            cache_evictions / disk_hits / disk_write_errors:
            Forwarded from the circuit cache
            (``cache_hits + cache_misses == cache_lookups``).
        total_wall_time: Summed wall time of all ``run_batch`` calls.
    """

    jobs_submitted: int
    jobs_executed: int
    jobs_failed: int
    cache_lookups: int
    cache_hits: int
    cache_misses: int
    cache_stores: int
    cache_evictions: int
    disk_hits: int
    disk_write_errors: int
    total_wall_time: float

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-ready form (one ``json.dumps`` away from the
        wire); inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineStats":
        """Rebuild a snapshot from :meth:`to_dict` output (extra keys
        are ignored so older clients tolerate newer servers)."""
        return cls(**{
            spec.name: payload[spec.name] for spec in fields(cls)
        })

    def summary(self) -> str:
        """One-line human-readable form (used by the CLI)."""
        text = (
            f"jobs={self.jobs_submitted} executed={self.jobs_executed} "
            f"failed={self.jobs_failed} cache_hits={self.cache_hits} "
            f"cache_misses={self.cache_misses} "
            f"evictions={self.cache_evictions} "
            f"wall={self.total_wall_time:.3f}s"
        )
        if self.disk_write_errors:
            text += f" disk_write_errors={self.disk_write_errors}"
        return text


class PreparationEngine:
    """Batched, cached, parallel state-preparation front end.

    Args:
        cache: A :class:`CircuitCache` — or any object with the same
            ``get`` / ``get_if_present`` / ``get_in_memory`` /
            ``peek`` / ``put`` / ``clear`` / ``stats`` surface, such as
            :meth:`repro.cluster.ShardPlacement.local` builds — or
            ``None`` for a default in-memory cache.
        executor: An :class:`ExecutionBackend`, ``"serial"``,
            ``"parallel"``, or ``None`` (serial).
        pipeline: A custom :class:`~repro.pipeline.Pipeline` every job
            runs through, or ``None`` for the default pipeline of each
            job's config.  The pipeline's ``signature()`` is folded
            into every cache key, so entries computed by different
            pipelines never alias; it must be picklable to use the
            parallel executor.
        metrics: A :class:`~repro.obs.MetricsRegistry` to publish
            engine metrics into: the per-executed-job latency
            histogram ``repro_job_execute_seconds`` plus a scrape-time
            collector exposing the lifetime :class:`EngineStats`
            counters (cache traffic, jobs) and the ``repro_dd_nodes``
            gauge (DD node count of the most recently executed job).
            ``None`` leaves the engine un-instrumented.
    """

    def __init__(
        self,
        cache: CircuitCache | None = None,
        executor: ExecutionBackend | str | None = None,
        pipeline: Pipeline | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.cache = cache if cache is not None else CircuitCache()
        self.executor = as_executor(executor)
        self._pipeline = pipeline
        self._pipeline_signature = (
            pipeline.signature() if pipeline is not None else None
        )
        self.metrics = metrics
        self._job_seconds = None
        if metrics is not None:
            self._job_seconds = metrics.histogram(
                "repro_job_execute_seconds",
                "Wall time of each executed (cache-missing) job.",
            )
            metrics.register_collector(self._collect_samples)
        self._jobs_submitted = 0
        self._jobs_executed = 0
        self._jobs_failed = 0
        self._total_wall_time = 0.0
        # dd_nodes of the most recently executed successful job —
        # gauge semantics.
        self._last_dd_nodes = 0
        # Guards only the engine's own counters.  The cache locks
        # itself (per shard under a ShardPlacement), so concurrent
        # run_batch calls proceed in parallel instead of serialising
        # on one engine-wide lock.
        self._stats_lock = threading.Lock()
        # Description -> content key of deterministic family jobs, so
        # a repeat is keyed without resolving its state again.
        self._key_memo: OrderedDict[str, str] = OrderedDict()
        self._key_memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> Pipeline | None:
        """The engine's custom pipeline (read-only).

        Read-only because the cache keys of everything this engine
        has stored embed the pipeline's signature: swapping the
        pipeline on a live engine would serve the old pipeline's
        circuits under the new one's identity.  Build a new engine
        (sharing the same cache object is fine — the signatures keep
        the entries apart) to run a different pipeline.
        """
        return self._pipeline

    def submit(self, job: PreparationJob) -> JobOutcome:
        """Run a single job through the cache and executor."""
        return self.run_batch([job]).outcomes[0]

    def job_key(self, job: PreparationJob) -> str:
        """Content key of ``job`` under this engine's pipeline.

        Resolves the target state (so it raises whatever
        ``resolve_state`` raises for an impossible job) and folds in
        the engine's custom-pipeline signature, exactly as
        ``run_batch`` keys the job.  A family job whose description
        fixes its state is keyed once: later jobs with an equal
        description (labels aside) read the key from a bounded memo
        without resolving.  The serving layer keys each request with
        this once, when it arrives.
        """
        return self.key_and_state(job)[0]

    def memoised_key(self, job: PreparationJob) -> str | None:
        """:meth:`job_key` of ``job`` if the memo holds it, else
        ``None``; never resolves a state."""
        description = _memo_description(job)
        if description is None:
            return None
        return self._recall(description)

    def _recall(self, description: str) -> str | None:
        with self._key_memo_lock:
            key = self._key_memo.get(description)
            if key is not None:
                self._key_memo.move_to_end(description)
            return key

    def key_and_state(
        self, job: PreparationJob
    ) -> tuple[str, StateVector | None]:
        """:meth:`job_key` of ``job``, plus the state it resolved to
        make the key (``None`` when the memo answered).

        The serving layer keys a never-seen request with this and
        hands the state to :meth:`run_batch` next to the key, so the
        compile does not resolve it again.
        """
        description = _memo_description(job)
        if description is not None:
            key = self._recall(description)
            if key is not None:
                return key, None
        state = job.resolve_state()
        key = content_key(state, job.options, self._pipeline_signature)
        if description is not None:
            with self._key_memo_lock:
                self._key_memo[description] = key
                self._key_memo.move_to_end(description)
                if len(self._key_memo) > _KEY_MEMO_SIZE:
                    self._key_memo.popitem(last=False)
        return key, state

    def cached_outcome(
        self, job: PreparationJob, key: str
    ) -> JobSuccess | None:
        """``job`` served from the cache alone; ``None`` if ``key`` is
        not cached.

        ``key`` is :meth:`job_key` of ``job``.  A hit counts as a
        submitted job and a cache hit, as inside :meth:`run_batch`;
        an absent key counts nothing, so the ``run_batch`` that then
        serves the job counts its one lookup.  The serving layer
        answers warm requests with this before they are queued.
        """
        return self._hit(job, key, self.cache.get_if_present(key))

    def memory_hit(
        self, job: PreparationJob, key: str
    ) -> JobSuccess | None:
        """:meth:`cached_outcome` from the memory layer alone, without
        waiting: ``None`` also when the entry is only on disk or its
        shard's lock is held.  Safe to call on an event loop."""
        return self._hit(job, key, self.cache.get_in_memory(key))

    def _hit(
        self, job: PreparationJob, key: str, entry: CacheEntry | None
    ) -> JobSuccess | None:
        if entry is None:
            return None
        with self._stats_lock:
            self._jobs_submitted += 1
        return JobSuccess(
            job=job,
            key=key,
            circuit=entry.circuit,
            report=entry.report,
            cache_hit=True,
        )

    def run_batch(
        self,
        jobs: Iterable[PreparationJob],
        *,
        keys: Iterable[str | None] | None = None,
        states: Iterable[StateVector | None] | None = None,
    ) -> BatchResult:
        """Execute a batch, returning outcomes in submission order.

        Identical jobs (same content key) are synthesised once per
        batch; the duplicates are served as cache hits.  Per-job
        errors are captured as :class:`JobFailure` outcomes.

        Args:
            jobs: The jobs to run.
            keys: Optional precomputed content keys (as returned by
                :meth:`job_key`), parallel to ``jobs``; ``None``
                entries are computed here.  A caller that already
                keyed the jobs — the serving layer keys each request
                when it arrives — avoids a second state resolution:
                slots with a provided key only resolve their state if
                they miss the cache.
            states: Optional resolved states, parallel to ``jobs``, as
                :meth:`key_and_state` returns them with the keys.  A
                state is used only with its job's provided key, which
                must be made from it: the job's miss is then
                synthesised from it without resolving the job again.

        Thread-safe: the cache locks itself (per shard under a
        :class:`~repro.cluster.ShardPlacement`) and the engine
        counters sit behind their own lock, so concurrent batches run
        in parallel.  Two *concurrent* batches missing the same key
        both synthesise it (identical results, but each counts its
        own miss); callers that need batch-composition-independent
        counters serialise same-shard batches, as
        :class:`~repro.service.AsyncPreparationService` does with its
        one dispatch worker per shard.
        """
        jobs = list(jobs)
        provided_keys = list(keys) if keys is not None else None
        provided_states = list(states) if states is not None else None
        for name, provided in (
            ("keys", provided_keys), ("states", provided_states)
        ):
            if provided is not None and len(provided) != len(jobs):
                raise EngineError(
                    f"{name} must parallel jobs: got {len(provided)} "
                    f"{name} for {len(jobs)} jobs"
                )
        start = time.perf_counter()
        return self._run_batch(jobs, start, provided_keys, provided_states)

    def _run_batch(
        self,
        jobs: list[PreparationJob],
        start: float,
        provided_keys: list[str | None] | None = None,
        provided_states: list[StateVector | None] | None = None,
    ) -> BatchResult:
        with self._stats_lock:
            self._jobs_submitted += len(jobs)
        outcomes: list[JobOutcome | None] = [None] * len(jobs)

        # Per-job (trace, parent_span) pairs, planted by the service's
        # dispatch coroutine just before asyncio.to_thread — the
        # context copy carried them into this worker thread.
        traces = tracing.DISPATCH_TRACES.get(None)
        if traces is not None and len(traces) != len(jobs):
            traces = None

        def traced_at(position: int):
            if traces is None:
                return None
            return traces[position]

        # Key every job up front — from the caller where provided
        # (with the state the caller resolved for it, if given), else
        # from the key memo or by resolving the state here; a job
        # whose state cannot even be built fails here without
        # touching a worker.
        keys: list[str | None] = [None] * len(jobs)
        states: list[StateVector | None] = [None] * len(jobs)
        for position, job in enumerate(jobs):
            if (
                provided_keys is not None
                and provided_keys[position] is not None
            ):
                keys[position] = provided_keys[position]
                if provided_states is not None:
                    states[position] = provided_states[position]
                continue
            try:
                keys[position], states[position] = (
                    self.key_and_state(job)
                )
            except Exception as error:  # noqa: BLE001
                outcomes[position] = JobFailure(
                    job=job,
                    key=None,
                    error_type=type(error).__name__,
                    message=str(error),
                )

        # Cache lookups plus intra-batch deduplication: the first
        # occurrence of each missing key is dispatched, later
        # duplicates wait and are served from the stored result.
        dispatch: dict[str, int] = {}
        duplicates: list[int] = []
        for position, job in enumerate(jobs):
            key = keys[position]
            if key is None:
                continue
            if key in dispatch:
                # A known intra-batch duplicate cannot be in the cache
                # (its primary just missed); probing again would count
                # a second spurious miss for the same logical lookup.
                duplicates.append(position)
                continue
            entry = self.cache.get(key)
            if entry is not None:
                outcomes[position] = JobSuccess(
                    job=job,
                    key=key,
                    circuit=entry.circuit,
                    report=entry.report,
                    cache_hit=True,
                )
                traced = traced_at(position)
                if traced is not None:
                    trace, parent = traced
                    trace.add_span(
                        "cache_hit",
                        start=trace.offset(),
                        duration=0.0,
                        parent=parent,
                        key=key[:16],
                    )
            else:
                dispatch[key] = position

        # Execute the unique misses on the configured backend.  A job
        # keyed by its caller without a state, or by the memo, resolves
        # its state only now — cache hits never needed it.  The key is
        # then recomputed from the state actually resolved, so a
        # nondeterministic builder (an unseeded random family) can
        # never store a circuit under a key addressing a *different*
        # state than the one synthesised.
        tasks = []
        task_positions: list[int] = []
        for key, position in dispatch.items():
            state = states[position]
            if state is None:
                try:
                    state = jobs[position].resolve_state()
                except Exception as error:  # noqa: BLE001
                    outcomes[position] = JobFailure(
                        job=jobs[position],
                        key=key,
                        error_type=type(error).__name__,
                        message=str(error),
                    )
                    continue
                key = content_key(
                    state,
                    jobs[position].options,
                    self._pipeline_signature,
                )
            task = (jobs[position], key, state, self._pipeline)
            traced = traced_at(position)
            if traced is not None:
                if self.executor.name == "serial":
                    # The in-thread serial executor records straight
                    # into the live trace (traces hold locks and
                    # context references — they do not pickle).
                    task = task + (traced,)
                else:
                    # Process-pool workers get a picklable sentinel;
                    # they record into a private per-job ledger and
                    # return it for grafting below.
                    trace, parent = traced
                    task = task + ((
                        "ledger",
                        trace.request_id,
                        parent.span_id if parent is not None else None,
                    ),)
            tasks.append(task)
            task_positions.append(position)
        with self._stats_lock:
            self._jobs_executed += len(tasks)
        for position, delivered in zip(
            task_positions, self.executor.run(_execute_job, tasks)
        ):
            ledger = None
            if isinstance(delivered, tuple):
                outcome, ledger = delivered
            else:
                outcome = delivered
            if ledger is not None:
                traced = traced_at(position)
                if traced is not None:
                    trace, parent = traced
                    trace.graft(
                        ledger, parent=parent,
                        worker_pid=ledger.get("pid"),
                    )
            outcomes[position] = outcome
            if self._job_seconds is not None and outcome.elapsed:
                self._job_seconds.observe(outcome.elapsed)
            if outcome.ok:
                with self._stats_lock:
                    self._last_dd_nodes = outcome.report.dd_nodes
                self.cache.put(
                    CacheEntry(
                        key=outcome.key,
                        circuit=outcome.circuit,
                        report=outcome.report,
                    )
                )

        # Serve intra-batch duplicates; the cache now holds every key
        # whose primary job succeeded, so these lookups count as hits.
        # ``get_if_present`` counts a hit (with LRU refresh and disk
        # promotion) but records nothing for an absent key: a cache
        # that retains nothing (capacity 0, no disk) must not log a
        # spurious *miss* for a slot that is served from the primary
        # outcome either way.
        for position in duplicates:
            key = keys[position]
            traced = traced_at(position)
            if traced is not None:
                trace, parent = traced
                trace.add_span(
                    "cache_hit",
                    start=trace.offset(),
                    duration=0.0,
                    parent=parent,
                    key=key[:16],
                    deduplicated=True,
                )
            entry = self.cache.get_if_present(key)
            if entry is not None:
                outcomes[position] = JobSuccess(
                    job=jobs[position],
                    key=key,
                    circuit=entry.circuit,
                    report=entry.report,
                    cache_hit=True,
                )
            else:
                # Nothing cached: either the primary failed, or the
                # cache is configured to keep nothing (capacity 0, no
                # disk) — serve the duplicate from the primary outcome.
                primary = outcomes[dispatch[key]]
                if primary.ok:
                    outcomes[position] = JobSuccess(
                        job=jobs[position],
                        key=key,
                        circuit=primary.circuit,
                        report=primary.report,
                        cache_hit=True,
                    )
                else:
                    outcomes[position] = JobFailure(
                        job=jobs[position],
                        key=key,
                        error_type=primary.error_type,
                        message=primary.message,
                    )

        wall_time = time.perf_counter() - start
        failed = sum(1 for outcome in outcomes if not outcome.ok)
        with self._stats_lock:
            self._jobs_failed += failed
            self._total_wall_time += wall_time
        _LOGGER.debug(
            "batch_executed",
            jobs=len(jobs),
            executed=len(tasks),
            failed=failed,
            duration=round(wall_time, 6),
        )
        return BatchResult(outcomes=tuple(outcomes), wall_time=wall_time)

    def _collect_samples(self):
        """Scrape-time samples of the lifetime engine counters."""
        stats = self.stats()
        with self._stats_lock:
            dd_nodes = self._last_dd_nodes
        return [
            ("repro_jobs_submitted_total", "counter",
             "Jobs seen across all batches and cache-only hits.",
             stats.jobs_submitted),
            ("repro_jobs_executed_total", "counter",
             "Jobs that ran synthesis (cache misses after dedup).",
             stats.jobs_executed),
            ("repro_jobs_failed_total", "counter",
             "Jobs that ended in a JobFailure.", stats.jobs_failed),
            ("repro_cache_lookups_total", "counter",
             "Circuit-cache lookups (hits + misses).",
             stats.cache_lookups),
            ("repro_cache_hits_total", "counter",
             "Circuit-cache hits.", stats.cache_hits),
            ("repro_cache_misses_total", "counter",
             "Circuit-cache misses.", stats.cache_misses),
            ("repro_cache_stores_total", "counter",
             "Circuits stored into the cache.", stats.cache_stores),
            ("repro_cache_evictions_total", "counter",
             "Cache entries evicted by capacity.",
             stats.cache_evictions),
            ("repro_disk_hits_total", "counter",
             "Lookups served from the persistent disk cache.",
             stats.disk_hits),
            ("repro_disk_write_errors_total", "counter",
             "Failed disk-cache writes.", stats.disk_write_errors),
            ("repro_dd_nodes", "gauge",
             "DD node count of the most recently executed job.",
             dd_nodes),
        ]

    def stats(self) -> EngineStats:
        """Snapshot of lifetime engine + cache counters."""
        cache_stats = self.cache.stats
        return EngineStats(
            jobs_submitted=self._jobs_submitted,
            jobs_executed=self._jobs_executed,
            jobs_failed=self._jobs_failed,
            cache_lookups=cache_stats.lookups,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            cache_stores=cache_stats.stores,
            cache_evictions=cache_stats.evictions,
            disk_hits=cache_stats.disk_hits,
            disk_write_errors=cache_stats.disk_write_errors,
            total_wall_time=self._total_wall_time,
        )

    def __repr__(self) -> str:
        return (
            f"PreparationEngine(executor={self.executor!r}, "
            f"cache_entries={len(self.cache)})"
        )
