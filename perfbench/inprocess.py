"""In-process workloads: one caller sends each job, one at a time,
through ``PreparationEngine.run_batch`` on the serial executor."""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

from repro.engine import PreparationEngine, comparable_report, job_from_dict
from repro.engine import engine as engine_module
from repro.engine.jobs import PreparationJob
from repro.obs.tracing import Trace, summarize_traces
from repro.pipeline import PipelineConfig, default_passes
from repro.pipeline import pipeline as pipeline_module

import plans
from common import (
    Tally,
    check_fidelity,
    median,
    metric,
    peak_rss_mib,
    tail,
)


def new_engine(seed: int) -> PreparationEngine:
    """A serial engine that has run the throwaway warm-up job."""
    engine = PreparationEngine(executor="serial")
    outcome = engine.run_batch([job_from_dict(plans.warmup_job(seed))])
    if outcome.failures:
        raise RuntimeError(f"warm-up job failed: {outcome.failures[0]}")
    return engine


class Checker:
    """Correctness gate for one engine's outcomes.

    Cold jobs must miss the cache and reach their fidelity floor; warm
    jobs must hit it and return the cold job's report; every circuit's
    size must equal ``report.operations``.
    """

    def __init__(self, tally: Tally):
        self.tally = tally
        self.cold_reports: dict[str, object] = {}

    def __call__(self, request, job, outcome) -> bool:
        tally = self.tally
        tally.attempted += 1
        if not outcome.ok:
            # The wire code the serving layer would refuse with; imported
            # here so the in-process set-up never loads the net package.
            from repro.net.protocol import error_code

            tally.fail(error_code(outcome.error_type))
            return False
        report = outcome.report
        kind = "warm" if request.warm else "cold"
        tally.check(
            outcome.cache_hit == request.warm,
            f"{job.label}: cache_hit={outcome.cache_hit} on a {kind} job",
        )
        tally.check(
            outcome.circuit.num_operations == report.operations,
            f"{job.label}: circuit has {outcome.circuit.num_operations} "
            f"operations, report says {report.operations}",
        )
        if request.warm:
            tally.check(
                self.cold_reports.get(outcome.key)
                == comparable_report(report),
                f"{job.label}: warm report differs from the cold one",
            )
        else:
            check_fidelity(
                tally, job.label, report.fidelity, job.options.min_fidelity
            )
            self.cold_reports[outcome.key] = comparable_report(report)
        return True


def _run(engine, job):
    start = time.perf_counter()
    outcome = engine.run_batch([job]).outcomes[0]
    return outcome, time.perf_counter() - start


def measure(workload, seed, seconds, tally, setup_seconds, speed):
    """Untraced run: the end-to-end metrics."""
    plan = plans.PLANS[workload](seed, seconds)
    jobs = [job_from_dict(request.job) for request in plan]
    engine = new_engine(seed)
    check = Checker(tally)
    latencies = {False: [], True: []}
    ops_total = 0
    spent = speed.spent
    phase_start = time.perf_counter()
    for request, job in zip(plan, jobs):
        speed.maybe_sample()
        outcome, elapsed = _run(engine, job)
        if check(request, job, outcome):
            latencies[request.warm].append(elapsed)
            ops_total += outcome.report.operations
    wall = time.perf_counter() - phase_start - (speed.spent - spent)
    return end_to_end(
        latencies, len(plan) / wall, setup_seconds, peak_rss_mib(),
        ops_total, speed,
    )


def end_to_end(latencies, jobs_per_s, setup_seconds, rss_mib, ops_total,
               speed):
    """The end-to-end metrics, every time scaled to the reference host
    speed by ``speed.scale``; the record keeps the wall-clock figures."""
    cold_tail, cold_pct = tail(latencies[False])
    warm_tail, warm_pct = tail(latencies[True])
    wall = {
        "cold_p50_ms": median(latencies[False]) * 1e3,
        "cold_tail_ms": cold_tail * 1e3,
        "warm_p50_ms": median(latencies[True]) * 1e3,
        "warm_tail_ms": warm_tail * 1e3,
        "jobs_per_s": jobs_per_s,
        "setup_s": median(setup_seconds),
    }
    scale = speed.scale
    metrics = {
        "cold_p50_ms": metric(wall["cold_p50_ms"] * scale, "ms"),
        "cold_tail_ms": metric(wall["cold_tail_ms"] * scale, "ms"),
        "warm_p50_ms": metric(wall["warm_p50_ms"] * scale, "ms"),
        "warm_tail_ms": metric(wall["warm_tail_ms"] * scale, "ms"),
        "jobs_per_s": metric(jobs_per_s / scale, "1/s"),
        "setup_s": metric(wall["setup_s"] * scale, "s"),
        "peak_rss_mb": metric(rss_mib, "MiB"),
        "ops_total": metric(ops_total, "count"),
    }
    details = {
        "cold_tail": {"percentile": cold_pct, "samples": len(latencies[False])},
        "warm_tail": {"percentile": warm_pct, "samples": len(latencies[True])},
        "setup_samples_s": setup_seconds,
        "host_speed": speed.as_dict(),
        "wall_clock": wall,
    }
    return metrics, details


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
@contextmanager
def instrument(trace: Trace):
    """Wrap each layer's public call in a span of ``trace`` for the
    duration.

    ``PreparationJob.resolve_state`` → ``resolve``; the engine's
    ``content_key`` → ``key``; ``run`` of every pass in
    ``default_passes`` → the pass name; ``finalize`` → ``finalize``.
    The spans nest through the context's current span only; the
    context's current trace stays unset, so the engine records none of
    its own spans.
    """
    patched = []

    def wrap(owner, attribute, name=None):
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with trace.span(name or args[0].name):
                return original(*args, **kwargs)

        setattr(owner, attribute, wrapper)
        patched.append((owner, attribute, original))

    wrap(PreparationJob, "resolve_state", "resolve")
    wrap(engine_module, "content_key", "key")
    for stage in default_passes(PipelineConfig()):
        wrap(type(stage), "run")
    wrap(pipeline_module, "finalize", "finalize")
    try:
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


LAYERS = ("resolve", "key", "coerce", "build", "approximate",
          "synthesize", "verify", "finalize")


def measure_traced(workload, seed, seconds, tally, trace):
    """Traced run: the per-layer metrics.

    Every job runs twice, on two fresh engines, alternating which goes
    first: once untraced and once with spans around each layer call.
    The wall-time ratio of the two passes is the tracing overhead.
    """
    plan = plans.TRACED_PLANS[workload](seed, seconds)
    jobs = [job_from_dict(request.job) for request in plan]
    plain, traced = new_engine(seed), new_engine(seed)
    plain_check, traced_check = Checker(tally), Checker(tally)
    plain_wall = 0.0
    executed = []
    for index, (request, job) in enumerate(zip(plan, jobs)):
        for use_trace in ((True, False) if index % 2 else (False, True)):
            if not use_trace:
                outcome, elapsed = _run(plain, job)
                plain_wall += elapsed
                plain_check(request, job, outcome)
                continue
            with instrument(trace), trace.span("job", warm=request.warm):
                outcome = traced.run_batch([job]).outcomes[0]
            if traced_check(request, job, outcome) and not request.warm:
                executed.append((outcome.report, outcome.elapsed))
    stages = summarize_traces([trace])["stages"]
    traced_wall = stages["job"]["total_seconds"]
    busy = {
        layer: stages[layer]["self_seconds"] if layer in stages else 0.0
        for layer in LAYERS
    }
    reports = [report for report, _ in executed]
    stats = traced.stats()
    metrics = {
        f"{layer}.busy_s": metric(busy[layer], "s") for layer in LAYERS
    }
    metrics.update({
        "build.dd_nodes": metric(sum(r.dd_nodes for r in reports), "count"),
        "approximate.nodes_removed": metric(
            sum(r.dd_nodes - r.dag_nodes for r in reports), "count"
        ),
        "synthesize.ops": metric(sum(r.operations for r in reports), "count"),
        "verify.amplitudes": metric(
            sum(math.prod(r.dims) for r in reports), "count"
        ),
        "verify.share": metric(busy["verify"] / traced_wall, "ratio"),
        # The serving and wire layers are bypassed in-process.
        "service.queue_wait_ms": metric(0.0, "ms"),
        "service.batch_size_mean": metric(0.0, "jobs"),
        "net.server_ms": metric(0.0, "ms"),
        "net.wire_ms": metric(0.0, "ms"),
        "net.response_kb": metric(0.0, "KiB"),
        "engine.hit_ratio": metric(
            stats.cache_hits / stats.cache_lookups, "ratio"
        ),
        # outcome.elapsed is what repro_job_execute_seconds observes.
        "engine.execute_ms": metric(
            median([elapsed for _, elapsed in executed]) * 1e3, "ms"
        ),
        "unattributed_share": metric(
            stages["job"]["self_seconds"] / traced_wall, "ratio"
        ),
        "tracing_overhead": metric(traced_wall / plain_wall, "ratio"),
    })
    return metrics, {"traced_wall_s": traced_wall, "plain_wall_s": plain_wall}
