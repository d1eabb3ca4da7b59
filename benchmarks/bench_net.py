#!/usr/bin/env python3
"""Network front-end benchmark: requests/sec over HTTP and the
in-process serving path.

Not a paper experiment — this measures what the wire costs.  The same
duplicate-heavy workload is served two ways through an identically
configured :class:`~repro.service.AsyncPreparationService`:

* ``inprocess`` — clients call ``service.run_batch`` directly (the
  PR-3 path; upper bound, no sockets),
* ``http`` — each client is a :class:`~repro.net.ReproClient` on its
  own keep-alive HTTP/1.1 connection, batching per request.

Each leg asserts the serving guarantees (outcomes equal to a
serial ``run_batch`` modulo timings, warm traffic fully cache-hit),
so the benchmark doubles as a regression test.  Results are written
to ``BENCH_net.json`` (override with ``-o``); run under pytest
(``pytest benchmarks/bench_net.py -s``) or directly
(``python benchmarks/bench_net.py``).

Two observability measurements ride along (ISSUE 6):

* HTTP p50/p95/p99 request latency, estimated from the
  server's ``repro_request_seconds`` histogram exactly the way
  Prometheus' ``histogram_quantile`` would,
* the cost of the instrumentation itself — the in-process path runs
  with the production in-process configuration (a live
  ``MetricsRegistry`` in the service + engine, no tracer: tracing
  starts at the wire layer) vs an ``enabled=False`` registry, best
  of :data:`REPEATS` runs each, and the instrumented run must keep
  >= 95 % of baseline throughput.  A third, fully *traced*
  in-process run (every call wrapped in ``tracer.request``) is
  reported but not asserted: it over-counts — in production only
  wire requests are traced, where span bookkeeping is ~0.1 % of the
  observed multi-millisecond request latency.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.engine import PreparationEngine, PreparationJob, comparable_outcome
from repro.net import (
    HttpServer,
    ReproClient,
    comparable_wire_outcome,
    outcome_to_wire,
)
from repro.obs import MetricsRegistry, Tracer
from repro.service import AsyncPreparationService

NUM_CLIENTS = 16
ROUNDS = 3  # workload replays per client (first one is the cold round)
REPEATS = 5  # timed repetitions per in-process mode (best taken)

#: The in-process overhead comparison replays the workload this many
#: extra times per run, stretching the timed region to ~60 ms so the
#: best-of-REPEATS estimate is not dominated by scheduler jitter.
OVERHEAD_SCALE = 4

#: The instrumented in-process run must keep this share of the
#: uninstrumented throughput.
MAX_OVERHEAD_RATIO = 1.05

WIRE_WORKLOAD = [
    {"family": "ghz", "dims": [3, 6, 2]},
    {"family": "w", "dims": [2, 2, 2]},
    {"family": "ghz", "dims": [3, 6, 2]},
    {"family": "random", "dims": [3, 3], "params": {"rng": 7}},
]


def make_jobs() -> list[PreparationJob]:
    return [
        PreparationJob(
            dims=tuple(raw["dims"]), family=raw["family"],
            params=raw.get("params", {}),
        )
        for raw in WIRE_WORKLOAD
    ]


def make_service(metrics=None) -> AsyncPreparationService:
    return AsyncPreparationService(
        num_shards=4, max_batch_size=32, metrics=metrics,
    )


def reference_outcomes() -> list[dict]:
    batch = PreparationEngine().run_batch(make_jobs())
    return [
        comparable_wire_outcome(outcome_to_wire(outcome))
        for outcome in batch.outcomes
    ]


async def _bench_inprocess(
    instrumented: bool, traced: bool = False
) -> dict:
    registry = MetricsRegistry(enabled=instrumented)
    tracer = Tracer(enabled=traced)
    service = make_service(metrics=registry)
    jobs = make_jobs()

    async def one_call():
        with tracer.request(transport="inprocess"):
            return await service.run_batch(jobs)

    calls = NUM_CLIENTS * ROUNDS * OVERHEAD_SCALE
    start = time.perf_counter()
    async with service:
        results = await asyncio.gather(*(
            one_call() for _ in range(calls)
        ))
    elapsed = time.perf_counter() - start
    expected = [
        comparable_outcome(o)
        for o in PreparationEngine().run_batch(jobs).outcomes
    ]
    for result in results:
        assert [
            comparable_outcome(o) for o in result.outcomes
        ] == expected
    if instrumented:
        # The instrumented run really did instrument: every queued
        # job's wait was observed, and every queued job rode one
        # measured batch.  Hits answered at the service door never
        # queue, so fewer than all jobs do.
        queued = registry.histogram("repro_queue_wait_seconds").count()
        assert 0 < queued <= calls * len(jobs)
        assert registry.histogram(
            "repro_batch_size"
        ).snapshot()["sum"] == queued
    if traced:
        assert len(tracer.ids()) > 0
    requests = calls * len(jobs)
    return {"requests": requests, "seconds": elapsed}


def _bench_inprocess_modes() -> tuple[dict[str, dict], dict[str, float]]:
    """Best of :data:`REPEATS` runs per mode, plus overhead ratios.

    The three modes run interleaved, one sweep per repeat, and each
    mode's overhead ratio is computed *within* a sweep (instrumented
    seconds / that sweep's baseline seconds) with the minimum over
    sweeps kept — pairing in time cancels machine drift that
    independent best-of minima cannot.
    """
    modes = {
        "inprocess": dict(instrumented=False),
        "inprocess_instrumented": dict(instrumented=True),
        "inprocess_traced": dict(instrumented=True, traced=True),
    }
    best: dict[str, dict] = {}
    ratios: dict[str, float] = {}
    for _ in range(REPEATS):
        sweep = {}
        for name, kwargs in modes.items():
            result = asyncio.run(_bench_inprocess(**kwargs))
            sweep[name] = result
            if (
                name not in best
                or result["seconds"] < best[name]["seconds"]
            ):
                best[name] = result
        baseline = sweep["inprocess"]["seconds"]
        for name in ("inprocess_instrumented", "inprocess_traced"):
            ratio = sweep[name]["seconds"] / baseline
            if name not in ratios or ratio < ratios[name]:
                ratios[name] = ratio
    return best, ratios


def _latency_percentiles(registry) -> dict:
    histogram = registry.get("repro_request_seconds")
    return {
        "p50": histogram.quantile(0.50, "http"),
        "p95": histogram.quantile(0.95, "http"),
        "p99": histogram.quantile(0.99, "http"),
    }


async def _bench_http() -> dict:
    registry = MetricsRegistry()
    service = make_service(metrics=registry)
    await service.start()
    server = await HttpServer(
        service, metrics=registry, tracer=Tracer()
    ).start()
    expected = reference_outcomes()

    async def one_client():
        async with ReproClient("127.0.0.1", server.port) as client:
            for _ in range(ROUNDS):
                outcomes = (
                    await client.batch(WIRE_WORKLOAD)
                )["outcomes"]
                assert [
                    comparable_wire_outcome(o) for o in outcomes
                ] == expected

    start = time.perf_counter()
    try:
        await asyncio.gather(
            *(one_client() for _ in range(NUM_CLIENTS))
        )
        elapsed = time.perf_counter() - start
        stats = service.stats()
    finally:
        await server.stop()
    requests = NUM_CLIENTS * ROUNDS * len(WIRE_WORKLOAD)
    assert stats.engine.jobs_submitted == requests
    # Warm traffic is all cache hits: only the distinct targets were
    # ever synthesised.
    assert stats.engine.jobs_executed == 3
    latency = _latency_percentiles(registry)
    # The wire layer observed every request it served.
    wire_count = registry.get("repro_request_seconds").count("http")
    assert wire_count > 0
    return {
        "requests": requests,
        "seconds": elapsed,
        "latency_seconds": latency,
    }


def run_benchmark() -> dict:
    measurements = {"http": asyncio.run(_bench_http())}

    # Instrumentation overhead: the same in-process workload with
    # metrics off / metrics on / metrics + per-call tracing.
    inprocess_best, overhead_ratios = _bench_inprocess_modes()
    measurements.update(inprocess_best)

    for name, result in measurements.items():
        result["requests_per_second"] = (
            result["requests"] / result["seconds"]
        )
        print(
            f"[net/{name}] {result['requests']} requests in "
            f"{result['seconds']:.3f}s = "
            f"{result['requests_per_second']:.0f} req/s"
        )
    baseline = measurements["inprocess"]["requests_per_second"]
    http = measurements["http"]
    http["vs_inprocess"] = http["requests_per_second"] / baseline
    latency = http["latency_seconds"]
    print(
        f"[net/http] {http['vs_inprocess']:.2f}x of in-process "
        f"throughput; "
        f"p50={latency['p50'] * 1e3:.2f}ms "
        f"p95={latency['p95'] * 1e3:.2f}ms "
        f"p99={latency['p99'] * 1e3:.2f}ms"
    )

    overhead = overhead_ratios["inprocess_instrumented"]
    traced_overhead = overhead_ratios["inprocess_traced"]
    print(
        f"[net/instrumentation] metrics {overhead:.3f}x baseline "
        f"wall time (limit {MAX_OVERHEAD_RATIO:.2f}x); with per-call "
        f"tracing {traced_overhead:.3f}x (reported only)"
    )
    assert overhead <= MAX_OVERHEAD_RATIO, (
        f"metrics instrumentation cost {overhead:.3f}x the "
        f"uninstrumented in-process run "
        f"(limit {MAX_OVERHEAD_RATIO:.2f}x)"
    )
    return {
        "clients": NUM_CLIENTS,
        "rounds": ROUNDS,
        "jobs_per_round": len(WIRE_WORKLOAD),
        "instrumentation_overhead_ratio": overhead,
        "tracing_overhead_ratio": traced_overhead,
        "transports": measurements,
    }


def test_network_transports_serve_correctly_and_report_throughput():
    payload = run_benchmark()
    for transport in (
        "inprocess", "inprocess_instrumented", "inprocess_traced",
        "http",
    ):
        assert payload["transports"][transport]["requests"] > 0
        assert payload["transports"][transport]["seconds"] > 0
    latency = payload["transports"]["http"]["latency_seconds"]
    assert 0 < latency["p50"] <= latency["p99"]
    assert (
        payload["instrumentation_overhead_ratio"] <= MAX_OVERHEAD_RATIO
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_net.json", metavar="PATH",
        help="where to write the JSON results "
             "(default: BENCH_net.json)",
    )
    options = parser.parse_args(argv)
    payload = run_benchmark()
    with open(options.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {options.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
