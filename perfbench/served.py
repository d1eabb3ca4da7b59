"""The ``serve-mixed`` workload: one client process, two HTTP keep-alive
connections in a closed loop, against a ``python -m repro serve
--listen`` subprocess."""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time

from repro.circuit import qasm
from repro.engine import ParallelExecutor, PreparationEngine, job_from_dict
from repro.net import ReproClient
from repro.net.protocol import comparable_wire_outcome, outcome_to_wire
from repro.obs.metrics import quantile_from_buckets
from repro.obs.tracing import summarize_traces

import plans
from common import (
    check_fidelity,
    median,
    metric,
    peak_rss_mib,
    read_line,
    stop,
)
from inprocess import end_to_end, instrument

#: Concurrent keep-alive connections of the client (one per core of
#: the 2-core machine the benchmark was sized on).
CONNECTIONS = 2

#: Per-request client timeout; a request that exceeds it counts as
#: failed with code ``transport``.
REQUEST_TIMEOUT_S = 120.0

STAGES = ("coerce", "build", "approximate", "synthesize", "verify")

#: Requests sent between two samples of the host's speed: one block of
#: the plan, its hot repeats and its never-seen state.
BLOCK = plans.SERVE_WARM_PER_COLD + 1


class Server:
    """A ``repro serve --listen`` subprocess on an ephemeral port."""

    def __init__(self, root, env, log_path):
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", "--log-level", "warning"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, bufsize=0,
        )
        try:
            line = read_line(self.process, "listening on ", 60.0)
        except BaseException:
            self.close()
            raise
        address = line.split()[2]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def close(self) -> None:
        stop(self.process)
        self._log.close()


class _CountingReader:
    """Forwards the two reads ``ReproClient`` makes of an HTTP response
    and adds the body bytes (``readexactly`` of the Content-Length) to
    its client's count."""

    def __init__(self, reader, client):
        self._reader = reader
        self._client = client

    async def readline(self):
        return await self._reader.readline()

    async def readexactly(self, count):
        data = await self._reader.readexactly(count)
        self._client.body_bytes += len(data)
        return data


class CountingClient(ReproClient):
    """A ``ReproClient`` that counts the response body bytes it
    receives, so ``net.response_kb`` is the size on the wire."""

    body_bytes = 0

    async def _read_http_response(self, reader) -> dict:
        return await super()._read_http_response(
            _CountingReader(reader, self)
        )


async def _get(host, port, path) -> str:
    """Body of one ``GET`` on a fresh ``Connection: close`` socket."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    return data.partition(b"\r\n\r\n")[2].decode()


def histograms(text: str) -> dict[tuple[str, str], dict]:
    """Parse the histogram series of a Prometheus exposition:
    ``{(name, labels-without-le): {"le": [...], "cumulative": [...],
    "sum": s, "count": n}}``."""
    series: dict[tuple[str, str], dict] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        sample, value = line.split(" # ")[0].rsplit(" ", 1)
        name, _, labels = sample.partition("{")
        labels = labels.rstrip("}")
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                break
        else:
            continue
        base = name[: -len(suffix)]
        pairs = [pair for pair in labels.split(",") if pair]
        le = [pair for pair in pairs if pair.startswith("le=")]
        key = (base, ",".join(p for p in pairs if not p.startswith("le=")))
        entry = series.setdefault(
            key, {"le": [], "cumulative": [], "sum": 0.0, "count": 0}
        )
        if suffix == "_bucket":
            entry["le"].append(float(le[0][4:-1]))
            entry["cumulative"].append(int(float(value)))
        elif suffix == "_sum":
            entry["sum"] = float(value)
        else:
            entry["count"] = int(float(value))
    return series


def _delta(before, after, name, labels=""):
    """Per-bucket counts, sum and count observed between two scrapes."""
    now = after[(name, labels)]
    then = before.get((name, labels))
    cumulative = [
        value - (then["cumulative"][index] if then else 0)
        for index, value in enumerate(now["cumulative"])
    ]
    counts = [cumulative[0]] + [
        cumulative[index] - cumulative[index - 1]
        for index in range(1, len(cumulative))
    ]
    bounds = [bound for bound in now["le"] if math.isfinite(bound)]
    return {
        "bounds": bounds,
        "counts": counts,
        "sum": now["sum"] - (then["sum"] if then else 0.0),
        "count": now["count"] - (then["count"] if then else 0),
    }


def _p50_ms(delta) -> float:
    return quantile_from_buckets(delta["bounds"], delta["counts"], 0.5) * 1e3


async def _scrape(host, port, client):
    return (
        histograms(await _get(host, port, "/metrics")),
        (await client.stats())["engine"],
    )


async def _connect_and_warm(server, seed):
    clients = [
        CountingClient(server.host, server.port, timeout=REQUEST_TIMEOUT_S)
        for _ in range(CONNECTIONS)
    ]
    for client in clients:
        await client.connect()
    outcome = await clients[0].prepare(
        plans.warmup_job(seed), include_circuit=True
    )
    if not outcome.get("ok"):
        raise RuntimeError(f"warm-up job failed: {outcome.get('error')}")
    return clients


async def _close(clients):
    for client in clients:
        await client.aclose()


def setup_probe(root, env, log_path, seed) -> float:
    """One set-up: server start, both connections, the warm-up job."""
    start = time.perf_counter()
    server = Server(root, env, log_path)
    try:
        async def session():
            await _close(await _connect_and_warm(server, seed))
        asyncio.run(session())
        return time.perf_counter() - start
    finally:
        server.close()


async def _send(client, job):
    """One request; returns ``(outcome | None, error code | None,
    seconds, start)``.  Any client exception is a failed job."""
    start = time.perf_counter()
    try:
        outcome = await client.prepare(job, include_circuit=True)
        code = None
    except Exception as error:  # noqa: BLE001 - counted, not fatal
        outcome, code = None, getattr(error, "code", type(error).__name__)
    return outcome, code, time.perf_counter() - start, start


def _received(clients) -> int:
    return sum(client.body_bytes for client in clients)


async def _session(server, seed, plan, hot, speed):
    clients = await _connect_and_warm(server, seed)
    setup_end = time.perf_counter()
    try:
        prefill = [await _send(clients[0], job) for job in hot]
        before = await _scrape(server.host, server.port, clients[0])
        results = [None] * len(plan)
        # At most one never-seen state in flight: two compiles in one
        # server share its GIL, and whether they met would depend on
        # the seed's interleaving rather than on the program.
        one_cold = asyncio.Lock()

        async def caller(client, pending):
            for index, request in pending:
                if request.warm:
                    results[index] = await _send(client, request.job)
                    continue
                async with one_cold:
                    results[index] = await _send(client, request.job)

        received = _received(clients)
        spent = speed.spent
        phase_start = time.perf_counter()
        for first in range(0, len(plan), BLOCK):
            # Both connections drain at the end of a block, so the speed
            # sample runs while no request is in flight.
            speed.maybe_sample()
            pending = iter(enumerate(plan[first:first + BLOCK], first))
            await asyncio.gather(
                *(caller(client, pending) for client in clients)
            )
        wall = time.perf_counter() - phase_start - (speed.spent - spent)
        body_bytes = _received(clients) - received
        after = await _scrape(server.host, server.port, clients[0])
    finally:
        await _close(clients)
    return setup_end, prefill, results, wall, body_bytes, before, after


def _row(job: dict) -> str:
    """Canonical JSON of a job: the identity of a hot row."""
    return json.dumps(job, sort_keys=True)


def references(jobs) -> dict[str, dict]:
    """``comparable_wire_outcome`` of an in-process engine run of each
    distinct job, keyed by the job's canonical JSON.  Runs after the
    timed phase, on one worker process per connection."""
    distinct = {_row(job): job for job in jobs}
    engine = PreparationEngine(
        executor=ParallelExecutor(max_workers=CONNECTIONS)
    )
    batch = engine.run_batch(
        [job_from_dict(job) for job in distinct.values()]
    )
    return {
        key: comparable_wire_outcome(outcome_to_wire(outcome))
        for key, outcome in zip(distinct, batch.outcomes)
    }


class WireChecker:
    """Correctness gate for wire outcomes: every outcome equals its
    in-process reference under ``comparable_wire_outcome``, every QDASM
    circuit parses and has ``report.operations`` operations, and
    fidelity floors hold."""

    def __init__(self, tally, references):
        self.tally = tally
        self.references = references
        self.circuit_sizes: dict[str, int] = {}

    def __call__(self, job, result, cache_hit) -> bool:
        tally = self.tally
        outcome, code = result[:2]
        tally.attempted += 1
        if outcome is None or not outcome.get("ok"):
            tally.fail(
                code if outcome is None
                else outcome.get("error", {}).get("code", "internal")
            )
            return False
        label = outcome["label"]
        report = outcome["report"]
        tally.check(
            outcome["cache_hit"] == cache_hit,
            f"{label}: cache_hit={outcome['cache_hit']}, expected {cache_hit}",
        )
        text = outcome.get("circuit")
        if text is None:
            tally.check(False, f"{label}: no circuit in the outcome")
        else:
            if text not in self.circuit_sizes:
                self.circuit_sizes[text] = qasm.loads(text).num_operations
            tally.check(
                self.circuit_sizes[text] == report["operations"],
                f"{label}: QDASM has {self.circuit_sizes[text]} "
                f"operations, report says {report['operations']}",
            )
        check_fidelity(
            tally, label, report["fidelity"], job.get("min_fidelity", 1.0)
        )
        tally.check(
            comparable_wire_outcome(outcome)
            == self.references[_row(job)],
            f"{label}: outcome differs from the in-process reference",
        )
        return True


def run(root, env, log_path, seed, seconds, tally, trace, setup_probes,
        speed):
    """Untraced (``trace is None``): the end-to-end metrics.  Traced:
    the per-layer metrics; the requests themselves are never traced
    by the benchmark (the server records its own stage timings)."""
    plan = plans.serve_mixed(seed, seconds)
    hot = plans.hot_set(seed)
    setups = []
    for _ in range(0 if trace is not None else setup_probes - 1):
        speed.sample()
        setups.append(setup_probe(root, env, log_path, seed))
    speed.sample()
    start = time.perf_counter()
    server = Server(root, env, log_path)
    try:
        setup_end, prefill, results, wall, body_bytes, before, after = (
            asyncio.run(_session(server, seed, plan, hot, speed))
        )
        rss = peak_rss_mib(server.process.pid)
    finally:
        server.close()
    setups.append(setup_end - start)

    check = WireChecker(
        tally, references(hot + [request.job for request in plan])
    )
    for job, result in zip(hot, prefill):
        check(job, result, cache_hit=False)
    latencies = {False: [], True: []}
    ops_total = 0
    cold = []
    for request, result in zip(plan, results):
        if check(request.job, result, cache_hit=request.warm):
            latencies[request.warm].append(result[2])
            ops_total += result[0]["report"]["operations"]
            if not request.warm:
                cold.append(result)
    if trace is None:
        metrics, details = end_to_end(
            latencies, len(plan) / wall, setups, rss, ops_total, speed
        )
        details["warm_overlapping_cold_share"] = overlap_share(plan, results)
        return metrics, details
    return _layers(plan, results, cold, body_bytes, before, after, trace)


def overlap_share(plan, results) -> float:
    """Share of warm requests whose interval overlapped a cold
    request's: warm requests served while a compile ran."""
    spans = {False: [], True: []}
    for request, result in zip(plan, results):
        spans[request.warm].append((result[3], result[3] + result[2]))
    overlapped = sum(
        any(start < cold_end and cold_start < end
            for cold_start, cold_end in spans[False])
        for start, end in spans[True]
    )
    return overlapped / len(spans[True])


def replay_routing(plan, trace) -> tuple[dict, float]:
    """Replay the server's per-request routing call, ``engine.job_key``
    (state resolution, then the content key), in this process.

    The server records no timing for routing, so each request's job is
    keyed here twice, on two fresh engines, alternating which goes
    first: once plain and once inside the layer spans.  Returns the
    span summary and the plain wall time.
    """
    jobs = [job_from_dict(request.job) for request in plan]
    plain = PreparationEngine(executor="serial")
    traced = PreparationEngine(executor="serial")
    plain_wall = 0.0
    for index, job in enumerate(jobs):
        for use_trace in ((True, False) if index % 2 else (False, True)):
            if use_trace:
                with instrument(trace), trace.span("route"):
                    traced.job_key(job)
            else:
                start = time.perf_counter()
                plain.job_key(job)
                plain_wall += time.perf_counter() - start
    return summarize_traces([trace])["stages"], plain_wall


def _layers(plan, results, cold, body_bytes, before, after, trace):
    stage_sums = {stage: 0.0 for stage in STAGES}
    executed = 0.0
    cold_wall = 0.0
    for outcome, _, seconds, _ in cold:
        timings = outcome["stage_timings"]
        for stage in STAGES:
            stage_sums[stage] += timings.get(stage, 0.0)
        executed += outcome["elapsed"]
        cold_wall += seconds
    reports = [outcome["report"] for outcome, *_ in cold]
    ok = [result for result in results if result[0] is not None]
    routing, plain_routing = replay_routing(plan, trace)
    request_seconds = _delta(
        before[0], after[0], "repro_request_seconds", 'transport="http"'
    )
    batch_size = _delta(before[0], after[0], "repro_batch_size")
    hits = after[1]["cache_hits"] - before[1]["cache_hits"]
    lookups = after[1]["cache_lookups"] - before[1]["cache_lookups"]
    server_ms = _p50_ms(request_seconds)
    client_ms = median([result[2] for result in ok]) * 1e3
    metrics = {
        f"{stage}.busy_s": metric(stage_sums[stage], "s") for stage in STAGES
    }
    metrics.update({
        "resolve.busy_s": metric(routing["resolve"]["self_seconds"], "s"),
        "key.busy_s": metric(routing["key"]["self_seconds"], "s"),
        # The worker's wall time beyond the recorded stages: pipeline
        # set-up plus finalize.
        "finalize.busy_s": metric(executed - sum(stage_sums.values()), "s"),
        "build.dd_nodes": metric(sum(r["dd_nodes"] for r in reports), "count"),
        "approximate.nodes_removed": metric(
            sum(r["dd_nodes"] - r["dag_nodes"] for r in reports), "count"
        ),
        "synthesize.ops": metric(sum(r["operations"] for r in reports), "count"),
        "verify.amplitudes": metric(
            sum(math.prod(r["dims"]) for r in reports), "count"
        ),
        "verify.share": metric(stage_sums["verify"] / cold_wall, "ratio"),
        "service.queue_wait_ms": metric(
            _p50_ms(_delta(before[0], after[0], "repro_queue_wait_seconds")),
            "ms",
        ),
        "service.batch_size_mean": metric(
            batch_size["sum"] / batch_size["count"], "jobs"
        ),
        "engine.hit_ratio": metric(hits / lookups, "ratio"),
        "engine.execute_ms": metric(
            _p50_ms(_delta(
                before[0], after[0], "repro_job_execute_seconds"
            )),
            "ms",
        ),
        "net.server_ms": metric(server_ms, "ms"),
        "net.wire_ms": metric(client_ms - server_ms, "ms"),
        "net.response_kb": metric(body_bytes / len(plan) / 1024.0, "KiB"),
        "unattributed_share": metric(1.0 - executed / cold_wall, "ratio"),
        "tracing_overhead": metric(
            routing["route"]["total_seconds"] / plain_routing, "ratio"
        ),
    })
    return metrics, {"cold_requests": len(cold)}
