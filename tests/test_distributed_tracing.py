"""Fleet-wide distributed tracing (ISSUE 10).

Covers the cross-process span machinery end to end:

* the versioned trace-context wire format (``X-Repro-Trace`` header),
* ledger export / graft with wall-clock rebasing,
* process-pool worker ledgers (the old "serial executor only"
  limitation is gone),
* shard servers adopting a propagated context and shipping their
  subtree back in the response envelope,
* histogram exemplars in the OpenMetrics rendering,
* the per-stage critical-path rollup,
* Tracer ring behaviour under concurrency (eviction during an
  in-flight read; request-id reuse on one keep-alive connection),
* the full stitched-trace integration: a 3-shard fleet with one shard
  SIGKILLed yields one trace with front-end, failover, remote-shard,
  and worker spans from at least two processes.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterPreparationService,
    ShardSupervisor,
)
from repro.engine import ParallelExecutor, PreparationEngine, PreparationJob
from repro.net import HttpServer, ReproClient
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import (
    DISPATCH_TRACES,
    TRACE_CONTEXT_VERSION,
    Trace,
    context_from_header,
    context_to_header,
    parse_context,
    summarize_traces,
)
from repro.service import AsyncPreparationService

JOB = {"family": "ghz", "dims": [3, 6, 2]}


def run(coroutine):
    return asyncio.run(coroutine)


def pid_prefixes(node: dict, collected: set[str] | None = None) -> set[str]:
    """Distinct process-id prefixes of every span id in a trace tree."""
    if collected is None:
        collected = set()
    span_id = str(node.get("span_id", ""))
    if "." in span_id:
        collected.add(span_id.split(".", 1)[0])
    for child in node.get("children", []):
        pid_prefixes(child, collected)
    return collected


def find_spans(nodes: list[dict], name: str) -> list[dict]:
    found: list[dict] = []
    for node in nodes:
        if node.get("name") == name:
            found.append(node)
        found.extend(find_spans(node.get("children", []), name))
    return found


async def http_exchange(reader, writer, path, payload=None, headers=()):
    """One HTTP/1.1 request on an open keep-alive connection."""
    body = json.dumps(payload).encode() if payload is not None else b""
    method = "POST" if payload is not None else "GET"
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    for name, value in headers:
        lines.append(f"{name}: {value}")
    lines.append("Connection: keep-alive")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split(b" ")[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    blob = await reader.readexactly(length) if length else b""
    return status, json.loads(blob)


async def http_call(port, path, payload=None, headers=()):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await http_exchange(
            reader, writer, path, payload, headers
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestContextWireFormat:
    def test_trace_context_round_trips_through_parse(self):
        trace = Trace("req-42")
        parent = trace.begin_span("dispatch")
        context = trace.context(parent=parent)
        assert context["v"] == TRACE_CONTEXT_VERSION
        parsed = parse_context(context)
        assert parsed == {
            "trace_id": "req-42",
            "parent_span_id": parent.span_id,
            "sampled": True,
        }

    def test_header_round_trip_survives_odd_ids(self):
        trace = Trace("id with spaces;=&%")
        parent = trace.begin_span("dispatch")
        header = context_to_header(trace.context(parent=parent))
        parsed = context_from_header(header)
        assert parsed["trace_id"] == "id with spaces;=&%"
        assert parsed["parent_span_id"] == parent.span_id
        assert parsed["sampled"] is True

    def test_malformed_and_future_versions_degrade_to_none(self):
        assert parse_context(None) is None
        assert parse_context("nope") is None
        assert parse_context({"v": 99, "trace_id": "x"}) is None
        assert parse_context({"v": 1, "trace_id": ""}) is None
        assert parse_context({"v": 1, "trace_id": "x",
                              "parent_span_id": 7}) is None
        assert context_from_header(None) is None
        assert context_from_header("") is None
        assert context_from_header("v=zzz;id=x") is None

    def test_unsampled_context_suppresses_tracing(self):
        tracer = Tracer()
        context = parse_context({
            "v": 1, "trace_id": "req-9", "sampled": False,
        })
        with tracer.request("ignored", context=context) as trace:
            assert trace is None
        assert tracer.get("req-9") is None

    def test_adopted_context_sets_id_and_remote_parent(self):
        tracer = Tracer()
        context = parse_context({
            "v": 1, "trace_id": "upstream-1",
            "parent_span_id": "abc.1f",
        })
        with tracer.request(
            "local-id", transport="http", context=context
        ) as trace:
            pass
        assert trace.request_id == "upstream-1"
        assert trace.remote_parent == "abc.1f"
        assert trace.export()["parent_span_id"] == "abc.1f"
        assert tracer.get("upstream-1") is trace


class TestExportGraft:
    def test_export_is_flat_picklable_and_keeps_open_spans(self):
        trace = Trace("req-1")
        root = trace.begin_span("request")
        child = trace.begin_span("execute", parent=root)
        child.finish()
        # root stays open: exported with its elapsed-so-far duration.
        exported = trace.export()
        assert exported["trace_id"] == "req-1"
        assert exported["pid"] == os.getpid()
        names = [entry["name"] for entry in exported["spans"]]
        assert names == ["request", "execute"]
        assert exported["spans"][0]["duration"] >= 0.0
        assert exported["spans"][1]["parent"] == (
            exported["spans"][0]["id"]
        )
        assert pickle.loads(pickle.dumps(exported)) == exported

    def test_graft_rebases_remote_offsets_onto_local_clock(self):
        remote = Trace("req-2")
        span = remote.begin_span("execute")
        span.finish()
        exported = remote.export()
        # Simulate a remote process that started 1.5s after us.
        local = Trace("req-2")
        remote_lag = exported["started_at"] - local.started_at + 1.5
        exported["started_at"] = local.started_at + 1.5
        del remote_lag
        parent = local.begin_span("remote_call")
        grafted = local.graft(exported, parent=parent, shard="s0")
        assert grafted is not None
        assert grafted.parent is parent
        assert grafted.start >= 1.5
        assert grafted.attributes["shard"] == "s0"
        # The remote span id (and its pid prefix) is preserved.
        assert grafted.span_id == exported["spans"][0]["id"]

    def test_graft_preserves_ledger_hierarchy(self):
        remote = Trace("req-3")
        top = remote.begin_span("request")
        inner = remote.begin_span("execute", parent=top)
        inner.finish()
        top.finish()
        local = Trace("req-3")
        anchor = local.begin_span("remote_call")
        local.graft(remote.export(), parent=anchor)
        tree = local.to_dict()
        (root,) = tree["spans"]
        assert root["name"] == "remote_call"
        (request,) = root["children"]
        assert request["name"] == "request"
        (execute,) = request["children"]
        assert execute["name"] == "execute"

    def test_graft_tolerates_garbage(self):
        local = Trace("req-4")
        assert local.graft(None) is None
        assert local.graft({"spans": "nope"}) is None
        assert local.graft({"spans": []}) is None
        assert local.graft({"spans": [{"no_name": 1}]}) is None


class TestWorkerLedgers:
    def _run_traced_batch(self, executor) -> Trace:
        engine = PreparationEngine(executor=executor)
        job = PreparationJob(dims=(3, 6, 2), family="ghz")
        trace = Trace("req-worker")
        parent = trace.begin_span("dispatch")
        token = DISPATCH_TRACES.set(((trace, parent),))
        try:
            batch = engine.run_batch([job])
        finally:
            DISPATCH_TRACES.reset(token)
        parent.finish()
        assert batch.outcomes[0].ok
        return trace

    def test_parallel_executor_returns_grafted_worker_ledger(self):
        trace = self._run_traced_batch(
            ParallelExecutor(max_workers=1)
        )
        names = trace.span_names()
        assert "execute" in names
        assert "stage:synthesize" in names
        execute = trace.find("execute")
        # The ledger was recorded by the pool worker: its span ids
        # carry the worker's pid, not ours.
        worker_pid = execute.span_id.split(".", 1)[0]
        assert worker_pid != f"{os.getpid():x}"
        assert execute.parent is trace.find("dispatch")
        assert execute.attributes.get("worker_pid") == int(
            worker_pid, 16
        )

    def test_serial_executor_still_records_live_spans(self):
        trace = self._run_traced_batch("serial")
        execute = trace.find("execute")
        assert execute is not None
        assert execute.span_id.split(".", 1)[0] == f"{os.getpid():x}"
        assert "stage:synthesize" in trace.span_names()


class TestEnvelopeSubtree:
    def test_http_header_propagation_and_client_kwarg(self):
        async def scenario():
            service = AsyncPreparationService(num_shards=1)
            await service.start()
            server = await HttpServer(
                service, tracer=Tracer()
            ).start()
            try:
                upstream = Trace("front-1")
                parent = upstream.begin_span("remote_call")
                async with ReproClient(
                    "127.0.0.1", server.port
                ) as client:
                    result = await client.prepare(
                        JOB,
                        trace=upstream.context(parent=parent),
                    )
                    bare = await client.prepare(JOB)
            finally:
                await server.stop()
            return result, bare, upstream, parent

        result, bare, upstream, parent = run(scenario())
        assert result["ok"] is True
        assert "trace" not in bare
        subtree = result["trace"]
        assert subtree["trace_id"] == "front-1"
        # And the subtree grafts cleanly onto the upstream trace.
        grafted = upstream.graft(subtree, parent=parent)
        assert grafted is not None
        prefixes = pid_prefixes(upstream.to_dict()["spans"][0])
        assert len(prefixes) >= 1


class TestExemplars:
    def test_render_appends_exemplar_after_bucket_value(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "test_seconds", "help text", exemplars=True,
        )
        histogram.observe(0.004, exemplar="req-000001")
        text = registry.render_prometheus()
        lines = [
            line for line in text.splitlines()
            if line.startswith("test_seconds_bucket")
        ]
        assert any(
            '# {trace_id="req-000001"} 0.004' in line
            for line in lines
        )
        # Plain bucket lines still parse: value before the exemplar.
        with_exemplar = next(
            line for line in lines if "trace_id" in line
        )
        value_field = with_exemplar.split(" # ")[0].rsplit(" ", 1)[1]
        assert float(value_field) >= 1

    def test_untagged_observations_render_without_exemplar(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "test_seconds", "help text", exemplars=True,
        )
        histogram.observe(0.004)
        assert "trace_id" not in registry.render_prometheus()

    def test_exemplar_flag_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("test_seconds", "help text")
        with pytest.raises(ValueError):
            registry.histogram(
                "test_seconds", "help text", exemplars=True,
            )

    def test_aggregate_quantile_sums_label_series(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "test_seconds", "help text", labels=("shard",),
        )
        for _ in range(90):
            histogram.observe(0.001, "a")
        for _ in range(10):
            histogram.observe(60.0, "b")
        p50 = histogram.aggregate_quantile(0.50)
        p99 = histogram.aggregate_quantile(0.99)
        assert p50 is not None and p50 <= 0.005
        assert p99 is not None and p99 > 0.005
        empty = MetricsRegistry().histogram("other_seconds")
        assert empty.aggregate_quantile(0.5) is None


class TestCriticalPathSummary:
    def test_self_and_critical_seconds(self):
        trace = Trace("req-sum")
        root = trace.add_span("request", start=0.0, duration=1.0)
        slow = trace.add_span(
            "dispatch", start=0.1, duration=0.6, parent=root
        )
        trace.add_span("parse", start=0.0, duration=0.1, parent=root)
        trace.add_span(
            "execute", start=0.2, duration=0.5, parent=slow
        )
        summary = summarize_traces([trace])
        stages = summary["stages"]
        assert summary["traces"] == 1
        # request self = 1.0 - (0.6 + 0.1)
        assert stages["request"]["self_seconds"] == pytest.approx(0.3)
        assert stages["dispatch"]["self_seconds"] == pytest.approx(0.1)
        assert stages["execute"]["self_seconds"] == pytest.approx(0.5)
        # Critical path: request -> dispatch -> execute (parse loses).
        assert stages["parse"]["critical_seconds"] == 0.0
        assert stages["execute"]["critical_seconds"] == (
            pytest.approx(0.5)
        )

    def test_summary_endpoint_rolls_up_served_requests(self):
        async def scenario():
            service = AsyncPreparationService(num_shards=1)
            await service.start()
            server = await HttpServer(
                service, tracer=Tracer()
            ).start()
            try:
                await http_call(server.port, "/v1/prepare", JOB)
                return await http_call(
                    server.port, "/v1/traces/summary"
                )
            finally:
                await server.stop()

        status, envelope = run(scenario())
        assert status == 200
        summary = envelope["result"]
        assert summary["traces"] >= 1
        assert "request" in summary["stages"]
        assert "dispatch" in summary["stages"]

    def test_summary_404s_without_a_tracer(self):
        async def scenario():
            service = AsyncPreparationService(num_shards=1)
            await service.start()
            server = await HttpServer(service).start()
            try:
                return await http_call(
                    server.port, "/v1/traces/summary"
                )
            finally:
                await server.stop()

        status, envelope = run(scenario())
        assert status == 404
        assert envelope["error"]["code"] == "not_found"


class TestTracerRingConcurrency:
    def test_eviction_while_a_read_is_in_flight(self):
        tracer = Tracer(capacity=2)
        with tracer.request("victim") as victim:
            victim.begin_span("dispatch").finish()
        stop = threading.Event()
        failures: list[BaseException] = []

        def reader():
            # Hammer reads of the soon-evicted trace: every read that
            # still finds it must see a coherent tree, never a crash.
            while not stop.is_set():
                held = tracer.get("victim")
                if held is None:
                    continue
                try:
                    tree = held.to_dict()
                    assert tree["request_id"] == "victim"
                    tracer.summary()
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for index in range(200):
                with tracer.request(f"filler-{index}") as trace:
                    trace.begin_span("dispatch").finish()
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not failures
        assert tracer.get("victim") is None
        assert len(tracer.ids()) == 2

    def test_keep_alive_id_reuse_replaces_the_old_trace(self):
        async def scenario():
            service = AsyncPreparationService(num_shards=1)
            await service.start()
            server = await HttpServer(
                service, tracer=Tracer()
            ).start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    for _ in range(2):
                        status, envelope = await http_exchange(
                            reader, writer, "/v1/prepare", JOB,
                            headers=[(
                                "X-Repro-Request-Id", "reused-id"
                            )],
                        )
                        assert status == 200
                        assert envelope["id"] == "reused-id"
                    status, envelope = await http_exchange(
                        reader, writer, "/v1/trace/reused-id"
                    )
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
            finally:
                await server.stop()
            return status, envelope

        status, envelope = run(scenario())
        assert status == 200
        trace = envelope["result"]
        # Replaced, not merged or corrupted: exactly one root request
        # span from the second exchange.
        roots = [
            node for node in trace["spans"]
            if node["name"] == "request"
        ]
        assert len(roots) == 1
        assert len(trace["spans"]) == 1


class TestStitchedClusterTrace:
    """The acceptance scenario: 3-shard fleet, replicas=2, one shard
    SIGKILLed, one clustered batch — a single stitched trace holding
    front-end, failover, remote-shard, and worker spans from at least
    two distinct processes."""

    def test_single_trace_spans_processes_and_failover(self):
        supervisor = ShardSupervisor(
            3, replicas=2, shard_args=["--workers", "2"]
        )
        with supervisor:
            config = ClusterConfig(
                shards=supervisor.addresses,
                replicas=2,
                health_interval=60.0,
                fetch_circuits=False,
            )
            # Kill one shard hard AFTER startup; the long health
            # interval keeps the front end believing it is healthy,
            # so dispatch discovers the corpse and fails over.
            child = supervisor._children[0]
            child.process.send_signal(signal.SIGKILL)
            child.process.wait()

            async def scenario():
                service = ClusterPreparationService(config=config)
                await service.start()
                server = await HttpServer(
                    service, tracer=Tracer()
                ).start()
                try:
                    jobs = [
                        {
                            "family": "random",
                            "dims": [2, 2, 2],
                            "params": {"rng": seed},
                        }
                        for seed in range(18)
                    ]
                    status, envelope = await http_call(
                        server.port, "/v1/batch", {"jobs": jobs},
                        headers=[(
                            "X-Repro-Request-Id", "stitched-1"
                        )],
                    )
                    trace_status, trace_envelope = await http_call(
                        server.port, "/v1/trace/stitched-1"
                    )
                finally:
                    await server.stop()
                return status, envelope, trace_status, trace_envelope

            status, envelope, trace_status, trace_envelope = run(
                scenario()
            )

        assert status == 200
        outcomes = envelope["result"]["outcomes"]
        assert all(outcome["ok"] for outcome in outcomes)
        assert trace_status == 200
        trace = trace_envelope["result"]
        (root,) = trace["spans"]
        assert root["name"] == "request"

        # Failover evidence: a remote_call that errored out on the
        # killed shard (or a skip once it was marked unhealthy).
        remote_calls = find_spans([root], "remote_call")
        assert remote_calls, "no remote_call spans recorded"
        failed_calls = [
            span for span in remote_calls
            if "error_code" in span.get("attributes", {})
        ]
        skips = find_spans([root], "skip_unhealthy")
        assert failed_calls or skips, (
            "no failover evidence in the stitched trace"
        )

        # Remote-shard subtrees: the shard's own request span was
        # grafted under the front end's remote_call.
        shard_requests = [
            span
            for call in remote_calls
            for span in find_spans(call.get("children", []), "request")
        ]
        assert shard_requests, "no grafted shard subtree"

        # Worker spans: the shards ran --workers 2, so execute spans
        # were recorded in pool workers and grafted through two hops.
        executes = find_spans([root], "execute")
        assert executes, "no execute spans in the stitched trace"

        # The tree stitches spans from at least two distinct
        # processes (front end + shard; workers make it three).
        prefixes = pid_prefixes(root)
        assert len(prefixes) >= 2, prefixes
        front_prefix = f"{os.getpid():x}"
        assert front_prefix in prefixes
        assert any(
            prefix != front_prefix for prefix in prefixes
        )
