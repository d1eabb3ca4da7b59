"""End-to-end trace propagation over the network front ends.

The observability contract (ISSUE 6): a client-supplied request id
must be traceable through the whole stack — it names the span tree
served by ``GET /v1/trace/<id>``, shows up in the structured log
records of the request, and is echoed in the envelope of a failing
job.
"""

from __future__ import annotations

import asyncio
import io
import json
import time

import pytest

from repro.net import HttpServer
from repro.obs import MetricsRegistry, Tracer, log
from repro.service import AsyncPreparationService

JOB = {"family": "ghz", "dims": [3, 6, 2]}

#: GHZ over 5 levels with dims (2, 2) is impossible: the job is
#: accepted on the wire but fails in the engine with code
#: ``dimension`` — the per-job failure path.
FAILING_JOB = {"family": "ghz", "dims": [2, 2], "params": {"levels": 5}}


@pytest.fixture
def log_buffer():
    """Capture structured records as line-JSON; restore defaults."""
    buffer = io.StringIO()
    log.configure("debug", json_mode=True, stream=buffer)
    yield buffer
    log.configure("info", json_mode=False, stream="stderr")


def log_records(buffer: io.StringIO) -> list[dict]:
    return [
        json.loads(line)
        for line in buffer.getvalue().splitlines() if line
    ]


def flatten_span_names(nodes: list[dict]) -> list[str]:
    names: list[str] = []
    for node in nodes:
        names.append(node["name"])
        names.extend(flatten_span_names(node.get("children", [])))
    return names


def assert_full_span_tree(trace: dict, request_id: str, transport: str):
    """The span tree covers queue wait, dispatch, and every pipeline
    stage, all under one root ``request`` span."""
    assert trace["request_id"] == request_id
    assert trace["transport"] == transport
    (root,) = trace["spans"]
    assert root["name"] == "request"
    names = flatten_span_names(trace["spans"])
    for expected in (
        "parse", "queue_wait", "dispatch", "execute", "serialize",
        "stage:coerce", "stage:build", "stage:synthesize",
        "stage:verify",
    ):
        assert expected in names, (expected, names)
    # The pipeline stages hang off the engine's execute span, which
    # itself lives under dispatch.
    dispatch = next(
        child for child in root["children"]
        if child["name"] == "dispatch"
    )
    execute = next(
        child for child in dispatch["children"]
        if child["name"] == "execute"
    )
    stage_names = [
        child["name"] for child in execute["children"]
    ]
    assert "stage:synthesize" in stage_names


async def http_call(port, path, payload=None, headers=()):
    """One raw HTTP/1.1 exchange (Connection: close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = (
            json.dumps(payload).encode()
            if payload is not None else b""
        )
        method = "POST" if payload is not None else "GET"
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: test",
            "Connection: close",
        ]
        if body:
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        for name, value in headers:
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, payload_blob = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    response_headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, json.loads(payload_blob)


class TestHttpTracePropagation:
    def test_client_request_id_traces_end_to_end(self, log_buffer):
        async def scenario():
            service = AsyncPreparationService(num_shards=2)
            await service.start()
            server = await HttpServer(
                service,
                metrics=MetricsRegistry(),
                tracer=Tracer(),
            ).start()
            try:
                ok = await http_call(
                    server.port, "/v1/prepare", JOB,
                    headers=[("X-Repro-Request-Id", "client-abc")],
                )
                failed = await http_call(
                    server.port, "/v1/prepare", FAILING_JOB,
                    headers=[("X-Repro-Request-Id", "client-fail")],
                )
                ok_trace = await http_call(
                    server.port, "/v1/trace/client-abc"
                )
                failed_trace = await http_call(
                    server.port, "/v1/trace/client-fail"
                )
                missing = await http_call(
                    server.port, "/v1/trace/never-seen"
                )
            finally:
                await server.stop()
            return ok, failed, ok_trace, failed_trace, missing

        ok, failed, ok_trace, failed_trace, missing = asyncio.run(
            scenario()
        )

        # The id rides the whole exchange: response header + envelope.
        status, headers, envelope = ok
        assert status == 200
        assert headers["x-repro-request-id"] == "client-abc"
        assert envelope["id"] == "client-abc"
        assert envelope["ok"] is True
        assert envelope["result"]["ok"] is True

        # The retained trace is the full span tree.
        status, _, trace_envelope = ok_trace
        assert status == 200
        assert_full_span_tree(
            trace_envelope["result"], "client-abc", "http"
        )

        # A failing job still echoes the id, and the trace records
        # the failure.
        status, headers, envelope = failed
        assert status == 200
        assert envelope["id"] == "client-fail"
        assert headers["x-repro-request-id"] == "client-fail"
        assert envelope["result"]["ok"] is False
        assert envelope["result"]["error"]["code"] == "dimension"
        status, _, trace_envelope = failed_trace
        assert status == 200
        assert trace_envelope["result"]["error"]["code"] == "dimension"

        # Unknown ids 404 rather than fabricate a trace.
        status, _, envelope = missing
        assert status == 404
        assert envelope["error"]["code"] == "not_found"

        # The id appears in the structured request log record.
        records = [
            record for record in log_records(log_buffer)
            if record["event"] == "http_request"
        ]
        assert "client-abc" in [
            record.get("request_id") for record in records
        ]
        assert "client-fail" in [
            record.get("request_id") for record in records
        ]


class TestDoorHitTrace:
    def test_door_hit_records_cache_hit_under_request(self):
        # A warm request never enters the micro-batch queue: its tree
        # is parse, the door (keying and the probe), a zero-duration
        # cache_hit, the outcome's encode (where the QDASM literal is
        # made) and serialize, all under request.
        payload = {"job": JOB, "include_circuit": True}

        async def scenario():
            service = AsyncPreparationService(num_shards=2)
            await service.start()
            server = await HttpServer(
                service, metrics=MetricsRegistry(), tracer=Tracer()
            ).start()
            try:
                for request_id in ("cold", "warm"):
                    status, _, _ = await http_call(
                        server.port, "/v1/prepare", payload,
                        headers=[("X-Repro-Request-Id", request_id)],
                    )
                    assert status == 200
                traces = [
                    (await http_call(
                        server.port, f"/v1/trace/{request_id}"
                    ))[2]["result"]
                    for request_id in ("cold", "warm")
                ]
            finally:
                await server.stop()
            return traces

        cold, warm = asyncio.run(scenario())
        assert_full_span_tree(cold, "cold", "http")
        (root,) = cold["spans"]
        assert "encode" in [child["name"] for child in root["children"]]

        (root,) = warm["spans"]
        children = {child["name"]: child for child in root["children"]}
        assert sorted(children) == [
            "cache_hit", "door", "encode", "parse", "serialize",
        ]
        assert children["cache_hit"]["duration"] == 0.0
        assert "children" not in children["cache_hit"]
        names = flatten_span_names(warm["spans"])
        assert "queue_wait" not in names and "dispatch" not in names


class TestDoorSpan:
    """Keying and the cache probe run under a ``door`` span of the
    request, on the loop path and on the thread path alike."""

    @staticmethod
    def serve(requests, monkeypatch=None, slow_keying=0.0):
        async def scenario():
            service = AsyncPreparationService(num_shards=2)
            if slow_keying:
                key_and_state = service.engine.key_and_state

                def slow_key_and_state(job):
                    time.sleep(slow_keying)
                    return key_and_state(job)

                monkeypatch.setattr(
                    service.engine, "key_and_state", slow_key_and_state
                )
            await service.start()
            server = await HttpServer(service, tracer=Tracer()).start()
            try:
                for request_id, path, payload in requests:
                    status, _, _ = await http_call(
                        server.port, path, payload,
                        headers=[("X-Repro-Request-Id", request_id)],
                    )
                    assert status == 200
                return {
                    request_id: (await http_call(
                        server.port, f"/v1/trace/{request_id}"
                    ))[2]["result"]
                    for request_id, _, _ in requests
                }
            finally:
                await server.stop()

        return asyncio.run(scenario())

    @staticmethod
    def children(trace):
        (root,) = trace["spans"]
        assert root["name"] == "request"
        return {child["name"]: child for child in root["children"]}

    @staticmethod
    def end(span):
        return span["start"] + span["duration"]

    def test_thread_path_door_covers_keying(self, monkeypatch):
        traces = self.serve(
            [("cold", "/v1/prepare", {"job": JOB})],
            monkeypatch, slow_keying=0.05,
        )
        children = self.children(traces["cold"])
        door = children["door"]
        assert door["attributes"] == {"jobs": 1, "threaded": 1}
        assert door["duration"] >= 0.05
        assert "children" not in door
        # The miss is queued after the door closes.
        assert self.end(door) <= children["queue_wait"]["start"]
        assert self.end(children["parse"]) <= door["start"]

    def test_loop_path_door_precedes_the_hit(self):
        traces = self.serve([
            ("cold", "/v1/prepare", {"job": JOB}),
            ("warm", "/v1/prepare", {"job": JOB}),
        ])
        children = self.children(traces["warm"])
        door = children["door"]
        assert door["attributes"] == {"jobs": 1, "threaded": 0}
        assert self.end(door) <= children["cache_hit"]["start"]
        assert "queue_wait" not in children

    def test_batch_door_counts_its_threaded_jobs(self):
        other = {"family": "w", "dims": [2, 3]}
        traces = self.serve([
            ("cold", "/v1/batch", {"jobs": [JOB]}),
            ("mixed", "/v1/batch", {"jobs": [JOB, other, JOB]}),
        ])
        children = self.children(traces["mixed"])
        assert children["door"]["attributes"] == {"jobs": 3, "threaded": 1}
        (root,) = traces["mixed"]["spans"]
        names = [child["name"] for child in root["children"]]
        assert names.count("door") == 1
        assert names.count("cache_hit") == 2
        assert names.count("queue_wait") == 1
