"""HTTP response bodies are the plain JSON encoding of their envelope.

A circuit's QDASM text rides in its envelope as a
:class:`~repro.circuit.qasm.QdasmLiteral` (a cache hit's is the one its
entry keeps, a miss's is written for its response), which the server
splices into the body without escaping or encoding it.  Every body must
still be byte-identical to ``json.dumps(envelope).encode()`` of the
envelope with each literal written as its text: the body a server
that writes no literal writes.
"""

from __future__ import annotations

import asyncio
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.qasm import QdasmLiteral
from repro.engine import PreparationEngine, PreparationJob
from repro.net import HttpServer
from repro.net import http as http_module
from repro.net.protocol import (
    encode_envelope,
    outcome_to_wire,
    result_envelope,
)
from repro.obs import Tracer
from repro.obs.tracing import Trace, context_to_header
from repro.service import AsyncPreparationService

JOB = {"family": "random", "dims": [3, 6, 2], "params": {"rng": 5}}
OTHER_JOB = {"family": "dicke", "dims": [2, 2, 3], "params": {"excitations": 1}}
#: Accepted on the wire, fails in the engine: a per-job failure.
FAILING_JOB = {"family": "ghz", "dims": [2, 2], "params": {"levels": 5}}
AWKWARD_ID = 'ünïcødé "quoted"\r\nX-Injected: 1'


def plain(value):
    """``value`` with every kept literal written as its text."""
    if isinstance(value, QdasmLiteral):
        return str(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def plain_body(envelope) -> bytes:
    return json.dumps(plain(envelope)).encode()


def holds_literal(value) -> bool:
    if isinstance(value, QdasmLiteral):
        return True
    if isinstance(value, dict):
        return any(holds_literal(item) for item in value.values())
    if isinstance(value, list):
        return any(holds_literal(item) for item in value)
    return False


async def post(port, path, payload, headers=()) -> bytes:
    """The body of one raw ``POST`` on a ``Connection: close`` socket."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    head = [
        f"POST {path} HTTP/1.1", "Host: test", "Connection: close",
        f"Content-Length: {len(body)}",
        *(f"{name}: {value}" for name, value in headers),
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = raw.split(b" ", 2)[1]
    assert status == b"200", raw[:200]
    return raw.partition(b"\r\n\r\n")[2]


@pytest.fixture
def captured(monkeypatch):
    """Every ``(envelope, body)`` pair the HTTP server encodes."""
    pairs = []

    def recording(envelope):
        body = encode_envelope(envelope)
        pairs.append((envelope, body))
        return body

    monkeypatch.setattr(http_module, "encode_envelope", recording)
    return pairs


def serve(requests, *, disk_dir=None, tracer=None):
    """Send ``(path, payload, headers)`` requests in order to a fresh
    server; returns the received bodies."""

    async def scenario():
        service = AsyncPreparationService(num_shards=2, disk_dir=disk_dir)
        await service.start()
        server = await HttpServer(service, tracer=tracer).start()
        try:
            return [
                await post(server.port, path, payload, headers)
                for path, payload, headers in requests
            ]
        finally:
            await server.stop()

    return asyncio.run(scenario())


def assert_plain_bodies(received, captured):
    assert len(received) == len(captured)
    for body, (envelope, encoded) in zip(received, captured):
        assert body == encoded
        assert body == plain_body(envelope)
        assert json.dumps(json.loads(body)).encode() == body


def prepare(job, include_circuit=True, request_id=None):
    payload = {"job": job, "include_circuit": include_circuit}
    if request_id is not None:
        payload["id"] = request_id
    return ("/v1/prepare", payload, ())


def batch(jobs, include_circuit=True, request_id=None):
    payload = {"jobs": jobs, "include_circuit": include_circuit}
    if request_id is not None:
        payload["id"] = request_id
    return ("/v1/batch", payload, ())


class TestPrepareBodies:
    def test_miss_hits_and_failure(self, captured, tmp_path):
        requests = [
            prepare(JOB),                                  # miss, no id
            prepare(JOB, request_id="plain-id"),           # memory hit
            prepare(JOB, include_circuit=False),
            prepare(JOB, request_id=AWKWARD_ID),
            prepare(JOB, request_id=17),
            prepare(FAILING_JOB, request_id=AWKWARD_ID),   # failure
            prepare(FAILING_JOB, include_circuit=False),
        ]
        received = serve(requests, disk_dir=tmp_path)
        assert_plain_bodies(received, captured)
        results = [envelope["result"] for envelope, _ in captured]
        assert results[0]["cache_hit"] is False
        # The disk-backed entry keeps the literal written for its file;
        # the miss's response and every hit send that one.
        assert isinstance(results[0]["circuit"], QdasmLiteral)
        assert results[1]["circuit"] is results[0]["circuit"]
        assert results[3]["circuit"] is results[0]["circuit"]
        assert "circuit" not in results[2]
        assert [result["ok"] for result in results[5:]] == [False, False]
        assert json.loads(received[3])["id"] == AWKWARD_ID

        # A fresh server over the same disk: a disk hit, then a
        # memory hit of the promoted entry.
        captured.clear()
        received = serve(
            [prepare(JOB, request_id="disk"), prepare(JOB)],
            disk_dir=tmp_path,
        )
        assert_plain_bodies(received, captured)
        disk, memory = (envelope["result"] for envelope, _ in captured)
        assert disk["cache_hit"] is True and memory["cache_hit"] is True
        assert memory["circuit"] is disk["circuit"]
        assert json.loads(received[0])["result"]["circuit"] == (
            json.loads(received[1])["result"]["circuit"]
        )

    def test_traced_request_appends_its_subtree(self, captured):
        upstream = Trace("upstream-request")
        header = ("X-Repro-Trace", context_to_header(upstream.context()))
        requests = [
            ("/v1/prepare", {"job": JOB, "include_circuit": True},
             (header,)),
            ("/v1/prepare",
             {"job": JOB, "include_circuit": True, "id": AWKWARD_ID},
             (header,)),
            ("/v1/batch",
             {"jobs": [JOB, FAILING_JOB], "include_circuit": True},
             (header,)),
        ]
        received = serve(requests, tracer=Tracer())
        assert_plain_bodies(received, captured)
        for body in received:
            assert "spans" in json.loads(body)["trace"]
        assert holds_literal(captured[1][0])
        assert holds_literal(captured[2][0])


class TestBatchBodies:
    def test_mixed_batches(self, captured, tmp_path):
        requests = [
            batch([JOB, OTHER_JOB, FAILING_JOB, JOB]),       # misses
            batch([JOB, OTHER_JOB, JOB], request_id=AWKWARD_ID),
            batch([OTHER_JOB, FAILING_JOB], include_circuit=False),
        ]
        received = serve(requests, disk_dir=tmp_path)
        captured_first = list(captured)
        captured.clear()
        received += serve(
            [batch([OTHER_JOB, JOB, OTHER_JOB], request_id="disk")],
            disk_dir=tmp_path,
        )
        assert_plain_bodies(received, captured_first + captured)
        warm = captured_first[1][0]["result"]["outcomes"]
        assert [outcome["cache_hit"] for outcome in warm] == [True] * 3
        assert warm[2]["circuit"] is warm[0]["circuit"]
        disk = captured[0][0]["result"]["outcomes"]
        assert all(outcome["cache_hit"] for outcome in disk)
        assert disk[2]["circuit"] is disk[0]["circuit"]
        assert not holds_literal(captured_first[2][0])


@functools.cache
def warm_engine() -> PreparationEngine:
    engine = PreparationEngine()
    engine.run_batch([
        PreparationJob(dims=(3, 6, 2), family="random", params={"rng": 5}),
        PreparationJob(dims=(2, 3), family="ghz"),
    ])
    return engine


def hit(label, *, dims=(3, 6, 2)):
    engine = warm_engine()
    params = {"rng": 5} if dims == (3, 6, 2) else {}
    family = "random" if dims == (3, 6, 2) else "ghz"
    job = PreparationJob(dims=dims, family=family, params=params, label=label)
    outcome = engine.cached_outcome(job, engine.job_key(job))
    assert outcome is not None
    return outcome


#: Texts that hold the mark the encoder splices at, alone and inside
#: other text, beside arbitrary text.
TEXTS = st.one_of(
    st.text(),
    st.sampled_from(["\x00qdasm\x00", 'a"\x00qdasm\x00', " \"\\"]),
    st.builds(
        lambda head, tail: head + "\x00qdasm\x00" + tail,
        st.text(max_size=4), st.text(max_size=4),
    ),
)
IDS = st.one_of(st.none(), st.integers(), TEXTS)


class TestEncodeEnvelope:
    @settings(max_examples=60, deadline=None)
    @given(label=TEXTS, request_id=IDS, include_circuit=st.booleans())
    def test_prepare_envelope(self, label, request_id, include_circuit):
        result = outcome_to_wire(hit(label), include_circuit=include_circuit)
        envelope = result_envelope(result, request_id=request_id)
        assert encode_envelope(envelope) == plain_body(envelope)

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(TEXTS, min_size=1, max_size=4), request_id=IDS)
    def test_batch_envelope(self, labels, request_id):
        outcomes = [
            hit(label, dims=(3, 6, 2) if index % 2 else (2, 3))
            for index, label in enumerate(labels)
        ]
        envelope = result_envelope(
            {
                "outcomes": [
                    outcome_to_wire(outcome, include_circuit=True)
                    for outcome in outcomes
                ],
                "wall_time": 0.25,
            },
            request_id=request_id,
        )
        assert holds_literal(envelope)
        assert encode_envelope(envelope) == plain_body(envelope)

    def test_mark_in_an_id_falls_back_to_the_text(self):
        result = outcome_to_wire(hit("row"), include_circuit=True)
        envelope = result_envelope(result, request_id="\x00qdasm\x00")
        assert encode_envelope(envelope) == plain_body(envelope)

    def test_unknown_objects_still_refuse(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_envelope({"v": 1, "result": object()})
