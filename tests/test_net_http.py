"""Tests for the HTTP/1.1 front end (`repro.net.http`)."""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import struct
import threading

import pytest

from repro.circuit import qasm
from repro.net import (
    ClientError,
    HttpServer,
    ReproClient,
    SyncReproClient,
)
from repro.obs import MetricsRegistry
from repro.service import AsyncPreparationService

GHZ = {"family": "ghz", "dims": [3, 6, 2]}


def run(coroutine):
    return asyncio.run(coroutine)


async def raw_http(port: int, blob: bytes) -> bytes:
    """Send raw bytes, return the raw response (connection closed)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(blob)
    await writer.drain()
    writer.write_eof()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def http_blob(method: str, path: str, body: bytes = b"",
              extra_headers: str = "") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra_headers}"
        f"\r\n"
    ).encode() + body


class TestRoutes:
    def test_healthz_and_stats(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    health = await client.ping()
                    await client.prepare(GHZ)
                    stats = await client.stats()
            return health, stats

        health, stats = run(scenario())
        assert health["status"] == "ok"
        assert health["accepting"] is True
        assert stats["requests"] == 1
        assert stats["engine"]["cache_misses"] == 1

    def test_prepare_and_batch(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    one = await client.prepare(
                        GHZ, include_circuit=True
                    )
                    many = await client.batch(
                        [GHZ, {"family": "w", "dims": [2, 2, 2]}],
                        defaults={"verify": True},
                    )
            return one, many

        one, many = run(scenario())
        assert one["ok"] and "circuit" in one
        assert [o["ok"] for o in many["outcomes"]] == [True, True]
        # Same GHZ again: served from the cache.
        assert many["outcomes"][0]["cache_hit"] is True

    def test_unknown_route_is_404(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(
                    server.port, http_blob("GET", "/nope")
                )

        response = run(scenario())
        assert response.startswith(b"HTTP/1.1 404")
        assert b'"not_found"' in response

    def test_wrong_method_is_405(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(
                    server.port, http_blob("GET", "/v1/prepare")
                )

        response = run(scenario())
        assert response.startswith(b"HTTP/1.1 405")

    def test_bad_json_body_is_400(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return [
                    await raw_http(
                        server.port,
                        http_blob("POST", "/v1/prepare", body),
                    )
                    for body in (b"{oops", b"[1, 2]")
                ]

        not_json, not_an_object = run(scenario())
        assert not_json.startswith(b"HTTP/1.1 400")
        assert b'"bad_json"' in not_json
        assert not_an_object.startswith(b"HTTP/1.1 400")
        assert b'"bad_request"' in not_an_object

    def test_oversized_body_is_413(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(
                service, max_request_bytes=64
            ) as server:
                body = json.dumps(
                    {"job": {**GHZ, "label": "x" * 100}}
                ).encode()
                return await raw_http(
                    server.port, http_blob("POST", "/v1/prepare", body)
                )

        response = run(scenario())
        assert response.startswith(b"HTTP/1.1 413")
        assert b'"too_large"' in response

    @pytest.mark.parametrize("blob, status, code", [
        pytest.param(
            b"NONSENSE\r\n\r\n", 400, "bad_request",
            id="malformed-request-line",
        ),
        pytest.param(
            b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
            413, "too_large",
            id="request-line-over-64-kib",
        ),
        pytest.param(
            http_blob(
                "GET", "/healthz",
                extra_headers="X-Pad: " + "a" * (70 * 1024) + "\r\n",
            ),
            413, "too_large",
            id="header-line-over-64-kib",
        ),
        pytest.param(
            http_blob("GET", "/healthz", extra_headers="X-A: 1\r\n" * 256),
            413, "too_large",
            id="too-many-header-lines",
        ),
        pytest.param(
            http_blob(
                "POST", "/v1/prepare",
                extra_headers="Transfer-Encoding: chunked\r\n",
            ),
            400, "bad_request",
            id="chunked-body",
        ),
        pytest.param(
            b"POST /v1/prepare HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            400, "bad_request",
            id="non-numeric-content-length",
        ),
    ])
    def test_broken_request_framing_is_refused_and_closed(
        self, blob, status, code
    ):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(server.port, blob)

        response = run(scenario())
        assert response.startswith(f"HTTP/1.1 {status}".encode())
        assert f'"{code}"'.encode() in response
        assert b"Connection: close" in response

    @pytest.mark.parametrize("method, path, status, code", [
        pytest.param(
            "GET", "/metrics", 404, "not_found",
            id="metrics-without-registry",
        ),
        pytest.param(
            "GET", "/v1/trace/some-id", 404, "not_found",
            id="trace-without-tracer",
        ),
        pytest.param(
            "POST", "/v1/trace/some-id", 405, "method_not_allowed",
            id="trace-by-post",
        ),
    ])
    def test_observability_route_refusals(self, method, path, status, code):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(server.port, http_blob(method, path))

        response = run(scenario())
        assert response.startswith(f"HTTP/1.1 {status}".encode())
        assert f'"{code}"'.encode() in response

    def test_metrics_exposition_labels_the_http_transport(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(
                service, metrics=MetricsRegistry()
            ) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    await client.prepare(GHZ)
                return await raw_http(
                    server.port, http_blob("GET", "/metrics")
                )

        head, _, body = run(scenario()).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Content-Type: text/plain; version=0.0.4" in head
        assert (
            b'repro_requests_total{transport="http",op="prepare"} 1'
            in body
        )
        assert b'repro_request_seconds_count{transport="http"}' in body

    def test_http_1_0_request_gets_connection_close(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(
                    server.port, b"GET /healthz HTTP/1.0\r\n\r\n"
                )

        response = run(scenario())
        assert response.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in response

    def test_job_request_to_a_stopped_service_is_503(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                await service.stop()
                return await raw_http(
                    server.port,
                    http_blob(
                        "POST", "/v1/prepare", json.dumps(GHZ).encode()
                    ),
                )

        response = run(scenario())
        assert response.startswith(b"HTTP/1.1 503")
        assert b'"shutting_down"' in response

    def test_negative_content_length_is_400(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(
                    server.port,
                    (
                        b"POST /v1/prepare HTTP/1.1\r\n"
                        b"Host: test\r\n"
                        b"Content-Length: -5\r\n"
                        b"\r\n"
                    ),
                )

        response = run(scenario())
        assert response.startswith(b"HTTP/1.1 400")
        assert b'"bad_request"' in response

    def test_failing_job_travels_as_outcome_not_http_error(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    return await client.prepare({
                        "family": "dicke", "dims": [2, 2],
                        "params": {"excitations": 7},
                    })

        outcome = run(scenario())
        assert outcome["ok"] is False
        assert outcome["error"]["type"]

    def test_response_larger_than_64_kib_round_trips(self):
        # A dense random state on [6,6,5,3,3] ships its QDASM circuit
        # in a body well past asyncio's default 64 KiB line limit;
        # the client reads bodies with readexactly, which that limit
        # does not bound.
        job = {"family": "random", "dims": [6, 6, 5, 3, 3],
               "params": {"rng": 7}}

        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    return await client.prepare(job, include_circuit=True)

        outcome = run(scenario())
        assert outcome["ok"] is True
        assert len(outcome["circuit"]) > 64 * 1024
        circuit = qasm.loads(outcome["circuit"])
        assert circuit.num_operations == outcome["report"]["operations"]

    def test_unparsable_job_raises_client_error(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ClientError) as info:
                        await client.prepare({"family": "nope", "dims": [2]})
                    return info.value

        error = run(scenario())
        assert error.code == "job_spec"


def http_response(body: bytes, headers: bytes = b"") -> bytes:
    """A 200 response carrying ``body`` with a matching Content-Length."""
    return (
        b"HTTP/1.1 200 OK\r\n" + headers
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


#: Well-formed answer the stub server gives every connection after the
#: first.
GOOD_RESPONSE = http_response(b'{"v": 1, "ok": true, "result": {"up": 1}}')


async def ping_stub_twice(first_answer: bytes, close: bool = False):
    """Ping a stub server twice with one client.

    The stub answers every request on its first connection with
    ``first_answer`` (closing that connection after the first answer
    when ``close``) and every later connection with
    :data:`GOOD_RESPONSE`.  Returns the first ping's result or
    :class:`ClientError`, whether the client still held a connection
    after it, the second ping's result, and the connections the stub
    accepted.
    """
    connections = 0

    async def stub(reader, writer):
        nonlocal connections
        connections += 1
        answer = first_answer if connections == 1 else GOOD_RESPONSE
        try:
            while await reader.readuntil(b"\r\n\r\n"):
                writer.write(answer)
                await writer.drain()
                if close and answer is first_answer:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(stub, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = ReproClient("127.0.0.1", port, timeout=5)
    try:
        try:
            first = await client.ping()
        except ClientError as error:
            first = error
        connected = client.connected
        second = await client.ping()
    finally:
        await client.aclose()
        server.close()
        await server.wait_closed()
    return first, connected, second, connections


class TestResponseParsing:
    """A response the client cannot use raises :class:`ClientError`
    and drops the connection, so the next call reconnects instead of
    reading leftover bytes as its answer.  Both codes it raises,
    ``bad_response`` and ``transport``, make a cluster front end fail
    over to a replica."""

    @pytest.mark.parametrize("response", [
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
            id="non-numeric-content-length",
        ),
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n{}",
            id="negative-content-length",
        ),
        pytest.param(
            http_response(b"[1,2,3]"), id="body-not-an-object",
        ),
        pytest.param(
            http_response(
                b"{}", headers=b"X-Pad: " + b"a" * (70 * 1024) + b"\r\n"
            ),
            id="header-line-over-64-kib",
        ),
        pytest.param(http_response(b"{oops"), id="body-not-json"),
        pytest.param(http_response(b"\xff"), id="body-not-utf-8"),
        pytest.param(
            http_response(b'{"v": 1, "ok": true}'),
            id="success-without-result",
        ),
        pytest.param(
            http_response(b'{"v": 1, "ok": false, "error": "boom"}'),
            id="error-not-an-object",
        ),
    ])
    def test_malformed_response_is_bad_response(self, response):
        first, connected, second, connections = run(
            ping_stub_twice(response)
        )
        assert isinstance(first, ClientError)
        assert first.code == "bad_response"
        assert connected is False
        assert second == {"up": 1}
        assert connections == 2

    @pytest.mark.parametrize("response", [
        pytest.param(b"", id="closed-before-status-line"),
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{",
            id="closed-mid-body",
        ),
    ])
    def test_connection_lost_mid_response_is_transport(self, response):
        first, connected, second, connections = run(
            ping_stub_twice(response, close=True)
        )
        assert isinstance(first, ClientError)
        assert first.code == "transport"
        assert connected is False
        assert second == {"up": 1}
        assert connections == 2

    def test_connection_close_header_drops_the_connection(self):
        # The stub keeps the socket open; the header alone must make
        # the client reconnect for its next call.
        first, connected, second, connections = run(ping_stub_twice(
            http_response(
                b'{"v": 1, "ok": true, "result": {"up": 0}}',
                headers=b"Connection: close\r\n",
            )
        ))
        assert first == {"up": 0}
        assert connected is False
        assert second == {"up": 1}
        assert connections == 2


class TestConnections:
    def test_keep_alive_reuses_one_connection(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                responses = []
                for _ in range(3):
                    writer.write(http_blob("GET", "/healthz"))
                    await writer.drain()
                    status = await reader.readline()
                    responses.append(status)
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n"):
                            break
                        if line.lower().startswith(b"content-length"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
                writer.close()
                await writer.wait_closed()
                return responses

        responses = run(scenario())
        assert all(r.startswith(b"HTTP/1.1 200") for r in responses)

    def test_connection_close_honoured(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                return await raw_http(
                    server.port,
                    http_blob(
                        "GET", "/healthz",
                        extra_headers="Connection: close\r\n",
                    ),
                )

        response = run(scenario())
        assert b"Connection: close" in response

    def test_abrupt_client_reset_does_not_leak_task_exception(self):
        # A TCP reset mid-read raises ConnectionResetError out of
        # readline; the handler must treat it as a normal disconnect,
        # not die with an unretrieved task exception.
        async def scenario():
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: errors.append(context)
            )
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(http_blob("GET", "/healthz"))
                await writer.drain()
                await reader.readline()  # handler served one request
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                writer.transport.abort()  # RST instead of FIN
                await asyncio.sleep(0.05)
            gc.collect()  # unretrieved exceptions surface at task GC
            await asyncio.sleep(0)
            loop.set_exception_handler(None)
            return errors

        assert run(scenario()) == []

    def test_client_recovers_after_server_restart(self):
        # A server-side FIN doesn't flip writer.is_closing(), so the
        # client must drop the dead keep-alive connection when it
        # reads EOF; the very next call then reconnects instead of
        # repeatedly reusing the dead socket.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = await HttpServer(service).start()
            port = server.port
            client = ReproClient("127.0.0.1", port, timeout=5)
            one = await client.prepare(GHZ)
            await server.stop()  # FIN on the keep-alive connection
            service2 = AsyncPreparationService()
            await service2.start()
            server2 = await HttpServer(service2, port=port).start()
            try:
                # The call that discovers the dead socket fails once…
                with pytest.raises(ClientError):
                    await client.prepare(GHZ)
                # …and the next one reconnects and succeeds.
                two = await client.prepare(GHZ)
            finally:
                await client.aclose()
                await server2.stop()
            return one, two

        one, two = run(scenario())
        assert one["ok"] and two["ok"]

    def test_call_survives_concurrent_connection_close(self):
        # A sibling call's timeout closes the connection via aclose();
        # a call already past _call's connect check must reconnect
        # under the lock instead of crashing on the dead writer.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                client = ReproClient("127.0.0.1", server.port)
                await client.connect()
                await client.aclose()  # what a sibling timeout does
                outcome = await client._call_http(
                    "prepare", {"job": GHZ}
                )
                await client.aclose()
                return outcome

        assert run(scenario())["ok"] is True

    def test_sync_client_failed_connect_does_not_leak_thread(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens on this port now
        before = sum(
            thread.name == "repro-net-client"
            for thread in threading.enumerate()
        )
        with pytest.raises(ClientError):
            SyncReproClient("127.0.0.1", port)
        after = sum(
            thread.name == "repro-net-client"
            for thread in threading.enumerate()
        )
        assert after == before

    def test_job_defaults_apply_to_wire_jobs(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(
                service, job_defaults={"verify": False}
            ) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    return await client.prepare(GHZ)

        outcome = run(scenario())
        assert outcome["ok"]
        assert outcome["report"]["fidelity"] is None  # verify skipped


class TestGracefulShutdown:
    def test_stop_finishes_inflight_and_drains(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = await HttpServer(service).start()
            client = ReproClient("127.0.0.1", server.port)
            await client.connect()
            inflight = asyncio.ensure_future(client.prepare(GHZ))
            await asyncio.sleep(0.01)  # request reaches the queue
            await server.stop()
            outcome = await inflight
            await client.aclose()
            return outcome, service.running

        outcome, running = run(scenario())
        assert outcome["ok"] is True
        assert running is False

    def test_stop_with_idle_keep_alive_connection_does_not_hang(self):
        # Regression: on Python >= 3.12.1, Server.wait_closed() blocks
        # until every connection drops; stop() must wake idle
        # keep-alive handlers first or the two wait on each other.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = await HttpServer(service).start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(http_blob("GET", "/healthz"))
            await writer.drain()
            await reader.readline()  # handler is now parked, idle
            await asyncio.wait_for(server.stop(), timeout=5)
            writer.close()
            await writer.wait_closed()

        run(scenario())

    def test_stop_terminates_with_peer_that_stopped_reading(self):
        # A response larger than the transport buffers to a peer that
        # never reads parks the handler in drain(); past the drain
        # deadline, stop() must abort the transport instead of
        # waiting on a flush that can never happen.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = await HttpServer(
                service, drain_timeout=0.2
            ).start()

            async def big_respond(request):
                return 200, {"blob": "x" * (8 << 20)}, None

            server._respond = big_respond
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(http_blob("GET", "/healthz"))
            await writer.drain()
            await asyncio.sleep(0.1)  # handler parks in drain
            head = await reader.readexactly(12)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await asyncio.wait_for(server.stop(), timeout=5)
            elapsed = loop.time() - started
            writer.close()
            return head, elapsed

        head, elapsed = run(scenario())
        # The big body was really sent, so stop() ran the deadline
        # path rather than finishing a small error response.
        assert head == b"HTTP/1.1 200"
        assert elapsed >= 0.19

    def test_stop_cancels_handlers_stuck_past_drain_timeout(self):
        # A handler that never finishes its response must not hang
        # shutdown: stop() cancels it once drain_timeout has passed.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = await HttpServer(
                service, drain_timeout=0.2
            ).start()
            cancelled = asyncio.Event()

            async def stuck_respond(request):
                try:
                    await asyncio.Event().wait()  # parked forever
                except asyncio.CancelledError:
                    cancelled.set()
                    raise

            server._respond = stuck_respond
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(http_blob("GET", "/healthz"))
            await writer.drain()
            await asyncio.sleep(0.05)  # request reaches the handler
            await asyncio.wait_for(server.stop(), timeout=5)
            writer.close()
            return cancelled.is_set()

        assert run(scenario()) is True

    def test_stopped_server_refuses_new_connections(self):
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = await HttpServer(service).start()
            port = server.port
            await server.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        run(scenario())
