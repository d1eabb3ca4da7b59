"""Tests for the NDJSON stream front end (`repro.net.tcp`)."""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import struct

import pytest

from repro.circuit import qasm
from repro.net import ClientError, ReproClient, TcpServer
from repro.net import client as client_module
from repro.net.protocol import PROTOCOL_VERSION
from repro.service import AsyncPreparationService

GHZ = {"family": "ghz", "dims": [3, 6, 2]}


def run(coroutine):
    return asyncio.run(coroutine)


async def started_server():
    service = AsyncPreparationService()
    await service.start()
    server = await TcpServer(service).start()
    return server


class TestStreamProtocol:
    def test_ping_stats_prepare_batch(self):
        async def scenario():
            server = await started_server()
            async with server:
                async with ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                ) as client:
                    pong = await client.ping()
                    outcome = await client.prepare(GHZ)
                    batch = await client.batch(
                        [GHZ, {"family": "w", "dims": [2, 2, 2]}]
                    )
                    stats = await client.stats()
            return pong, outcome, batch, stats

        pong, outcome, batch, stats = run(scenario())
        assert pong["pong"] is True
        assert outcome["ok"] is True
        assert [o["ok"] for o in batch["outcomes"]] == [True, True]
        assert batch["outcomes"][0]["cache_hit"] is True
        assert stats["engine"]["jobs_submitted"] == 3

    def test_pipelined_requests_on_one_socket(self):
        async def scenario():
            server = await started_server()
            async with server:
                async with ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                ) as client:
                    return await asyncio.gather(*(
                        client.prepare(GHZ) for _ in range(16)
                    ))

        outcomes = run(scenario())
        assert len(outcomes) == 16
        assert all(o["ok"] for o in outcomes)
        # One synthesis, the rest cache hits (dedup/caching intact
        # through the pipelined path).
        assert sum(not o["cache_hit"] for o in outcomes) == 1

    def test_responses_echo_request_ids(self):
        async def scenario():
            server = await started_server()
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for request_id in ("a", 2, "c"):
                    writer.write(json.dumps({
                        "v": PROTOCOL_VERSION, "id": request_id,
                        "op": "ping",
                    }).encode() + b"\n")
                await writer.drain()
                responses = [
                    json.loads(await reader.readline())
                    for _ in range(3)
                ]
                writer.close()
                await writer.wait_closed()
                return responses

        responses = run(scenario())
        assert {r["id"] for r in responses} == {"a", 2, "c"}
        assert all(r["ok"] for r in responses)

    def test_bad_line_answers_error_and_keeps_stream_alive(self):
        async def scenario():
            server = await started_server()
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"{broken json\n")
                writer.write(json.dumps(
                    {"id": 1, "op": "ping"}
                ).encode() + b"\n")
                await writer.drain()
                responses = [
                    json.loads(await reader.readline())
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                return responses

        responses = run(scenario())
        by_ok = sorted(responses, key=lambda r: r["ok"])
        assert by_ok[0]["ok"] is False
        assert by_ok[0]["error"]["code"] == "bad_json"
        assert by_ok[1]["ok"] is True

    def test_unknown_op_and_missing_op(self):
        async def scenario():
            server = await started_server()
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"id": 1, "op": "frobnicate"}\n')
                writer.write(b'{"id": 2}\n')
                await writer.drain()
                responses = [
                    json.loads(await reader.readline())
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                return responses

        responses = {r["id"]: r for r in run(scenario())}
        assert responses[1]["error"]["code"] == "unknown_op"
        assert responses[2]["error"]["code"] == "bad_request"

    def test_call_survives_concurrent_connection_close(self):
        # A sibling call's timeout closes the connection via aclose();
        # a call already past _call's connect check must reconnect
        # (restoring the response pump) instead of crashing on the
        # dead writer.
        async def scenario():
            server = await started_server()
            async with server:
                client = ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                )
                await client.connect()
                await client.aclose()  # what a sibling timeout does
                outcome = await client._call_tcp(
                    "prepare", {"job": GHZ}
                )
                await client.aclose()
                return outcome

        assert run(scenario())["ok"] is True

    def test_abrupt_client_reset_does_not_leak_task_exception(self):
        # Mirror of the HTTP test: a reset mid-read must read as a
        # normal disconnect, not an unretrieved task exception.
        async def scenario():
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: errors.append(context)
            )
            server = await started_server()
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(json.dumps({
                    "id": 1, "op": "ping",
                }).encode() + b"\n")
                await writer.drain()
                await reader.readline()
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

    def test_client_reconnects_after_server_side_eof(self):
        # When the server drops the connection, the response pump
        # exits on EOF and must drop the half-dead connection state,
        # so the next call reconnects instead of writing into a
        # socket nobody reads and timing out.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = TcpServer(service, max_line_bytes=512)
            async with server:
                client = ReproClient(
                    "127.0.0.1", server.port,
                    transport="tcp", timeout=5,
                )
                await client.connect()
                one = await client.prepare(GHZ)
                pump = client._reader_task
                # An oversized line makes the server drop the
                # connection (stream position unrecoverable).
                client._writer.write(b"x" * 2048 + b"\n")
                await client._writer.drain()
                await pump  # exits on EOF, detaching the dead state
                assert not client.connected
                two = await client.prepare(GHZ)
                await client.aclose()
                return one, two

        one, two = run(scenario())
        assert one["ok"] and two["ok"]
        assert two["cache_hit"] is True

    def test_inflight_cap_bounds_concurrency_without_deadlock(self):
        # The per-connection cap stops reading until a response frees
        # a slot; all pipelined requests must still complete and the
        # number served at once must never exceed the cap.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = TcpServer(service, max_inflight_requests=2)
            async with server:
                active = 0
                peak = 0
                real = server._serve_line

                async def spy(line, writer, lock):
                    nonlocal active, peak
                    active += 1
                    peak = max(peak, active)
                    try:
                        return await real(line, writer, lock)
                    finally:
                        active -= 1

                server._serve_line = spy
                async with ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                ) as client:
                    outcomes = await asyncio.gather(*(
                        client.prepare(GHZ) for _ in range(12)
                    ))
            return outcomes, peak

        outcomes, peak = run(scenario())
        assert all(outcome["ok"] for outcome in outcomes)
        assert 1 <= peak <= 2

    def test_response_larger_than_64_kib_round_trips(self):
        # A dense random state on [6,6,5,3,3] ships its QDASM circuit
        # in one response line well past asyncio's default 64 KiB
        # StreamReader limit.
        job = {"family": "random", "dims": [6, 6, 5, 3, 3],
               "params": {"rng": 7}}

        async def scenario():
            server = await started_server()
            async with server:
                async with ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                ) as client:
                    return await client.prepare(job, include_circuit=True)

        outcome = run(scenario())
        assert outcome["ok"] is True
        assert len(outcome["circuit"]) > 64 * 1024
        circuit = qasm.loads(outcome["circuit"])
        assert circuit.num_operations == outcome["report"]["operations"]

    def test_over_limit_response_fails_every_pending_call(
        self, monkeypatch
    ):
        # A response line past the client's limit desynchronises the
        # stream: each pending call gets a structured refusal and the
        # response pump exits without an unretrieved task exception.
        monkeypatch.setattr(client_module, "MAX_RESPONSE_LINE_BYTES", 1024)

        async def scenario():
            errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: errors.append(context)
            )
            server = await started_server()
            async with server:
                client = ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                )
                await client.connect()
                pump = client._reader_task
                results = await asyncio.gather(
                    client.prepare(GHZ, include_circuit=True),
                    client.prepare(GHZ, include_circuit=True),
                    return_exceptions=True,
                )
                await pump
                assert not client.connected
                await client.aclose()
            gc.collect()
            await asyncio.sleep(0)
            loop.set_exception_handler(None)
            return results, errors

        results, errors = run(scenario())
        assert errors == []
        for result in results:
            assert isinstance(result, ClientError)
            assert result.code == "too_large"

    def test_client_error_carries_code(self):
        async def scenario():
            server = await started_server()
            async with server:
                async with ReproClient(
                    "127.0.0.1", server.port, transport="tcp"
                ) as client:
                    with pytest.raises(ClientError) as info:
                        await client.prepare(
                            {"family": "nope", "dims": [2]}
                        )
                    return info.value

        assert run(scenario()).code == "job_spec"


class TestShutdown:
    def test_stop_answers_accepted_requests(self):
        async def scenario():
            service = AsyncPreparationService(max_batch_delay=0.05)
            await service.start()
            server = await TcpServer(service).start()
            client = ReproClient(
                "127.0.0.1", server.port, transport="tcp"
            )
            await client.connect()
            inflight = [
                asyncio.ensure_future(client.prepare(GHZ))
                for _ in range(4)
            ]
            await asyncio.sleep(0.01)  # requests reach the server
            await server.stop()
            outcomes = await asyncio.gather(*inflight)
            await client.aclose()
            return outcomes

        outcomes = run(scenario())
        assert len(outcomes) == 4
        assert all(o["ok"] for o in outcomes)

    def test_stop_with_idle_connection_does_not_hang(self):
        # Regression: on Python >= 3.12.1, Server.wait_closed() blocks
        # until every connection drops; stop() must wake idle handlers
        # parked in _next_line first or the two wait on each other.
        async def scenario():
            server = await started_server()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(json.dumps({
                "id": 1, "op": "ping",
            }).encode() + b"\n")
            await writer.drain()
            await reader.readline()  # handler is now parked, idle
            await asyncio.wait_for(server.stop(), timeout=5)
            writer.close()
            await writer.wait_closed()

        run(scenario())

    def test_stop_cancels_handlers_stuck_past_drain_timeout(self):
        # A peer that never reads its socket can park a handler
        # forever (writer.drain() on a full send buffer); stop() must
        # cancel it after drain_timeout instead of hanging shutdown.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = TcpServer(service, drain_timeout=0.2)
            await server.start()

            async def stuck_serve(line, writer, lock):
                await asyncio.Event().wait()  # parked forever

            server._serve_line = stuck_serve
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"id": 1, "op": "ping"}\n')
            await writer.drain()
            await asyncio.sleep(0.05)  # request reaches the handler
            await asyncio.wait_for(server.stop(), timeout=5)
            writer.close()

        run(scenario())

    def test_stop_terminates_with_handler_parked_in_slot_acquire(self):
        # Peer pipelines past the in-flight cap and stops reading:
        # the handler parks in slots.acquire(); the drain deadline
        # must cancel the stuck request tasks too, or the handler's
        # cleanup gathers children that never finish.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = TcpServer(
                service, max_inflight_requests=1, drain_timeout=0.2
            )
            await server.start()

            async def stuck_serve(line, writer, lock):
                await asyncio.Event().wait()  # parked forever

            server._serve_line = stuck_serve
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"id": 1, "op": "ping"}\n'
                         b'{"id": 2, "op": "ping"}\n')
            await writer.drain()
            await asyncio.sleep(0.05)  # handler parks in acquire
            await asyncio.wait_for(server.stop(), timeout=5)
            writer.close()

        run(scenario())

    def test_stop_terminates_with_peer_that_stopped_reading(self):
        # Responses larger than the transport buffers to a peer that
        # never reads park the request task in writer.drain(); the
        # deadline path must abort the transport instead of waiting
        # for a flush that can never happen.
        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            server = TcpServer(service, drain_timeout=0.2)
            await server.start()

            async def big_serve(line, writer, lock):
                async with lock:
                    writer.write(b"x" * (8 << 20) + b"\n")
                    await writer.drain()  # peer never reads

            server._serve_line = big_serve
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"id": 1, "op": "ping"}\n')
            await writer.drain()
            await asyncio.sleep(0.1)  # request task parks in drain
            await asyncio.wait_for(server.stop(), timeout=5)
            writer.close()

        run(scenario())

    def test_eof_waits_for_inflight_responses(self):
        async def scenario():
            server = await started_server()
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(json.dumps({
                    "id": 1, "op": "prepare", "job": GHZ,
                }).encode() + b"\n")
                await writer.drain()
                writer.write_eof()  # half-close: still readable
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response

        response = run(scenario())
        assert response["ok"] is True
        assert response["id"] == 1
