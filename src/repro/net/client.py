"""Clients for the HTTP front end: async ``ReproClient`` and a
synchronous wrapper::

    async with ReproClient("127.0.0.1", 8000) as client:
        outcome = await client.prepare(
            {"family": "ghz", "dims": [3, 6, 2]}
        )

The client keeps one persistent keep-alive connection and serialises
requests on it (HTTP/1.1 has no multiplexing); open one client per
connection you want.

:class:`SyncReproClient` runs a private event loop on a background
thread so tests, benchmarks, and plain scripts can call the same API
without ``async``.

A failed *request* raises :class:`ClientError` (carrying the wire
error code); a failed *job* does not — it comes back as a failure
outcome dict (``ok: false``), mirroring the engine's per-job error
isolation.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections.abc import Mapping
from urllib.parse import quote

from repro.engine.jobs import PreparationJob
from repro.exceptions import ReproError
from repro.obs.tracing import context_to_header

__all__ = ["ClientError", "ReproClient", "SyncReproClient"]


class ClientError(ReproError):
    """The server refused a request (or the transport failed).

    Attributes:
        code: The wire error code (``bad_json``, ``job_spec``, …),
            ``transport`` for connection-level failures, or
            ``bad_response`` for a response the client cannot parse.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _job_to_wire(job) -> dict:
    """A job argument as its wire dict (pass-through for dicts)."""
    if isinstance(job, PreparationJob):
        return job.describe()
    if isinstance(job, Mapping):
        return dict(job)
    raise ClientError(
        "bad_request",
        f"job must be a PreparationJob or a dict, got {job!r}",
    )


class ReproClient:
    """Async client of the HTTP front end.

    Args:
        host: Server address.
        port: Server port.
        timeout: Per-request timeout in seconds (``None`` disables).
        connect_timeout: Separate bound on connection establishment.
            ``None`` (the default) preserves the historical behavior —
            connecting is covered only by the per-request ``timeout``.
            Cluster health checks set this low so a black-holed shard
            fails fast without capping long synthesis requests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        connect_timeout: float | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._connect_lock = asyncio.Lock()
        self._http_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def connect(self) -> "ReproClient":
        # Serialized: concurrent reconnects (several calls racing
        # after a sibling's timeout closed the connection) must not
        # open duplicate sockets.
        async with self._connect_lock:
            if self.connected:
                return self
            try:
                opening = asyncio.open_connection(self.host, self.port)
                if self.connect_timeout is not None:
                    opening = asyncio.wait_for(
                        opening, self.connect_timeout
                    )
                self._reader, self._writer = await opening
            except asyncio.TimeoutError:
                raise ClientError(
                    "transport",
                    f"connect to {self.host}:{self.port} timed out "
                    f"after {self.connect_timeout}s",
                )
            except OSError as error:
                raise ClientError(
                    "transport",
                    f"cannot connect to {self.host}:{self.port}: "
                    f"{error}",
                )
            return self

    async def aclose(self) -> None:
        # Detach the connection under the connect lock, then close it
        # outside: a concurrent reconnect can never have its fresh
        # writer nulled mid-install by a sibling's timeout-triggered
        # close.  A call reading the detached connection sees EOF.
        async with self._connect_lock:
            writer = self._writer
            self._writer = None
            self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "ReproClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def prepare(
        self, job, *, include_circuit: bool = False, trace=None
    ) -> dict:
        """Prepare one state; returns the wire outcome dict.

        ``trace`` is an optional trace context
        (:meth:`repro.obs.Trace.context`) propagated with the request;
        the server then ships its span subtree back and the result
        dict carries it under ``"trace"``.
        """
        payload: dict[str, object] = {"job": _job_to_wire(job)}
        if include_circuit:
            payload["include_circuit"] = True
        return await self._call("prepare", payload, trace=trace)

    async def batch(
        self, jobs, *, defaults=None, include_circuit: bool = False,
        trace=None,
    ) -> dict:
        """Prepare many states; returns ``{"outcomes": [...], ...}``.

        With a propagated ``trace`` context the result additionally
        carries the server's span subtree under ``"trace"``.
        """
        payload: dict[str, object] = {
            "jobs": [_job_to_wire(job) for job in jobs]
        }
        if defaults:
            payload["defaults"] = dict(defaults)
        if include_circuit:
            payload["include_circuit"] = True
        return await self._call("batch", payload, trace=trace)

    async def stats(self) -> dict:
        """Service + engine counters (``ServiceStats.to_dict()``)."""
        return await self._call("stats", {})

    async def ping(self) -> dict:
        """Liveness probe (``GET /healthz``)."""
        return await self._call("ping", {})

    async def trace(self, trace_id: object) -> dict:
        """The server's retained span tree for ``trace_id``
        (``GET /v1/trace/<id>``)."""
        return await self._call("trace", {"trace_id": str(trace_id)})

    async def traces_summary(self) -> dict:
        """The server's per-stage critical-path/self-time rollup
        (``GET /v1/traces/summary``)."""
        return await self._call("traces_summary", {})

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    async def _call(self, op: str, payload: dict, trace=None) -> dict:
        # Connection establishment happens inside _call_http, so
        # wait_for covers it: a black-holed host fails the request
        # after `timeout`, not the OS connect timeout.
        coroutine = self._call_http(op, payload, trace=trace)
        if self.timeout is None:
            return await coroutine
        try:
            return await asyncio.wait_for(coroutine, self.timeout)
        except asyncio.TimeoutError:
            # The connection is desynchronised now (a response for
            # the abandoned request may still arrive and would be
            # read as the *next* call's answer); drop it so the next
            # call reconnects cleanly.
            await self.aclose()
            raise ClientError(
                "transport",
                f"{op} timed out after {self.timeout}s",
            )

    def _unwrap(self, envelope: Mapping[str, object]) -> dict:
        if envelope.get("ok"):
            result = envelope["result"]
            # The server's exported span subtree rides at envelope
            # level (it also covers error envelopes); fold it into the
            # result so callers that propagated a context can graft it.
            if "trace" in envelope and isinstance(result, dict):
                result = dict(result)
                result["trace"] = envelope["trace"]
            return result
        error = envelope.get("error") or {}
        raise ClientError(
            error.get("code", "internal"),
            f"{error.get('type', 'Error')}: "
            f"{error.get('message', 'unknown server error')}",
        )

    _HTTP_ROUTES = {
        "prepare": ("POST", "/v1/prepare"),
        "batch": ("POST", "/v1/batch"),
        "stats": ("GET", "/v1/stats"),
        "ping": ("GET", "/healthz"),
        "trace": ("GET", "/v1/trace/"),
        "traces_summary": ("GET", "/v1/traces/summary"),
    }

    async def _call_http(self, op: str, payload: dict, trace=None) -> dict:
        method, path = self._HTTP_ROUTES[op]
        if op == "trace":
            path += quote(str(payload.get("trace_id", "")), safe="")
        body = b"" if method == "GET" else json.dumps(payload).encode()
        trace_header = (
            f"X-Repro-Trace: {context_to_header(trace)}\r\n"
            if trace is not None else ""
        )
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{trace_header}"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("latin-1") + body
        async with self._http_lock:
            # A concurrent call's timeout (or a Connection: close
            # response) may have closed the connection while this call
            # waited for the lock or its first scheduling tick —
            # reconnect instead of crashing on a dead writer.  The
            # streams are bound locally so a sibling's aclose()
            # nulling the attributes mid-response surfaces as a
            # ConnectionError below, not an AttributeError.
            await self.connect()
            reader, writer = self._reader, self._writer
            try:
                writer.write(request)
                await writer.drain()
                envelope = await self._read_http_response(reader)
            except (
                ConnectionError, OSError, asyncio.IncompleteReadError,
            ) as error:
                await self.aclose()
                raise ClientError(
                    "transport", f"HTTP request failed: {error}"
                )
        return self._unwrap(envelope)

    async def _read_http_response(self, reader) -> dict:
        """Read one response through ``readline`` and ``readexactly``
        only; returns its JSON envelope.

        A response it cannot use raises ``ClientError("bad_response")``
        and drops the connection, whose stream position may be lost.
        """
        try:
            status_line = await reader.readline()
            if not status_line:
                # Server-side FIN does not flip writer.is_closing(), so
                # drop the dead connection or every subsequent call
                # would reuse it and fail the same way instead of
                # reconnecting.
                await self.aclose()
                raise ClientError(
                    "transport", "server closed the connection"
                )
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            body = await reader.readexactly(length) if length else b""
            envelope = json.loads(body)
            # Every route's result is a JSON object, and so is every
            # error.
            if not isinstance(envelope, dict) or not isinstance(
                envelope.get("result" if envelope.get("ok") else "error"),
                dict,
            ):
                raise ValueError(f"not a response envelope: {body[:80]!r}")
        except ValueError as error:
            # int(), json.loads() and the checks above raise
            # ValueError, and so does readline() for a line beyond
            # the reader's 64 KiB limit.
            await self.aclose()
            raise ClientError(
                "bad_response", f"malformed server response: {error}"
            )
        if headers.get("connection", "").lower() == "close":
            await self.aclose()
        return envelope


class SyncReproClient:
    """Blocking facade over :class:`ReproClient`.

    Runs a private event loop on a daemon thread, so scripts, tests,
    and benchmarks can use the wire API without ``async``::

        with SyncReproClient("127.0.0.1", 8000) as client:
            outcome = client.prepare({"family": "ghz", "dims": [2, 3]})
            print(outcome["report"]["operations"])
    """

    def __init__(self, host: str, port: int, **kwargs):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-net-client",
            daemon=True,
        )
        self._thread.start()
        self._client = ReproClient(host, port, **kwargs)
        try:
            self._call(self._client.connect())
        except BaseException:
            # A failed connect leaves no client to close, but the
            # loop thread is already spinning — shut it down or it
            # leaks for the life of the process.
            self._shutdown_loop()
            raise

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result()

    def prepare(self, job, *, include_circuit: bool = False,
                trace=None) -> dict:
        return self._call(self._client.prepare(
            job, include_circuit=include_circuit, trace=trace
        ))

    def batch(self, jobs, *, defaults=None,
              include_circuit: bool = False, trace=None) -> dict:
        return self._call(self._client.batch(
            jobs, defaults=defaults, include_circuit=include_circuit,
            trace=trace,
        ))

    def stats(self) -> dict:
        return self._call(self._client.stats())

    def ping(self) -> dict:
        return self._call(self._client.ping())

    def trace(self, trace_id: object) -> dict:
        return self._call(self._client.trace(trace_id))

    def traces_summary(self) -> dict:
        return self._call(self._client.traces_summary())

    def _shutdown_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._call(self._client.aclose())
        self._shutdown_loop()

    def __enter__(self) -> "SyncReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
