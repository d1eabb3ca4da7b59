"""Minimal HTTP/1.1 front end over the async serving layer.

Pure stdlib ``asyncio.start_server`` — no frameworks, no threads.  The
server speaks exactly the wire schema of :mod:`repro.net.protocol`
over four routes:

* ``POST /v1/prepare`` — one job (batch-spec job fields), one outcome,
* ``POST /v1/batch`` — a batch-spec document, all outcomes in order,
* ``GET /v1/stats`` — the service + engine counters
  (``ServiceStats.to_dict()``),
* ``GET /healthz`` — liveness (also reports whether the service is
  accepting work, its uptime, and the in-flight request count),
* ``GET /metrics`` — the Prometheus text exposition of the server's
  :class:`~repro.obs.MetricsRegistry` (404 when none is attached),
* ``GET /v1/trace/<id>`` — the retained span tree of a recent traced
  request (404 when tracing is off or the id has been evicted),
* ``GET /v1/traces/summary`` — the per-stage critical-path/self-time
  rollup over the retained trace ring.

A ``prepare``/``batch`` request is traced under the id the client
supplied — the ``X-Repro-Request-Id`` header or the body's ``id``
field — or a generated one; the response always echoes the id in its
``X-Repro-Request-Id`` header (and in the envelope's ``id`` field
when the client supplied one).  A request carrying an
``X-Repro-Trace`` header (a propagated trace context, see
``docs/observability.md``) is traced under the caller's trace id and
its span subtree is shipped back in the envelope's ``trace`` field
for grafting.

Connections are keep-alive by default (HTTP/1.1 semantics; honour
``Connection: close``), bodies are bounded by ``max_request_bytes``,
and :meth:`HttpServer.stop` performs a graceful shutdown: the listener
closes first, every in-flight handler finishes, and only then is the
underlying service's micro-batch queue drained — no accepted request
is dropped.
"""

from __future__ import annotations

import asyncio
import json
import time
from urllib.parse import unquote

from repro.net.protocol import (
    PROTOCOL_VERSION,
    WireError,
    encode_envelope,
    error_envelope,
    execute_request,
    result_envelope,
)
from repro.obs import log as obs_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, context_from_header

__all__ = ["HttpServer"]

#: Content type of the Prometheus text exposition format.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: HTTP status per wire error code; anything unlisted is a 500.
_STATUS_BY_CODE = {
    "bad_json": 400,
    "bad_request": 400,
    "job_spec": 400,
    "pipeline_config": 400,
    "unsupported_version": 400,
    "unknown_op": 404,
    "not_found": 404,
    "method_not_allowed": 405,
    "too_large": 413,
    "shutting_down": 503,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Route table: path → (method, operation).
_ROUTES = {
    "/v1/prepare": ("POST", "prepare"),
    "/v1/batch": ("POST", "batch"),
    "/v1/stats": ("GET", "stats"),
    "/healthz": ("GET", "health"),
    "/metrics": ("GET", "metrics"),
    "/v1/traces/summary": ("GET", "traces_summary"),
}

#: Prefix route for trace read-back: ``GET /v1/trace/<request-id>``.
_TRACE_PREFIX = "/v1/trace/"

#: Operations traced end-to-end (the read-only routes are not worth a
#: ring-buffer slot each).
_TRACED_OPS = frozenset({"prepare", "batch"})


class _RawResponse:
    """A non-JSON response body with its own content type."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str):
        self.body = body
        self.content_type = content_type


class _HttpRequest:
    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method, path, headers, body, keep_alive):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class HttpServer:
    """Serve an :class:`~repro.service.AsyncPreparationService` over HTTP.

    Untrusted input is bounded everywhere: request lines and header
    lines by the stream's 64 KiB line limit, header count by
    :attr:`_MAX_HEADER_LINES`, bodies by ``max_request_bytes`` —
    violations are answered with a structured error and the
    connection is closed.

    Args:
        service: A *running*
            :class:`~repro.service.AsyncPreparationService`.  The
            server considers itself the service's final owner:
            :meth:`stop` drains and stops it.  Do not share one
            service between two servers that are stopped
            independently — the first ``stop()`` drains it for both.
        host: Bind address.
        port: Bind port; 0 picks an ephemeral port (see :attr:`port`).
        max_request_bytes: Hard cap on a request body; larger bodies
            are refused with 413 without being read into memory.
        job_defaults: Option defaults layered under every wire job
            (the CLI's ``--pipeline`` config), exactly like the
            batch-spec ``defaults`` merge.
        drain_timeout: Seconds :meth:`stop` waits for in-flight
            connection handlers before cancelling them (``None``
            waits forever).  Bounds shutdown against a peer that
            stops reading its socket and parks a handler in
            ``writer.drain()`` indefinitely.
        metrics: A :class:`~repro.obs.MetricsRegistry` the server
            publishes wire metrics into — request counts and latency,
            the in-flight gauge, and per-error-code counts — and
            serves on ``GET /metrics``.  Two servers may share one
            registry (the instrument factories are idempotent).
            ``None`` leaves the wire un-instrumented.
        tracer: A :class:`~repro.obs.Tracer`; when given, every
            ``prepare``/``batch`` request is traced end-to-end under
            its request id and served on ``GET /v1/trace/<id>``.
            ``None`` disables tracing.
        slow_trace_seconds: Requests slower than this many seconds
            get their full span tree emitted as one structured
            ``slow_request`` log record (warning level), so tail
            latency is diagnosable from the logs alone.  ``None``
            (the default) disables the dump.
    """

    _MAX_HEADER_LINES = 256

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_request_bytes: int = 1_000_000,
        job_defaults=None,
        drain_timeout: float | None = 30.0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slow_trace_seconds: float | None = None,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.max_request_bytes = max_request_bytes
        self.job_defaults = job_defaults
        self.drain_timeout = drain_timeout
        self.metrics = metrics
        self.tracer = tracer
        self.slow_trace_seconds = slow_trace_seconds
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._closing: asyncio.Event | None = None
        self.requests_served = 0
        self.inflight_requests = 0
        self._log = obs_log.get_logger("net.http")
        self._requests_total = None
        self._request_seconds = None
        self._errors_total = None
        self._inflight_gauge = None
        if metrics is not None:
            # The ``transport`` label is always "http"; it stays so
            # that dashboards and queries keep their series.
            self._requests_total = metrics.counter(
                "repro_requests_total",
                "Wire requests served, by transport and operation.",
                labels=("transport", "op"),
            )
            self._request_seconds = metrics.histogram(
                "repro_request_seconds",
                "Wall time from request receipt to response written.",
                labels=("transport",),
                exemplars=True,
            )
            self._errors_total = metrics.counter(
                "repro_errors_total",
                "Error envelopes returned, by transport and wire code.",
                labels=("transport", "code"),
            )
            self._inflight_gauge = metrics.gauge(
                "repro_inflight_requests",
                "Requests currently being served.",
            )

    # ------------------------------------------------------------------
    # Instrumentation hooks (tolerate a None registry everywhere)
    # ------------------------------------------------------------------
    def _request_begin(self) -> float:
        """Mark one request in flight; returns its start instant."""
        self.inflight_requests += 1
        if self._inflight_gauge is not None:
            self._inflight_gauge.inc()
        return time.perf_counter()

    def _request_end(
        self,
        op: str,
        started: float,
        *,
        error_code: str | None = None,
        trace=None,
    ) -> None:
        """Mark a request finished: counters, latency, and one log line."""
        self.inflight_requests = max(0, self.inflight_requests - 1)
        elapsed = time.perf_counter() - started
        if self._inflight_gauge is not None:
            self._inflight_gauge.dec()
        if self._requests_total is not None:
            self._requests_total.labels("http", op).inc()
            self._request_seconds.labels("http").observe(
                elapsed,
                exemplar=(
                    trace.request_id if trace is not None else None
                ),
            )
            if error_code is not None:
                self._errors_total.labels("http", error_code).inc()
        self.requests_served += 1
        fields = {"op": op, "duration": round(elapsed, 6)}
        if trace is not None:
            fields["request_id"] = str(trace.request_id)
        if error_code is not None:
            fields["error_code"] = error_code
            self._log.warning("http_request", **fields)
        else:
            self._log.debug("http_request", **fields)
        if (
            self.slow_trace_seconds is not None
            and trace is not None
            and elapsed >= self.slow_trace_seconds
        ):
            self._log.warning(
                "slow_request",
                op=op,
                request_id=trace.request_id,
                duration=round(elapsed, 6),
                threshold=self.slow_trace_seconds,
                trace=trace.to_dict(),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves 0 to the kernel-assigned one)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        return self._server is not None and self._server.is_serving()

    async def start(self) -> "HttpServer":
        if self._server is not None:
            return self
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    async def stop(self) -> None:
        """Graceful shutdown, in order: stop accepting connections,
        wake idle handlers, let every in-flight request finish, then
        drain and stop the underlying service.  No accepted request
        is dropped."""
        if self._server is not None:
            self._server.close()
        # Wake idle handlers parked in _next_request first; they
        # would otherwise never notice the shutdown.
        if self._closing is not None:
            self._closing.set()
        # Finish (or, past the deadline, cancel) every handler BEFORE
        # awaiting wait_closed(): on Python >= 3.12.1 wait_closed()
        # blocks until every connection drops, so putting it first
        # would both deadlock against idle handlers waiting on the
        # closing event and render the drain deadline unreachable for
        # a handler stuck in writer.drain().
        if self._connections:
            _, stuck = await asyncio.wait(
                list(self._connections), timeout=self.drain_timeout
            )
            if stuck:
                # A peer that stopped reading its socket can park a
                # handler in writer.drain() forever; past the
                # deadline, liveness wins over the drain guarantee.
                for connection in stuck:
                    connection.cancel()
                await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def __aenter__(self) -> "HttpServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def __repr__(self) -> str:
        state = "listening" if self.running else "stopped"
        return f"HttpServer({state}, {self.host}:{self.port})"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        forced = False
        try:
            while True:
                try:
                    request = await self._next_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except (ConnectionError, OSError):
                    # Abrupt client disconnect (TCP reset) mid-read:
                    # nothing to answer, just drop the connection.
                    break
                except WireError as error:
                    # Request framing is broken — answer and close;
                    # we cannot trust the stream position anymore.
                    await self._write_response(
                        writer,
                        _STATUS_BY_CODE.get(error.code, 500),
                        error_envelope(error),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                # A stopping server answers what it has already read
                # but never holds the connection open for more.
                keep_alive = request.keep_alive and not (
                    self._closing is not None and self._closing.is_set()
                )
                started = self._request_begin()
                trace = None
                failed_code = None
                try:
                    status, payload, trace = await self._respond(
                        request
                    )
                    if (
                        isinstance(payload, dict)
                        and payload.get("ok") is False
                    ):
                        failed_code = payload.get("error", {}).get(
                            "code"
                        )
                except WireError as error:
                    status = _STATUS_BY_CODE.get(error.code, 500)
                    payload = error_envelope(error)
                    failed_code = error.code
                except Exception as error:  # noqa: BLE001 - wire boundary
                    wire = WireError.from_exception(error)
                    status = 500
                    payload = error_envelope(wire)
                    failed_code = wire.code
                await self._write_response(
                    writer, status, payload,
                    keep_alive=keep_alive, trace=trace,
                )
                self._request_end(
                    self._op_label(request.path), started,
                    error_code=failed_code, trace=trace,
                )
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # stop()'s drain deadline: the peer may never read again,
            # so a graceful flush could wait forever.
            forced = True
            raise
        finally:
            self._connections.discard(task)
            if forced:
                writer.transport.abort()
            else:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                except asyncio.CancelledError:
                    # Cancelled while flushing to a non-reading peer:
                    # discard the buffer, don't wait on it.
                    writer.transport.abort()
                    raise

    async def _next_request(self, reader) -> _HttpRequest | None:
        """Wait for the next request, or ``None`` when the server is
        closing and the connection is idle.

        A connection parked in ``readline`` between keep-alive
        requests would otherwise stall graceful shutdown forever.  The
        race between the read and the shutdown signal resolves in
        favour of the read: a request that arrived before the signal
        is always returned, never dropped.
        """
        if self._closing is None or self._closing.is_set():
            return None
        read = asyncio.ensure_future(self._read_request(reader))
        closing = asyncio.ensure_future(self._closing.wait())
        try:
            await asyncio.wait(
                {read, closing}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            closing.cancel()
        if not read.done():
            read.cancel()
            try:
                await read
            except (asyncio.CancelledError, asyncio.IncompleteReadError):
                pass
            return None
        return await read

    async def _read_request(self, reader) -> _HttpRequest | None:
        try:
            request_line = await reader.readline()
        except ValueError:
            # readline wraps LimitOverrunError (line beyond the 64 KiB
            # stream limit) in ValueError.
            raise WireError(
                "too_large", "request line exceeds the size limit"
            )
        if not request_line:
            return None
        try:
            method, path, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise WireError(
                "bad_request",
                f"malformed request line {request_line!r}",
            )
        headers: dict[str, str] = {}
        for _ in range(self._MAX_HEADER_LINES):
            try:
                line = await reader.readline()
            except ValueError:
                raise WireError(
                    "too_large", "header line exceeds the size limit"
                )
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise WireError(
                "too_large",
                f"more than {self._MAX_HEADER_LINES} header lines",
            )
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise WireError(
                "bad_request", "chunked request bodies are not supported"
            )
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            raise WireError(
                "bad_request",
                f"bad Content-Length {headers.get('content-length')!r}",
            )
        if content_length < 0:
            raise WireError(
                "bad_request",
                f"negative Content-Length {content_length}",
            )
        if content_length > self.max_request_bytes:
            raise WireError(
                "too_large",
                f"request body of {content_length} bytes exceeds the "
                f"limit of {self.max_request_bytes}",
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and version.upper() not in (
            "HTTP/1.0",
        )
        return _HttpRequest(method, path, headers, body, keep_alive)

    @staticmethod
    def _op_label(path: str) -> str:
        """The ``op`` metric-label value for a request path."""
        route = _ROUTES.get(path)
        if route is not None:
            return route[1]
        if path.startswith(_TRACE_PREFIX):
            return "trace"
        return "invalid"

    def _respond_metrics(self):
        if self.metrics is None:
            raise WireError(
                "not_found", "no metrics registry on this server"
            )
        return 200, _RawResponse(
            self.metrics.render_prometheus().encode(),
            _PROMETHEUS_CONTENT_TYPE,
        ), None

    def _respond_trace(self, request: _HttpRequest):
        if request.method != "GET":
            raise WireError(
                "method_not_allowed",
                f"{request.path} takes GET, not {request.method}",
            )
        if self.tracer is None:
            raise WireError(
                "not_found", "tracing is not enabled on this server"
            )
        request_id = unquote(request.path[len(_TRACE_PREFIX):])
        trace = self.tracer.get(request_id)
        if trace is None:
            raise WireError(
                "not_found",
                f"no retained trace for request id {request_id!r}",
            )
        return 200, result_envelope(trace.to_dict()), None

    async def _respond(
        self, request: _HttpRequest
    ) -> tuple[int, object, object]:
        """Answer one request: ``(status, payload, trace-or-None)``.

        ``payload`` is an envelope dict, or a :class:`_RawResponse`
        for the Prometheus exposition.
        """
        route = _ROUTES.get(request.path)
        if route is None:
            if request.path.startswith(_TRACE_PREFIX):
                return self._respond_trace(request)
            raise WireError(
                "not_found", f"no route for {request.path!r}"
            )
        method, op = route
        if request.method != method:
            raise WireError(
                "method_not_allowed",
                f"{request.path} takes {method}, not {request.method}",
            )
        if op == "health":
            health = {
                "status": "ok",
                "accepting": self.service.running,
                # Unstable extras (see docs/observability.md): shape
                # may change between versions.
                "uptime_seconds": round(
                    getattr(self.service, "uptime", lambda: 0.0)(), 6
                ),
                "inflight_requests": self.inflight_requests,
                "v": PROTOCOL_VERSION,
            }
            # Cluster front ends expose per-shard detail; the plain
            # service has no shard_health and keeps the historical
            # shape byte-for-byte.
            shard_health = getattr(self.service, "shard_health", None)
            if callable(shard_health):
                health["shards"] = shard_health()
            return 200, result_envelope(health), None
        if op == "metrics":
            return self._respond_metrics()
        if op == "traces_summary":
            if self.tracer is None:
                raise WireError(
                    "not_found",
                    "tracing is not enabled on this server",
                )
            return 200, result_envelope(self.tracer.summary()), None
        if not self.service.running:
            raise WireError(
                "shutting_down", "service is draining; try again later"
            )
        parse_started = time.perf_counter()
        payload: dict = {}
        if request.body:
            try:
                payload = json.loads(request.body)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise WireError(
                    "bad_json", f"body is not valid JSON: {error}"
                )
            if not isinstance(payload, dict):
                raise WireError(
                    "bad_request",
                    "body must be a JSON object",
                )
        parse_elapsed = time.perf_counter() - parse_started
        client_id = request.headers.get("x-repro-request-id")
        if client_id is None:
            client_id = payload.get("id")
        if self.tracer is None or op not in _TRACED_OPS:
            result = await execute_request(
                self.service, op, payload, defaults=self.job_defaults
            )
            return 200, result_envelope(
                result, request_id=client_id
            ), None
        context = context_from_header(
            request.headers.get("x-repro-trace")
        )
        with self.tracer.request(
            client_id, transport="http", context=context
        ) as trace:
            if trace is not None:
                trace.add_span(
                    "parse", start=0.0, duration=parse_elapsed
                )
            try:
                result = await execute_request(
                    self.service, op, payload,
                    defaults=self.job_defaults,
                )
            except WireError as error:
                if trace is not None:
                    trace.set_error(error.code, str(error))
                return (
                    _STATUS_BY_CODE.get(error.code, 500),
                    self._with_subtree(
                        error_envelope(error, request_id=client_id),
                        context, trace,
                    ),
                    trace,
                )
            except Exception as error:  # noqa: BLE001 - wire boundary
                wire = WireError.from_exception(error)
                if trace is not None:
                    trace.set_error(wire.code, str(wire))
                return (
                    500,
                    self._with_subtree(
                        error_envelope(wire, request_id=client_id),
                        context, trace,
                    ),
                    trace,
                )
        if (
            trace is not None
            and isinstance(result, dict)
            and result.get("ok") is False
        ):
            failure = result.get("error") or {}
            trace.set_error(
                failure.get("code", "internal"),
                failure.get("message", ""),
            )
        return 200, self._with_subtree(
            result_envelope(result, request_id=client_id),
            context, trace,
        ), trace

    @staticmethod
    def _with_subtree(envelope: dict, context, trace) -> dict:
        """Attach this process's span subtree to the envelope when the
        caller propagated a trace context (it will graft the spans)."""
        if context is not None and trace is not None:
            envelope["trace"] = trace.export()
        return envelope

    async def _write_response(
        self,
        writer,
        status: int,
        payload,
        keep_alive: bool,
        trace=None,
    ) -> None:
        serialize_span = (
            trace.begin_span("serialize", parent=trace.find("request"))
            if trace is not None else None
        )
        if isinstance(payload, _RawResponse):
            body = payload.body
            content_type = payload.content_type
        else:
            body = encode_envelope(payload)
            content_type = "application/json"
        request_id_header = ""
        if trace is not None:
            # The id may echo client input: strip CR/LF so it cannot
            # inject response headers.
            safe_id = (
                str(trace.request_id)
                .replace("\r", "")
                .replace("\n", "")[:256]
            )
            request_id_header = f"X-Repro-Request-Id: {safe_id}\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{request_id_header}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            if serialize_span is not None:
                serialize_span.finish()
