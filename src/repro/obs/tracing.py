"""End-to-end request tracing: one span tree per request id.

A :class:`Trace` is created at the wire layer — keyed by the client's
``X-Repro-Request-Id`` header / envelope ``id``, or a generated id —
and carried across the stack via :data:`contextvars`:

* the request handler task holds :data:`CURRENT_TRACE` while it
  parses, awaits the service, and serialises;
* ``service.submit`` captures the trace into the queued job, so the
  queue-wait and dispatch spans land on the right request even though
  the shard's worker runs in its own task;
* each shard's worker plants its batch's traces in
  :data:`DISPATCH_TRACES` immediately before ``asyncio.to_thread``,
  whose context copy carries them into the engine's worker thread;
* the engine re-establishes :data:`CURRENT_TRACE` per job, so the
  :class:`~repro.pipeline.Pipeline` runner can record one span per
  pass without knowing anything about requests.

Traces also cross *process* boundaries:

* a trace context (:meth:`Trace.context`) rides the request to a
  remote shard in the ``X-Repro-Trace`` header
  (:func:`context_to_header`); the shard adopts the propagated trace
  id, records its own span subtree, and ships it back as a flat
  ledger (:meth:`Trace.export`) in the response envelope;
* the cluster front end :meth:`grafts <Trace.graft>` the returned
  ledger under its per-attempt remote-call span, rebasing the remote
  offsets onto the local timeline via the wall-clock ``started_at``
  of both traces;
* :class:`~repro.engine.ParallelExecutor` workers record into a
  private :class:`Trace` and return its exported ledger (plain dicts,
  picklable) alongside the outcome, so process-pool stage spans graft
  back onto the live request trace.

Span ids are prefixed with the recording process id
(``"<pid hex>.<counter hex>"``), so a stitched tree shows exactly
which process produced each span.

Span taxonomy (see ``docs/observability.md``): the root ``request``
span contains ``parse``; then ``cache_hit`` for a hit answered at the
service door, or ``queue_wait`` and ``dispatch`` for a miss; then
``encode`` and ``serialize``.  ``dispatch`` contains ``execute`` (a
cache miss running the pipeline — with one child span per pipeline
pass) or ``cache_hit``; on a cluster front end ``dispatch`` contains
``remote_call`` spans (one per attempt, failovers included) whose
grafted children are the shard's own subtree.

The :class:`Tracer` keeps a bounded ring of recently finished traces
(``GET /v1/trace/<id>`` serves them), so tracing memory is O(capacity)
regardless of traffic.  :meth:`Tracer.summary` rolls the ring up into
a per-stage critical-path/self-time profile (``GET
/v1/traces/summary``).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from contextlib import contextmanager
from urllib.parse import quote, unquote

__all__ = [
    "CURRENT_SPAN",
    "CURRENT_TRACE",
    "DISPATCH_TRACES",
    "TRACE_CONTEXT_VERSION",
    "Span",
    "Trace",
    "Tracer",
    "context_from_header",
    "context_to_header",
    "current_trace",
    "parse_context",
    "summarize_traces",
]

#: Version of the trace-context wire format (the ``v`` field of the
#: ``X-Repro-Trace`` header).
TRACE_CONTEXT_VERSION = 1

#: The trace of the request being handled in this context, if any.
CURRENT_TRACE: contextvars.ContextVar["Trace | None"] = (
    contextvars.ContextVar("repro_obs_current_trace", default=None)
)

#: The span new child spans should attach under in this context.
CURRENT_SPAN: contextvars.ContextVar["Span | None"] = (
    contextvars.ContextVar("repro_obs_current_span", default=None)
)

#: Per-group ``(trace, parent_span)`` pairs, parallel to the jobs the
#: service hands ``engine.run_batch``.  Set by the dispatch group
#: right before ``asyncio.to_thread`` so the context copy ships it
#: into the worker thread; ``None`` entries mean "job not traced".
DISPATCH_TRACES: contextvars.ContextVar[
    "tuple[tuple[Trace, Span] | None, ...] | None"
] = contextvars.ContextVar("repro_obs_dispatch_traces", default=None)

_ids = itertools.count(1)
_span_ids = itertools.count(1)


def current_trace() -> "Trace | None":
    """The trace of the calling context (``None`` when untraced)."""
    return CURRENT_TRACE.get()


def _new_span_id() -> str:
    """A fleet-unique span id: ``"<pid hex>.<counter hex>"``.

    The pid prefix makes ids unique across the processes that
    contribute spans to one stitched trace, and lets a reader (or the
    CI smoke check) count how many distinct processes a tree covers.
    ``os.getpid()`` is read per call, so ids stay correct across
    ``fork`` into pool workers.
    """
    return f"{os.getpid():x}.{next(_span_ids):x}"


class Span:
    """One timed operation inside a trace.

    Attributes:
        span_id: Fleet-unique id (``"<pid hex>.<counter hex>"``) used
            for cross-process parent references.
        name: Operation name (``"parse"``, ``"dispatch"``,
            ``"stage:build"`` …).
        start: Offset from the trace start, in seconds.
        duration: Wall time, in seconds (``None`` while open).
        parent: The enclosing span, or ``None`` for a root span.
        attributes: Free-form string/number annotations.
    """

    __slots__ = (
        "span_id", "name", "start", "duration", "parent",
        "attributes", "_trace",
    )

    def __init__(
        self,
        trace: "Trace",
        name: str,
        start: float,
        parent: "Span | None" = None,
        attributes: dict | None = None,
        span_id: str | None = None,
    ):
        self._trace = trace
        self.span_id = span_id if span_id is not None else _new_span_id()
        self.name = name
        self.start = start
        self.duration: float | None = None
        self.parent = parent
        self.attributes = dict(attributes or {})

    def finish(self, end: float | None = None) -> "Span":
        """Close the span (idempotent); ``end`` is a perf_counter value."""
        if self.duration is None:
            reference = self._trace._origin
            now = time.perf_counter() if end is None else end
            self.duration = max(0.0, (now - reference) - self.start)
        return self

    def annotate(self, **attributes) -> "Span":
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        body: dict[str, object] = {
            "span_id": self.span_id,
            "name": self.name,
            "start": round(self.start, 9),
            "duration": (
                round(self.duration, 9)
                if self.duration is not None else None
            ),
        }
        if self.attributes:
            body["attributes"] = dict(self.attributes)
        return body

    def __repr__(self) -> str:
        state = (
            f"{self.duration * 1e3:.2f}ms"
            if self.duration is not None else "open"
        )
        return f"Span({self.name}, {state})"


class Trace:
    """The span ledger of one request.

    Spans are appended from the event loop and from engine worker
    threads; every mutation happens under the trace's own lock.
    """

    def __init__(self, request_id: str, transport: str = ""):
        self.request_id = request_id
        self.transport = transport
        self.started_at = time.time()
        self.pid = os.getpid()
        #: Span id of the caller's span on the upstream process, when
        #: this trace was adopted from a propagated context.
        self.remote_parent: str | None = None
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.error: dict | None = None

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def begin_span(
        self,
        name: str,
        parent: Span | None = None,
        *,
        start: float | None = None,
        **attributes,
    ) -> Span:
        """Open a span (caller must :meth:`Span.finish` it).

        ``parent`` defaults to the context's :data:`CURRENT_SPAN` when
        that span belongs to this trace.  ``start`` is an absolute
        ``time.perf_counter()`` value (default: now).
        """
        if parent is None:
            candidate = CURRENT_SPAN.get()
            if candidate is not None and candidate._trace is self:
                parent = candidate
        at = time.perf_counter() if start is None else start
        span = Span(
            self, name, max(0.0, at - self._origin),
            parent=parent, attributes=attributes,
        )
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attributes):
        """Context manager: open a span, make it the context's current
        span, finish it on exit."""
        opened = self.begin_span(name, parent=parent, **attributes)
        token = CURRENT_SPAN.set(opened)
        try:
            yield opened
        finally:
            CURRENT_SPAN.reset(token)
            opened.finish()

    def add_span(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent: Span | None = None,
        **attributes,
    ) -> Span:
        """Record an already-measured span (offset + duration in
        seconds relative to the trace start).  ``parent`` defaults to
        the context's current span when it belongs to this trace."""
        if parent is None:
            candidate = CURRENT_SPAN.get()
            if candidate is not None and candidate._trace is self:
                parent = candidate
        span = Span(
            self, name, max(0.0, start),
            parent=parent, attributes=attributes,
        )
        span.duration = max(0.0, duration)
        with self._lock:
            self._spans.append(span)
        return span

    def offset(self, at: float | None = None) -> float:
        """A ``perf_counter`` instant as an offset from the trace start."""
        now = time.perf_counter() if at is None else at
        return max(0.0, now - self._origin)

    def set_error(self, code: str, message: str) -> None:
        """Mark the whole request as failed (wire-level refusals)."""
        self.error = {"code": code, "message": message}

    # ------------------------------------------------------------------
    # Cross-process propagation
    # ------------------------------------------------------------------
    def context(self, parent: Span | None = None) -> dict:
        """The trace context to propagate with an outbound request.

        ``parent`` defaults to the context's current span of this
        trace; the remote process records its subtree under a local
        root and ships it back for grafting.
        """
        if parent is None:
            candidate = CURRENT_SPAN.get()
            if candidate is not None and candidate._trace is self:
                parent = candidate
        return {
            "v": TRACE_CONTEXT_VERSION,
            "trace_id": self.request_id,
            "parent_span_id": (
                parent.span_id if parent is not None else None
            ),
            "sampled": True,
        }

    def export(self, root: Span | None = None) -> dict:
        """The trace (or the subtree under ``root``) as a flat,
        JSON/pickle-safe ledger.

        Open spans are exported with their elapsed time so far.  The
        wall-clock ``started_at`` lets the receiving process rebase
        the offsets onto its own timeline (:meth:`graft`).
        """
        with self._lock:
            spans = list(self._spans)
        if root is not None:
            keep: set[int] = {id(root)}
            selected = [root]
            for span in spans:
                if span is root:
                    continue
                if span.parent is not None and id(span.parent) in keep:
                    keep.add(id(span))
                    selected.append(span)
            spans = selected
        now = self.offset()
        entries = []
        for span in spans:
            entry: dict[str, object] = {
                "id": span.span_id,
                "parent": (
                    span.parent.span_id
                    if span.parent is not None else None
                ),
                "name": span.name,
                "start": round(span.start, 9),
                "duration": round(
                    span.duration
                    if span.duration is not None
                    else max(0.0, now - span.start),
                    9,
                ),
            }
            if span.attributes:
                entry["attributes"] = dict(span.attributes)
            entries.append(entry)
        body: dict[str, object] = {
            "v": TRACE_CONTEXT_VERSION,
            "trace_id": self.request_id,
            "pid": self.pid,
            "started_at": self.started_at,
            "spans": entries,
        }
        if self.remote_parent is not None:
            body["parent_span_id"] = self.remote_parent
        if self.error is not None:
            body["error"] = dict(self.error)
        return body

    def graft(
        self,
        exported: dict,
        parent: Span | None = None,
        **attributes,
    ) -> Span | None:
        """Attach an exported ledger as a subtree of this trace.

        Remote offsets are rebased onto the local timeline using the
        wall-clock ``started_at`` of both traces (clock skew between
        hosts shifts the subtree but never corrupts local spans).
        Ledger entries whose parent is not part of the ledger attach
        under ``parent`` (default: the context's current span).
        Returns the first grafted root span, or ``None`` for an empty
        or malformed ledger.
        """
        if not isinstance(exported, dict):
            return None
        entries = exported.get("spans")
        if not isinstance(entries, list) or not entries:
            return None
        if parent is None:
            candidate = CURRENT_SPAN.get()
            if candidate is not None and candidate._trace is self:
                parent = candidate
        remote_started = exported.get("started_at")
        base = (
            float(remote_started) - self.started_at
            if isinstance(remote_started, (int, float))
            else 0.0
        )
        grafted: dict[str, Span] = {}
        first_root: Span | None = None
        appended: list[Span] = []
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            name = entry.get("name")
            if not isinstance(name, str):
                continue
            entry_parent = grafted.get(entry.get("parent"))
            is_root = entry_parent is None
            span = Span(
                self,
                name,
                max(0.0, base + float(entry.get("start", 0.0))),
                parent=entry_parent if entry_parent is not None
                else parent,
                attributes=entry.get("attributes"),
                span_id=str(entry.get("id", _new_span_id())),
            )
            duration = entry.get("duration")
            span.duration = (
                max(0.0, float(duration))
                if isinstance(duration, (int, float)) else 0.0
            )
            if is_root:
                if attributes:
                    span.annotate(**attributes)
                if first_root is None:
                    first_root = span
            grafted[span.span_id] = span
            appended.append(span)
        with self._lock:
            self._spans.extend(appended)
        return first_root

    # ------------------------------------------------------------------
    # Read-back
    # ------------------------------------------------------------------
    def span_names(self) -> list[str]:
        with self._lock:
            return [span.name for span in self._spans]

    def find(self, name: str) -> Span | None:
        with self._lock:
            for span in self._spans:
                if span.name == name:
                    return span
        return None

    def duration(self) -> float:
        """Wall time covered so far (root span end, or last span end)."""
        with self._lock:
            spans = list(self._spans)
        if not spans:
            return 0.0
        return max(
            span.start + (span.duration or 0.0) for span in spans
        )

    def to_dict(self) -> dict:
        """The whole trace as a JSON-ready nested span tree."""
        with self._lock:
            spans = list(self._spans)
        nodes = [span.to_dict() for span in spans]
        index = {id(span): node for span, node in zip(spans, nodes)}
        roots: list[dict] = []
        for span, node in zip(spans, nodes):
            parent_node = (
                index.get(id(span.parent))
                if span.parent is not None else None
            )
            if parent_node is None:
                roots.append(node)
            else:
                parent_node.setdefault("children", []).append(node)
        body: dict[str, object] = {
            "request_id": self.request_id,
            "transport": self.transport,
            "started_at": self.started_at,
            "pid": self.pid,
            "duration": round(self.duration(), 9),
            "spans": roots,
        }
        if self.error is not None:
            body["error"] = dict(self.error)
        return body

    def __repr__(self) -> str:
        return (
            f"Trace({self.request_id!r}, {len(self._spans)} spans)"
        )


# ----------------------------------------------------------------------
# Trace-context wire format
# ----------------------------------------------------------------------
def parse_context(payload: object) -> dict | None:
    """Validate a propagated trace context (the decoded
    ``X-Repro-Trace`` header, see :func:`context_from_header`).

    Returns ``{"trace_id", "parent_span_id", "sampled"}`` or ``None``
    for anything malformed, unversioned, or from a future version —
    an old server facing a new client degrades to local tracing
    rather than failing the request.
    """
    if not isinstance(payload, dict):
        return None
    if payload.get("v") != TRACE_CONTEXT_VERSION:
        return None
    trace_id = payload.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    parent = payload.get("parent_span_id")
    if parent is not None and not isinstance(parent, str):
        return None
    return {
        "trace_id": trace_id,
        "parent_span_id": parent,
        "sampled": bool(payload.get("sampled", True)),
    }


def context_to_header(context: dict) -> str:
    """Encode a trace context as the ``X-Repro-Trace`` header value."""
    parts = [
        f"v={context.get('v', TRACE_CONTEXT_VERSION)}",
        f"id={quote(str(context.get('trace_id', '')), safe='')}",
    ]
    parent = context.get("parent_span_id")
    if parent:
        parts.append(f"parent={quote(str(parent), safe='')}")
    parts.append(
        f"sampled={1 if context.get('sampled', True) else 0}"
    )
    return ";".join(parts)


def context_from_header(value: str | None) -> dict | None:
    """Decode an ``X-Repro-Trace`` header into a trace-context dict
    (``parse_context`` form), or ``None`` when absent/malformed."""
    if not value:
        return None
    fields: dict[str, str] = {}
    for part in value.split(";"):
        key, separator, text = part.strip().partition("=")
        if separator:
            fields[key] = text
    try:
        version = int(fields.get("v", ""))
    except ValueError:
        return None
    return parse_context({
        "v": version,
        "trace_id": unquote(fields.get("id", "")),
        "parent_span_id": (
            unquote(fields["parent"]) if "parent" in fields else None
        ),
        "sampled": fields.get("sampled", "1") != "0",
    })


# ----------------------------------------------------------------------
# Critical-path rollup
# ----------------------------------------------------------------------
def summarize_traces(traces: list["Trace"]) -> dict:
    """Per-stage profile over ``traces``: count, total, self time,
    max, and critical-path time.

    *Self time* of a span is its duration minus the durations of its
    direct children (clamped at zero).  *Critical-path time* walks
    from each root down the longest child at every level, attributing
    that span's self time to its stage — the stages that actually
    bound end-to-end latency, which is the profile the ordering-pass
    work optimises against.
    """
    stages: dict[str, dict[str, float]] = {}

    def stage(name: str) -> dict[str, float]:
        row = stages.get(name)
        if row is None:
            row = stages[name] = {
                "count": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "max_seconds": 0.0,
                "critical_seconds": 0.0,
            }
        return row

    for trace in traces:
        with trace._lock:
            spans = list(trace._spans)
        children: dict[int, list[Span]] = {}
        roots: list[Span] = []
        for span in spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
            else:
                roots.append(span)

        def self_time(span: Span) -> float:
            duration = span.duration or 0.0
            used = sum(
                child.duration or 0.0
                for child in children.get(id(span), ())
            )
            return max(0.0, duration - used)

        for span in spans:
            row = stage(span.name)
            duration = span.duration or 0.0
            row["count"] += 1
            row["total_seconds"] += duration
            row["self_seconds"] += self_time(span)
            row["max_seconds"] = max(row["max_seconds"], duration)

        for root in roots:
            span: Span | None = root
            while span is not None:
                stage(span.name)["critical_seconds"] += (
                    self_time(span)
                )
                kids = children.get(id(span))
                span = (
                    max(kids, key=lambda s: s.duration or 0.0)
                    if kids else None
                )

    rounded = {
        name: {
            "count": row["count"],
            "total_seconds": round(row["total_seconds"], 9),
            "self_seconds": round(row["self_seconds"], 9),
            "max_seconds": round(row["max_seconds"], 9),
            "critical_seconds": round(row["critical_seconds"], 9),
        }
        for name, row in sorted(
            stages.items(),
            key=lambda item: -item[1]["self_seconds"],
        )
    }
    return {"traces": len(traces), "stages": rounded}


class Tracer:
    """Factory and bounded ring buffer of recent traces.

    Args:
        capacity: Traces retained for ``GET /v1/trace/<id>``; the
            oldest is evicted when a new one arrives (>= 1).  A
            request id seen again replaces its previous trace.
        enabled: ``False`` makes :meth:`start` return ``None`` so the
            stack runs untraced (the instrumentation points all
            tolerate a ``None`` trace).
    """

    def __init__(self, capacity: int = 256, *, enabled: bool = True):
        if capacity < 1:
            raise ValueError(
                f"trace capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.enabled = enabled
        self._lock = threading.Lock()
        self._traces: dict[str, Trace] = {}

    def new_request_id(self) -> str:
        """A process-unique generated request id."""
        return f"req-{next(_ids):06d}"

    def start(
        self, request_id: object = None, transport: str = ""
    ) -> Trace | None:
        """Create (and retain) a trace for ``request_id``.

        ``None``/empty ids get a generated one.  Returns ``None`` when
        the tracer is disabled.
        """
        if not self.enabled:
            return None
        rid = (
            str(request_id)
            if request_id is not None and str(request_id) != ""
            else self.new_request_id()
        )
        trace = Trace(rid, transport=transport)
        with self._lock:
            self._traces.pop(rid, None)
            self._traces[rid] = trace
            while len(self._traces) > self.capacity:
                self._traces.pop(next(iter(self._traces)))
        return trace

    def get(self, request_id: object) -> Trace | None:
        with self._lock:
            return self._traces.get(str(request_id))

    def ids(self) -> list[str]:
        """Retained request ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def summary(self) -> dict:
        """Critical-path/self-time rollup over the retained ring
        (see :func:`summarize_traces`)."""
        with self._lock:
            traces = list(self._traces.values())
        return summarize_traces(traces)

    @contextmanager
    def request(
        self,
        request_id: object = None,
        transport: str = "",
        context: dict | None = None,
    ):
        """Wire-layer entry point: open the root ``request`` span and
        install the trace in the calling context.

        ``context`` is a propagated trace context (``parse_context``
        form): the trace adopts the caller's trace id and remembers
        the upstream parent span id, so the exported subtree stitches
        into the caller's tree.  A context with ``sampled`` false
        suppresses tracing for this request.

        Yields the :class:`Trace` (or ``None`` when disabled); the
        root span is finished and the context restored on exit.
        """
        if context is not None and not context.get("sampled", True):
            yield None
            return
        if context is not None:
            request_id = context.get("trace_id") or request_id
        trace = self.start(request_id, transport=transport)
        if trace is None:
            yield None
            return
        if context is not None:
            trace.remote_parent = context.get("parent_span_id")
        root = trace.begin_span("request")
        trace_token = CURRENT_TRACE.set(trace)
        span_token = CURRENT_SPAN.set(root)
        try:
            yield trace
        finally:
            CURRENT_SPAN.reset(span_token)
            CURRENT_TRACE.reset(trace_token)
            root.finish()

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self._traces)}/{self.capacity} traces, "
            f"{'enabled' if self.enabled else 'disabled'})"
        )
