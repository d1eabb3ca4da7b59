"""The versioned JSON wire schema of the network front end.

The HTTP/1.1 server (:mod:`repro.net.http`) speaks the protocol
defined here:

* **Requests** name an operation (``prepare`` / ``batch`` / ``stats``,
  one per route) and carry a payload whose job fields are parsed by
  the batch-spec machinery of :mod:`repro.engine.spec` — the wire
  accepts exactly what ``python -m repro batch`` accepts per job.
* **Responses** are envelopes ``{"v": 1, "ok": true, "result": ...}``
  or ``{"v": 1, "ok": false, "error": {"code", "type", "message"}}``;
  they echo the request ``id`` when the client supplied one.
* **Error codes** are derived mechanically from the library's
  exception hierarchy (:mod:`repro.exceptions`): ``JobSpecError`` →
  ``job_spec``, ``DimensionError`` → ``dimension``, and so on, plus a
  small set of protocol-level codes (``bad_json``, ``too_large``,
  ``unknown_op`` …).  A per-job :class:`~repro.engine.JobFailure`
  travels inside a *successful* envelope, exactly as it does inside a
  :class:`~repro.engine.BatchResult`.

Successful outcomes are serialised with every
:class:`~repro.core.report.SynthesisReport` field plus the per-stage
``stage_timings`` ledger; :func:`comparable_wire_outcome` strips the
scheduling-dependent fields (wall times, cache flags) in exact analogy
to :func:`repro.engine.comparable_outcome`, so the wire and the
in-process path can be compared for equality.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
from collections.abc import Mapping, Sequence
from contextlib import nullcontext

from repro.circuit import qasm
from repro.core.report import SynthesisReport
from repro.engine.jobs import PreparationJob
from repro.engine.results import JobFailure, JobOutcome, JobSuccess
from repro.engine.spec import job_from_dict, jobs_from_spec
from repro.exceptions import ReproError
from repro.obs.tracing import current_trace

__all__ = [
    "ENVELOPE_FIELDS",
    "PROTOCOL_VERSION",
    "WireError",
    "comparable_wire_outcome",
    "encode_envelope",
    "error_code",
    "error_envelope",
    "execute_request",
    "outcome_from_wire",
    "outcome_to_wire",
    "parse_batch_payload",
    "parse_prepare_payload",
    "result_envelope",
]

#: Version tag carried by every envelope.  A request naming a version
#: this server does not speak is rejected with ``unsupported_version``
#: instead of being half-understood.
PROTOCOL_VERSION = 1

#: Report keys zeroed by :func:`comparable_wire_outcome`: wall times
#: plus ``dd_nodes``, the build stage's node-count accounting, as in
#: :func:`repro.engine.results.comparable_report`.
_TIMING_REPORT_FIELDS = (
    "synthesis_time",
    "build_time",
    "verify_time",
    "dd_nodes",
)

#: Envelope fields stripped before a payload reaches the batch-spec
#: parser.  ``op`` and ``trace`` are not read over HTTP (the route
#: names the operation, a header carries the trace context); they
#: stay so that a body naming them still parses.
ENVELOPE_FIELDS = frozenset(
    {"v", "id", "op", "include_circuit", "trace"}
)


#: :class:`~repro.core.report.SynthesisReport` fields, in order: every
#: one is a number but ``dims``, so a report's wire form is a flat copy.
_REPORT_FIELDS = tuple(
    field.name for field in dataclasses.fields(SynthesisReport)
)


def _camel_to_snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def error_code(error_type: str) -> str:
    """Stable wire code of a library exception class name.

    Mechanically derived — ``JobSpecError`` → ``job_spec``,
    ``DimensionError`` → ``dimension`` — so the mapping can never
    drift from :mod:`repro.exceptions`.  Names outside the hierarchy
    (a worker raising ``ValueError``) collapse to ``internal``.
    """
    import repro.exceptions as exceptions

    cls = getattr(exceptions, error_type, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        return "internal"
    stem = error_type.removesuffix("Error") or "repro"
    return _camel_to_snake(stem)


class WireError(Exception):
    """A request this server refuses, with its wire code.

    Protocol-level refusals (malformed JSON, oversized body, unknown
    operation) and library errors alike are surfaced to the client as
    an error envelope carrying ``code`` plus the original exception
    type and message.
    """

    def __init__(self, code: str, message: str, error_type: str = "WireError"):
        super().__init__(message)
        self.code = code
        self.error_type = error_type

    @classmethod
    def from_exception(cls, error: Exception) -> "WireError":
        name = type(error).__name__
        return cls(error_code(name), str(error), error_type=name)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def result_envelope(result: object, request_id: object = None) -> dict:
    """A successful response envelope (``id`` only when given)."""
    envelope: dict[str, object] = {"v": PROTOCOL_VERSION, "ok": True}
    if request_id is not None:
        envelope["id"] = request_id
    envelope["result"] = result
    return envelope


def error_envelope(error: WireError, request_id: object = None) -> dict:
    """An error response envelope mirroring :func:`result_envelope`."""
    envelope: dict[str, object] = {"v": PROTOCOL_VERSION, "ok": False}
    if request_id is not None:
        envelope["id"] = request_id
    envelope["error"] = {
        "code": error.code,
        "type": error.error_type,
        "message": str(error),
    }
    return envelope


# ----------------------------------------------------------------------
# Payload parsing (reusing the batch-spec machinery)
# ----------------------------------------------------------------------
def _check_version(payload: Mapping[str, object]) -> None:
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise WireError(
            "unsupported_version",
            f"this server speaks protocol v{PROTOCOL_VERSION}, "
            f"request named v{version!r}",
        )


def parse_prepare_payload(
    payload: Mapping[str, object],
    defaults: Mapping[str, object] | None = None,
) -> tuple[PreparationJob, bool]:
    """Parse a ``prepare`` payload into ``(job, include_circuit)``.

    The job may come wrapped (``{"job": {...}}``, optionally with
    ``include_circuit``) or bare — any object with a ``dims`` field is
    taken as the job itself, which keeps one-line ``curl`` calls
    pleasant.  Job fields are exactly the batch-spec job fields.
    """
    _check_version(payload)
    include_circuit = payload.get("include_circuit", False)
    if not isinstance(include_circuit, bool):
        raise WireError(
            "bad_request", "'include_circuit' must be a boolean"
        )
    if "job" in payload:
        raw_job = payload["job"]
    else:
        raw_job = {
            key: value
            for key, value in payload.items()
            if key not in ENVELOPE_FIELDS
        }
        if "dims" not in raw_job:
            raise WireError(
                "bad_request",
                "prepare payload needs a 'job' object (or bare job "
                "fields including 'dims')",
            )
    try:
        job = job_from_dict(raw_job, defaults=defaults, where="job")
    except ReproError as error:
        raise WireError.from_exception(error)
    return job, include_circuit


def parse_batch_payload(
    payload: Mapping[str, object],
    defaults: Mapping[str, object] | None = None,
) -> tuple[list[PreparationJob], bool]:
    """Parse a ``batch`` payload into ``(jobs, include_circuit)``.

    The payload is a batch-spec document (``jobs`` + optional
    ``defaults``) as accepted by :func:`repro.engine.spec.jobs_from_spec`,
    plus the envelope fields and an optional ``include_circuit``.
    """
    _check_version(payload)
    include_circuit = payload.get("include_circuit", False)
    if not isinstance(include_circuit, bool):
        raise WireError(
            "bad_request", "'include_circuit' must be a boolean"
        )
    # Strip only the envelope fields; everything else goes to the
    # spec parser so unknown keys (e.g. a misspelled 'defaults') are
    # rejected exactly as `python -m repro batch` rejects them.
    document = {
        key: value
        for key, value in payload.items()
        if key not in ENVELOPE_FIELDS
    }
    try:
        jobs = jobs_from_spec(document, defaults_override=defaults)
    except ReproError as error:
        raise WireError.from_exception(error)
    return jobs, include_circuit


# ----------------------------------------------------------------------
# Outcome serialisation
# ----------------------------------------------------------------------
def outcome_to_wire(
    outcome: JobOutcome, include_circuit: bool = False
) -> dict:
    """Serialise one engine outcome for the wire.

    Successes carry the full report (every
    :class:`~repro.core.report.SynthesisReport` field), the cache
    flag, the worker wall time, and the per-stage ``stage_timings``
    ledger; with ``include_circuit`` the QDASM text of the circuit
    rides along as a :class:`~repro.circuit.qasm.QdasmLiteral`, its
    JSON string literal written directly: :func:`encode_envelope`
    splices it in, ``str()`` gives the text.  A cache hit's circuit is
    its cache entry's, so its literal is made once and kept with the
    entry for every later hit.  A miss's literal is made for this
    response and not kept, since most never-seen states are never
    asked for again; a circuit relayed from a shard sends the text it
    came in.  Failures carry the mapped error code plus the original
    type and message.
    """
    wire: dict[str, object] = {
        "label": outcome.job.label,
        "dims": list(outcome.job.dims),
        "ok": outcome.ok,
        "key": outcome.key,
    }
    if outcome.ok:
        report = {
            name: getattr(outcome.report, name) for name in _REPORT_FIELDS
        }
        report["dims"] = list(report["dims"])
        wire["report"] = report
        wire["cache_hit"] = outcome.cache_hit
        wire["elapsed"] = outcome.elapsed
        wire["stage_timings"] = outcome.stage_timings_dict()
        # A success relayed from a remote shard may travel without its
        # circuit (cluster mode, fetch_circuits=False); only serialise
        # what we actually hold.
        if include_circuit and outcome.circuit is not None:
            wire["circuit"] = (
                qasm.literal_once(outcome.circuit)
                if outcome.cache_hit else qasm.literal(outcome.circuit)
            )
    else:
        wire["error"] = {
            "code": error_code(outcome.error_type),
            "type": outcome.error_type,
            "message": outcome.message,
        }
    return wire


def outcome_from_wire(
    wire: Mapping[str, object], job: PreparationJob
) -> JobOutcome:
    """Rebuild an engine outcome from its wire form.

    The inverse of :func:`outcome_to_wire`, used by cluster front ends
    to relay a remote shard's answer as a first-class
    :class:`~repro.engine.JobSuccess` / ``JobFailure``.  ``job`` is the
    caller's original job object (the wire carries only its label and
    dims).  Unknown report fields from a newer peer are ignored; a
    missing ``circuit`` key yields ``circuit=None``.  A circuit keeps
    the text it came in as its literal, so relaying it to a client
    writes no QDASM, and escapes the text only if a client asks for
    it.

    Raises:
        WireError: ``bad_response`` when the outcome object is
            structurally unusable.
    """
    ok = wire.get("ok")
    key = wire.get("key")
    if not isinstance(ok, bool) or not (key is None or isinstance(key, str)):
        raise WireError(
            "bad_response", f"malformed wire outcome: {dict(wire)!r}"
        )
    if not ok:
        error = wire.get("error")
        if not isinstance(error, Mapping):
            raise WireError(
                "bad_response", "failure outcome lacks an 'error' object"
            )
        return JobFailure(
            job=job,
            key=key,
            error_type=str(error.get("type", "ReproError")),
            message=str(error.get("message", "")),
            elapsed=float(wire.get("elapsed", 0.0)),
        )
    raw_report = wire.get("report")
    if key is None or not isinstance(raw_report, Mapping):
        raise WireError(
            "bad_response", "success outcome lacks 'key' or 'report'"
        )
    report_fields = {
        name: value for name, value in raw_report.items()
        if name in _REPORT_FIELDS
    }
    try:
        report_fields["dims"] = tuple(report_fields["dims"])
        report = SynthesisReport(**report_fields)
    except (KeyError, TypeError) as error:
        raise WireError(
            "bad_response", f"unusable wire report: {error}"
        )
    circuit_text = wire.get("circuit")
    circuit = None
    if circuit_text is not None:
        try:
            circuit = qasm.loads(str(circuit_text), keep_text=True)
        except ReproError as error:
            raise WireError(
                "bad_response", f"unparseable wire circuit: {error}"
            )
    stage_timings = wire.get("stage_timings") or {}
    if not isinstance(stage_timings, Mapping):
        raise WireError(
            "bad_response", "'stage_timings' must be an object"
        )
    return JobSuccess(
        job=job,
        key=key,
        circuit=circuit,
        report=report,
        cache_hit=bool(wire.get("cache_hit", False)),
        elapsed=float(wire.get("elapsed", 0.0)),
        stage_timings=tuple(
            (str(stage), float(seconds))
            for stage, seconds in stage_timings.items()
        ),
    )


def comparable_wire_outcome(wire: Mapping[str, object]) -> dict:
    """Strip the scheduling-dependent fields from a wire outcome.

    The exact analogue of :func:`repro.engine.comparable_outcome` on
    the serialised form: wall times are zeroed, ``cache_hit`` /
    ``elapsed`` / ``stage_timings`` / ``circuit`` are dropped.  Two
    executions of the same job — over HTTP or in process — are
    equivalent exactly when these forms are equal.
    """
    comparable = {
        key: value
        for key, value in wire.items()
        if key not in {"cache_hit", "elapsed", "stage_timings", "circuit"}
    }
    report = comparable.get("report")
    if isinstance(report, Mapping):
        comparable["report"] = {
            key: (0.0 if key in _TIMING_REPORT_FIELDS else value)
            for key, value in report.items()
        }
    return comparable


#: What :func:`encode_envelope` writes in place of each literal
#: before splicing; its JSON form is searched for in the encoded text.
_SPLICE_MARK = "\x00qdasm\x00"
_SPLICE_TOKEN = json.dumps(_SPLICE_MARK)


def _text_of(value: object) -> str:
    if isinstance(value, qasm.QdasmLiteral):
        return str(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def encode_envelope(envelope: Mapping[str, object]) -> bytes:
    """The response body of ``envelope``: ``json.dumps(envelope)
    .encode()`` with every :class:`~repro.circuit.qasm.QdasmLiteral`
    written as its text.

    The bytes are those of the plain encoding, but a literal is
    spliced in as is, never escaped or encoded again.  Should the
    splice mark also occur elsewhere in the document (a client's id
    may hold anything), the literals are encoded as their text
    instead.
    """
    literals: list[bytes] = []

    def mark(value: object) -> str:
        if isinstance(value, qasm.QdasmLiteral):
            literals.append(value.json)
            return _SPLICE_MARK
        return _text_of(value)

    text = json.dumps(envelope, default=mark)
    if not literals:
        return text.encode()
    parts = text.split(_SPLICE_TOKEN)
    if len(parts) != len(literals) + 1:
        return json.dumps(envelope, default=_text_of).encode()
    chunks = [parts[0].encode()]
    for literal, part in zip(literals, parts[1:]):
        chunks.append(literal)
        chunks.append(part.encode())
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Request execution
# ----------------------------------------------------------------------
def _wire_forms(
    outcomes: Sequence[JobOutcome], include_circuit: bool
) -> list[dict]:
    return [
        outcome_to_wire(outcome, include_circuit=include_circuit)
        for outcome in outcomes
    ]


def _writes_miss_literal(outcome: JobOutcome) -> bool:
    """Whether sending ``outcome``'s circuit writes a literal for this
    response alone: a miss whose circuit keeps none (a relayed circuit
    keeps the text it came in)."""
    return (
        outcome.ok
        and not outcome.cache_hit
        and outcome.circuit is not None
        and not qasm.keeps_literal(outcome.circuit)
    )


async def _encode(
    outcomes: Sequence[JobOutcome], include_circuit: bool
) -> list[dict]:
    """Wire forms of ``outcomes``, under an ``encode`` span of the
    request when it is traced (the circuits' literals are made
    here).

    Writing a literal costs about a microsecond per operation, in
    Python (8.5 ms for 8,656).  A hit's is written once and kept with
    its cache entry; a miss's is written for every response.  When a
    miss's literal is to be written, the forms are made on an executor
    thread, so the event loop goes on answering other connections'
    requests meanwhile instead of holding them until it is done.
    """
    trace = current_trace()
    with (
        trace.span("encode", outcomes=len(outcomes))
        if trace is not None else nullcontext()
    ):
        if include_circuit and any(map(_writes_miss_literal, outcomes)):
            return await asyncio.to_thread(
                _wire_forms, outcomes, include_circuit
            )
        return _wire_forms(outcomes, include_circuit)


async def execute_request(
    service,
    op: str,
    payload: Mapping[str, object],
    defaults: Mapping[str, object] | None = None,
) -> object:
    """Run one ``prepare``, ``batch`` or ``stats`` request against an
    ``AsyncPreparationService``.

    Returns the ``result`` value of the response envelope; raises
    :class:`WireError` for anything refusable.  Per-job failures do
    *not* raise — they come back as failure outcomes inside the
    result, mirroring ``run_batch``.
    """
    if op == "stats":
        # Cluster front ends aggregate fresh stats across the fleet
        # via an async hook; plain services answer synchronously.
        wire_stats = getattr(service, "wire_stats", None)
        if wire_stats is not None:
            try:
                return await wire_stats()
            except ReproError as error:
                raise WireError.from_exception(error)
        return service.stats().to_dict()
    if op == "prepare":
        job, include_circuit = parse_prepare_payload(payload, defaults)
        try:
            outcome = await service.submit(job)
        except ReproError as error:
            raise WireError.from_exception(error)
        (wire,) = await _encode([outcome], include_circuit)
        return wire
    if op == "batch":
        jobs, include_circuit = parse_batch_payload(payload, defaults)
        try:
            batch = await service.run_batch(jobs)
        except ReproError as error:
            raise WireError.from_exception(error)
        return {
            "outcomes": await _encode(batch.outcomes, include_circuit),
            "wall_time": batch.wall_time,
        }
    raise WireError(
        "unknown_op",
        f"unknown operation {op!r}; expected prepare, batch or stats",
    )
