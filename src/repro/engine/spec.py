"""The batch-spec JSON format and its parser.

A batch spec is a JSON document describing a list of preparation jobs
plus optional shared defaults (see ``docs/engine.md`` for the full
format reference)::

    {
      "defaults": {"min_fidelity": 1.0, "verify": true},
      "jobs": [
        {"family": "ghz", "dims": [3, 6, 2]},
        {"family": "random", "dims": [3, 3], "params": {"rng": 7}},
        {"amplitudes": [1, 0, 0, [0.0, 1.0]], "dims": [2, 2],
         "label": "bell-y"}
      ]
    }

Job fields:

* ``dims`` (required) — list of qudit dimensions, most significant
  first,
* exactly one of ``family`` (a name from
  :data:`~repro.engine.jobs.FAMILY_BUILDERS`, with builder keyword
  arguments in ``params``) or ``amplitudes`` (numbers, ``[re, im]``
  pairs, or strings such as ``"1+2j"``),
* ``label`` — optional display name,
* any :class:`~repro.engine.jobs.SynthesisOptions` field
  (``min_fidelity``, ``tensor_elision``, ``emit_identity_rotations``,
  ``verify``, ``approximation_granularity``, ``transpile``),
  overriding the document-level ``defaults``.

A :class:`~repro.pipeline.PipelineConfig` can be layered on top of a
spec via ``defaults_override`` (the CLI's ``--pipeline config.json``):
its entries are merged over the document-level ``defaults`` field-wise
(unnamed fields keep the spec's values), while per-job fields still
win.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path

from repro.engine.jobs import PreparationJob, SynthesisOptions
from repro.exceptions import JobSpecError

__all__ = ["job_from_dict", "jobs_from_spec", "load_batch_spec"]

_OPTION_FIELDS = frozenset(
    spec.name for spec in fields(SynthesisOptions)
)
_JOB_FIELDS = frozenset(
    {"dims", "family", "params", "amplitudes", "label"}
) | _OPTION_FIELDS


def _parse_amplitude(value: object, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value)
        except ValueError as error:
            raise JobSpecError(
                f"{where}: bad amplitude string {value!r}"
            ) from error
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(part, (int, float)) for part in value)
    ):
        return complex(value[0], value[1])
    raise JobSpecError(
        f"{where}: amplitudes must be numbers, [re, im] pairs, or "
        f"complex strings, got {value!r}"
    )


def job_from_dict(
    raw: Mapping[str, object],
    defaults: Mapping[str, object] | None = None,
    where: str = "job",
) -> PreparationJob:
    """Build one job from its JSON-dict form.

    Args:
        raw: The job dictionary.
        defaults: Option values applied where the job has none.
        where: Context string prefixed to error messages.

    Raises:
        JobSpecError: On unknown fields, missing ``dims``, or any
            invalid value.
    """
    if not isinstance(raw, Mapping):
        raise JobSpecError(f"{where}: expected an object, got {raw!r}")
    unknown = set(raw) - _JOB_FIELDS
    if unknown:
        raise JobSpecError(
            f"{where}: unknown fields {sorted(unknown)}; "
            f"allowed: {sorted(_JOB_FIELDS)}"
        )
    if "dims" not in raw:
        raise JobSpecError(f"{where}: missing required field 'dims'")

    merged_options: dict[str, object] = dict(defaults or {})
    merged_options.update(
        {name: raw[name] for name in _OPTION_FIELDS if name in raw}
    )
    try:
        options = SynthesisOptions(**merged_options)
    except JobSpecError as error:
        raise JobSpecError(f"{where}: {error}") from error

    amplitudes = raw.get("amplitudes")
    if amplitudes is not None:
        if not isinstance(amplitudes, (list, tuple)):
            raise JobSpecError(
                f"{where}: 'amplitudes' must be a list"
            )
        amplitudes = [
            _parse_amplitude(value, where) for value in amplitudes
        ]
    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        raise JobSpecError(f"{where}: 'params' must be an object")
    try:
        dims = tuple(int(d) for d in raw["dims"])
    except (TypeError, ValueError) as error:
        raise JobSpecError(
            f"{where}: 'dims' must be a list of integers, "
            f"got {raw['dims']!r}"
        ) from error
    try:
        return PreparationJob(
            dims=dims,
            family=raw.get("family"),
            params=params,
            amplitudes=amplitudes,
            options=options,
            label=raw.get("label"),
        )
    except JobSpecError as error:
        raise JobSpecError(f"{where}: {error}") from error


def jobs_from_spec(
    document: Mapping[str, object],
    defaults_override: Mapping[str, object] | None = None,
) -> list[PreparationJob]:
    """Parse a whole batch-spec document into jobs.

    Args:
        document: The batch-spec JSON document.
        defaults_override: Option values layered over the document's
            ``defaults`` (typically a ``PipelineConfig.to_dict()``
            from the CLI's ``--pipeline`` flag); per-job fields still
            take precedence.

    Raises:
        JobSpecError: On structural problems or any invalid job.
    """
    if not isinstance(document, Mapping):
        raise JobSpecError(
            f"batch spec must be a JSON object, got {document!r}"
        )
    unknown = set(document) - {"jobs", "defaults"}
    if unknown:
        raise JobSpecError(
            f"batch spec: unknown top-level fields {sorted(unknown)}"
        )
    raw_jobs = document.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise JobSpecError(
            "batch spec needs a non-empty 'jobs' list"
        )
    defaults = document.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise JobSpecError("batch spec: 'defaults' must be an object")
    bad_defaults = set(defaults) - _OPTION_FIELDS
    if bad_defaults:
        raise JobSpecError(
            f"batch spec: 'defaults' only takes synthesis options, "
            f"got {sorted(bad_defaults)}; "
            f"allowed: {sorted(_OPTION_FIELDS)}"
        )
    if defaults_override:
        bad_override = set(defaults_override) - _OPTION_FIELDS
        if bad_override:
            raise JobSpecError(
                f"defaults override only takes synthesis options, "
                f"got {sorted(bad_override)}; "
                f"allowed: {sorted(_OPTION_FIELDS)}"
            )
        defaults = {**defaults, **defaults_override}
    return [
        job_from_dict(raw, defaults=defaults, where=f"jobs[{position}]")
        for position, raw in enumerate(raw_jobs)
    ]


def load_batch_spec(
    path: str | os.PathLike,
    defaults_override: Mapping[str, object] | None = None,
) -> list[PreparationJob]:
    """Read and parse a batch-spec JSON file.

    Args:
        path: The spec file.
        defaults_override: See :func:`jobs_from_spec`.

    Raises:
        JobSpecError: If the file is unreadable, not valid JSON, or
            describes invalid jobs.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise JobSpecError(
            f"cannot read batch spec {path}: {error}"
        ) from error
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise JobSpecError(
            f"batch spec {path} is not valid JSON: {error}"
        ) from error
    return jobs_from_spec(document, defaults_override=defaults_override)
