"""The frozen :class:`PipelineConfig` and its JSON form.

One value object replaces the keyword sprawl that used to travel from
the CLI through batch specs, jobs, the engine, and the service down to
:func:`repro.prepare_state`.  The config is hashable, picklable, and
round-trips losslessly through JSON (``to_json`` / ``from_json``), so
it can live in batch-spec documents, ``--pipeline`` files, and cache
content keys alike.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.exceptions import PipelineConfigError

__all__ = ["APPROXIMATION_GRANULARITIES", "TRANSPILE_MODES", "PipelineConfig"]

#: Legal values of :attr:`PipelineConfig.approximation_granularity`.
APPROXIMATION_GRANULARITIES = ("nodes", "amplitudes")

#: Legal values of :attr:`PipelineConfig.transpile` (besides ``None``):
#: ``"peephole"`` only cleans the circuit (identity removal, adjacent
#: rotation fusion); ``"two_qudit"`` additionally lowers every
#: multi-controlled rotation to two-qudit gates via the ancilla
#: counter of :mod:`repro.transpile.counter`.
TRANSPILE_MODES = ("peephole", "two_qudit")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that controls one preparation-pipeline run.

    Attributes:
        min_fidelity: Fidelity floor for DD approximation; 1.0 keeps
            the synthesis exact.
        tensor_elision: Apply the tensor-product control-elision rule.
        emit_identity_rotations: Emit zero-angle rotations (paper
            convention).
        verify: Simulate the circuit and record the achieved fidelity.
        approximation_granularity: ``"nodes"`` or ``"amplitudes"``.
        transpile: ``None`` (emit multi-controlled rotations as the
            paper counts them), ``"peephole"``, or ``"two_qudit"``.

    Raises:
        PipelineConfigError: On any out-of-range or mistyped value.
    """

    min_fidelity: float = 1.0
    tensor_elision: bool = True
    emit_identity_rotations: bool = True
    verify: bool = True
    approximation_granularity: str = "nodes"
    transpile: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.min_fidelity, bool) or not isinstance(
            self.min_fidelity, (int, float)
        ):
            raise PipelineConfigError(
                f"min_fidelity must be a number, "
                f"got {self.min_fidelity!r}"
            )
        object.__setattr__(self, "min_fidelity", float(self.min_fidelity))
        for flag in ("tensor_elision", "emit_identity_rotations", "verify"):
            if not isinstance(getattr(self, flag), bool):
                raise PipelineConfigError(
                    f"{flag} must be a boolean, "
                    f"got {getattr(self, flag)!r}"
                )
        if not 0.0 < self.min_fidelity <= 1.0:
            raise PipelineConfigError(
                f"min_fidelity must be in (0, 1], got {self.min_fidelity}"
            )
        if self.approximation_granularity not in APPROXIMATION_GRANULARITIES:
            raise PipelineConfigError(
                "approximation_granularity must be one of "
                f"{APPROXIMATION_GRANULARITIES}, got "
                f"{self.approximation_granularity!r}"
            )
        if self.transpile is not None and self.transpile not in TRANSPILE_MODES:
            raise PipelineConfigError(
                f"transpile must be null or one of {TRANSPILE_MODES}, "
                f"got {self.transpile!r}"
            )

    # ------------------------------------------------------------------
    # Hashing / derived forms
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Stable textual form used for content hashing.

        Every field participates, so two configs differing in *any*
        knob — including ``transpile`` — never share a cache key.
        """
        parts = [
            f"{spec.name}={getattr(self, spec.name)!r}"
            for spec in fields(PipelineConfig)
        ]
        return ";".join(parts)

    def updated(self, **changes) -> "PipelineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Flatten to a JSON-compatible dict (all fields, all values)."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(PipelineConfig)
        }

    @classmethod
    def from_dict(
        cls, raw: Mapping[str, object], where: str = "pipeline config"
    ) -> "PipelineConfig":
        """Build a config from its dict form.

        Raises:
            PipelineConfigError: On unknown fields or invalid values.
        """
        if not isinstance(raw, Mapping):
            raise PipelineConfigError(
                f"{where}: expected an object, got {raw!r}"
            )
        known = {spec.name for spec in fields(PipelineConfig)}
        unknown = set(raw) - known
        if unknown:
            raise PipelineConfigError(
                f"{where}: unknown fields {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        try:
            return cls(**raw)
        except PipelineConfigError as error:
            raise PipelineConfigError(f"{where}: {error}") from error

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a JSON object string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(
        cls, text: str, where: str = "pipeline config"
    ) -> "PipelineConfig":
        """Parse a JSON object string into a config.

        Raises:
            PipelineConfigError: If ``text`` is not valid JSON or
                describes an invalid config.
        """
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise PipelineConfigError(
                f"{where} is not valid JSON: {error}"
            ) from error
        return cls.from_dict(document, where=where)

    @staticmethod
    def _read_document(path: str | os.PathLike) -> tuple[object, str]:
        path = Path(path)
        where = f"pipeline config {path}"
        try:
            text = path.read_text()
        except OSError as error:
            raise PipelineConfigError(
                f"cannot read pipeline config {path}: {error}"
            ) from error
        try:
            return json.loads(text), where
        except json.JSONDecodeError as error:
            raise PipelineConfigError(
                f"{where} is not valid JSON: {error}"
            ) from error

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PipelineConfig":
        """Read and parse a pipeline-config JSON file.

        Raises:
            PipelineConfigError: If the file is unreadable, not valid
                JSON, or describes an invalid config.
        """
        document, where = cls._read_document(path)
        return cls.from_dict(document, where=where)

    @classmethod
    def load_overrides(
        cls, path: str | os.PathLike
    ) -> dict[str, object]:
        """Read a config file, returning only the fields it names.

        The document is validated in full (unknown fields and invalid
        values raise), but fields the file does not mention are *not*
        filled in with defaults — so the result can be layered over
        other defaults (a batch spec's ``"defaults"``) without
        silently resetting the fields the file left alone.

        Raises:
            PipelineConfigError: Same conditions as :meth:`load`.
        """
        document, where = cls._read_document(path)
        config = cls.from_dict(document, where=where)
        return {name: getattr(config, name) for name in document}
