"""Declarative preparation jobs and content-addressed hashing.

A :class:`PreparationJob` describes *what* to prepare — a target state
given either as a named family from :mod:`repro.states` or as raw
amplitudes — together with the :class:`~repro.pipeline.PipelineConfig`
that controls *how* it is synthesised.  Jobs are plain picklable
values: they can be shipped to worker processes, serialised to the
batch-spec JSON format (see :mod:`repro.engine.spec`), and hashed to a
stable content key so identical requests share one cache entry.

The content key is computed from the *resolved* target state, not from
the job description, so ``{"family": "ghz", "dims": [2, 2]}`` and the
equivalent raw-amplitude job address the same cached circuit.  The key
also folds in the full pipeline configuration (every field of
:class:`~repro.pipeline.PipelineConfig`), the layout synthesis emits
(:data:`~repro.core.synthesis.CIRCUIT_FORMAT`) and, when the engine
runs a custom pipeline, that pipeline's signature — so a transpiled
and a plain run of the same state can never alias, and a disk entry
written by an older synthesis is never served.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.synthesis import CIRCUIT_FORMAT
from repro.exceptions import JobSpecError, PipelineConfigError
from repro.pipeline.config import PipelineConfig
from repro.registers.register import QuditRegister
from repro.states import library, random_states
from repro.states.statevector import StateVector

__all__ = [
    "FAMILY_BUILDERS",
    "PreparationJob",
    "SynthesisOptions",
    "content_key",
]

#: Named state families a job may reference.  Every builder takes the
#: register first; remaining keyword arguments come from ``params``.
FAMILY_BUILDERS = {
    "basis": library.basis_state,
    "ghz": library.ghz_state,
    "w": library.w_state,
    "embedded_w": library.embedded_w_state,
    "dicke": library.dicke_state,
    "cyclic": library.cyclic_state,
    "uniform": library.uniform_state,
    "product": library.product_state,
    "random": random_states.random_state,
    "random_sparse": random_states.random_sparse_state,
}

@dataclass(frozen=True)
class SynthesisOptions(PipelineConfig):
    """A :class:`~repro.pipeline.PipelineConfig` with job-spec errors.

    Field-for-field identical to the pipeline config (``min_fidelity``,
    ``tensor_elision``, ``emit_identity_rotations``, ``verify``,
    ``approximation_granularity``, ``transpile``); invalid values
    raise :class:`~repro.exceptions.JobSpecError` so batch-spec
    parsing reports one uniform error type.  ``canonical()`` is the
    inherited content-hash form covering every field.
    """

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except PipelineConfigError as error:
            raise JobSpecError(str(error)) from error

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "SynthesisOptions":
        """Re-wrap any pipeline config as job options."""
        if isinstance(config, cls):
            return config
        return cls(**{
            spec.name: getattr(config, spec.name)
            for spec in fields(PipelineConfig)
        })


def _coerce_amplitudes(
    amplitudes: Sequence[complex] | np.ndarray,
) -> np.ndarray:
    try:
        array = np.asarray(amplitudes, dtype=np.complex128)
    except (TypeError, ValueError) as error:
        raise JobSpecError(
            f"amplitudes are not complex numbers: {error}"
        ) from error
    if array.ndim != 1 or array.size == 0:
        raise JobSpecError(
            f"amplitudes must be a non-empty 1-D sequence, "
            f"got shape {array.shape}"
        )
    array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class PreparationJob:
    """One unit of work for the :class:`~repro.engine.PreparationEngine`.

    Exactly one state source must be given: a ``family`` name from
    :data:`FAMILY_BUILDERS` (with builder keyword arguments in
    ``params``) or a raw ``amplitudes`` vector.

    Attributes:
        dims: Qudit dimensions of the target register.
        family: Named state family, or ``None`` for raw amplitudes.
        params: Keyword arguments for the family builder.
        amplitudes: Raw target amplitudes (normalised on resolution).
        options: Pipeline configuration for this job; a plain
            :class:`~repro.pipeline.PipelineConfig` is accepted and
            re-validated as :class:`SynthesisOptions`.
        label: Free-form display name (defaults to a generated one).
    """

    dims: tuple[int, ...]
    family: str | None = None
    params: Mapping[str, object] = field(default_factory=dict)
    amplitudes: np.ndarray | None = None
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    label: str | None = None

    def __post_init__(self) -> None:
        try:
            register = QuditRegister(self.dims)
        except Exception as error:
            raise JobSpecError(f"invalid dims {self.dims!r}: {error}") from error
        object.__setattr__(self, "dims", register.dims)
        if not isinstance(self.options, SynthesisOptions):
            if not isinstance(self.options, PipelineConfig):
                raise JobSpecError(
                    f"options must be a PipelineConfig, "
                    f"got {self.options!r}"
                )
            object.__setattr__(
                self, "options", SynthesisOptions.from_config(self.options)
            )
        if (self.family is None) == (self.amplitudes is None):
            raise JobSpecError(
                "exactly one of 'family' and 'amplitudes' must be given"
            )
        if self.family is not None and self.family not in FAMILY_BUILDERS:
            raise JobSpecError(
                f"unknown state family {self.family!r}; expected one of "
                f"{sorted(FAMILY_BUILDERS)}"
            )
        if self.amplitudes is not None:
            object.__setattr__(
                self, "amplitudes", _coerce_amplitudes(self.amplitudes)
            )
        object.__setattr__(self, "params", dict(self.params))
        if self.label is None:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        dims_text = "x".join(str(d) for d in self.dims)
        source = self.family if self.family is not None else "amplitudes"
        return f"{source}-{dims_text}"

    def resolve_state(self) -> StateVector:
        """Build and normalise the target state this job describes.

        Raises:
            ReproError: Whatever the family builder or
                :class:`StateVector` raises for inconsistent inputs
                (wrong amplitude count, impossible family parameters,
                the zero vector, ...).  The engine captures these as
                :class:`~repro.engine.JobFailure` results.
        """
        if self.family is not None:
            builder = FAMILY_BUILDERS[self.family]
            state = builder(self.dims, **self.params)
        else:
            state = StateVector(self.amplitudes, self.dims)
        return state.normalized()

    def describe(self) -> dict[str, object]:
        """Flatten to a JSON-compatible description (for logs/CLI)."""
        description: dict[str, object] = {
            "label": self.label,
            "dims": list(self.dims),
        }
        if self.family is not None:
            description["family"] = self.family
            if self.params:
                description["params"] = dict(self.params)
        else:
            description["amplitudes"] = [
                [float(a.real), float(a.imag)] for a in self.amplitudes
            ]
        defaults = SynthesisOptions()
        for spec in fields(SynthesisOptions):
            value = getattr(self.options, spec.name)
            if value != getattr(defaults, spec.name):
                description[spec.name] = value
        return description


def content_key(
    state: StateVector,
    options: PipelineConfig,
    pipeline_signature: str | None = None,
) -> str:
    """Stable content hash of a resolved target state plus config.

    Two jobs share a key exactly when they request the same normalised
    amplitudes over the same register with the same full pipeline
    configuration — regardless of how the state was described (family
    vs. raw amplitudes).  Every config field participates (via
    ``canonical()``), so e.g. a transpiled and a plain run never
    alias.  The synthesis output layout
    (:data:`~repro.core.synthesis.CIRCUIT_FORMAT`) participates too, so
    entries cached before a layout change miss.  An engine running a
    custom pipeline passes that pipeline's ``signature()`` so its
    entries stay distinct from the default pipeline's.  The key is a
    hex SHA-256 digest, safe as a filename for the on-disk cache.
    """
    digest = hashlib.sha256()
    digest.update(",".join(str(d) for d in state.dims).encode())
    digest.update(b"|")
    digest.update(np.ascontiguousarray(state.amplitudes).tobytes())
    digest.update(b"|")
    digest.update(options.canonical().encode())
    digest.update(b"|format=")
    digest.update(CIRCUIT_FORMAT.encode())
    if pipeline_signature is not None:
        digest.update(b"|pipeline=")
        digest.update(pipeline_signature.encode())
    return digest.hexdigest()
