"""Structured per-job and per-batch results of the engine.

A batch never raises for an individual job: each submitted
:class:`~repro.engine.PreparationJob` yields either a
:class:`JobSuccess` carrying the synthesised circuit and its
:class:`~repro.core.report.SynthesisReport`, or a :class:`JobFailure`
recording what went wrong.  Results come back in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from repro.circuit.circuit import Circuit
from repro.core.report import SynthesisReport
from repro.engine.jobs import PreparationJob
from repro.pipeline.context import aggregate_timings

__all__ = [
    "BatchResult",
    "JobFailure",
    "JobOutcome",
    "JobSuccess",
    "comparable_outcome",
    "comparable_report",
]


@dataclass(frozen=True)
class JobSuccess:
    """A synthesised preparation circuit plus its Table 1 metrics.

    Attributes:
        job: The job that produced this result.
        key: Content key of (target state, options) — the cache
            address of this circuit.
        circuit: The preparation circuit.  ``None`` only for outcomes
            relayed from a remote cluster shard without circuit
            transfer (``fetch_circuits=False``).
        report: Metrics of the synthesis run.  For cache hits this is
            the report recorded when the entry was first computed.
        cache_hit: Whether the circuit came from the cache.
        elapsed: Wall time spent on this job in the worker (seconds);
            effectively zero for cache hits.
        stage_timings: Per-stage ``(stage, seconds)`` pairs of the
            pipeline run, in execution order; empty for cache hits
            (no stages ran).
    """

    job: PreparationJob
    key: str
    circuit: Circuit | None
    report: SynthesisReport
    cache_hit: bool = False
    elapsed: float = 0.0
    stage_timings: tuple[tuple[str, float], ...] = ()

    def stage_timings_dict(self) -> dict[str, float]:
        """Stage ledger as ``{stage: seconds}`` (summing repeats)."""
        return aggregate_timings(self.stage_timings)

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class JobFailure:
    """A captured per-job error; never propagates out of a batch.

    Attributes:
        job: The job that failed.
        key: Content key when the target state could be resolved,
            ``None`` when resolution itself failed.
        error_type: Exception class name (e.g. ``"DimensionError"``).
        message: Stringified exception message.
        elapsed: Wall time spent before the failure (seconds).
    """

    job: PreparationJob
    key: str | None
    error_type: str
    message: str
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return False


JobOutcome = Union[JobSuccess, JobFailure]


def comparable_report(report: SynthesisReport) -> SynthesisReport:
    """Return the report with execution-dependent columns zeroed.

    Synthesis metrics are deterministic; wall times (build, synthesis,
    verify) are not.  ``dd_nodes`` is zeroed with them as build-stage
    accounting rather than a synthesis result.  Serial and parallel
    executions of the same batch therefore agree exactly on
    ``comparable_report`` form, which is what the equality tests and
    benchmarks compare.
    """
    return replace(
        report,
        synthesis_time=0.0,
        build_time=0.0,
        verify_time=0.0,
        dd_nodes=0,
    )


def comparable_outcome(outcome: JobOutcome) -> JobOutcome:
    """Return the outcome stripped of scheduling-dependent fields.

    Wall times and the ``cache_hit`` flag depend on *when* a job ran
    (backend, batch boundaries, arrival order), not on *what* it
    computed.  Two executions of the same job — serial batch, process
    pool, or the async serving layer — are equivalent exactly when
    their ``comparable_outcome`` forms are equal: same job, key,
    circuit, and ``comparable_report``, or the same failure.
    """
    if outcome.ok:
        return replace(
            outcome,
            report=comparable_report(outcome.report),
            cache_hit=False,
            elapsed=0.0,
            stage_timings=(),
        )
    return replace(outcome, elapsed=0.0)


@dataclass(frozen=True)
class BatchResult:
    """All outcomes of one ``run_batch`` call, in submission order."""

    outcomes: tuple[JobOutcome, ...]
    wall_time: float

    @property
    def successes(self) -> tuple[JobSuccess, ...]:
        return tuple(o for o in self.outcomes if o.ok)

    @property
    def failures(self) -> tuple[JobFailure, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def reports(self) -> tuple[SynthesisReport, ...]:
        """Reports of the successful jobs, in submission order."""
        return tuple(o.report for o in self.outcomes if o.ok)

    @property
    def num_cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and o.cache_hit)

    def __len__(self) -> int:
        return len(self.outcomes)

    def raise_on_failure(self) -> "BatchResult":
        """Raise ``EngineError`` if any job failed; else return self."""
        from repro.exceptions import EngineError

        if self.failures:
            first = self.failures[0]
            raise EngineError(
                f"{len(self.failures)} of {len(self)} jobs failed; "
                f"first: {first.job.label}: "
                f"{first.error_type}: {first.message}"
            )
        return self
