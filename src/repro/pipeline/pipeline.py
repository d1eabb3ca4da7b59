"""The pass runner and the default preparation pipeline.

:class:`Pipeline` executes a sequence of :class:`~repro.pipeline.Pass`
objects over one :class:`~repro.pipeline.PipelineContext`, timing each
stage into the context's ledger.  :func:`default_pipeline` builds the
paper's Figure 2 flow for a given :class:`PipelineConfig`;
:func:`finalize` condenses a finished context into the classic
:class:`~repro.core.preparation.PreparationResult` with its Table 1
:class:`~repro.core.report.SynthesisReport`.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.circuit.stats import control_summary
from repro.core.preparation import PreparationResult
from repro.core.report import SynthesisReport
from repro.dd import metrics
from repro.exceptions import PipelineError
from repro.obs.tracing import current_trace
from repro.pipeline.config import PipelineConfig
from repro.pipeline.context import PipelineContext
from repro.pipeline.passes import (
    ApproximatePass,
    BuildPass,
    CoercePass,
    Pass,
    SynthesisPass,
    TranspilePass,
    VerifyPass,
)
from repro.registers.register import RegisterLike
from repro.states.statevector import StateVector

__all__ = [
    "Pipeline",
    "default_passes",
    "default_pipeline",
    "finalize",
    "run_pipeline",
]


class Pipeline:
    """An ordered sequence of passes with per-stage timing.

    Args:
        passes: The stages, executed in order.  Each must expose a
            ``name`` string and a ``run(context) -> context`` method.

    Raises:
        PipelineError: If ``passes`` is empty or contains an object
            without the :class:`Pass` surface.
    """

    def __init__(self, passes: Iterable[Pass]):
        self.passes = tuple(passes)
        if not self.passes:
            raise PipelineError("a pipeline needs at least one pass")
        for stage in self.passes:
            if not callable(getattr(stage, "run", None)) or not isinstance(
                getattr(stage, "name", None), str
            ):
                raise PipelineError(
                    f"{stage!r} does not implement the Pass protocol "
                    "(a 'name' string and a run(context) method)"
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        state: StateVector | Sequence[complex] | np.ndarray,
        dims: RegisterLike | None = None,
        config: PipelineConfig | None = None,
    ) -> PipelineContext:
        """Run all passes over a fresh context and return it."""
        context = PipelineContext(
            config=config if config is not None else PipelineConfig(),
            state=state,
            dims=dims,
        )
        return self.run_context(context)

    def run_context(self, context: PipelineContext) -> PipelineContext:
        """Run all passes over an existing context (timing each).

        Lets callers resume mid-flight contexts — e.g. re-running just
        the approximation stage per threshold on one built diagram.

        When the calling context carries a request trace (the engine
        establishes one per traced job), every pass is also recorded
        as a ``stage:<name>`` span, so one slow request shows its
        pipeline breakdown in the span tree.
        """
        trace = current_trace()
        for stage in self.passes:
            start = time.perf_counter()
            result = stage.run(context)
            elapsed = time.perf_counter() - start
            if not isinstance(result, PipelineContext):
                raise PipelineError(
                    f"pass {stage.name!r} returned {type(result).__name__}, "
                    "expected the PipelineContext"
                )
            context = result
            context.record(stage.name, elapsed)
            if trace is not None:
                trace.add_span(
                    f"stage:{stage.name}",
                    start=trace.offset(start),
                    duration=elapsed,
                )
        return context

    def prepare(
        self,
        state: StateVector | Sequence[complex] | np.ndarray,
        dims: RegisterLike | None = None,
        config: PipelineConfig | None = None,
    ) -> PreparationResult:
        """Run the pipeline and condense it into a result + report.

        Raises:
            PipelineError: If ``config`` requests transpilation but no
                pass named ``"transpile"`` is in this pipeline — a
                silently un-transpiled result would be mislabelled in
                the cache.  (The lower-level :meth:`run` /
                :meth:`run_context` stay unguarded for deliberately
                partial stage runs.)
        """
        config = config if config is not None else PipelineConfig()
        if config.transpile is not None and not any(
            stage.name == "transpile" for stage in self.passes
        ):
            raise PipelineError(
                f"config requests transpile={config.transpile!r} but "
                "this pipeline has no 'transpile' pass; add a "
                "TranspilePass (or use default_pipeline(config))"
            )
        return finalize(self.run(state, dims=dims, config=config))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def with_pass(
        self,
        new_pass: Pass,
        *,
        before: str | None = None,
        after: str | None = None,
    ) -> "Pipeline":
        """A new pipeline with ``new_pass`` inserted.

        Exactly one of ``before`` / ``after`` names the anchor stage;
        with neither, the pass is appended.

        Raises:
            PipelineError: If both anchors are given or the anchor
                name is not in this pipeline.
        """
        if before is not None and after is not None:
            raise PipelineError(
                "give at most one of 'before' and 'after'"
            )
        anchor = before if before is not None else after
        if anchor is None:
            return Pipeline(self.passes + (new_pass,))
        names = [stage.name for stage in self.passes]
        if anchor not in names:
            raise PipelineError(
                f"no pass named {anchor!r} in this pipeline; "
                f"have {names}"
            )
        position = names.index(anchor) + (0 if before is not None else 1)
        return Pipeline(
            self.passes[:position] + (new_pass,) + self.passes[position:]
        )

    def without_pass(self, name: str) -> "Pipeline":
        """A new pipeline with every pass named ``name`` removed."""
        remaining = tuple(
            stage for stage in self.passes if stage.name != name
        )
        if len(remaining) == len(self.passes):
            raise PipelineError(
                f"no pass named {name!r} in this pipeline"
            )
        return Pipeline(remaining)

    def signature(self) -> str:
        """Stable identity of this pass sequence (for cache keys)."""
        return "->".join(stage.signature() for stage in self.passes)

    def __repr__(self) -> str:
        return f"Pipeline([{', '.join(p.name for p in self.passes)}])"


def default_passes(config: PipelineConfig) -> tuple[Pass, ...]:
    """The Figure 2 stage sequence for ``config``.

    ``TranspilePass`` joins only when ``config.transpile`` asks for
    it, keeping the default exact flow identical to the historical
    ``prepare_state`` monolith.
    """
    passes: list[Pass] = [
        CoercePass(),
        BuildPass(),
        ApproximatePass(),
        SynthesisPass(),
    ]
    if config.transpile is not None:
        passes.append(TranspilePass())
    passes.append(VerifyPass())
    return tuple(passes)


def default_pipeline(config: PipelineConfig | None = None) -> Pipeline:
    """The standard preparation pipeline for ``config``."""
    return Pipeline(
        default_passes(config if config is not None else PipelineConfig())
    )


def finalize(context: PipelineContext) -> PreparationResult:
    """Condense a finished context into a :class:`PreparationResult`.

    The report mirrors the historical ``prepare_state`` exactly:
    ``synthesis_time`` covers the approximation plus synthesis stages
    (the paper's "Time" column), ``build_time`` and ``verify_time``
    the construction and verification stages; circuit metrics are
    taken from the final circuit (the transpiled one, when a
    ``TranspilePass`` ran), and diagram metrics from the
    :class:`~repro.dd.diagram.DiagramStats` the diagrams carry, so
    nothing here walks a diagram.

    Raises:
        PipelineError: If the context is missing the target, diagram,
            or circuit (i.e. the core stages did not run).
    """
    if (
        context.target is None
        or context.diagram is None
        or context.exact_diagram is None
        or context.circuit is None
    ):
        raise PipelineError(
            "cannot finalize an incomplete pipeline context; the "
            "coerce, build, and synthesize stages must have run"
        )
    median_controls, mean_controls = control_summary(
        context.circuit.control_counts()
    )
    stats = context.diagram.stats
    report = SynthesisReport(
        dims=context.target.dims,
        tree_nodes=metrics.decomposition_tree_size(context.target.dims),
        visited_nodes=stats.visited_nodes,
        dag_nodes=stats.num_nodes,
        distinct_complex=stats.distinct_complex,
        operations=context.circuit.num_operations,
        median_controls=median_controls,
        mean_controls=mean_controls,
        synthesis_time=(
            context.stage_seconds("approximate")
            + context.stage_seconds("synthesize")
            + context.stage_seconds("transpile")
        ),
        fidelity=context.fidelity,
        approximation_fidelity=(
            context.approximation.fidelity
            if context.approximation is not None
            else 1.0
        ),
        build_time=context.stage_seconds("build"),
        verify_time=(
            context.stage_seconds("verify")
            if context.fidelity is not None
            else 0.0
        ),
        dd_nodes=context.exact_diagram.stats.num_nodes,
    )
    return PreparationResult(
        circuit=context.circuit,
        diagram=context.diagram,
        exact_diagram=context.exact_diagram,
        approximation=context.approximation,
        report=report,
        timings=tuple(context.timings),
    )


def run_pipeline(
    state: StateVector | Sequence[complex] | np.ndarray,
    dims: RegisterLike | None = None,
    config: PipelineConfig | None = None,
    pipeline: Pipeline | None = None,
) -> PreparationResult:
    """One-call front door: run ``pipeline`` (default when ``None``).

    This is what :func:`repro.prepare_state` and the engine's workers
    delegate to.
    """
    config = config if config is not None else PipelineConfig()
    if pipeline is None:
        pipeline = default_pipeline(config)
    return pipeline.prepare(state, dims=dims, config=config)
