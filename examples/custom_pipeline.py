#!/usr/bin/env python3
"""Inserting a user-defined pass into the preparation pipeline.

The pipeline of :mod:`repro.pipeline` is an open sequence of passes:
anything with a ``name`` and a ``run(context) -> context`` method can
join the flow.  This example defines two custom passes —

* ``RotationFusionPass``: a gate-fusion stage that merges adjacent
  same-axis rotations and drops the identities the paper-faithful
  synthesis emits (semantics-preserving, so verification still sees
  fidelity 1), and
* ``StageLoggingPass``: a read-only stage that snapshots diagram and
  circuit statistics into ``context.extras`` —

then runs the extended pipeline both directly and through a
:class:`repro.PreparationEngine`, where the custom pipeline's
signature keeps its cache entries separate from default-pipeline runs.

Run:  python examples/custom_pipeline.py
"""

from repro import (
    Pass,
    Pipeline,
    PipelineConfig,
    PreparationEngine,
    PreparationJob,
    default_pipeline,
)
from repro.transpile.passes import peephole_optimize

DIMS = (3, 6, 2)


class RotationFusionPass(Pass):
    """Fuse adjacent rotations and drop identity gates."""

    name = "fuse"

    def run(self, context):
        before = context.circuit.num_operations
        context.circuit = peephole_optimize(context.circuit)
        context.extras["fused_away"] = (
            before - context.circuit.num_operations
        )
        return context


class StageLoggingPass(Pass):
    """Snapshot diagram/circuit statistics into the context extras."""

    name = "log-stats"

    def run(self, context):
        context.extras["logged"] = {
            "dag_nodes": context.diagram.stats.num_nodes,
            "operations": context.circuit.num_operations,
        }
        return context


def build_pipeline() -> Pipeline:
    """Default flow + fusion right after synthesis, logging after it."""
    return (
        default_pipeline()
        .with_pass(RotationFusionPass(), after="synthesize")
        .with_pass(StageLoggingPass(), before="verify")
    )


def main() -> None:
    pipeline = build_pipeline()
    print("pipeline:", " -> ".join(p.name for p in pipeline.passes))

    # Library-level: run the pipeline directly on one state.
    from repro import ghz_state

    context = pipeline.run(ghz_state(DIMS), config=PipelineConfig())
    print(
        f"direct run: fused away {context.extras['fused_away']} "
        f"identity/adjacent rotations, "
        f"{context.extras['logged']['operations']} remain, "
        f"fidelity {context.fidelity:.10f}"
    )
    assert context.fidelity > 1.0 - 1e-9

    # Engine-level: the same pipeline behind batching and caching.
    engine = PreparationEngine(pipeline=pipeline)
    jobs = [
        PreparationJob(dims=DIMS, family="ghz"),
        PreparationJob(dims=DIMS, family="w"),
        PreparationJob(dims=DIMS, family="ghz"),  # dedup -> cache hit
    ]
    batch = engine.run_batch(jobs).raise_on_failure()
    for outcome in batch.outcomes:
        stages = ", ".join(
            f"{stage}={seconds * 1e3:.2f}ms"
            for stage, seconds in outcome.stage_timings
        ) or "cache hit"
        print(f"{outcome.job.label}: {outcome.report.operations} ops "
              f"({stages})")
    assert batch.outcomes[2].cache_hit
    fused = batch.outcomes[0].report.operations
    plain = PreparationEngine().submit(jobs[0]).report.operations
    print(f"fusion pass saved {plain - fused} of {plain} operations")
    assert fused < plain
    print("OK: custom passes ran through the engine with per-stage "
          "timings.")


if __name__ == "__main__":
    main()
