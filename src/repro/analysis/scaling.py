"""Scaling and trade-off sweeps (Section 5 claims, E7/E8 in DESIGN.md).

Two experiment drivers used by the benchmark suite and the examples:

* :func:`synthesis_scaling` — measures synthesis time against the
  path-expanded DD size on growing random registers, supporting the
  paper's claim that "the synthesis routine has time complexity linear
  in the number of nodes of the DD".
* :func:`approximation_tradeoff` — sweeps the fidelity threshold and
  records diagram size, operation count, and achieved fidelity,
  quantifying the "finely controlled trade-off between accuracy,
  memory complexity and number of operations" of the abstract.

Both report ``operations`` as
:func:`~repro.dd.metrics.synthesis_operation_count`: the rotations the
synthesis emits without the tensor-product rule, as Table 1 counts
them.  The default pipeline (``tensor_elision=True``) may emit fewer.

Both drivers are built from the pipeline passes of
:mod:`repro.pipeline` rather than re-chaining the stages by hand: the
front half (coerce + build) runs once per state, and the stage under
measurement (synthesis, approximation) is re-run on cloned contexts,
with its wall time read off the context's own stage-timing ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dd.metrics import synthesis_operation_count
from repro.pipeline import (
    ApproximatePass,
    BuildPass,
    CoercePass,
    Pipeline,
    PipelineConfig,
    SynthesisPass,
)
from repro.states.random_states import random_state

__all__ = [
    "ScalingPoint",
    "TradeoffPoint",
    "approximation_tradeoff",
    "synthesis_scaling",
]

#: Register ladder used by the scaling experiment: mixed dimensions,
#: roughly doubling composite size per step.
SCALING_DIMS: list[tuple[int, ...]] = [
    (2, 3),
    (3, 2, 2),
    (3, 3, 2, 2),
    (4, 3, 3, 2),
    (3, 4, 3, 2, 2),
    (4, 3, 4, 3, 2),
    (5, 4, 3, 4, 3),
    (4, 5, 4, 3, 3, 2),
]

#: The front half of the pipeline shared by both experiments: state
#: in, exact decision diagram out.
_FRONT = Pipeline([CoercePass(), BuildPass()])


@dataclass(frozen=True)
class ScalingPoint:
    """One measurement of the linear-complexity experiment.

    ``operations`` counts the rotations without the tensor-product
    rule (:func:`~repro.dd.metrics.synthesis_operation_count`).
    """

    dims: tuple[int, ...]
    visited_nodes: int
    operations: int
    synthesis_seconds: float


def synthesis_scaling(
    dims_ladder: list[tuple[int, ...]] | None = None,
    seed: int = 7,
    repeats: int = 3,
) -> list[ScalingPoint]:
    """Measure synthesis time across growing random states.

    Each point reports the minimum wall time over ``repeats`` runs
    (minimum is the robust estimator for timing microbenchmarks),
    taken from the synthesis stage's own ledger entry.
    """
    points = []
    rng = np.random.default_rng(seed)
    synthesis = Pipeline([SynthesisPass()])
    for dims in dims_ladder if dims_ladder is not None else SCALING_DIMS:
        state = random_state(dims, rng=rng)
        front = _FRONT.run(state)
        best = float("inf")
        for _ in range(max(1, repeats)):
            timed = synthesis.run_context(front.clone())
            best = min(best, timed.stage_seconds("synthesize"))
        points.append(
            ScalingPoint(
                dims=dims,
                visited_nodes=front.exact_diagram.stats.visited_nodes,
                operations=synthesis_operation_count(front.exact_diagram),
                synthesis_seconds=best,
            )
        )
    return points


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the fidelity/size trade-off curve.

    ``operations`` counts the rotations without the tensor-product
    rule (:func:`~repro.dd.metrics.synthesis_operation_count`).
    """

    min_fidelity: float
    achieved_fidelity: float
    visited_nodes: int
    operations: int
    dag_nodes: int


def approximation_tradeoff(
    dims: tuple[int, ...] = (4, 3, 3, 2),
    thresholds: list[float] | None = None,
    seed: int = 11,
) -> list[TradeoffPoint]:
    """Sweep approximation thresholds on one random state.

    The diagram is built once; each threshold re-runs only the
    approximation stage on a cloned context.
    """
    if thresholds is None:
        thresholds = [1.0, 0.99, 0.98, 0.95, 0.90, 0.80, 0.70, 0.50]
    state = random_state(dims, rng=seed)
    front = _FRONT.run(state)
    approximation = Pipeline([ApproximatePass()])
    points = []
    for threshold in thresholds:
        # Thresholds at or above 1.0 mean "exact" (the pass no-ops);
        # clamp so historical callers passing e.g. 1.05 keep working.
        context = approximation.run_context(
            front.clone(
                config=PipelineConfig(min_fidelity=min(threshold, 1.0))
            )
        )
        achieved = (
            context.approximation.fidelity
            if context.approximation is not None
            else 1.0
        )
        points.append(
            TradeoffPoint(
                min_fidelity=threshold,
                achieved_fidelity=achieved,
                visited_nodes=context.diagram.stats.visited_nodes,
                operations=synthesis_operation_count(context.diagram),
                dag_nodes=context.diagram.stats.num_nodes,
            )
        )
    return points
