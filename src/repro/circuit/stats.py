"""Circuit statistics matching the metrics of Table 1.

The paper reports, per synthesised circuit, the number of
multi-controlled operations ("Operations") and the *median* number of
controls over those operations ("#Controls").  :func:`statistics`
computes these together with auxiliary distribution data used by the
benchmark harness and the ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.circuit import Circuit

__all__ = ["CircuitStatistics", "control_summary", "statistics"]


@dataclass(frozen=True)
class CircuitStatistics:
    """Summary numbers of one circuit.

    Attributes:
        num_operations: Total gate count.
        median_controls: Median number of controls over all gates
            (the paper's "#Controls" metric); 0 for empty circuits.
        mean_controls: Mean number of controls.
        max_controls: Largest control count.
        control_histogram: Counts of gates keyed by control count.
        gate_histogram: Counts of gates keyed by gate name.
        depth: Greedy circuit depth.
    """

    num_operations: int
    median_controls: float
    mean_controls: float
    max_controls: int
    control_histogram: dict[int, int] = field(default_factory=dict)
    gate_histogram: dict[str, int] = field(default_factory=dict)
    depth: int = 0


def control_summary(counts: np.ndarray) -> tuple[float, float]:
    """Median and mean of per-gate control counts (0.0 when empty).

    The paper's "#Controls" metric and its mean, as array reductions
    over :meth:`Circuit.control_counts`; the mean divides the exact
    integer sum, as ``sum(counts) / len(counts)`` does.
    """
    if counts.size == 0:
        return 0.0, 0.0
    return (
        float(np.median(counts)),
        float(int(counts.sum()) / counts.size),
    )


def statistics(circuit: Circuit) -> CircuitStatistics:
    """Compute :class:`CircuitStatistics` for a circuit."""
    control_counts = circuit.control_counts()
    median_controls, mean_controls = control_summary(control_counts)
    control_histogram: dict[int, int] = {}
    for count in control_counts.tolist():
        control_histogram[count] = control_histogram.get(count, 0) + 1
    return CircuitStatistics(
        num_operations=circuit.num_operations,
        median_controls=median_controls,
        mean_controls=mean_controls,
        max_controls=int(control_counts.max(initial=0)),
        control_histogram=control_histogram,
        gate_histogram=circuit.count_by_name(),
        depth=circuit.depth(),
    )
