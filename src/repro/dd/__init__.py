"""Edge-weighted decision diagrams with a variable number of successors.

This package implements the data structure at the core of the paper:
a decision diagram (DD) over a mixed-dimensional qudit register, where
the node at level ``k`` has exactly ``d_k`` outgoing edges, each edge
carries a complex weight, and identical (canonically normalised)
sub-diagrams are shared through a unique table.

Main entry points:

* :func:`~repro.dd.builder.build_dd` — state vector to DD,
* :class:`~repro.dd.diagram.DecisionDiagram` — queries and metrics,
* :func:`~repro.dd.approximation.approximate` — fidelity-driven pruning,
* :mod:`~repro.dd.arithmetic` — inner products and linear combinations.
"""

from repro.dd.approximation import ApproximationResult, approximate
from repro.dd.arithmetic import inner_product
from repro.dd.builder import build_dd
from repro.dd.diagram import DecisionDiagram, DiagramStats
from repro.dd.edge import Edge
from repro.dd.measurement import collapse, measure_qudit
from repro.dd.node import TERMINAL, DDNode
from repro.dd.observables import (
    expectation_local_sum,
    level_populations,
)
from repro.dd.sampling import sample
from repro.dd.unique_table import UniqueTable
from repro.dd.validation import validate_diagram

__all__ = [
    "ApproximationResult",
    "DDNode",
    "DecisionDiagram",
    "DiagramStats",
    "Edge",
    "TERMINAL",
    "UniqueTable",
    "approximate",
    "build_dd",
    "collapse",
    "expectation_local_sum",
    "inner_product",
    "level_populations",
    "measure_qudit",
    "sample",
    "validate_diagram",
]
