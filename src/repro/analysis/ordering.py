"""Qudit (variable) ordering study.

Decision-diagram size is ordering-sensitive; the paper side-steps the
question by using "randomly selected" qudit orders for its benchmark
rows.  This module quantifies what that choice costs: it rebuilds a
state under permuted qudit orders and compares diagram sizes and
synthesised operation counts, exposing best/worst orders.

This is a classic BDD-style ablation (E12 in DESIGN.md) rather than a
paper table; `benchmarks/bench_ordering.py` regenerates the study.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dd.metrics import synthesis_operation_count
from repro.exceptions import DimensionError
from repro.pipeline import BuildPass, CoercePass, Pipeline
from repro.states.statevector import StateVector

__all__ = [
    "OrderingPoint",
    "reorder_state",
    "ordering_study",
    "best_ordering",
]


def reorder_state(
    state: StateVector, permutation: Sequence[int]
) -> StateVector:
    """Return the same physical state with qudits re-ordered.

    ``permutation[k]`` names the original qudit that moves to
    position ``k`` of the new register; amplitudes are transposed
    accordingly, so the new state assigns the same amplitude to the
    permuted digit strings.

    Raises:
        DimensionError: If ``permutation`` is not a permutation of
            the qudit positions.
    """
    n = state.register.num_qudits
    permutation = tuple(permutation)
    if sorted(permutation) != list(range(n)):
        raise DimensionError(
            f"{list(permutation)} is not a permutation of range({n})"
        )
    new_dims = tuple(state.dims[p] for p in permutation)
    tensor = state.as_tensor().transpose(permutation)
    return StateVector(tensor.reshape(-1), new_dims)


@dataclass(frozen=True)
class OrderingPoint:
    """Diagram statistics of one qudit ordering."""

    permutation: tuple[int, ...]
    dims: tuple[int, ...]
    dag_nodes: int
    visited_nodes: int
    operations: int


#: The build front of the pipeline; each ordering re-runs only these
#: two stages on the permuted state.
_FRONT = Pipeline([CoercePass(), BuildPass()])


def _measure(state: StateVector, permutation: tuple[int, ...]) -> OrderingPoint:
    reordered = reorder_state(state, permutation)
    dd = _FRONT.run(reordered).exact_diagram
    return OrderingPoint(
        permutation=permutation,
        dims=reordered.dims,
        dag_nodes=dd.stats.num_nodes,
        visited_nodes=dd.stats.visited_nodes,
        operations=synthesis_operation_count(dd),
    )


def ordering_study(
    state: StateVector,
    max_orders: int = 24,
    rng: np.random.Generator | int | None = None,
) -> list[OrderingPoint]:
    """Measure diagram sizes across qudit orderings.

    All ``n!`` orders are evaluated when they number at most
    ``max_orders``; otherwise ``max_orders`` distinct orders are
    sampled (always including the identity).

    Returns:
        Points sorted by ascending operation count.
    """
    n = state.register.num_qudits
    total = math.factorial(n)
    if total <= max_orders:
        orders = [
            tuple(p) for p in itertools.permutations(range(n))
        ]
    else:
        generator = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        chosen = {tuple(range(n))}
        while len(chosen) < max_orders:
            chosen.add(tuple(int(x) for x in generator.permutation(n)))
        orders = sorted(chosen)
    points = [_measure(state, order) for order in orders]
    points.sort(key=lambda p: (p.operations, p.permutation))
    return points


def best_ordering(
    state: StateVector,
    max_orders: int = 24,
    rng: np.random.Generator | int | None = None,
) -> OrderingPoint:
    """Return the ordering with the fewest synthesised operations."""
    return ordering_study(state, max_orders=max_orders, rng=rng)[0]
