"""Scalar reference kernels: the oracles of the vectorised DD build,
of the diagram statistics and of the in-place statevector simulator.

* :func:`build_dd_reference` — the original per-amplitude recursive
  construction of :func:`repro.dd.builder.build_dd`: one Python call
  per tree node, each node normalised through
  :func:`repro.dd.builder.normalize_edges`.
* :func:`stats_reference` — :class:`~repro.dd.diagram.DiagramStats`
  by their definitions: one walk that probes every weight through a
  fresh scalar :class:`~repro.linalg.complex_table.ComplexTable`
  (root weight first, then the ``nodes()`` pre-order), plus the
  recursive path-expanded visited count.  ``build_dd``,
  ``approximate`` and the one-walk fallback of
  :attr:`~repro.dd.diagram.DecisionDiagram.stats` must all equal it.
* :func:`statevector_reference`, :func:`operation_count_reference`
  and :func:`path_expanded_reference` — the node recursions that
  :meth:`~repro.dd.diagram.DecisionDiagram.to_statevector`,
  :func:`repro.dd.metrics.synthesis_operation_count` and
  :func:`repro.dd.metrics.path_expanded_node_count` replaced with
  passes over the level arrays.
* :func:`simulate_reference` — the seed's per-gate-copy loop behind
  :func:`repro.simulator.statevector_sim.simulate`: it chains
  :func:`~repro.simulator.statevector_sim.apply_gate`, allocating a
  fresh :class:`~repro.states.statevector.StateVector` after every
  gate.

The equivalence tests (``tests/test_hotpaths.py``,
``tests/test_circuit_table.py``) assert the production kernels agree
with these, and ``benchmarks/bench_hotpaths.py`` measures against
them.
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.circuit.circuit import Circuit
from repro.dd.builder import normalize_edges
from repro.dd.diagram import DecisionDiagram, DiagramStats
from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge
from repro.dd.node import TERMINAL, DDNode
from repro.dd.unique_table import UniqueTable
from repro.exceptions import SimulationError, StateError
from repro.linalg.complex_table import ComplexTable
from repro.registers.register import as_register
from repro.simulator.statevector_sim import apply_gate
from repro.states.statevector import StateVector

__all__ = [
    "build_dd_reference",
    "operation_count_reference",
    "path_expanded_reference",
    "simulate_reference",
    "statevector_reference",
    "stats_reference",
]


def build_dd_reference(
    state: StateVector,
    table: UniqueTable | None = None,
) -> DecisionDiagram:
    """Scalar recursive reference kernel for ``build_dd``.

    Splits the amplitude array top-down, one Python call per tree node,
    normalising each node through ``normalize_edges``.
    """
    if table is None:
        table = UniqueTable()
    register = as_register(state.register)
    dims = register.dims
    amplitudes = np.ascontiguousarray(state.amplitudes)

    def build(offset: int, length: int, level: int) -> Edge:
        """Build the edge for ``amplitudes[offset : offset + length]``."""
        if level == len(dims):
            weight = complex(amplitudes[offset])
            if abs(weight) <= WEIGHT_ZERO_CUTOFF:
                return Edge.zero()
            return Edge(weight, TERMINAL)
        dimension = dims[level]
        part = length // dimension
        children = [
            build(offset + digit * part, part, level + 1)
            for digit in range(dimension)
        ]
        return normalize_edges(children, table, level)

    root = build(0, register.size, 0)
    if root.is_zero:
        raise StateError("cannot build a decision diagram of the zero state")
    return DecisionDiagram(root, register, table)


def _visited_size_of(node: DDNode, cache: dict[int, int]) -> int:
    """Visited-tree size contributed by ``node`` (path-expanded)."""
    cached = cache.get(id(node))
    if cached is not None:
        return cached
    total = 1  # the node itself
    for edge in node.edges:
        if edge.is_zero or edge.node.is_terminal:
            total += 1  # terminal endpoint of this edge
        else:
            total += _visited_size_of(edge.node, cache)
    cache[id(node)] = total
    return total


def stats_reference(
    dd: DecisionDiagram, tolerance: float = 1e-12
) -> DiagramStats:
    """The diagram statistics by their definitions, in one walk."""
    num_nodes = 0
    num_edges = 0
    histogram: dict[int, int] = {}
    table = ComplexTable(tolerance)
    lookup = table.lookup
    lookup(dd.root.weight)
    for node in dd.nodes():
        num_nodes += 1
        num_edges += node.dimension
        level = node.level
        histogram[level] = histogram.get(level, 0) + 1
        for edge in node.edges:
            lookup(edge.weight)
    return DiagramStats(
        num_nodes=num_nodes,
        num_edges=num_edges,
        distinct_complex=len(table),
        visited_nodes=(
            0 if dd.root.is_zero else _visited_size_of(dd.root.node, {})
        ),
        nodes_per_level=histogram,
    )


def statevector_reference(dd: DecisionDiagram) -> StateVector:
    """The dense vector of ``dd`` by the node recursion: a node's vector
    is the concatenation, digit by digit, of each edge weight times its
    child's vector (zeros for a zero edge), one expansion per node."""
    cache: dict[DDNode, np.ndarray] = {}
    dims = dd.dims

    def expand(node: DDNode, level: int) -> np.ndarray:
        if node in cache:
            return cache[node]
        size = 1
        for dim in dims[level + 1 :]:
            size *= dim
        parts = []
        for edge in node.edges:
            if edge.is_zero:
                parts.append(np.zeros(size, dtype=np.complex128))
            elif edge.node.is_terminal:
                parts.append(np.array([edge.weight], dtype=np.complex128))
            else:
                parts.append(edge.weight * expand(edge.node, level + 1))
        vector = np.concatenate(parts)
        cache[node] = vector
        return vector

    if dd.root.is_zero:
        return StateVector(
            np.zeros(dd.register.size, dtype=np.complex128), dd.register
        )
    return StateVector(dd.root.weight * expand(dd.root.node, 0), dd.register)


def _path_expanded(node: DDNode, cache: dict[int, int], own) -> int:
    """Sum of ``own(node)`` over the path-expanded tree under ``node``."""
    cached = cache.get(id(node))
    if cached is not None:
        return cached
    total = own(node)
    for edge in node.edges:
        if not edge.is_zero and not edge.node.is_terminal:
            total += _path_expanded(edge.node, cache, own)
    cache[id(node)] = total
    return total


def operation_count_reference(dd: DecisionDiagram) -> int:
    """Operations of the synthesis by the node recursion: ``d`` per
    visited node of dimension ``d``."""
    if dd.root.is_zero:
        return 0
    return _path_expanded(dd.root.node, {}, lambda node: node.dimension)


def path_expanded_reference(dd: DecisionDiagram) -> int:
    """Internal node visits of the path-expanded tree, by the node
    recursion."""
    if dd.root.is_zero:
        return 0
    return _path_expanded(dd.root.node, {}, lambda node: 1)


def simulate_reference(
    circuit: Circuit,
    initial: StateVector | None = None,
) -> StateVector:
    """Seed baseline of ``simulate``: two full copies per gate."""
    if initial is None:
        initial = StateVector.zero_state(circuit.register)
    elif initial.register != circuit.register:
        raise SimulationError(
            f"initial state on {initial.dims} does not match circuit "
            f"on {circuit.dims}"
        )
    state = initial
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    if circuit.global_phase:
        state = StateVector(
            state.amplitudes * cmath.exp(1j * circuit.global_phase),
            state.register,
        )
    return state
