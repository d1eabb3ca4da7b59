"""Benchmark-trajectory harness for the three hot paths.

Times the vectorised kernels introduced by the hot-path PR against two
baselines and writes a machine-readable ``BENCH_hotpaths.json`` so
subsequent PRs have a perf trajectory to compare against:

* **seed** — a frozen, faithful copy of the PR-1 implementation
  (per-leaf recursive DD construction on the cell-claiming complex
  table; per-gate full-copy simulation through ``np.tensordot`` with
  uncached rotation matrices).  This baseline never changes: speedups
  against it measure the cumulative effect of every optimisation since
  the seed.
* **reference** — the scalar kernels retained in the package
  (:func:`repro.dd.builder.build_dd_reference`,
  :func:`repro.simulator.statevector_sim.simulate_reference`).  These
  share the optimised complex table, unique table and gate-application
  kernel, so speedups against them isolate what the *vectorisation*
  itself buys on top of the shared-layer improvements.

Scenarios cover qubit-only, qutrit-only and mixed-radix registers with
GHZ, W, dense-random and sparse-random states.  Per scenario the
harness times DD construction (the vectorized kernel and the two
baselines), preparation verification (the per-gate in-place kernel
and the two baselines) and single-pass vs. separate diagram
statistics.  ``--smoke`` runs a CI-sized grid.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full grid
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpaths.py -o out.json

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuit.gates import GivensRotation, PhaseRotation  # noqa: E402
from repro.core.preparation import prepare_state  # noqa: E402
from repro.core.verification import verify_preparation  # noqa: E402
from repro.dd.builder import build_dd, build_dd_reference  # noqa: E402
from repro.dd.diagram import DecisionDiagram  # noqa: E402
from repro.dd.edge import WEIGHT_ZERO_CUTOFF, Edge  # noqa: E402
from repro.dd.node import TERMINAL, DDNode  # noqa: E402
from repro.linalg.rotations import (  # noqa: E402
    givens_matrix,
    phase_two_level_matrix,
)
from repro.simulator.statevector_sim import (  # noqa: E402
    simulate_reference,
)
from repro.states.fidelity import fidelity  # noqa: E402
from repro.states.library import ghz_state, w_state  # noqa: E402
from repro.states.random_states import (  # noqa: E402
    random_sparse_state,
    random_state,
)
from repro.states.statevector import StateVector  # noqa: E402


# ----------------------------------------------------------------------
# Frozen seed baseline (PR 1).  Do not optimise: this is the anchor of
# the perf trajectory.
# ----------------------------------------------------------------------
class _SeedComplexTable:
    """The PR-1 complex table: cell-claiming inserts, 3x3 re-probing."""

    def __init__(self, tolerance: float = 1e-12):
        self._tolerance = tolerance
        self._cells: dict[tuple[int, int], complex] = {}
        self._values: list[complex] = []

    def _cell_of(self, value: complex) -> tuple[int, int]:
        scale = 1.0 / self._tolerance
        return (round(value.real * scale), round(value.imag * scale))

    def _close(self, a: complex, b: complex) -> bool:
        return (
            abs(a.real - b.real) <= self._tolerance
            and abs(a.imag - b.imag) <= self._tolerance
        )

    def lookup(self, value: complex) -> complex:
        value = complex(value)
        cell = self._cell_of(value)
        found = self._cells.get(cell)
        if found is not None and self._close(found, value):
            return found
        for dre in (-1, 0, 1):
            for dim in (-1, 0, 1):
                neighbour = self._cells.get(
                    (cell[0] + dre, cell[1] + dim)
                )
                if neighbour is not None and self._close(neighbour, value):
                    return neighbour
        self._values.append(value)
        for dre in (-1, 0, 1):
            for dim in (-1, 0, 1):
                self._cells.setdefault(
                    (cell[0] + dre, cell[1] + dim), value
                )
        return value


class _SeedUniqueTable:
    """The PR-1 unique table over the seed complex table."""

    def __init__(self):
        self._complex_table = _SeedComplexTable()
        self._nodes: dict[tuple, DDNode] = {}

    def get_node(self, level: int, edges) -> DDNode:
        canonical_edges = tuple(
            Edge(self._complex_table.lookup(edge.weight), edge.node)
            if not edge.is_zero
            else Edge.zero()
            for edge in edges
        )
        key = (
            level,
            tuple(
                (edge.weight, id(edge.node)) for edge in canonical_edges
            ),
        )
        node = self._nodes.get(key)
        if node is None:
            node = DDNode(level, canonical_edges)
            self._nodes[key] = node
        return node


def seed_build_dd(state: StateVector):
    """PR-1 ``build_dd``: one Python recursion per decomposition node."""
    table = _SeedUniqueTable()
    dims = state.dims
    amplitudes = np.ascontiguousarray(state.amplitudes)

    def normalize(raw_edges, level):
        norm_sq = math.fsum(abs(e.weight) ** 2 for e in raw_edges)
        norm = math.sqrt(norm_sq)
        if norm <= WEIGHT_ZERO_CUTOFF:
            return Edge.zero()
        phase = 1.0 + 0.0j
        for edge in raw_edges:
            if abs(edge.weight) > WEIGHT_ZERO_CUTOFF:
                phase = edge.weight / abs(edge.weight)
                break
        factor = norm * phase
        normalized = [
            Edge(e.weight / factor, e.node)
            if abs(e.weight) > WEIGHT_ZERO_CUTOFF
            else Edge.zero()
            for e in raw_edges
        ]
        return Edge(factor, table.get_node(level, normalized))

    def build(offset: int, length: int, level: int) -> Edge:
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
        return normalize(children, level)

    root = build(0, state.size, 0)
    return root


def _seed_gate_matrix(gate, dimension: int) -> np.ndarray:
    """Rebuild the local matrix per application, like the seed did."""
    if isinstance(gate, GivensRotation):
        return givens_matrix(
            dimension, gate.level_i, gate.level_j, gate.theta, gate.phi
        )
    if isinstance(gate, PhaseRotation):
        return phase_two_level_matrix(
            dimension, gate.level_i, gate.level_j, gate.delta
        )
    return gate.matrix(dimension)


def seed_simulate(circuit, initial: StateVector | None = None):
    """PR-1 ``simulate``: two full-state copies per gate, tensordot."""
    import cmath

    if initial is None:
        initial = StateVector.zero_state(circuit.register)
    state = initial
    dims = circuit.dims
    for gate in circuit.gates:
        gate.validate(dims)
        tensor = state.as_tensor().copy()
        local = _seed_gate_matrix(gate, dims[gate.target])
        index: list[object] = [slice(None)] * len(dims)
        for control in gate.controls:
            index[control.qudit] = control.level
        selector = tuple(index)
        subspace = tensor[selector]
        axis = gate.target - sum(
            1 for control in gate.controls if control.qudit < gate.target
        )
        moved = np.moveaxis(subspace, axis, 0)
        transformed = np.tensordot(local, moved, axes=(1, 0))
        tensor[selector] = np.moveaxis(transformed, 0, axis)
        state = StateVector(tensor.reshape(-1), state.register)
    if circuit.global_phase:
        state = StateVector(
            state.amplitudes * cmath.exp(1j * circuit.global_phase),
            state.register,
        )
    return state


def seed_verify(circuit, target: StateVector) -> float:
    return fidelity(target.normalized(), seed_simulate(circuit))


# ----------------------------------------------------------------------
# Scenario grid
# ----------------------------------------------------------------------
def _scenarios(smoke: bool) -> list[dict]:
    """The scenario grid: (name, dims, state builder)."""
    rng = np.random.default_rng(2024)

    def dense(dims):
        return random_state(dims, rng=rng)

    def sparse(dims):
        size = int(np.prod(dims))
        return random_sparse_state(
            dims, num_terms=max(2, size // 16), rng=rng
        )

    if smoke:
        grid = [
            ("ghz-qubit-8", (2,) * 8, ghz_state),
            ("w-mixed-6", (3, 2, 2, 3, 2, 2), w_state),
            ("dense-random-mixed-8", (2, 3, 2, 2, 3, 2, 2, 2), dense),
            ("sparse-random-mixed-8", (3, 2, 3, 2, 2, 2, 2, 3), sparse),
        ]
    else:
        mixed12 = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2)
        grid = [
            ("ghz-qubit-10", (2,) * 10, ghz_state),
            ("ghz-qutrit-7", (3,) * 7, ghz_state),
            ("w-qubit-10", (2,) * 10, w_state),
            ("w-mixed-10", (3, 2, 2, 3, 2, 2, 2, 3, 2, 2), w_state),
            ("dense-random-qubit-12", (2,) * 12, dense),
            ("dense-random-qutrit-8", (3,) * 8, dense),
            ("dense-random-mixed-12", mixed12, dense),
            ("sparse-random-mixed-12", mixed12, sparse),
            ("sparse-random-qubit-12", (2,) * 12, sparse),
        ]
    return [
        {"name": name, "dims": dims, "state": builder(dims)}
        for name, dims, builder in grid
    ]


def _best_of(callable_, repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs, GC parked."""
    best = math.inf
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - start
        gc.enable()
        best = min(best, elapsed)
    return best


def _round_speedup(baseline: float, new: float) -> float:
    return round(baseline / new, 2) if new > 0 else float("inf")


def run(smoke: bool, repeats: int) -> dict:
    scenarios = _scenarios(smoke)
    results = []
    for scenario in scenarios:
        name, dims, state = (
            scenario["name"], scenario["dims"], scenario["state"]
        )
        print(f"[{name}] dims={'x'.join(map(str, dims))} "
              f"size={state.size}", flush=True)

        vector_s = _best_of(lambda: build_dd(state), repeats)
        reference_s = _best_of(
            lambda: build_dd_reference(state), repeats
        )
        seed_s = _best_of(lambda: seed_build_dd(state), repeats)
        diagram = build_dd(state)
        stats = diagram.collect_stats()
        build = {
            "vectorized_s": round(vector_s, 6),
            "reference_s": round(reference_s, 6),
            "seed_s": round(seed_s, 6),
            "speedup_vs_reference": _round_speedup(reference_s, vector_s),
            "speedup_vs_seed": _round_speedup(seed_s, vector_s),
            "dag_nodes": stats.num_nodes,
        }
        print(f"  build: vectorized {vector_s * 1e3:8.2f} ms"
              f" | reference {reference_s * 1e3:8.2f} ms"
              f" ({build['speedup_vs_reference']:.2f}x)"
              f" | seed {seed_s * 1e3:8.2f} ms"
              f" ({build['speedup_vs_seed']:.2f}x)", flush=True)

        result = prepare_state(state, verify=False)
        circuit = result.circuit
        inplace_s = _best_of(
            lambda: verify_preparation(circuit, state), repeats
        )
        ref_verify_s = _best_of(
            lambda: fidelity(
                state.normalized(), simulate_reference(circuit)
            ),
            repeats,
        )
        seed_verify_s = _best_of(
            lambda: seed_verify(circuit, state), repeats
        )
        verify = {
            "operations": len(circuit.gates),
            "inplace_s": round(inplace_s, 6),
            "reference_s": round(ref_verify_s, 6),
            "seed_s": round(seed_verify_s, 6),
            "speedup_vs_reference": _round_speedup(
                ref_verify_s, inplace_s
            ),
            "speedup_vs_seed": _round_speedup(seed_verify_s, inplace_s),
        }
        print(f"  verify: in-place {inplace_s * 1e3:7.2f} ms"
              f" | reference {ref_verify_s * 1e3:7.2f} ms"
              f" ({verify['speedup_vs_reference']:.2f}x)"
              f" | seed {seed_verify_s * 1e3:7.2f} ms"
              f" ({verify['speedup_vs_seed']:.2f}x)", flush=True)

        single_pass_s = _best_of(
            lambda: diagram.collect_stats(), repeats
        )

        def separate_queries(dd: DecisionDiagram = diagram) -> None:
            dd.num_nodes()
            dd.num_edges()
            dd.distinct_complex_values()
            dd.nodes_per_level()

        separate_s = _best_of(separate_queries, repeats)
        metrics = {
            "collect_stats_s": round(single_pass_s, 6),
            "separate_queries_s": round(separate_s, 6),
            "speedup": _round_speedup(separate_s, single_pass_s),
        }

        results.append({
            "name": name,
            "dims": list(dims),
            "size": state.size,
            "build": build,
            "verify": verify,
            "stats": metrics,
        })

    headline_name = (
        "dense-random-mixed-8" if smoke else "dense-random-mixed-12"
    )
    headline_row = next(
        r for r in results if r["name"] == headline_name
    )
    payload = {
        "generated_by": "benchmarks/bench_hotpaths.py",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": {"repeats": repeats, "reducer": "min"},
        "baselines": {
            "seed": "frozen PR-1 implementation (see module docstring)",
            "reference": "retained scalar kernels sharing optimised "
                         "tables and gate kernel",
        },
        "headline": {
            "scenario": headline_name,
            "build_speedup_vs_seed":
                headline_row["build"]["speedup_vs_seed"],
            "build_speedup_vs_reference":
                headline_row["build"]["speedup_vs_reference"],
            "verify_speedup_vs_seed":
                headline_row["verify"]["speedup_vs_seed"],
            "verify_speedup_vs_reference":
                headline_row["verify"]["speedup_vs_reference"],
        },
        "scenarios": results,
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timing repeats per measurement (min is reported)",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output JSON path (default: BENCH_hotpaths.json at the "
             "repo root for full runs, BENCH_hotpaths_smoke.json in "
             "the working directory for --smoke runs)",
    )
    options = parser.parse_args(argv)

    payload = run(options.smoke, options.repeats)

    if options.output is not None:
        output = Path(options.output)
    elif options.smoke:
        output = Path("BENCH_hotpaths_smoke.json")
    else:
        output = REPO_ROOT / "BENCH_hotpaths.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    headline = payload["headline"]
    print(
        f"\nheadline [{headline['scenario']}]: build "
        f"{headline['build_speedup_vs_seed']:.2f}x vs seed "
        f"({headline['build_speedup_vs_reference']:.2f}x vs reference), "
        f"verify {headline['verify_speedup_vs_seed']:.2f}x vs seed "
        f"({headline['verify_speedup_vs_reference']:.2f}x vs reference)"
    )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
