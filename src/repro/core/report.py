"""Structured synthesis reports (the columns of Table 1)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SynthesisReport"]


@dataclass(frozen=True)
class SynthesisReport:
    """All metrics the paper reports for one synthesis run.

    Attributes:
        dims: Qudit dimensions, most significant first.
        tree_nodes: Full decomposition-tree size (Table 1 "Nodes",
            Exact group) — a function of ``dims`` only.
        visited_nodes: Path-expanded non-zero tree size including
            per-edge terminals (Table 1 "Nodes", Approximated group).
        dag_nodes: Distinct shared nodes of the diagram (reduction
            quality; not printed by the paper but useful).
        distinct_complex: Distinct complex values in the diagram
            (Table 1 "DistinctC").
        operations: Number of emitted controlled rotations
            (Table 1 "Operations").
        median_controls: Median controls per operation
            (Table 1 "#Controls").
        mean_controls: Mean controls per operation (auxiliary).
        synthesis_time: Approximation plus synthesis wall time in
            seconds (Table 1 "Time [s]").
        fidelity: ``|<target|prepared>|^2`` (Table 1 "Fidelity");
            ``None`` when verification was skipped.
        approximation_fidelity: Fidelity between the original and the
            approximated diagram (1.0 for exact synthesis).
        build_time: Wall time of the DD-construction step in seconds
            (not part of Table 1's "Time" column, which starts after
            construction).
        verify_time: Wall time of the verification simulation in
            seconds (0.0 when verification was skipped).
        dd_nodes: Distinct shared nodes of the *exact* diagram as
            built (before approximation), i.e. the unique-table
            occupancy of the build step.
    """

    dims: tuple[int, ...]
    tree_nodes: int
    visited_nodes: int
    dag_nodes: int
    distinct_complex: int
    operations: int
    median_controls: float
    mean_controls: float
    synthesis_time: float
    fidelity: float | None = None
    approximation_fidelity: float = 1.0
    build_time: float = 0.0
    verify_time: float = 0.0
    dd_nodes: int = 0

    def timings(self) -> dict[str, float]:
        """Per-stage wall times of this run, in seconds."""
        return {
            "build_s": self.build_time,
            "synthesis_s": self.synthesis_time,
            "verify_s": self.verify_time,
        }

    def row(self) -> dict[str, object]:
        """Flatten to a printable dict in Table 1 column order."""
        return {
            "dims": "x".join(str(d) for d in self.dims),
            "nodes": self.tree_nodes,
            "visited": self.visited_nodes,
            "distinct_c": self.distinct_complex,
            "operations": self.operations,
            "controls": self.median_controls,
            "time_s": round(self.synthesis_time, 4),
            "fidelity": (
                round(self.fidelity, 4)
                if self.fidelity is not None
                else None
            ),
        }
