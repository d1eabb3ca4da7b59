"""The built-in passes of the preparation pipeline.

Each pass implements one stage of the paper's Figure 2 flow behind the
single-method :class:`Pass` protocol — ``run(context) -> context`` —
so stages can be reordered, replaced, or interleaved with user-defined
passes (see ``docs/pipeline.md`` and ``examples/custom_pipeline.py``):

* :class:`CoercePass` — normalise the raw input into a
  :class:`~repro.states.statevector.StateVector`,
* :class:`BuildPass` — state to edge-weighted decision diagram,
* :class:`ApproximatePass` — fidelity-bounded DD reduction,
* :class:`SynthesisPass` — DD to multi-controlled-rotation circuit,
* :class:`TranspilePass` — optional peephole cleanup and two-qudit
  lowering (reachable end-to-end via ``PipelineConfig.transpile``),
* :class:`VerifyPass` — simulate the circuit and record the achieved
  fidelity (ancilla-aware for transpiled circuits).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

# The coercion rule lives with PreparationResult in core.preparation
# (which deliberately has no module-level pipeline imports); sharing
# the private helper keeps one source of truth across the seam.
from repro.core.preparation import _coerce_state
from repro.core.synthesis import synthesize_preparation
from repro.core.verification import prepared_state, verify_preparation
from repro.dd.approximation import approximate
from repro.dd.builder import build_dd
from repro.exceptions import PipelineError
from repro.pipeline.context import PipelineContext
from repro.states.fidelity import fidelity
from repro.states.statevector import StateVector
from repro.transpile.counter import decompose_multicontrolled
from repro.transpile.passes import peephole_optimize

__all__ = [
    "ApproximatePass",
    "BuildPass",
    "CoercePass",
    "Pass",
    "SynthesisPass",
    "TranspilePass",
    "VerifyPass",
]


class Pass(ABC):
    """One composable pipeline stage.

    Subclasses set :attr:`name` (the key the stage's wall time is
    recorded under) and implement :meth:`run`.  Passes must not mutate
    the artefacts they read (diagrams, circuits) — they replace the
    context fields they own, which keeps cloned contexts cheap and
    re-runnable.
    """

    #: Ledger key of this stage; also the default cache signature.
    name: str = "pass"

    @abstractmethod
    def run(self, context: PipelineContext) -> PipelineContext:
        """Execute the stage and return the (updated) context."""

    def signature(self) -> str:
        """Identity string folded into engine cache keys.

        Two passes with equal signatures are assumed interchangeable
        by the cache, so the default folds any instance state (the
        parameters of a configurable pass) into the string — two
        ``MyPass(threshold=...)`` instances with different thresholds
        never alias.  Override when instance state is not what
        distinguishes behaviour (or to make the string stable across
        processes when attribute reprs are not).
        """
        state = getattr(self, "__dict__", None)
        if state:
            details = ",".join(
                f"{key}={value!r}"
                for key, value in sorted(state.items())
            )
            return f"{self.name}({details})"
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CoercePass(Pass):
    """Normalise the raw input into the target :class:`StateVector`."""

    name = "coerce"

    def run(self, context: PipelineContext) -> PipelineContext:
        context.target = _coerce_state(
            context.state, context.dims
        ).normalized()
        return context


class BuildPass(Pass):
    """Construct the edge-weighted decision diagram of the target."""

    name = "build"

    def run(self, context: PipelineContext) -> PipelineContext:
        if context.target is None:
            raise PipelineError(
                "BuildPass needs a coerced target; run CoercePass first"
            )
        context.exact_diagram = build_dd(context.target)
        context.diagram = context.exact_diagram
        return context


class ApproximatePass(Pass):
    """Fidelity-bounded reduction; a no-op at ``min_fidelity == 1``."""

    name = "approximate"

    def run(self, context: PipelineContext) -> PipelineContext:
        if context.exact_diagram is None:
            raise PipelineError(
                "ApproximatePass needs a diagram; run BuildPass first"
            )
        if context.config.min_fidelity < 1.0:
            context.approximation = approximate(
                context.exact_diagram,
                context.config.min_fidelity,
                granularity=context.config.approximation_granularity,
            )
            context.diagram = context.approximation.diagram
        return context


class SynthesisPass(Pass):
    """Synthesise the multi-controlled-rotation preparation circuit."""

    name = "synthesize"

    def run(self, context: PipelineContext) -> PipelineContext:
        if context.diagram is None:
            raise PipelineError(
                "SynthesisPass needs a diagram; run BuildPass first"
            )
        context.circuit = synthesize_preparation(
            context.diagram,
            tensor_elision=context.config.tensor_elision,
            emit_identity_rotations=(
                context.config.emit_identity_rotations
            ),
        )
        return context


class TranspilePass(Pass):
    """Peephole cleanup and optional two-qudit lowering.

    ``config.transpile == "peephole"`` merges adjacent rotations and
    drops identities; ``"two_qudit"`` additionally lowers every
    multi-controlled rotation through the ancilla-counter construction
    (the result circuit gains one ancilla qudit).  The pre-transpile
    operation count is kept in ``extras["synthesized_operations"]``.
    """

    name = "transpile"

    def run(self, context: PipelineContext) -> PipelineContext:
        mode = context.config.transpile
        if mode is None:
            return context
        if context.circuit is None:
            raise PipelineError(
                "TranspilePass needs a circuit; run SynthesisPass first"
            )
        context.extras["synthesized_operations"] = (
            context.circuit.num_operations
        )
        lowered = peephole_optimize(context.circuit)
        if mode == "two_qudit":
            lowered = decompose_multicontrolled(lowered)
        context.circuit = lowered
        return context


class VerifyPass(Pass):
    """Simulate the circuit and record the achieved fidelity.

    For transpiled circuits whose register grew by an ancilla, the
    produced state is projected onto the ancilla-``|0>`` subspace
    before comparison (the counter construction returns the ancilla
    clean, so no amplitude is lost).
    """

    name = "verify"

    def run(self, context: PipelineContext) -> PipelineContext:
        if not context.config.verify:
            return context
        if context.circuit is None or context.target is None:
            raise PipelineError(
                "VerifyPass needs a circuit and a target; run the "
                "synthesis stages first"
            )
        target = context.target
        circuit = context.circuit
        if tuple(circuit.dims) == tuple(target.dims):
            context.fidelity = verify_preparation(circuit, target)
            return context
        produced = prepared_state(circuit)
        if (
            tuple(produced.dims[: len(target.dims)]) != tuple(target.dims)
            or produced.register.size % target.register.size != 0
        ):
            raise PipelineError(
                f"cannot verify a circuit on {produced.dims} "
                f"against a target on {target.dims}"
            )
        restricted = produced.amplitudes.reshape(
            target.register.size, -1
        )[:, 0]
        produced = StateVector(restricted, target.dims)
        context.fidelity = fidelity(target.normalized(), produced)
        return context
