"""Property-based tests for synthesis and approximation end-to-end.

These are the headline invariants of the reproduction:

* exact synthesis reaches fidelity 1 for *any* state on *any*
  mixed-dimensional register;
* approximate synthesis never violates the requested fidelity floor;
* the emitted operation count matches the closed-form predictor;
* the columnar synthesis writes the same QDASM, byte for byte, as the
  gate-by-gate oracle in ``tests/synthesis_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import qasm
from repro.core.preparation import prepare_state
from repro.core.synthesis import (
    synthesize_preparation,
    synthesize_unpreparation,
)
from repro.dd.approximation import approximate
from repro.dd.builder import build_dd
from repro.dd.metrics import synthesis_operation_count
from repro.simulator.statevector_sim import simulate
from repro.states.fidelity import fidelity
from repro.states.library import (
    basis_state,
    embedded_w_state,
    ghz_state,
    uniform_state,
    w_state,
)
from repro.states.random_states import random_sparse_state, random_state
from repro.states.statevector import StateVector

from tests.synthesis_oracle import oracle_preparation, oracle_unpreparation

DIMS = st.lists(
    st.integers(min_value=2, max_value=4), min_size=1, max_size=3
).map(tuple)


@st.composite
def arbitrary_state(draw):
    dims = draw(DIMS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    style = draw(st.sampled_from(["dense", "sparse", "real", "phase"]))
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    if style == "dense":
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    elif style == "real":
        amplitudes = rng.random(size)
        amplitudes[0] += 1e-3  # guard against the all-zero draw
    elif style == "phase":
        amplitudes = np.exp(2j * np.pi * rng.random(size))
    else:
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
        kill = rng.choice(size, size=max(1, size // 2), replace=False)
        amplitudes[kill] = 0.0
        if not np.any(amplitudes):
            amplitudes[0] = 1.0
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return StateVector(
        amplitudes / np.linalg.norm(amplitudes), dims
    )


class TestExactSynthesisProperty:
    @given(arbitrary_state(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fidelity_one(self, state, elision):
        circuit = synthesize_preparation(
            build_dd(state), tensor_elision=elision
        )
        produced = simulate(circuit)
        assert fidelity(state, produced) >= 1.0 - 1e-9

    @given(arbitrary_state())
    @settings(max_examples=40, deadline=None)
    def test_exact_amplitudes(self, state):
        # Not merely fidelity: amplitude-exact including global phase.
        circuit = synthesize_preparation(build_dd(state))
        produced = simulate(circuit)
        assert produced.isclose(state, tolerance=1e-8)

    @given(arbitrary_state())
    @settings(max_examples=40, deadline=None)
    def test_unprep_reaches_zero_string(self, state):
        circuit = synthesize_unpreparation(build_dd(state))
        result = simulate(circuit, state)
        assert abs(result.amplitude(0)) >= 1.0 - 1e-9

    @given(arbitrary_state())
    @settings(max_examples=40, deadline=None)
    def test_operation_count_matches_predictor(self, state):
        dd = build_dd(state)
        circuit = synthesize_unpreparation(dd, tensor_elision=False)
        assert circuit.num_operations == synthesis_operation_count(dd)


class TestApproximateSynthesisProperty:
    @given(
        arbitrary_state(),
        st.sampled_from([0.99, 0.95, 0.9, 0.8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_fidelity_floor_respected(self, state, threshold):
        result = prepare_state(state, min_fidelity=threshold)
        assert result.report.fidelity >= threshold - 1e-9

    @given(arbitrary_state(), st.sampled_from([0.95, 0.8]))
    @settings(max_examples=30, deadline=None)
    def test_approximation_never_grows_circuit(self, state, threshold):
        exact = prepare_state(state, verify=False)
        approx = prepare_state(
            state, min_fidelity=threshold, verify=False
        )
        assert approx.report.operations <= exact.report.operations


FAMILIES = {
    "ghz": ghz_state,
    "w": w_state,
    "embedded_w": embedded_w_state,
    "uniform": uniform_state,
}


@st.composite
def synthesis_diagrams(draw):
    """Diagrams of every shape synthesis meets: dense random states
    (uniform and Gaussian), sparse ones (partial tensor elision), 0.98
    approximations, the structured families and ``|0...0>`` (an empty
    circuit without identity rotations)."""
    dims = tuple(
        draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    )
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(
        ["uniform", "gaussian", "sparse", "approximated", "zero"]
        + sorted(FAMILIES)
    ))
    if kind in ("uniform", "gaussian"):
        return build_dd(random_state(dims, distribution=kind, rng=seed))
    if kind == "sparse":
        size = int(np.prod(dims))
        terms = draw(st.integers(1, max(1, size // 3)))
        return build_dd(random_sparse_state(dims, terms, rng=seed))
    if kind == "approximated":
        return approximate(build_dd(random_state(dims, rng=seed)), 0.98).diagram
    if kind == "zero":
        return build_dd(basis_state(dims, (0,) * len(dims)))
    return build_dd(FAMILIES[kind](dims))


def assert_same_as_oracle(dd, elision, identities):
    columnar = synthesize_preparation(dd, elision, identities)
    oracle = oracle_preparation(dd, elision, identities)
    assert qasm.dumps(columnar) == qasm.dumps(oracle)
    assert columnar.global_phase == oracle.global_phase
    assert qasm.dumps(
        synthesize_unpreparation(dd, elision, identities)
    ) == qasm.dumps(oracle_unpreparation(dd, elision, identities))
    return columnar


class TestColumnarSynthesisMatchesOracle:
    @given(synthesis_diagrams(), st.booleans(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_qdasm_byte_identical(self, dd, elision, identities):
        assert_same_as_oracle(dd, elision, identities)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("elision", [True, False])
    @pytest.mark.parametrize("identities", [True, False])
    def test_families(self, family, elision, identities):
        dd = build_dd(FAMILIES[family]((3, 2, 4, 2)))
        assert_same_as_oracle(dd, elision, identities)

    @pytest.mark.parametrize("elision", [True, False])
    def test_empty_circuit(self, elision):
        dd = build_dd(basis_state((3, 2, 2), (0, 0, 0)))
        circuit = assert_same_as_oracle(dd, elision, False)
        assert circuit.num_operations == 0
        assert circuit.table is not None
