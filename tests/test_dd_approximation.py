"""Tests for fidelity-driven DD approximation (paper Section 4.3)."""

import math

import numpy as np
import pytest

from repro.dd.approximation import (
    approximate,
    fidelity_contributions,
)
from repro.dd.builder import build_dd
from repro.dd.metrics import visited_tree_size
from repro.exceptions import ApproximationError
from repro.states.fidelity import fidelity
from repro.states.library import embedded_w_state, ghz_state, w_state
from repro.states.statevector import StateVector

from tests.conftest import SMALL_MIXED_DIMS, random_statevector


class TestContributions:
    def test_root_contribution_is_one(self):
        dd = build_dd(w_state((3, 6, 2)))
        contributions = fidelity_contributions(dd)
        assert np.isclose(contributions[dd.root.node], 1.0)

    def test_level_contributions_sum_to_one(self):
        # Every amplitude's path crosses exactly one node per level, so
        # contributions at each level sum to the state's total mass.
        dd = build_dd(random_statevector((3, 4, 2), seed=41))
        contributions = fidelity_contributions(dd)
        per_level: dict[int, float] = {}
        for node, value in contributions.items():
            per_level[node.level] = per_level.get(node.level, 0) + value
        for level, total in per_level.items():
            assert np.isclose(total, 1.0, atol=1e-9), level

    def test_contribution_matches_brute_force(self):
        sv = random_statevector((3, 2, 2), seed=42)
        dd = build_dd(sv)
        contributions = fidelity_contributions(dd)
        register = sv.register
        # Brute force: for each node, sum |amplitude|^2 over basis
        # states whose path visits the node.
        for target_node, expected in contributions.items():
            total = 0.0
            for index in range(register.size):
                digits = register.digits(index)
                node = dd.root.node
                visits = node is target_node
                for digit in digits[:-1]:
                    edge = node.successor(digit)
                    if edge.is_zero or edge.node.is_terminal:
                        node = None
                        break
                    node = edge.node
                    visits = visits or node is target_node
                if visits:
                    total += abs(sv.amplitude(digits)) ** 2
            assert np.isclose(total, expected, atol=1e-9)


class TestApproximateValidation:
    def test_rejects_zero_fidelity(self):
        dd = build_dd(ghz_state((2, 2)))
        with pytest.raises(ApproximationError):
            approximate(dd, 0.0)

    def test_rejects_above_one(self):
        dd = build_dd(ghz_state((2, 2)))
        with pytest.raises(ApproximationError):
            approximate(dd, 1.1)

    def test_rejects_unknown_granularity(self):
        dd = build_dd(ghz_state((2, 2)))
        with pytest.raises(ApproximationError):
            approximate(dd, 0.9, granularity="edges")


class TestGranularity:
    @pytest.mark.parametrize("granularity", ["nodes", "amplitudes"])
    def test_fidelity_floor_holds_for_both(self, granularity):
        dd = build_dd(random_statevector((3, 4, 2), seed=52))
        result = approximate(dd, 0.9, granularity=granularity)
        assert result.fidelity >= 0.9 - 1e-9

    def test_node_mode_removes_no_individual_amplitudes(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=53))
        result = approximate(dd, 0.9, granularity="nodes")
        assert result.removed_leaves == 0

    def test_amplitude_mode_prunes_at_finer_grain(self):
        # At a budget too small for any whole node, amplitude mode can
        # still remove the smallest individual amplitudes.
        dd = build_dd(random_statevector((3, 6, 2), seed=54))
        node_mode = approximate(dd, 0.995, granularity="nodes")
        amp_mode = approximate(dd, 0.995, granularity="amplitudes")
        assert amp_mode.removed_mass >= node_mode.removed_mass

    def test_node_mode_reduces_operations_on_random_states(self):
        # The Table 1 behaviour: removing whole nodes at 98% drops the
        # operation count by a few percent.
        from repro.dd.metrics import synthesis_operation_count

        dd = build_dd(random_statevector((9, 5, 6, 3), seed=55))
        before = synthesis_operation_count(dd)
        result = approximate(dd, 0.98, granularity="nodes")
        after = synthesis_operation_count(result.diagram)
        assert after < before

    def test_batched_node_pass_respects_relative_exclusion(self):
        # After a node is removed, its relatives' contributions are
        # stale; the exact fidelity accounting must still hold, which
        # is only possible when relatives are excluded from the batch.
        dd = build_dd(random_statevector((4, 4, 3), seed=56))
        result = approximate(dd, 0.7, granularity="nodes")
        dense = result.diagram.to_statevector()
        from repro.states.fidelity import fidelity as dense_fidelity

        original = dd.to_statevector()
        assert np.isclose(
            dense_fidelity(original, dense), result.fidelity,
            atol=1e-9,
        )
        assert np.isclose(
            result.fidelity, 1.0 - result.removed_mass, atol=1e-9
        )


class TestFidelityGuarantee:
    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    @pytest.mark.parametrize("threshold", [0.99, 0.95, 0.9, 0.7])
    def test_achieved_fidelity_at_least_threshold(self, dims, threshold):
        dd = build_dd(random_statevector(dims, seed=43))
        result = approximate(dd, threshold)
        assert result.fidelity >= threshold - 1e-9

    @pytest.mark.parametrize("dims", [(3, 6, 2), (4, 3, 2)])
    def test_reported_fidelity_is_exact(self, dims):
        sv = random_statevector(dims, seed=44)
        dd = build_dd(sv)
        result = approximate(dd, 0.9)
        dense = result.diagram.to_statevector()
        assert np.isclose(
            fidelity(sv, dense), result.fidelity, atol=1e-9
        )

    def test_removed_mass_complements_fidelity(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=45))
        result = approximate(dd, 0.9)
        assert np.isclose(
            result.fidelity, 1.0 - result.removed_mass, atol=1e-9
        )


class TestStructuredStatesUnaffected:
    @pytest.mark.parametrize(
        "family", [ghz_state, w_state, embedded_w_state]
    )
    def test_no_effect_at_98_percent(self, family):
        # Table 1: structured benchmarks lose nothing at F >= 0.98
        # because every amplitude carries more than 2% of the mass.
        dd = build_dd(family((3, 6, 2)))
        result = approximate(dd, 0.98)
        assert result.fidelity == pytest.approx(1.0)
        assert result.removed_nodes == 0
        assert visited_tree_size(result.diagram) == visited_tree_size(dd)


class TestPruningBehaviour:
    def test_min_fidelity_one_removes_nothing(self):
        dd = build_dd(random_statevector((3, 4), seed=46))
        result = approximate(dd, 1.0)
        assert result.removed_mass == 0.0
        assert result.diagram.to_statevector().isclose(
            dd.to_statevector(), tolerance=1e-10
        )

    def test_min_fidelity_one_keeps_tiny_contributions(self):
        # The 1e-7 amplitude's node contributes ~1e-14 of the mass,
        # inside the budget's slack: 1.0 must still remove nothing.
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[0] = 1.0
        amplitudes[3] = 0.5
        amplitudes[7] = 1e-7
        dd = build_dd(
            StateVector(amplitudes / np.linalg.norm(amplitudes), (2, 2, 2))
        )
        assert dd.stats.num_nodes == 5
        result = approximate(dd, 1.0)
        assert result.diagram is dd
        assert result.fidelity == 1.0
        assert result.removed_mass == 0.0
        assert result.removed_nodes == 0
        assert result.removed_leaves == 0
        assert result.removal_log == []

    def test_figure2_prunes_smallest_subtree(self):
        # Root subtrees with masses 0.5 / 0.4 / 0.1; threshold 0.9
        # removes exactly the 0.1 subtree.
        child = np.array([1.0, 1.0]) / math.sqrt(2)
        other = np.array([1.0, 0.0])
        amplitudes = np.concatenate(
            [
                math.sqrt(0.5) * child,
                math.sqrt(0.4) * child,
                math.sqrt(0.1) * other,
            ]
        )
        dd = build_dd(StateVector(amplitudes, (3, 2)))
        result = approximate(dd, 0.9)
        assert result.fidelity == pytest.approx(0.9, abs=1e-9)
        assert result.diagram.root.node.successor(2).is_zero
        # The surviving edges now share one child: tensor structure.
        assert result.diagram.root.node.unique_nonzero_child() is not None

    def test_result_is_normalized(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=47))
        result = approximate(dd, 0.9)
        assert np.isclose(
            result.diagram.to_statevector().norm(), 1.0, atol=1e-9
        )

    def test_result_nodes_canonical(self):
        dd = build_dd(random_statevector((3, 4, 2), seed=48))
        result = approximate(dd, 0.85)
        for node in result.diagram.nodes():
            node.check_invariants()

    def test_monotone_in_threshold(self):
        dd = build_dd(random_statevector((3, 4, 3), seed=49))
        sizes = []
        for threshold in [1.0, 0.98, 0.9, 0.8, 0.6]:
            result = approximate(dd, threshold)
            sizes.append(visited_tree_size(result.diagram))
        assert sizes == sorted(sizes, reverse=True)

    def test_removal_log_sums_to_removed_mass(self):
        dd = build_dd(random_statevector((4, 3, 2), seed=50))
        result = approximate(dd, 0.85)
        assert np.isclose(
            sum(result.removal_log), result.removed_mass, atol=1e-12
        )

    def test_original_diagram_untouched(self):
        sv = random_statevector((3, 3), seed=51)
        dd = build_dd(sv)
        before = dd.to_statevector()
        approximate(dd, 0.8)
        assert dd.to_statevector().isclose(before)
