"""Tests for the pass-based preparation pipeline (`repro.pipeline`).

The heart of this file is the equivalence property suite: a verbatim
copy of the pre-refactor ``prepare_state`` monolith serves as the
reference implementation, and the pass pipeline must match it
field-for-field (timings aside) on the state library and on random
mixed-dimension states.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.circuit import qasm
from repro.circuit.stats import statistics
from repro.core.preparation import PreparationResult, prepare_state
from repro.core.synthesis import synthesize_preparation
from repro.core.verification import verify_preparation
from repro.dd import metrics
from repro.dd.approximation import approximate
from repro.dd.builder import build_dd
from repro.core.report import SynthesisReport
from repro.engine import (
    PreparationEngine,
    PreparationJob,
    SynthesisOptions,
    comparable_report,
    content_key,
)
from repro.exceptions import (
    JobSpecError,
    PipelineConfigError,
    PipelineError,
    StateError,
)
from repro.pipeline import (
    BuildPass,
    CoercePass,
    Pass,
    Pipeline,
    PipelineConfig,
    SynthesisPass,
    default_pipeline,
    run_pipeline,
)
from repro.states.library import dicke_state, ghz_state, uniform_state, w_state
from repro.states.random_states import random_state

from tests.conftest import SMALL_MIXED_DIMS, random_statevector


def reference_prepare_state(
    state,
    min_fidelity=1.0,
    tensor_elision=True,
    emit_identity_rotations=True,
    verify=True,
    approximation_granularity="nodes",
):
    """The pre-refactor ``prepare_state`` monolith, kept verbatim.

    The pipeline must reproduce its reports field-for-field (wall
    times aside) and its circuits gate-for-gate.
    """
    target = state.normalized()
    build_start = time.perf_counter()
    exact_dd = build_dd(target)
    build_elapsed = time.perf_counter() - build_start

    start = time.perf_counter()
    approximation = None
    diagram = exact_dd
    if min_fidelity < 1.0:
        approximation = approximate(
            exact_dd, min_fidelity,
            granularity=approximation_granularity,
        )
        diagram = approximation.diagram
    circuit = synthesize_preparation(
        diagram,
        tensor_elision=tensor_elision,
        emit_identity_rotations=emit_identity_rotations,
    )
    elapsed = time.perf_counter() - start

    circuit_stats = statistics(circuit)
    achieved = None
    verify_elapsed = 0.0
    if verify:
        verify_start = time.perf_counter()
        achieved = verify_preparation(circuit, target)
        verify_elapsed = time.perf_counter() - verify_start
    diagram_stats = diagram.collect_stats()
    report = SynthesisReport(
        dims=target.dims,
        tree_nodes=metrics.decomposition_tree_size(target.dims),
        visited_nodes=metrics.visited_tree_size(diagram),
        dag_nodes=diagram_stats.num_nodes,
        distinct_complex=diagram_stats.distinct_complex,
        operations=circuit_stats.num_operations,
        median_controls=circuit_stats.median_controls,
        mean_controls=circuit_stats.mean_controls,
        synthesis_time=elapsed,
        fidelity=achieved,
        approximation_fidelity=(
            approximation.fidelity if approximation is not None else 1.0
        ),
        build_time=build_elapsed,
        verify_time=verify_elapsed,
    )
    return PreparationResult(
        circuit=circuit,
        diagram=diagram,
        exact_diagram=exact_dd,
        approximation=approximation,
        report=report,
    )


def assert_equivalent(state, **kwargs):
    """Pipeline result == reference result, timings aside."""
    expected = reference_prepare_state(state, **kwargs)
    actual = prepare_state(state, **kwargs)
    assert comparable_report(actual.report) == comparable_report(
        expected.report
    )
    assert qasm.dumps(actual.circuit) == qasm.dumps(expected.circuit)
    assert (actual.approximation is None) == (
        expected.approximation is None
    )


class TestPipelineConfig:
    def test_defaults_match_prepare_state_signature(self):
        config = PipelineConfig()
        assert config.min_fidelity == 1.0
        assert config.tensor_elision is True
        assert config.emit_identity_rotations is True
        assert config.verify is True
        assert config.approximation_granularity == "nodes"
        assert config.transpile is None

    @pytest.mark.parametrize("bad", [
        {"min_fidelity": 0.0},
        {"min_fidelity": 1.5},
        {"min_fidelity": "0.9"},
        {"min_fidelity": True},
        {"verify": "yes"},
        {"tensor_elision": 1},
        {"approximation_granularity": "bogus"},
        {"transpile": "bogus"},
    ])
    def test_validation(self, bad):
        with pytest.raises(PipelineConfigError):
            PipelineConfig(**bad)

    def test_json_round_trip(self):
        config = PipelineConfig(
            min_fidelity=0.9,
            emit_identity_rotations=False,
            transpile="two_qudit",
        )
        assert PipelineConfig.from_json(config.to_json()) == config

    def test_json_round_trip_defaults(self):
        assert (
            PipelineConfig.from_json(PipelineConfig().to_json())
            == PipelineConfig()
        )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(PipelineConfigError, match="unknown fields"):
            PipelineConfig.from_dict({"min_fidelty": 0.9})

    def test_from_json_rejects_bad_json(self):
        with pytest.raises(PipelineConfigError, match="not valid JSON"):
            PipelineConfig.from_json("{nope")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PipelineConfigError, match="cannot read"):
            PipelineConfig.load(tmp_path / "nope.json")

    def test_updated_revalidates(self):
        config = PipelineConfig()
        assert config.updated(min_fidelity=0.9).min_fidelity == 0.9
        with pytest.raises(PipelineConfigError):
            config.updated(min_fidelity=2.0)

    def test_canonical_covers_every_field(self):
        text = PipelineConfig().canonical()
        for name in (
            "min_fidelity", "tensor_elision", "emit_identity_rotations",
            "verify", "approximation_granularity", "transpile",
        ):
            assert name in text


class TestPassProtocol:
    def test_default_pipeline_stage_names(self):
        pipeline = default_pipeline()
        assert [p.name for p in pipeline.passes] == [
            "coerce", "build", "approximate", "synthesize", "verify",
        ]

    def test_transpile_joins_when_configured(self):
        pipeline = default_pipeline(
            PipelineConfig(transpile="two_qudit")
        )
        assert "transpile" in [p.name for p in pipeline.passes]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([])

    def test_non_pass_rejected(self):
        with pytest.raises(PipelineError, match="Pass protocol"):
            Pipeline([object()])

    def test_out_of_order_stages_raise(self):
        with pytest.raises(PipelineError, match="CoercePass first"):
            Pipeline([BuildPass()]).run(ghz_state((2, 2)))
        with pytest.raises(PipelineError, match="BuildPass first"):
            Pipeline([CoercePass(), SynthesisPass()]).run(
                ghz_state((2, 2))
            )

    def test_coerce_requires_dims_for_raw_amplitudes(self):
        with pytest.raises(StateError):
            Pipeline([CoercePass()]).run([1, 0, 0, 1])

    def test_pass_must_return_context(self):
        class Broken(Pass):
            name = "broken"

            def run(self, context):
                return None

        with pytest.raises(PipelineError, match="returned NoneType"):
            Pipeline([CoercePass(), Broken()]).run(ghz_state((2, 2)))

    def test_with_pass_before_after(self):
        pipeline = default_pipeline()

        class Marker(Pass):
            name = "marker"

            def run(self, context):
                return context

        names = [
            p.name
            for p in pipeline.with_pass(Marker(), after="synthesize").passes
        ]
        assert names.index("marker") == names.index("synthesize") + 1
        names = [
            p.name
            for p in pipeline.with_pass(Marker(), before="build").passes
        ]
        assert names.index("marker") == names.index("build") - 1
        with pytest.raises(PipelineError, match="no pass named"):
            pipeline.with_pass(Marker(), after="bogus")
        with pytest.raises(PipelineError, match="at most one"):
            pipeline.with_pass(Marker(), before="build", after="build")

    def test_without_pass(self):
        pipeline = default_pipeline().without_pass("verify")
        assert "verify" not in [p.name for p in pipeline.passes]
        with pytest.raises(PipelineError):
            pipeline.without_pass("verify")

    def test_every_stage_timed(self):
        context = default_pipeline().run(ghz_state((3, 3)))
        assert [t.stage for t in context.timings] == [
            "coerce", "build", "approximate", "synthesize", "verify",
        ]
        assert all(t.seconds >= 0.0 for t in context.timings)
        assert set(context.timings_dict()) == {
            "coerce", "build", "approximate", "synthesize", "verify",
        }

    def test_custom_pass_sees_and_extends_context(self):
        class CountingPass(Pass):
            name = "counting"

            def run(self, context):
                context.extras["gates"] = context.circuit.num_operations
                return context

        pipeline = default_pipeline().with_pass(
            CountingPass(), after="synthesize"
        )
        context = pipeline.run(w_state((2, 3, 2)))
        assert context.extras["gates"] == context.circuit.num_operations
        assert "counting" in context.timings_dict()

    def test_signature_distinguishes_pipelines(self):
        plain = default_pipeline()
        custom = plain.without_pass("verify")
        assert plain.signature() != custom.signature()

    def test_signature_folds_in_pass_parameters(self):
        # Two instances of one pass class with different parameters
        # must never alias in a shared cache.
        class Threshold(Pass):
            name = "threshold"

            def __init__(self, cutoff):
                self.cutoff = cutoff

            def run(self, context):
                return context

        assert Threshold(0.9).signature() != Threshold(0.5).signature()
        assert Threshold(0.9).signature() == Threshold(0.9).signature()

    def test_prepare_rejects_transpile_config_without_transpile_pass(self):
        # A config asking for transpilation must not silently produce
        # (and cache) an un-transpiled circuit on a pipeline that has
        # no transpile stage.
        pipeline = default_pipeline()  # built exact: no TranspilePass
        with pytest.raises(PipelineError, match="no 'transpile' pass"):
            pipeline.prepare(
                ghz_state((2, 2)),
                config=PipelineConfig(transpile="two_qudit"),
            )

    def test_engine_pipeline_is_read_only(self):
        # Reassigning the pipeline on a live engine would serve the
        # old pipeline's cached circuits under the new one's identity.
        engine = PreparationEngine(pipeline=default_pipeline())
        with pytest.raises(AttributeError):
            engine.pipeline = default_pipeline().without_pass("verify")

    def test_engine_surfaces_transpile_mismatch_as_failure(self):
        engine = PreparationEngine(pipeline=default_pipeline())
        outcome = engine.submit(PreparationJob(
            dims=(2, 2),
            family="ghz",
            options=SynthesisOptions(transpile="two_qudit"),
        ))
        assert not outcome.ok
        assert outcome.error_type == "PipelineError"


class TestEquivalenceWithReference:
    """The tentpole guarantee: pipeline == pre-refactor monolith."""

    @pytest.mark.parametrize("dims", SMALL_MIXED_DIMS)
    def test_state_library_exact(self, dims):
        assert_equivalent(ghz_state(dims))
        assert_equivalent(w_state(dims))
        assert_equivalent(uniform_state(dims))

    def test_dicke(self):
        assert_equivalent(dicke_state((2, 2, 2, 2), excitations=2))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_dimension_exact(self, seed):
        rng = np.random.default_rng(1000 + seed)
        num = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(2, 5, size=num))
        assert_equivalent(random_statevector(dims, seed=seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_approximated(self, seed):
        state = random_statevector((3, 4, 2), seed=300 + seed)
        assert_equivalent(state, min_fidelity=0.9)

    def test_amplitude_granularity(self):
        state = random_statevector((2, 3, 2), seed=77)
        assert_equivalent(
            state,
            min_fidelity=0.95,
            approximation_granularity="amplitudes",
        )

    def test_no_verify_no_identity_rotations(self):
        state = random_state((3, 3), rng=5)
        assert_equivalent(
            state, verify=False, emit_identity_rotations=False
        )

    def test_no_tensor_elision(self):
        assert_equivalent(
            random_state((4, 2), rng=6), tensor_elision=False
        )

    def test_legacy_kwarg_tolerance_preserved(self):
        # The pre-refactor monolith accepted fidelity floors above 1.0
        # (meaning exact) and truthy flag values; the wrapper must not
        # tighten that surface.
        state = ghz_state((3, 3))
        lax = prepare_state(state, min_fidelity=1.05, verify=1)
        strict = prepare_state(state)
        assert comparable_report(lax.report) == comparable_report(
            strict.report
        )
        assert lax.approximation is None

    def test_verify_time_zero_when_skipped(self):
        report = prepare_state(ghz_state((3, 3)), verify=False).report
        assert report.verify_time == 0.0
        assert report.fidelity is None

    def test_result_carries_stage_ledger(self):
        result = prepare_state(ghz_state((3, 3)))
        assert [t.stage for t in result.timings] == [
            "coerce", "build", "approximate", "synthesize", "verify",
        ]
        assert result.report.build_time == result.timings_dict()["build"]


class TestTranspiledPipeline:
    def test_two_qudit_lowering_end_to_end(self):
        state = random_state((2, 3, 2), rng=99, distribution="gaussian")
        result = prepare_state(
            state, config=PipelineConfig(transpile="two_qudit")
        )
        # The lowering grows the register by an ancilla, so the
        # fidelity below comes from VerifyPass's ancilla projection.
        assert len(result.circuit.dims) > len(state.dims)
        assert all(
            len(gate.qudits) <= 2 for gate in result.circuit.gates
        )
        assert result.report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.report.operations == result.circuit.num_operations

    def test_peephole_only(self):
        result = prepare_state(
            ghz_state((3, 6, 2)),
            config=PipelineConfig(transpile="peephole"),
        )
        plain = prepare_state(ghz_state((3, 6, 2)))
        assert result.report.operations < plain.report.operations
        assert result.report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_transpile_stage_in_ledger(self):
        result = prepare_state(
            ghz_state((2, 2)),
            config=PipelineConfig(transpile="two_qudit"),
        )
        assert "transpile" in result.timings_dict()

    def test_run_pipeline_front_door(self):
        result = run_pipeline(
            ghz_state((2, 2)),
            config=PipelineConfig(transpile="two_qudit"),
        )
        assert result.report.fidelity == pytest.approx(1.0, abs=1e-9)


class TestCacheKeys:
    """Distinct configs must never alias to one cache entry."""

    def test_distinct_configs_never_alias(self):
        state = ghz_state((2, 3))
        configs = []
        for min_fidelity in (1.0, 0.99, 0.9):
            for tensor_elision in (True, False):
                for emit in (True, False):
                    for granularity in ("nodes", "amplitudes"):
                        for transpile in (None, "peephole", "two_qudit"):
                            configs.append(SynthesisOptions(
                                min_fidelity=min_fidelity,
                                tensor_elision=tensor_elision,
                                emit_identity_rotations=emit,
                                approximation_granularity=granularity,
                                transpile=transpile,
                            ))
        keys = [content_key(state, config) for config in configs]
        assert len(set(keys)) == len(keys)

    def test_transpiled_and_plain_runs_never_collide(self):
        state = ghz_state((3, 6, 2))
        assert content_key(state, SynthesisOptions()) != content_key(
            state, SynthesisOptions(transpile="two_qudit")
        )

    def test_pipeline_signature_changes_key(self):
        state = ghz_state((2, 2))
        options = SynthesisOptions()
        assert content_key(state, options) != content_key(
            state, options, default_pipeline().signature()
        )

    def test_job_accepts_plain_pipeline_config(self):
        job = PreparationJob(
            dims=(2, 2),
            family="ghz",
            options=PipelineConfig(transpile="two_qudit"),
        )
        assert isinstance(job.options, SynthesisOptions)
        assert job.options.transpile == "two_qudit"

    def test_job_rejects_non_config_options(self):
        with pytest.raises(JobSpecError, match="PipelineConfig"):
            PreparationJob(
                dims=(2, 2), family="ghz", options={"verify": True}
            )

    def test_options_validation_still_job_spec_error(self):
        with pytest.raises(JobSpecError):
            SynthesisOptions(transpile="bogus")


class TestEngineIntegration:
    def test_transpiled_batch_through_engine(self):
        engine = PreparationEngine()
        jobs = [
            PreparationJob(dims=(3, 6, 2), family="ghz"),
            PreparationJob(
                dims=(3, 6, 2),
                family="ghz",
                options=SynthesisOptions(transpile="two_qudit"),
            ),
        ]
        batch = engine.run_batch(jobs)
        plain, lowered = batch.outcomes
        assert plain.ok and lowered.ok
        assert not lowered.cache_hit  # distinct content key
        assert plain.report.operations != lowered.report.operations
        assert lowered.report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_stage_timings_on_outcomes(self):
        engine = PreparationEngine()
        outcome = engine.submit(
            PreparationJob(dims=(2, 2), family="ghz")
        )
        stages = [stage for stage, _ in outcome.stage_timings]
        assert stages == [
            "coerce", "build", "approximate", "synthesize", "verify",
        ]
        assert outcome.stage_timings_dict().keys() == set(stages)

    def test_custom_pipeline_through_engine(self):
        class CountingPass(Pass):
            name = "counting"

            def run(self, context):
                context.extras["seen"] = True
                return context

        pipeline = default_pipeline().with_pass(
            CountingPass(), after="synthesize"
        )
        engine = PreparationEngine(pipeline=pipeline)
        outcome = engine.submit(
            PreparationJob(dims=(2, 3), family="w")
        )
        assert outcome.ok
        assert "counting" in outcome.stage_timings_dict()

    def test_custom_pipeline_does_not_alias_default_cache(self):
        from repro.engine import CircuitCache

        cache = CircuitCache()
        plain = PreparationEngine(cache=cache)
        custom = PreparationEngine(
            cache=cache,
            pipeline=default_pipeline().without_pass("verify"),
        )
        job = PreparationJob(dims=(2, 2), family="ghz")
        first = plain.submit(job)
        second = custom.submit(job)
        assert first.key != second.key
        assert not second.cache_hit

    def test_parallel_executor_matches_serial(self):
        from repro.engine import ParallelExecutor, comparable_outcome

        jobs = [
            PreparationJob(
                dims=(2, 3, 2),
                family="random",
                params={"rng": seed},
                options=SynthesisOptions(transpile="two_qudit"),
            )
            for seed in range(3)
        ]
        serial = PreparationEngine().run_batch(jobs)
        parallel = PreparationEngine(
            executor=ParallelExecutor(max_workers=2)
        ).run_batch(jobs)
        assert [
            comparable_outcome(o) for o in serial.outcomes
        ] == [comparable_outcome(o) for o in parallel.outcomes]


class TestServicePipeline:
    def test_service_accepts_pipeline(self):
        import asyncio

        from repro.service import AsyncPreparationService

        class TagPass(Pass):
            name = "tag"

            def run(self, context):
                return context

        async def scenario():
            service = AsyncPreparationService(
                pipeline=default_pipeline().with_pass(TagPass())
            )
            async with service:
                return await service.submit(
                    PreparationJob(dims=(2, 2), family="ghz")
                )

        outcome = asyncio.run(scenario())
        assert outcome.ok
        assert "tag" in outcome.stage_timings_dict()

    def test_service_rejects_engine_plus_pipeline(self):
        from repro.exceptions import EngineError
        from repro.service import AsyncPreparationService

        with pytest.raises(EngineError, match="not both"):
            AsyncPreparationService(
                engine=PreparationEngine(),
                pipeline=default_pipeline(),
            )


class TestPipelineCLI:
    @pytest.fixture
    def spec_path(self, tmp_path) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "jobs": [
                {"family": "ghz", "dims": [3, 6, 2]},
                {"family": "w", "dims": [2, 2, 2]},
            ],
        }))
        return str(path)

    @pytest.fixture
    def pipeline_path(self, tmp_path) -> str:
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps({"transpile": "two_qudit"}))
        return str(path)

    def test_batch_pipeline_flag_transpiles(
        self, spec_path, pipeline_path, capsys
    ):
        from repro.__main__ import main

        assert main([
            "batch", spec_path, "--pipeline", pipeline_path, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        for outcome in payload["outcomes"]:
            assert outcome["ok"]
            assert "transpile" in outcome["stage_timings"]

    def test_batch_json_has_stage_timings(self, spec_path, capsys):
        from repro.__main__ import main

        assert main(["batch", spec_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for outcome in payload["outcomes"]:
            assert set(outcome["stage_timings"]) == {
                "coerce", "build", "approximate", "synthesize",
                "verify",
            }

    def test_batch_bad_pipeline_file_is_friendly(
        self, spec_path, tmp_path, capsys
    ):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"transpile": "bogus"}')
        assert main([
            "batch", spec_path, "--pipeline", str(bad),
        ]) == 2
        assert "transpile" in capsys.readouterr().err

    def test_pipeline_flag_preserves_unnamed_spec_defaults(
        self, tmp_path, capsys
    ):
        # Regression: a --pipeline file naming only `transpile` must
        # not reset the spec's other defaults (e.g. verify: false)
        # back to the config dataclass defaults.
        from repro.__main__ import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "defaults": {"verify": False},
            "jobs": [{"family": "ghz", "dims": [2, 2]}],
        }))
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps({"transpile": "peephole"}))
        assert main([
            "batch", str(spec), "--pipeline", str(pipeline), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        outcome = payload["outcomes"][0]
        assert "transpile" in outcome["stage_timings"]
        assert outcome["report"]["fidelity"] is None  # verify stayed off

    def test_load_overrides_returns_only_named_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"transpile": "two_qudit"}))
        assert PipelineConfig.load_overrides(path) == {
            "transpile": "two_qudit"
        }
        path.write_text(json.dumps({"transpile": "bogus"}))
        with pytest.raises(PipelineConfigError):
            PipelineConfig.load_overrides(path)

    @pytest.mark.parametrize(
        "surface", ["pipeline_file", "spec_defaults", "prepare_job"]
    )
    @pytest.mark.parametrize(
        "removed,value",
        [("fused" "_verify", False), ("dd" "_backend", "object")],
        ids=["verify_kernel", "node_store"],
    )
    def test_deleted_verify_kernel_knob_is_refused(
        self, removed, value, surface, tmp_path
    ):
        # The config fields that once picked the verify kernel and the
        # DD node store no longer exist: every surface that takes
        # option fields must refuse them (naming the fields it does
        # take) rather than silently ignore them.  The names are
        # spelled in two parts so a search for leftovers of the
        # deleted knobs finds none.
        import asyncio
        from functools import partial

        from repro.engine import job_from_dict, jobs_from_spec
        from repro.net import ClientError, HttpServer, ReproClient
        from repro.service import AsyncPreparationService

        knob = {removed: value}
        job = {"family": "ghz", "dims": [2, 2]}
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(knob))
        expected, parse, send = {
            # A --pipeline file is read in process and never travels
            # on the wire.
            "pipeline_file": (
                PipelineConfigError,
                partial(PipelineConfig.load_overrides, path),
                None,
            ),
            "spec_defaults": (
                JobSpecError,
                partial(jobs_from_spec, {"defaults": knob, "jobs": [job]}),
                partial(ReproClient.batch, jobs=[job], defaults=knob),
            ),
            "prepare_job": (
                JobSpecError,
                partial(job_from_dict, {**job, **knob}),
                partial(ReproClient.prepare, job={**job, **knob}),
            ),
        }[surface]

        with pytest.raises(expected, match=removed) as info:
            parse()
        allowed = str(info.value).split("allowed:", 1)[1]
        for field_name in PipelineConfig().to_dict():
            assert field_name in allowed
        if send is None:
            return

        async def scenario():
            service = AsyncPreparationService()
            await service.start()
            async with HttpServer(service) as server:
                async with ReproClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ClientError) as refused:
                        await send(client)
                    return refused.value

        assert asyncio.run(scenario()).code == "job_spec"

    def test_batch_per_job_fields_beat_pipeline_defaults(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "jobs": [
                {"family": "ghz", "dims": [3, 6, 2],
                 "transpile": None},
                {"family": "ghz", "dims": [3, 6, 2]},
            ],
        }))
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps({"transpile": "two_qudit"}))
        assert main([
            "batch", str(spec), "--pipeline", str(pipeline), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        first, second = payload["outcomes"]
        assert "transpile" not in first["stage_timings"]
        assert "transpile" in second["stage_timings"]

    def test_serve_pipeline_flag(
        self, spec_path, pipeline_path, capsys
    ):
        from repro.__main__ import main

        assert main([
            "serve", spec_path, "--pipeline", pipeline_path,
            "--clients", "2", "--shards", "2", "--check",
        ]) == 0
        assert "determinism check vs serial engine: OK" in (
            capsys.readouterr().out
        )
