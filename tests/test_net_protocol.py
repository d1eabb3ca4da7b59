"""Tests for the wire schema (`repro.net.protocol`)."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading

import pytest

from repro.circuit.qasm import QdasmLiteral
from repro.engine import PreparationEngine, PreparationJob, comparable_outcome
from repro.net.protocol import (
    PROTOCOL_VERSION,
    WireError,
    comparable_wire_outcome,
    error_code,
    error_envelope,
    execute_request,
    outcome_from_wire,
    outcome_to_wire,
    parse_batch_payload,
    parse_prepare_payload,
    result_envelope,
)
from repro.service import AsyncPreparationService


def ghz_dict(dims=(3, 6, 2)) -> dict:
    return {"family": "ghz", "dims": list(dims)}


class TestErrorCodes:
    def test_mapped_from_exception_hierarchy(self):
        assert error_code("JobSpecError") == "job_spec"
        assert error_code("DimensionError") == "dimension"
        assert error_code("EngineError") == "engine"
        assert error_code("PipelineConfigError") == "pipeline_config"
        assert error_code("SynthesisError") == "synthesis"
        assert error_code("ReproError") == "repro"

    def test_every_library_exception_gets_a_code(self):
        import repro.exceptions as exceptions

        for name in exceptions.__all__:
            code = error_code(name)
            assert code != "internal", name
            assert code == code.lower()

    def test_foreign_exceptions_collapse_to_internal(self):
        assert error_code("ValueError") == "internal"
        assert error_code("KeyError") == "internal"
        assert error_code("NoSuchThing") == "internal"

    def test_wire_error_from_exception(self):
        from repro.exceptions import JobSpecError

        error = WireError.from_exception(JobSpecError("bad dims"))
        assert error.code == "job_spec"
        assert error.error_type == "JobSpecError"
        assert "bad dims" in str(error)


class TestEnvelopes:
    def test_result_envelope_shape(self):
        envelope = result_envelope({"x": 1}, request_id=7)
        assert envelope == {
            "v": PROTOCOL_VERSION, "ok": True, "id": 7,
            "result": {"x": 1},
        }
        assert "id" not in result_envelope({"x": 1})

    def test_error_envelope_shape(self):
        envelope = error_envelope(
            WireError("bad_json", "nope"), request_id="abc"
        )
        assert envelope["ok"] is False
        assert envelope["id"] == "abc"
        assert envelope["error"]["code"] == "bad_json"
        assert envelope["error"]["message"] == "nope"


class TestPayloadParsing:
    def test_wrapped_job(self):
        job, include = parse_prepare_payload({"job": ghz_dict()})
        assert isinstance(job, PreparationJob)
        assert job.family == "ghz"
        assert include is False

    def test_bare_job_with_envelope_fields(self):
        job, include = parse_prepare_payload({
            "v": PROTOCOL_VERSION, "id": 9, "op": "prepare",
            "include_circuit": True, **ghz_dict(),
        })
        assert job.dims == (3, 6, 2)
        assert include is True

    def test_missing_dims_rejected(self):
        with pytest.raises(WireError) as info:
            parse_prepare_payload({"op": "prepare"})
        assert info.value.code == "bad_request"

    def test_bad_job_maps_to_job_spec(self):
        with pytest.raises(WireError) as info:
            parse_prepare_payload({"job": {"family": "nope", "dims": [2]}})
        assert info.value.code == "job_spec"

    def test_version_check(self):
        with pytest.raises(WireError) as info:
            parse_prepare_payload({"v": 99, "job": ghz_dict()})
        assert info.value.code == "unsupported_version"

    def test_defaults_layer_under_wire_jobs(self):
        job, _ = parse_prepare_payload(
            {"job": ghz_dict()}, defaults={"verify": False}
        )
        assert job.options.verify is False
        job, _ = parse_prepare_payload(
            {"job": {**ghz_dict(), "verify": True}},
            defaults={"verify": False},
        )
        assert job.options.verify is True  # per-job field wins

    def test_batch_payload_uses_spec_parser(self):
        jobs, include = parse_batch_payload({
            "jobs": [ghz_dict(), {"family": "w", "dims": [2, 2, 2]}],
            "defaults": {"verify": True},
            "include_circuit": True,
            "id": 1, "op": "batch",
        })
        assert [job.family for job in jobs] == ["ghz", "w"]
        assert include is True

    def test_batch_payload_needs_jobs(self):
        with pytest.raises(WireError) as info:
            parse_batch_payload({"op": "batch"})
        assert info.value.code == "job_spec"

    def test_batch_payload_rejects_unknown_keys(self):
        # Parity with `python -m repro batch`: a misspelled
        # 'defaults' must be an error, not silently ignored.
        with pytest.raises(WireError) as info:
            parse_batch_payload({
                "jobs": [ghz_dict()],
                "default": {"verify": False},
            })
        assert info.value.code == "job_spec"


class TestOutcomeWire:
    @pytest.fixture(scope="class")
    def outcome(self):
        return PreparationEngine().submit(
            PreparationJob(dims=(3, 6, 2), family="ghz")
        )

    def test_success_fields(self, outcome):
        wire = outcome_to_wire(outcome)
        assert wire["ok"] is True
        assert wire["dims"] == [3, 6, 2]
        assert wire["key"] == outcome.key
        assert wire["report"]["operations"] == outcome.report.operations
        assert wire["report"]["dims"] == [3, 6, 2]
        assert wire["report"] == {
            **dataclasses.asdict(outcome.report), "dims": [3, 6, 2],
        }
        assert "stage_timings" in wire
        assert "circuit" not in wire
        json.dumps(wire)  # JSON-clean

    def test_include_circuit_carries_qdasm(self, outcome):
        from repro.circuit import qasm

        wire = outcome_to_wire(outcome, include_circuit=True)
        circuit = qasm.loads(str(wire["circuit"]))
        assert len(circuit) == len(outcome.circuit)

    def test_failure_fields(self):
        outcome = PreparationEngine().submit(PreparationJob(
            dims=(2, 2), family="dicke",
            params={"excitations": 7},
        ))
        assert not outcome.ok
        wire = outcome_to_wire(outcome)
        assert wire["ok"] is False
        assert wire["error"]["type"] == outcome.error_type
        assert wire["error"]["code"] != ""
        json.dumps(wire)

    def test_comparable_form_mirrors_comparable_outcome(self, outcome):
        # Serialising then stripping == stripping then serialising.
        via_wire = comparable_wire_outcome(
            outcome_to_wire(outcome, include_circuit=True)
        )
        via_engine = outcome_to_wire(comparable_outcome(outcome))
        via_engine.pop("cache_hit")
        via_engine.pop("elapsed")
        via_engine.pop("stage_timings")
        assert via_wire == via_engine


class TestExecuteRequest:
    def test_prepare_and_stats(self):
        async def scenario():
            async with AsyncPreparationService() as service:
                outcome = await execute_request(
                    service, "prepare", {"job": ghz_dict()}
                )
                stats = await execute_request(service, "stats", {})
            return outcome, stats

        outcome, stats = asyncio.run(scenario())
        assert outcome["ok"] is True
        assert stats["requests"] == 1
        assert stats["engine"]["jobs_submitted"] == 1

    def test_unknown_op_rejected(self):
        async def scenario():
            async with AsyncPreparationService() as service:
                with pytest.raises(WireError) as info:
                    await execute_request(service, "frobnicate", {})
                return info.value

        assert asyncio.run(scenario()).code == "unknown_op"

    def test_per_job_failure_travels_inside_result(self):
        async def scenario():
            async with AsyncPreparationService() as service:
                return await execute_request(service, "batch", {
                    "jobs": [
                        ghz_dict(),
                        {"family": "dicke", "dims": [2, 2],
                         "params": {"excitations": 7}},
                    ],
                })

        result = asyncio.run(scenario())
        assert result["outcomes"][0]["ok"] is True
        assert result["outcomes"][1]["ok"] is False
        assert "code" in result["outcomes"][1]["error"]


RANDOM_JOB = {"family": "random", "dims": [3, 6, 2], "params": {"rng": 5}}


def fresh_wire(job_dict: dict) -> dict:
    """Wire form of a fresh in-process compile: its QDASM literal is
    written for it and kept nowhere."""
    job, _ = parse_prepare_payload({"job": job_dict})
    return outcome_to_wire(
        PreparationEngine().submit(job), include_circuit=True
    )


def prepare_with_circuit(service, job_dict: dict):
    return execute_request(
        service, "prepare", {"job": job_dict, "include_circuit": True}
    )


class TestCircuitTextReuse:
    """A cache entry's QDASM text is made by its first hit that asks
    for the circuit, kept as its JSON literal, and every later hit
    reuses that object."""

    def test_miss_keeps_nothing_and_hits_share_one_literal(self):
        async def scenario():
            async with AsyncPreparationService() as service:
                miss = await prepare_with_circuit(service, RANDOM_JOB)
                entry = service.engine.cache.peek(miss["key"])
                after_miss = entry.circuit._literal
                await execute_request(
                    service, "prepare", {"job": RANDOM_JOB}
                )
                after_plain_hit = entry.circuit._literal
                first = await prepare_with_circuit(service, RANDOM_JOB)
                second = await prepare_with_circuit(service, RANDOM_JOB)
                return (
                    miss, after_miss, after_plain_hit, first, second,
                    entry.circuit._literal,
                )

        miss, after_miss, after_plain_hit, first, second, kept = (
            asyncio.run(scenario())
        )
        assert miss["cache_hit"] is False
        assert after_miss is None and after_plain_hit is None
        assert first["cache_hit"] is True and second["cache_hit"] is True
        assert isinstance(kept, QdasmLiteral)
        assert first["circuit"] is kept
        assert second["circuit"] is kept
        reference = fresh_wire(RANDOM_JOB)
        assert kept.json == json.dumps(str(reference["circuit"])).encode()
        for wire in (miss, first, second):
            assert str(wire["circuit"]) == str(reference["circuit"])
            assert comparable_wire_outcome(wire) == (
                comparable_wire_outcome(reference)
            )

    def test_disk_backed_miss_writes_its_literal_once(
        self, monkeypatch, tmp_path
    ):
        # The literal spliced into the entry's file stays on the
        # circuit, so the response sends it as it is: no second write
        # and no thread hop to make one.
        from repro.circuit import qasm
        from repro.engine import CircuitCache
        from repro.net import protocol

        writes = []
        write = qasm._write

        def counted(*args, **kwargs):
            writes.append(args)
            return write(*args, **kwargs)

        monkeypatch.setattr(qasm, "_write", counted)
        engine = PreparationEngine(cache=CircuitCache(disk_dir=tmp_path))
        outcome = engine.submit(PreparationJob(
            dims=(4, 7, 4, 4, 3, 5), family="random", params={"rng": 5}
        ))
        assert outcome.ok and not outcome.cache_hit
        assert len(writes) == 1
        wire = outcome_to_wire(outcome, include_circuit=True)
        assert len(writes) == 1
        hops = []

        async def no_hop(function, *args, **kwargs):
            hops.append(function.__name__)
            return function(*args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", no_hop)
        (encoded,) = asyncio.run(protocol._encode([outcome], True))
        assert hops == [] and len(writes) == 1
        assert encoded["circuit"] is wire["circuit"]
        stored = json.loads((tmp_path / f"{outcome.key}.json").read_text())
        assert stored["qdasm"] == str(wire["circuit"])

    def test_miss_literal_is_written_off_the_event_loop(self, monkeypatch):
        from repro.circuit import qasm

        writers = []
        write = qasm.literal

        def spy(circuit):
            writers.append(threading.get_ident())
            return write(circuit)

        monkeypatch.setattr(qasm, "literal", spy)

        async def scenario():
            async with AsyncPreparationService() as service:
                wires = [
                    await prepare_with_circuit(service, RANDOM_JOB)
                    for _ in range(3)
                ]
            return threading.get_ident(), wires

        loop_thread, (miss, first, second) = asyncio.run(scenario())
        # The miss's literal is written on a worker thread; the first
        # hit's, kept for every later hit, on the event loop.
        assert len(writers) == 2
        assert writers[0] != loop_thread
        assert writers[1] == loop_thread
        assert miss["cache_hit"] is False and first["cache_hit"] is True
        assert second["circuit"] is first["circuit"]
        assert str(miss["circuit"]) == str(first["circuit"])

    def test_disk_hit_text_matches_a_fresh_compile(self, tmp_path):
        async def serve(*job_dicts):
            async with AsyncPreparationService(
                disk_dir=tmp_path
            ) as service:
                wires = [
                    await prepare_with_circuit(service, job_dict)
                    for job_dict in job_dicts
                ]
                return wires, service.stats()

        (miss,), _ = asyncio.run(serve(RANDOM_JOB))
        (first, second), stats = asyncio.run(
            serve(RANDOM_JOB, RANDOM_JOB)
        )
        assert miss["cache_hit"] is False
        assert first["cache_hit"] is True and second["cache_hit"] is True
        assert stats.engine.disk_hits == 1
        assert stats.batches_dispatched == 0
        assert isinstance(first["circuit"], QdasmLiteral)
        assert second["circuit"] is first["circuit"]
        reference = fresh_wire(RANDOM_JOB)
        assert str(first["circuit"]) == str(reference["circuit"])
        assert comparable_wire_outcome(first) == (
            comparable_wire_outcome(reference)
        )

    def test_cluster_relayed_hit_matches_a_fresh_compile(self):
        from repro.cluster import (
            ClusterConfig,
            ClusterPreparationService,
            ShardAddress,
        )
        from repro.net import HttpServer

        async def scenario():
            shard_service = AsyncPreparationService()
            await shard_service.start()
            shard = await HttpServer(shard_service).start()
            config = ClusterConfig(
                shards=(ShardAddress("shard-00", "127.0.0.1", shard.port),),
                health_interval=60.0,
            )
            try:
                async with ClusterPreparationService(
                    config=config
                ) as front:
                    wires = [
                        await prepare_with_circuit(front, RANDOM_JOB)
                        for _ in range(2)
                    ]
                    stats = front.stats()
            finally:
                await shard.stop()
            return wires, stats, shard_service.stats()

        (miss, hit), front_stats, shard_stats = asyncio.run(scenario())
        # The front end holds no circuits: it forwards every request,
        # and the shard answers the repeat at its door.
        assert front_stats.batches_dispatched == 2
        assert shard_stats.batches_dispatched == 1
        assert miss["cache_hit"] is False and hit["cache_hit"] is True
        reference = fresh_wire(RANDOM_JOB)
        for wire in (miss, hit):
            assert str(wire["circuit"]) == str(reference["circuit"])
            assert comparable_wire_outcome(wire) == (
                comparable_wire_outcome(reference)
            )


class TestOutcomeFromWire:
    """Round-tripping outcomes through the wire (cluster relay path)."""

    @pytest.fixture(scope="class")
    def job(self):
        return PreparationJob(dims=(3, 6, 2), family="ghz")

    @pytest.fixture(scope="class")
    def outcome(self, job):
        return PreparationEngine().submit(job)

    def test_success_round_trip_with_circuit(self, job, outcome):
        wire = outcome_to_wire(outcome, include_circuit=True)
        rebuilt = outcome_from_wire(
            json.loads(json.dumps(dict(wire, circuit=str(wire["circuit"])))),
            job,
        )
        assert rebuilt.ok
        assert rebuilt.key == outcome.key
        assert rebuilt.job is job
        assert rebuilt.report == outcome.report
        assert len(rebuilt.circuit) == len(outcome.circuit)
        assert comparable_outcome(rebuilt) == comparable_outcome(outcome)

    @pytest.mark.parametrize("cache_hit", [False, True])
    def test_relay_sends_the_received_text(
        self, job, outcome, cache_hit, monkeypatch
    ):
        # A relayed circuit is written as the text it came in: no
        # QDASM is written, and the text is escaped only when a
        # client asks for the circuit.
        from repro.circuit import qasm

        text = str(outcome_to_wire(outcome, include_circuit=True)["circuit"])
        wire = dict(
            json.loads(json.dumps(outcome_to_wire(outcome))),
            circuit=text, cache_hit=cache_hit,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("nothing may be written or escaped here")

        with monkeypatch.context() as patch:
            patch.setattr(qasm, "_write", refuse)
            patch.setattr(json, "dumps", refuse)
            relayed = outcome_from_wire(wire, job)
            outcome_to_wire(relayed)
            sent = outcome_to_wire(relayed, include_circuit=True)["circuit"]
        assert relayed.cache_hit is cache_hit
        assert isinstance(sent, QdasmLiteral)
        assert str(sent) == text
        assert sent.json == json.dumps(text).encode()

    def test_success_without_circuit_yields_none(self, job, outcome):
        rebuilt = outcome_from_wire(outcome_to_wire(outcome), job)
        assert rebuilt.ok
        assert rebuilt.circuit is None
        assert rebuilt.report == outcome.report

    def test_failure_round_trip(self):
        job = PreparationJob(
            dims=(2, 2), family="dicke", params={"excitations": 7}
        )
        outcome = PreparationEngine().submit(job)
        assert not outcome.ok
        rebuilt = outcome_from_wire(outcome_to_wire(outcome), job)
        assert not rebuilt.ok
        assert rebuilt.error_type == outcome.error_type
        assert rebuilt.message == outcome.message

    def test_unknown_report_fields_from_newer_peer_ignored(
        self, job, outcome
    ):
        wire = outcome_to_wire(outcome)
        wire["report"] = dict(
            wire["report"], invented_in_v99="whatever"
        )
        rebuilt = outcome_from_wire(wire, job)
        assert rebuilt.report == outcome.report

    @pytest.mark.parametrize(
        "mutation",
        [
            {"ok": "yes"},                      # ok not a bool
            {"key": 7},                         # key not a string
            {"report": None},                   # success without report
            {"report": {"wrong": "shape"}},     # unusable report
            {"circuit": "not qdasm"},           # unparseable circuit
            # circuits with bad numbers
            {"circuit": "QDASM 1.0\ndims 2\nglobalphase abc\n"},
            {"circuit": "QDASM 1.0\ndims 2\nglobalphase nan\n"},
            {"circuit": (
                "QDASM 1.0\ndims 3\n"
                "givens t=0 i=0 j=1 theta=nan phi=0\n"
            )},
            {"stage_timings": "fast"},          # timings not an object
        ],
    )
    def test_malformed_wire_is_bad_response(
        self, job, outcome, mutation
    ):
        wire = outcome_to_wire(outcome, include_circuit=True)
        wire.update(mutation)
        with pytest.raises(WireError) as info:
            outcome_from_wire(wire, job)
        assert info.value.code == "bad_response"
