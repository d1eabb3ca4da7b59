"""Tests for the batch preparation engine: jobs, cache, execution."""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.circuit import Circuit, GivensRotation, ShiftGate, UnitaryGate, qasm
from repro.engine import cache as cache_module
from repro.engine import (
    CacheEntry,
    CacheStats,
    CircuitCache,
    ParallelExecutor,
    PreparationEngine,
    PreparationJob,
    SerialExecutor,
    SynthesisOptions,
    as_executor,
    comparable_report,
    content_key,
)
from repro.exceptions import EngineError, JobSpecError, SerializationError
from repro.simulator import simulate
from repro.states import fidelity, ghz_state


def ghz_job(dims=(3, 6, 2), **kwargs) -> PreparationJob:
    return PreparationJob(dims=dims, family="ghz", **kwargs)


#: |2, 1> on (3, 2): amplitudes of exactly 0 and 1.
BASIS_JOB = PreparationJob(
    dims=(3, 2), family="basis", params={"digits": [2, 1]}
)

#: BASIS_JOB's content key before keys named the circuit format.
PRE_FORMAT_KEY = (
    "70035875e7a2a44e2e1c7947d1c95b4e6a802efcc22f7115063d1af844300356"
)

#: BASIS_JOB's content key under the ``"level-major"`` circuit format.
LEVEL_MAJOR_KEY = (
    "d3cb3fe67e68e44ebb78927a029d03b5a002642f7b87d6e848b855a02f7509c2"
)


MIXED_BATCH = [
    PreparationJob(dims=(3, 6, 2), family="ghz"),
    PreparationJob(dims=(2, 2, 2), family="w"),
    PreparationJob(dims=(4, 3), family="random", params={"rng": 3}),
    PreparationJob(dims=(2, 2), amplitudes=[1, 0, 0, 1]),
    PreparationJob(
        dims=(2, 3, 2),
        family="dicke",
        params={"excitations": 2},
    ),
]


class TestPreparationJob:
    def test_requires_exactly_one_source(self):
        with pytest.raises(JobSpecError):
            PreparationJob(dims=(2, 2))
        with pytest.raises(JobSpecError):
            PreparationJob(
                dims=(2, 2), family="ghz", amplitudes=[1, 0, 0, 0]
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(JobSpecError, match="unknown state family"):
            PreparationJob(dims=(2, 2), family="bogus")

    def test_invalid_dims_rejected(self):
        with pytest.raises(JobSpecError):
            PreparationJob(dims=(1,), family="uniform")

    def test_bad_amplitudes_rejected(self):
        with pytest.raises(JobSpecError):
            PreparationJob(dims=(2,), amplitudes=[[1, 2], [3]])
        with pytest.raises(JobSpecError):
            PreparationJob(dims=(2,), amplitudes=[])

    def test_options_validated(self):
        with pytest.raises(JobSpecError):
            SynthesisOptions(min_fidelity=0.0)
        with pytest.raises(JobSpecError):
            SynthesisOptions(min_fidelity=1.5)
        with pytest.raises(JobSpecError):
            SynthesisOptions(approximation_granularity="bogus")

    def test_options_reject_wrong_types(self):
        with pytest.raises(JobSpecError, match="must be a number"):
            SynthesisOptions(min_fidelity="0.9")
        with pytest.raises(JobSpecError, match="must be a number"):
            SynthesisOptions(min_fidelity=True)
        with pytest.raises(JobSpecError, match="must be a boolean"):
            SynthesisOptions(verify="yes")
        with pytest.raises(JobSpecError, match="must be a boolean"):
            SynthesisOptions(tensor_elision=1)

    def test_default_label(self):
        assert ghz_job().label == "ghz-3x6x2"
        assert (
            PreparationJob(dims=(2, 2), amplitudes=[1, 0, 0, 0]).label
            == "amplitudes-2x2"
        )

    def test_resolve_state_matches_library(self):
        state = ghz_job().resolve_state()
        assert state.isclose(ghz_state((3, 6, 2)))

    def test_resolution_failure_is_deferred(self):
        # Structurally valid job whose family parameters are
        # impossible: construction succeeds, resolution raises.
        job = ghz_job(dims=(2, 2), params={"levels": 5})
        with pytest.raises(Exception, match="impossible"):
            job.resolve_state()

    def test_jobs_are_picklable(self):
        import pickle

        job = ghz_job()
        clone = pickle.loads(pickle.dumps(job))
        assert clone.dims == job.dims
        assert clone.resolve_state().isclose(job.resolve_state())

    def test_describe_round_trips_through_spec(self):
        from repro.engine import job_from_dict

        for job in MIXED_BATCH:
            clone = job_from_dict(job.describe())
            assert content_key(
                clone.resolve_state(), clone.options
            ) == content_key(job.resolve_state(), job.options)


class TestContentKey:
    def test_same_state_same_key_across_descriptions(self):
        by_family = ghz_job(dims=(2, 2))
        amplitudes = ghz_state((2, 2)).amplitudes
        by_amplitudes = PreparationJob(
            dims=(2, 2), amplitudes=amplitudes
        )
        assert content_key(
            by_family.resolve_state(), by_family.options
        ) == content_key(
            by_amplitudes.resolve_state(), by_amplitudes.options
        )

    def test_normalisation_invariance(self):
        a = PreparationJob(dims=(2, 2), amplitudes=[1, 0, 0, 1])
        b = PreparationJob(dims=(2, 2), amplitudes=[7, 0, 0, 7])
        assert content_key(
            a.resolve_state(), a.options
        ) == content_key(b.resolve_state(), b.options)

    def test_options_change_key(self):
        state = ghz_state((2, 2))
        exact = SynthesisOptions()
        approx = SynthesisOptions(min_fidelity=0.9)
        assert content_key(state, exact) != content_key(state, approx)

    def test_different_states_different_keys(self):
        options = SynthesisOptions()
        assert content_key(ghz_state((2, 2)), options) != content_key(
            ghz_state((3, 3)), options
        )

    def test_key_is_pinned(self):
        # Amplitudes of exactly 0 and 1 leave no rounding to move this
        # key: it changes only when the key's inputs do, the circuit
        # format among them, so a change of synthesis output must
        # change CIRCUIT_FORMAT on purpose.
        job = BASIS_JOB
        assert content_key(job.resolve_state(), job.options) == (
            "bdb275c02b6fb940f6a9fe6c8a1deb94f696d1fa44443426cb90a5da4b918db1"
        )

    def test_entry_of_an_older_circuit_format_misses(self, tmp_path):
        # A disk entry stored under the key the job had before keys
        # named the circuit format (when synthesis emitted blocks in
        # depth-first post-order) is never served.
        self.assert_stale_key_misses(tmp_path, PRE_FORMAT_KEY)

    def test_entry_of_the_level_major_format_misses(self, tmp_path):
        # Nor is one stored under the "level-major" format, before
        # approximation renormalised only the rows it changed.
        self.assert_stale_key_misses(tmp_path, LEVEL_MAJOR_KEY)

    @staticmethod
    def assert_stale_key_misses(tmp_path, stale_key):
        stale = PreparationEngine().submit(BASIS_JOB)
        CircuitCache(disk_dir=tmp_path).put(
            CacheEntry(
                key=stale_key, circuit=stale.circuit, report=stale.report
            )
        )
        assert CircuitCache(disk_dir=tmp_path).get(stale_key) is not None
        engine = PreparationEngine(cache=CircuitCache(disk_dir=tmp_path))
        outcome = engine.submit(BASIS_JOB)
        assert outcome.ok and not outcome.cache_hit
        assert outcome.key != stale_key
        assert engine.stats().disk_hits == 0
        assert engine.stats().jobs_executed == 1
        assert CircuitCache(disk_dir=tmp_path).get(outcome.key) is not None


class TestCircuitCache:
    def _entry(self, key="k") -> CacheEntry:
        engine = PreparationEngine()
        outcome = engine.submit(ghz_job(dims=(2, 2)))
        return CacheEntry(
            key=key, circuit=outcome.circuit, report=outcome.report
        )

    def test_hit_miss_counters(self):
        cache = CircuitCache(capacity=4)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1
        entry = self._entry()
        cache.put(entry)
        assert cache.get("k") is entry
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_lru_eviction_order(self):
        cache = CircuitCache(capacity=2)
        for key in ("a", "b"):
            cache.put(self._entry(key))
        cache.get("a")          # "a" is now most recently used
        cache.put(self._entry("c"))  # evicts "b"
        assert cache.stats.evictions == 1
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.get("b") is None

    def test_zero_capacity_disables_memory(self):
        cache = CircuitCache(capacity=0)
        cache.put(self._entry())
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(EngineError):
            CircuitCache(capacity=-1)

    def test_disk_round_trip(self, tmp_path):
        writer = CircuitCache(capacity=4, disk_dir=tmp_path)
        entry = self._entry()
        writer.put(entry)
        # A fresh cache over the same directory serves it from disk.
        reader = CircuitCache(capacity=4, disk_dir=tmp_path)
        loaded = reader.get("k")
        assert loaded is not None
        assert reader.stats.disk_hits == 1
        assert loaded.report == entry.report
        prepared = simulate(loaded.circuit)
        assert fidelity(
            prepared, simulate(entry.circuit)
        ) == pytest.approx(1.0, abs=1e-9)
        # ... and promotes it to memory: second get is a memory hit.
        assert reader.get("k") is not None
        assert reader.stats.disk_hits == 1

    def test_disk_text_is_made_outside_the_lock(self, tmp_path, monkeypatch):
        # While a store writes its file's text, a lookup of another
        # key on the same cache is answered, not turned away.
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        stored = self._entry("stored")
        cache.put(stored)
        seen = []
        make_text = cache_module._entry_to_json

        def probing(entry):
            found = []
            probe = threading.Thread(
                target=lambda: found.append(cache.get_in_memory("stored"))
            )
            probe.start()
            probe.join(timeout=10)
            assert not probe.is_alive()
            seen.extend(found)
            return make_text(entry)

        monkeypatch.setattr(cache_module, "_entry_to_json", probing)
        cache.put(self._entry("new"))
        assert seen == [stored]
        assert cache.stats.stores == 2
        assert cache.peek("new") is not None
        assert CircuitCache(disk_dir=tmp_path).get("new") is not None

    def test_disk_file_is_the_plain_json_of_the_entry(self, tmp_path):
        # The circuit's JSON literal is spliced into the file, whose
        # text stays the plain JSON encoding of the entry: for a
        # circuit held as a table and for one held as a gate list.
        table = self._entry("table")
        assert table.circuit.table is not None
        gates = Circuit((3, 2))
        gates.append(
            GivensRotation(0, 0, 2, 0.7523, -0.311, controls=[(1, 1)])
        )
        gates.append(ShiftGate(1, 1))
        gates.add_global_phase(0.125)
        listed = CacheEntry(key="gates", circuit=gates, report=table.report)
        assert listed.circuit.table is None
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        for entry in (table, listed):
            cache.put(entry)
            report = dataclasses.asdict(entry.report)
            report["dims"] = list(report["dims"])
            assert (tmp_path / f"{entry.key}.json").read_text() == json.dumps(
                {
                    "key": entry.key,
                    "qdasm": qasm.dumps(entry.circuit),
                    "report": report,
                }
            )
        fresh = CircuitCache(capacity=4, disk_dir=tmp_path)
        assert fresh.get("gates").circuit == gates

    def test_circuit_without_qdasm_form_is_not_stored(self, tmp_path):
        circuit = Circuit((2,))
        circuit.append(UnitaryGate(0, np.eye(2)))
        entry = CacheEntry(
            key="k", circuit=circuit, report=self._entry().report
        )
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        with pytest.raises(SerializationError):
            cache.put(entry)
        assert cache.stats.stores == 0
        assert len(cache) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "corruption", ["not-json", "nan-phase", "huge-dimension", "wrong-key"]
    )
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, corruption):
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        path = tmp_path / "bad.json"
        if corruption == "not-json":
            path.write_text("{not json")
        elif corruption in ("nan-phase", "huge-dimension"):
            # A well-formed entry edited to carry a NaN global phase, or
            # a dimension no table column holds.
            CircuitCache(capacity=4, disk_dir=tmp_path).put(
                self._entry("bad")
            )
            payload = json.loads(path.read_text())
            if corruption == "nan-phase":
                payload["qdasm"] += "globalphase nan\n"
            else:
                payload["qdasm"] = payload["qdasm"].replace(
                    "\ndims ", "\ndims 20000000000000000000 ", 1
                )
            path.write_text(json.dumps(payload))
        else:
            # A well-formed entry of another key, copied to this one.
            CircuitCache(capacity=4, disk_dir=tmp_path).put(
                self._entry("other")
            )
            path.write_text((tmp_path / "other.json").read_text())
        assert cache.get("bad") is None
        assert "bad" not in cache
        assert cache.stats.disk_hits == 0

    def test_contains_agrees_with_get_on_corrupt_disk_file(
        self, tmp_path
    ):
        # Regression: ``__contains__`` used to test mere file
        # existence, so a torn/corrupt disk file made ``key in cache``
        # True while ``get(key)`` returned None.
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert "bad" not in cache
        assert cache.get("bad") is None
        # A parseable entry is reported present through both paths.
        entry = self._entry("good")
        cache.put(entry)
        fresh = CircuitCache(capacity=4, disk_dir=tmp_path)
        assert "good" in fresh
        assert fresh.get("good") is not None

    def test_peek_counts_nothing_and_promotes_nothing(self, tmp_path):
        writer = CircuitCache(capacity=4, disk_dir=tmp_path)
        writer.put(self._entry())
        reader = CircuitCache(capacity=4, disk_dir=tmp_path)
        peeked = reader.peek("k")
        assert peeked is not None
        assert reader.stats == CacheStats()
        assert len(reader) == 0, "peek must not promote disk entries"
        # ``in`` is peek-backed: also uncounted.
        assert "k" in reader
        assert reader.stats.lookups == 0

    def test_peek_preserves_lru_order(self):
        cache = CircuitCache(capacity=2)
        for key in ("a", "b"):
            cache.put(self._entry(key))
        cache.peek("a")              # must NOT refresh "a"
        cache.put(self._entry("c"))  # evicts "a" (still oldest)
        assert cache.peek("a") is None
        assert cache.peek("b") is not None

    def test_get_if_present_counts_hits_but_never_misses(self, tmp_path):
        cache = CircuitCache(capacity=4, disk_dir=tmp_path)
        assert cache.get_if_present("absent") is None
        assert cache.stats == CacheStats()      # nothing recorded
        cache.put(self._entry())
        assert cache.get_if_present("k") is not None
        assert cache.stats.hits == 1
        # Disk-resident entries are promoted, exactly like get().
        fresh = CircuitCache(capacity=4, disk_dir=tmp_path)
        assert fresh.get_if_present("k") is not None
        assert fresh.stats.disk_hits == 1
        assert len(fresh) == 1

    def test_lookups_is_derived_so_invariant_cannot_tear(self):
        stats = CacheStats(hits=3, misses=2)
        assert stats.lookups == 5
        assert "lookups" in stats.as_dict()
        merged = stats.merged(CacheStats(hits=1))
        assert merged.lookups == merged.hits + merged.misses == 6

    def test_lookup_invariant_holds_across_traffic(self, tmp_path):
        cache = CircuitCache(capacity=2, disk_dir=tmp_path)
        cache.get("absent")
        cache.put(self._entry("a"))
        cache.get("a")
        cache.put(self._entry("b"))
        cache.put(self._entry("c"))     # evicts "a" from memory
        cache.get("a")                  # disk hit
        cache.get("missing")
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups == 4
        assert stats.disk_hits == 1

    def test_unwritable_disk_layer_never_raises(self, tmp_path):
        # Pointing disk_dir at an existing *file* makes every write
        # fail; the entry must still be served from memory.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        cache = CircuitCache(capacity=4, disk_dir=blocker)
        entry = self._entry()
        cache.put(entry)
        assert cache.stats.disk_write_errors == 1
        assert cache.get("k") is entry


class TestExecutors:
    def test_as_executor_coercions(self):
        assert isinstance(as_executor(None), SerialExecutor)
        assert isinstance(as_executor("serial"), SerialExecutor)
        assert isinstance(as_executor("parallel"), ParallelExecutor)
        backend = SerialExecutor()
        assert as_executor(backend) is backend
        with pytest.raises(EngineError):
            as_executor("threads")

    def test_invalid_parallel_configuration(self):
        with pytest.raises(EngineError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(EngineError):
            ParallelExecutor(max_workers=2, chunk_size=0)

    def test_empty_batch(self):
        assert ParallelExecutor(max_workers=2).run(abs, []) == []
        assert SerialExecutor().run(abs, []) == []

    def test_chunk_size_default_spreads_work(self):
        executor = ParallelExecutor(max_workers=4)
        assert executor._resolve_chunk_size(100) == 7
        assert executor._resolve_chunk_size(1) == 1
        assert ParallelExecutor(
            max_workers=4, chunk_size=3
        )._resolve_chunk_size(100) == 3

    def test_chunk_size_uses_actual_worker_count(self):
        # Regression: the default chunk size divided by the
        # *configured* max_workers even though ``run`` clamps the pool
        # to the actual worker count; the actual count must drive the
        # four-chunks-per-worker target.
        executor = ParallelExecutor(max_workers=8)
        assert executor._resolve_chunk_size(100, num_workers=2) == 13
        assert executor._resolve_chunk_size(100, num_workers=8) == 4
        # Explicit chunk_size still wins over any worker count.
        assert ParallelExecutor(
            max_workers=8, chunk_size=5
        )._resolve_chunk_size(100, num_workers=2) == 5
        # Without an explicit count the clamp is applied internally:
        # 6 items on an 8-wide pool means 6 workers, not 8.
        assert executor._resolve_chunk_size(6) == 1


class TestPreparationEngine:
    def test_submission_order_preserved(self):
        engine = PreparationEngine()
        batch = engine.run_batch(MIXED_BATCH)
        assert [o.job.label for o in batch.outcomes] == [
            j.label for j in MIXED_BATCH
        ]
        assert not batch.failures

    def test_results_verify_against_targets(self):
        engine = PreparationEngine()
        for outcome in engine.run_batch(MIXED_BATCH).outcomes:
            prepared = simulate(outcome.circuit)
            target = outcome.job.resolve_state()
            assert fidelity(prepared, target) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_amplitudes_whose_squares_overflow_prepare(self):
        # |a|^2 overflows above about 1e154; the amplitudes are finite.
        job = PreparationJob(dims=(2, 2), amplitudes=[1e200, 1e200, 0, 0])
        outcome = PreparationEngine().run_batch([job]).outcomes[0]
        assert outcome.ok
        assert outcome.report.fidelity >= 1.0 - 1e-10
        prepared = simulate(outcome.circuit)
        assert fidelity(
            prepared, PreparationJob(dims=(2, 2), amplitudes=[1, 1, 0, 0])
            .resolve_state()
        ) >= 1.0 - 1e-10

    def test_intra_batch_dedup_reports_cache_hits(self):
        engine = PreparationEngine()
        batch = engine.run_batch([ghz_job(), ghz_job(), ghz_job()])
        hits = [o.cache_hit for o in batch.outcomes]
        assert hits == [False, True, True]
        assert engine.stats().jobs_executed == 1
        assert engine.stats().cache_hits == 2

    def test_warm_rerun_is_all_hits(self):
        engine = PreparationEngine()
        engine.run_batch(MIXED_BATCH)
        warm = engine.run_batch(MIXED_BATCH)
        assert warm.num_cache_hits == len(MIXED_BATCH)
        assert engine.stats().jobs_executed == len(MIXED_BATCH)

    def test_cache_hits_preserve_reports(self):
        engine = PreparationEngine()
        cold = engine.run_batch(MIXED_BATCH)
        warm = engine.run_batch(MIXED_BATCH)
        assert [o.report for o in warm.outcomes] == [
            o.report for o in cold.outcomes
        ]

    def test_error_isolation_malformed_job(self):
        bad = ghz_job(dims=(2, 2), params={"levels": 5})
        engine = PreparationEngine()
        batch = engine.run_batch([ghz_job(), bad, ghz_job(dims=(2, 2))])
        assert [o.ok for o in batch.outcomes] == [True, False, True]
        failure = batch.outcomes[1]
        assert failure.error_type == "DimensionError"
        assert "impossible" in failure.message
        assert engine.stats().jobs_failed == 1

    def test_failed_duplicates_fail_consistently(self):
        bad = ghz_job(dims=(2, 2), params={"levels": 5})
        batch = PreparationEngine().run_batch([bad, bad])
        assert [o.ok for o in batch.outcomes] == [False, False]
        assert (
            batch.outcomes[0].error_type
            == batch.outcomes[1].error_type
        )

    def test_raise_on_failure(self):
        bad = ghz_job(dims=(2, 2), params={"levels": 5})
        batch = PreparationEngine().run_batch([bad])
        with pytest.raises(EngineError, match="1 of 1 jobs failed"):
            batch.raise_on_failure()

    def test_submit_single_job(self):
        outcome = PreparationEngine().submit(ghz_job())
        assert outcome.ok
        assert outcome.report.operations == 19  # Table 1 GHZ row

    def test_serial_and_parallel_agree(self):
        # Results are pickled in the workers and unpickled here; the
        # round trip must keep circuits and reports equal to serial.
        serial = PreparationEngine(executor="serial")
        parallel = PreparationEngine(
            executor=ParallelExecutor(max_workers=2, chunk_size=2)
        )
        batch_serial = serial.run_batch(MIXED_BATCH)
        batch_parallel = parallel.run_batch(MIXED_BATCH)
        for outcome in batch_parallel.outcomes:
            assert outcome.ok, outcome
            assert outcome.report.dd_nodes > 0

        def comparable(batch):
            return [
                (o.key, o.circuit, comparable_report(o.report))
                for o in batch.outcomes
            ]

        assert comparable(batch_parallel) == comparable(batch_serial)

    def test_dd_nodes_gauge_reports_last_executed_job(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        engine = PreparationEngine(metrics=registry)
        outcome = engine.submit(ghz_job(dims=(2, 3, 2)))
        assert outcome.ok
        assert outcome.report.dd_nodes > 0
        samples = [
            line
            for line in registry.render_prometheus().splitlines()
            if line.startswith("repro_dd_")
        ]
        assert samples == [f"repro_dd_nodes {outcome.report.dd_nodes}"]

    def test_parallel_error_isolation(self):
        bad = ghz_job(dims=(2, 2), params={"levels": 5})
        engine = PreparationEngine(
            executor=ParallelExecutor(max_workers=2)
        )
        batch = engine.run_batch([ghz_job(), bad])
        assert [o.ok for o in batch.outcomes] == [True, False]

    def test_approximate_options_flow_through(self):
        rng_state = PreparationJob(
            dims=(3, 3, 2),
            family="random",
            params={"rng": 5},
            options=SynthesisOptions(min_fidelity=0.9),
        )
        outcome = PreparationEngine().submit(rng_state)
        assert outcome.ok
        assert 0.9 <= outcome.report.approximation_fidelity <= 1.0

    def test_engine_with_disk_cache_survives_restart(self, tmp_path):
        first = PreparationEngine(
            cache=CircuitCache(disk_dir=tmp_path)
        )
        first.run_batch([ghz_job()])
        second = PreparationEngine(
            cache=CircuitCache(disk_dir=tmp_path)
        )
        outcome = second.submit(ghz_job())
        assert outcome.cache_hit
        assert second.stats().disk_hits == 1
        assert second.stats().jobs_executed == 0

    def test_stats_wall_time_accumulates(self):
        engine = PreparationEngine()
        engine.run_batch([ghz_job(dims=(2, 2))])
        engine.run_batch([ghz_job(dims=(2, 2))])
        assert engine.stats().total_wall_time > 0.0
        assert engine.stats().jobs_submitted == 2

    def test_states_resolved_exactly_once_per_job(self, monkeypatch):
        # The content key and the executed synthesis must use the
        # same resolved state: re-resolving would poison the cache
        # for nondeterministic sources (e.g. an unseeded random
        # family).  Counting resolutions pins the contract down.
        calls = {"count": 0}
        original = PreparationJob.resolve_state

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(PreparationJob, "resolve_state", counting)
        engine = PreparationEngine()
        batch = engine.run_batch(
            [ghz_job(dims=(2, 2)), ghz_job(dims=(3, 3))]
        )
        assert not batch.failures
        assert calls["count"] == 2

    def test_nondeterministic_source_cannot_poison_cache(
        self, monkeypatch
    ):
        # A builder that returns a *different* state on every
        # resolution (like an unseeded random family): the cached
        # circuit must prepare the state the content key was hashed
        # from — i.e. the first and only resolution.
        from repro.states import ghz_state, w_state

        draws = iter([ghz_state((2, 2)), w_state((2, 2))])
        monkeypatch.setattr(
            PreparationJob,
            "resolve_state",
            lambda self: next(draws),
        )
        engine = PreparationEngine()
        outcome = engine.submit(PreparationJob(dims=(2, 2), family="random"))
        assert outcome.ok
        assert outcome.key == content_key(
            ghz_state((2, 2)), outcome.job.options
        )
        prepared = simulate(engine.cache.get(outcome.key).circuit)
        assert fidelity(prepared, ghz_state((2, 2))) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_eviction_forces_resynthesis(self):
        engine = PreparationEngine(cache=CircuitCache(capacity=1))
        a, b = ghz_job(dims=(2, 2)), ghz_job(dims=(3, 3))
        engine.run_batch([a, b])   # b evicts a
        engine.run_batch([a])      # must re-execute
        assert engine.stats().cache_evictions >= 1
        assert engine.stats().jobs_executed == 3

    def test_capacity_zero_dedup_keeps_stats_consistent(self):
        # Regression: with a cache that retains nothing (capacity 0,
        # no disk), the duplicate-serving path called ``cache.get``,
        # recorded a *miss*, and then reported ``cache_hit=True`` —
        # breaking hits + misses == lookups.
        engine = PreparationEngine(cache=CircuitCache(capacity=0))
        job = ghz_job(dims=(2, 2))
        batch = engine.run_batch([job, job, job])
        assert [o.ok for o in batch.outcomes] == [True, True, True]
        assert [o.cache_hit for o in batch.outcomes] == [
            False, True, True,
        ]
        stats = engine.cache.stats
        assert stats.hits + stats.misses == stats.lookups
        assert stats.misses == 1, "only the primary lookup may miss"
        assert stats.hits == 0

    def test_dedup_counts_one_lookup_per_served_slot(self):
        # With a retaining cache, each duplicate is one counted hit —
        # not a first-pass miss plus a later hit.
        engine = PreparationEngine()
        job = ghz_job(dims=(2, 2))
        engine.run_batch([job, job, job])
        stats = engine.cache.stats
        assert (stats.lookups, stats.hits, stats.misses) == (3, 2, 1)

    def test_stats_invariant_across_mixed_traffic(self, tmp_path):
        engine = PreparationEngine(
            cache=CircuitCache(capacity=2, disk_dir=tmp_path)
        )
        engine.run_batch(MIXED_BATCH + [MIXED_BATCH[0]])
        engine.run_batch(MIXED_BATCH)
        stats = engine.stats()
        assert (
            stats.cache_hits + stats.cache_misses
            == stats.cache_lookups
        )

    def test_disk_write_errors_reach_engine_stats(self, tmp_path):
        # Regression: EngineStats dropped CacheStats.disk_write_errors,
        # making disk-layer failures invisible at the engine surface.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        engine = PreparationEngine(
            cache=CircuitCache(capacity=4, disk_dir=blocker)
        )
        outcome = engine.submit(ghz_job(dims=(2, 2)))
        assert outcome.ok
        stats = engine.stats()
        assert stats.disk_write_errors == 1
        assert "disk_write_errors=1" in stats.summary()

    def test_summary_omits_disk_write_errors_when_clean(self):
        engine = PreparationEngine()
        engine.submit(ghz_job(dims=(2, 2)))
        assert "disk_write_errors" not in engine.stats().summary()


class TestDiskCacheSharing:
    """Cross-process and corruption-recovery behaviour of the disk layer."""

    CHILD_SCRIPT = (
        "from repro.engine import (CircuitCache, PreparationEngine, "
        "PreparationJob)\n"
        "import sys\n"
        "engine = PreparationEngine("
        "cache=CircuitCache(disk_dir=sys.argv[1]))\n"
        "batch = engine.run_batch("
        "[PreparationJob(dims=(2, 2), family='ghz')])\n"
        "assert not batch.failures\n"
        "assert engine.stats().jobs_executed == 1\n"
    )

    def test_disk_cache_shared_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent
            / "src"
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src + (os.pathsep + existing if existing else "")
        )
        completed = subprocess.run(
            [sys.executable, "-c", self.CHILD_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]

        # A fresh engine in *this* process serves the child's work
        # from the shared directory without executing anything.
        engine = PreparationEngine(
            cache=CircuitCache(disk_dir=tmp_path)
        )
        outcome = engine.submit(ghz_job(dims=(2, 2)))
        assert outcome.ok and outcome.cache_hit
        assert engine.stats().jobs_executed == 0
        assert engine.stats().disk_hits == 1

    def test_corrupt_disk_file_is_recomputed_and_repaired(
        self, tmp_path
    ):
        engine = PreparationEngine(
            cache=CircuitCache(capacity=4, disk_dir=tmp_path)
        )
        job = ghz_job(dims=(2, 2))
        first = engine.submit(job)
        (disk_file,) = tmp_path.glob("*.json")
        disk_file.write_text("{torn write")
        engine.cache.clear()   # drop memory so disk must be consulted

        second = engine.submit(job)           # corrupt -> recompute
        assert second.ok and not second.cache_hit
        assert engine.stats().jobs_executed == 2
        assert comparable_report(second.report) == comparable_report(
            first.report
        )

        # The recompute rewrote the file: a fresh cache reads it.
        fresh = PreparationEngine(
            cache=CircuitCache(disk_dir=tmp_path)
        )
        assert fresh.submit(job).cache_hit
        assert fresh.stats().disk_hits == 1


class TestProvidedKeys:
    """run_batch(keys=...): precomputed routing keys skip resolution."""

    def test_provided_keys_skip_resolution_on_hits(self, monkeypatch):
        from repro.engine import PreparationEngine

        engine = PreparationEngine()
        job = PreparationJob(dims=(3, 6, 2), family="ghz")
        key = engine.job_key(job)
        assert engine.run_batch([job]).outcomes[0].ok  # warm the cache

        calls = []
        original = PreparationJob.resolve_state

        def counted(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(PreparationJob, "resolve_state", counted)
        batch = engine.run_batch([job, job], keys=[key, key])
        assert all(o.ok and o.cache_hit for o in batch.outcomes)
        assert calls == []  # hits never resolved the state

    def test_wrong_provided_key_never_poisons_cache(self):
        from repro.engine import PreparationEngine

        engine = PreparationEngine()
        job = PreparationJob(dims=(2, 2), family="ghz")
        stale = "0" * 64
        outcome = engine.run_batch([job], keys=[stale]).outcomes[0]
        assert outcome.ok
        # The engine re-keyed the state it actually synthesised; the
        # circuit is addressable under the real key, and nothing is
        # stored under the stale one.
        real_key = engine.job_key(job)
        assert outcome.key == real_key
        assert engine.cache.peek(real_key) is not None
        assert engine.cache.peek(stale) is None

    def test_none_entries_are_computed(self):
        from repro.engine import PreparationEngine

        engine = PreparationEngine()
        job = PreparationJob(dims=(2, 2), family="ghz")
        batch = engine.run_batch([job], keys=[None])
        assert batch.outcomes[0].ok
        assert batch.outcomes[0].key == engine.job_key(job)

    def test_mismatched_keys_length_rejected(self):
        from repro.engine import PreparationEngine
        from repro.exceptions import EngineError

        engine = PreparationEngine()
        job = PreparationJob(dims=(2, 2), family="ghz")
        with pytest.raises(EngineError, match="parallel"):
            engine.run_batch([job], keys=[])

    def test_mismatched_states_length_rejected(self):
        from repro.engine import PreparationEngine
        from repro.exceptions import EngineError

        engine = PreparationEngine()
        job = PreparationJob(dims=(2, 2), family="ghz")
        with pytest.raises(EngineError, match="states must parallel"):
            engine.run_batch([job], keys=[None], states=[])

    def test_provided_states_skip_resolution_on_misses(self, monkeypatch):
        from repro.engine import PreparationEngine, comparable_outcome

        engine = PreparationEngine()
        job = PreparationJob(
            dims=(3, 6, 2), family="random", params={"rng": 12}
        )
        key, state = engine.key_and_state(job)
        assert state is not None
        # The memo answers a repeat without a state.
        assert engine.key_and_state(job) == (key, None)
        calls = count_resolves(monkeypatch)
        outcome = engine.run_batch(
            [job], keys=[key], states=[state]
        ).outcomes[0]
        assert calls == []
        assert outcome.ok and not outcome.cache_hit
        assert outcome.key == key
        monkeypatch.undo()
        assert comparable_outcome(outcome) == comparable_outcome(
            PreparationEngine().submit(job)
        )

    def test_outcomes_identical_with_and_without_keys(self):
        from repro.engine import PreparationEngine, comparable_outcome

        jobs = [
            PreparationJob(dims=(3, 6, 2), family="ghz"),
            PreparationJob(dims=(2, 2, 2), family="w"),
            PreparationJob(dims=(3, 6, 2), family="ghz"),  # duplicate
        ]
        plain_engine = PreparationEngine()
        plain = plain_engine.run_batch(jobs)
        keyed_engine = PreparationEngine()
        keys = [keyed_engine.job_key(job) for job in jobs]
        keyed = keyed_engine.run_batch(jobs, keys=keys)
        assert [
            comparable_outcome(o) for o in keyed.outcomes
        ] == [comparable_outcome(o) for o in plain.outcomes]
        assert (
            keyed_engine.stats().cache_hits
            == plain_engine.stats().cache_hits
        )


def count_resolves(monkeypatch) -> list:
    """Record every ``PreparationJob.resolve_state`` call."""
    calls = []
    original = PreparationJob.resolve_state

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PreparationJob, "resolve_state", counted)
    return calls


def refuse_resolves(monkeypatch) -> None:
    def refused(self):
        raise AssertionError(f"resolve_state called for {self.label}")

    monkeypatch.setattr(PreparationJob, "resolve_state", refused)


class TestKeyMemo:
    """The engine keys a description that fixes its state once."""

    def test_equal_descriptions_resolve_once(self, monkeypatch):
        engine = PreparationEngine()
        first = PreparationJob(
            dims=(3, 3), family="random", params={"rng": 4}, label="a"
        )
        second = PreparationJob(
            dims=(3, 3), family="random", params={"rng": 4}, label="b"
        )
        calls = count_resolves(monkeypatch)
        assert engine.memoised_key(first) is None
        key = engine.job_key(first)
        assert engine.memoised_key(second) == key
        assert engine.job_key(second) == key
        assert calls == [first]
        assert key == content_key(second.resolve_state(), second.options)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PreparationJob(dims=(2, 3), family="random"),
            lambda: PreparationJob(
                dims=(2, 3), family="random", params={"rng": None}
            ),
            lambda: PreparationJob(
                dims=(2, 3, 2), family="random_sparse",
                params={"num_terms": 3},
            ),
        ],
        ids=["random", "random-rng-none", "random_sparse"],
    )
    def test_unseeded_random_descriptions_are_not_memoised(self, make):
        engine = PreparationEngine()
        first, second = make(), make()
        assert engine.job_key(first) != engine.job_key(second)
        assert engine.memoised_key(first) is None
        assert engine.memoised_key(second) is None

    def test_params_that_do_not_encode_key_independently(self):
        import numpy as np

        engine = PreparationEngine()
        generator = np.random.default_rng(9)
        first = PreparationJob(
            dims=(2, 3), family="random", params={"rng": generator}
        )
        second = PreparationJob(
            dims=(2, 3), family="random", params={"rng": generator}
        )
        # One generator, two draws: two states, two keys.
        assert engine.job_key(first) != engine.job_key(second)
        assert engine.memoised_key(first) is None
        assert engine.memoised_key(second) is None

    def test_raw_amplitudes_are_keyed_by_resolving(self, monkeypatch):
        engine = PreparationEngine()
        first = PreparationJob(dims=(2, 2), amplitudes=[1, 0, 0, 1])
        second = PreparationJob(dims=(2, 2), amplitudes=[1, 0, 0, 1])
        calls = count_resolves(monkeypatch)
        assert engine.job_key(first) == engine.job_key(second)
        assert calls == [first, second]
        assert engine.memoised_key(first) is None

    def test_options_and_params_are_part_of_the_description(self):
        engine = PreparationEngine()
        jobs = [
            PreparationJob(dims=(3, 3), family="random", params={"rng": 1}),
            PreparationJob(dims=(3, 3), family="random", params={"rng": 2}),
            PreparationJob(
                dims=(3, 3), family="random", params={"rng": 1},
                options=SynthesisOptions(min_fidelity=0.9),
            ),
            PreparationJob(dims=(3, 3), family="ghz"),
            PreparationJob(dims=(3, 3, 3), family="ghz"),
        ]
        keys = [engine.job_key(job) for job in jobs]
        assert len(set(keys)) == len(jobs)
        assert keys == [
            content_key(job.resolve_state(), job.options) for job in jobs
        ]

    def test_warm_run_batch_never_resolves(self, monkeypatch):
        engine = PreparationEngine()
        jobs = MIXED_BATCH[:3] + MIXED_BATCH[4:]
        cold = engine.run_batch(jobs)
        assert all(outcome.ok for outcome in cold.outcomes)
        refuse_resolves(monkeypatch)
        warm = engine.run_batch(jobs + jobs)
        assert all(
            outcome.ok and outcome.cache_hit for outcome in warm.outcomes
        )
        assert [outcome.key for outcome in warm.outcomes] == (
            [outcome.key for outcome in cold.outcomes] * 2
        )

    def test_evicted_entry_is_resolved_and_rekeyed(self, monkeypatch):
        engine = PreparationEngine(cache=CircuitCache(capacity=1))
        first = PreparationJob(dims=(3, 3), family="random", params={"rng": 1})
        other = PreparationJob(dims=(2, 2), family="ghz")
        key = engine.submit(first).key
        engine.submit(other)   # evicts first's circuit, not its key
        calls = count_resolves(monkeypatch)
        again = engine.submit(first)
        assert again.ok and not again.cache_hit
        assert again.key == key
        assert calls == [first]

    def test_memo_stays_at_its_bound(self):
        from repro.engine import engine as engine_module

        engine = PreparationEngine()
        jobs = [
            PreparationJob(dims=(2, 2), family="random", params={"rng": seed})
            for seed in range(10_000)
        ]
        for job in jobs:
            engine.job_key(job)
        bound = engine_module._KEY_MEMO_SIZE
        assert bound < len(jobs)
        assert len(engine._key_memo) == bound
        assert engine.memoised_key(jobs[-1]) is not None
        assert engine.memoised_key(jobs[-bound]) is not None
        assert engine.memoised_key(jobs[-bound - 1]) is None
        assert engine.memoised_key(jobs[0]) is None

    def test_concurrent_threads_key_identically(self):
        import sys
        import threading

        jobs = [
            PreparationJob(dims=(2, 3), family="random", params={"rng": seed})
            for seed in range(48)
        ] + [ghz_job(dims=(2, 2)), ghz_job(dims=(3, 2))]
        expected = [
            content_key(job.resolve_state(), job.options) for job in jobs
        ]
        engine = PreparationEngine()
        results: list[list[str]] = []
        failures: list[BaseException] = []

        def worker(offset):
            try:
                order = jobs[offset:] + jobs[:offset]
                keys = {id(job): engine.job_key(job) for job in order}
                results.append([keys[id(job)] for job in jobs])
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(0, 48, 6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert results == [expected] * len(threads)
        assert len(engine._key_memo) == len(jobs)
