"""Tests for :mod:`repro.obs.tracing`."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs.tracing import (
    CURRENT_SPAN,
    CURRENT_TRACE,
    Trace,
    Tracer,
    current_trace,
)


class TestSpan:
    def test_finish_is_idempotent(self):
        trace = Trace("r1")
        span = trace.begin_span("work")
        span.finish()
        first = span.duration
        span.finish(end=trace._origin + 100.0)
        assert span.duration == first

    def test_annotate_merges(self):
        trace = Trace("r1")
        span = trace.begin_span("work", key="abc")
        span.annotate(batch_size=4)
        assert span.attributes == {"key": "abc", "batch_size": 4}

    def test_to_dict_omits_empty_attributes(self):
        trace = Trace("r1")
        span = trace.begin_span("work").finish()
        assert "attributes" not in span.to_dict()


class TestTrace:
    def test_span_context_manager_nests(self):
        trace = Trace("r1")
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                assert inner.parent is outer
        assert outer.duration is not None
        assert inner.duration is not None

    def test_begin_span_ignores_foreign_current_span(self):
        # CURRENT_SPAN from an unrelated trace must not become a
        # parent — spans never cross trace boundaries.
        other = Trace("other")
        token = CURRENT_SPAN.set(other.begin_span("alien"))
        try:
            trace = Trace("r1")
            span = trace.begin_span("work")
            assert span.parent is None
        finally:
            CURRENT_SPAN.reset(token)

    def test_add_span_records_precomputed_timing(self):
        trace = Trace("r1")
        span = trace.add_span(
            "stage:build", start=0.25, duration=0.5, shard=3
        )
        assert span.start == 0.25
        assert span.duration == 0.5
        assert span.attributes == {"shard": 3}

    def test_to_dict_builds_nested_tree(self):
        trace = Trace("r1", transport="http")
        root = trace.begin_span("request")
        child = trace.begin_span("dispatch", parent=root)
        trace.begin_span("execute", parent=child).finish()
        child.finish()
        root.finish()
        body = trace.to_dict()
        assert body["request_id"] == "r1"
        assert body["transport"] == "http"
        assert len(body["spans"]) == 1
        request = body["spans"][0]
        assert request["name"] == "request"
        dispatch = request["children"][0]
        assert dispatch["name"] == "dispatch"
        assert dispatch["children"][0]["name"] == "execute"

    def test_set_error_lands_in_to_dict(self):
        trace = Trace("r1")
        trace.set_error("dimension", "impossible dims")
        assert trace.to_dict()["error"] == {
            "code": "dimension", "message": "impossible dims",
        }

    def test_duration_covers_latest_span_end(self):
        trace = Trace("r1")
        trace.add_span("a", start=0.0, duration=1.0)
        trace.add_span("b", start=2.0, duration=0.5)
        assert trace.duration() == pytest.approx(2.5)

    def test_find_and_span_names(self):
        trace = Trace("r1")
        trace.begin_span("request")
        trace.begin_span("parse")
        assert trace.span_names() == ["request", "parse"]
        assert trace.find("parse").name == "parse"
        assert trace.find("absent") is None

    def test_thread_safe_span_appends(self):
        trace = Trace("r1")

        def append():
            for _ in range(500):
                trace.add_span("s", start=0.0, duration=0.0)

        threads = [threading.Thread(target=append) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(trace.span_names()) == 2000


class TestTracer:
    def test_ring_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        tracer.start("a")
        tracer.start("b")
        tracer.start("c")
        assert tracer.ids() == ["b", "c"]
        assert tracer.get("a") is None
        assert tracer.get("b").request_id == "b"

    def test_reused_id_replaces_and_refreshes(self):
        tracer = Tracer(capacity=2)
        first = tracer.start("a")
        tracer.start("b")
        second = tracer.start("a")     # replaces, now newest
        assert second is not first
        tracer.start("c")              # evicts b, not a
        assert tracer.ids() == ["a", "c"]

    def test_generated_ids_are_unique(self):
        tracer = Tracer()
        first = tracer.start()
        second = tracer.start("")
        assert first.request_id != second.request_id
        assert first.request_id.startswith("req-")

    def test_non_string_id_coerced(self):
        tracer = Tracer()
        assert tracer.start(42).request_id == "42"
        assert tracer.get(42) is not None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_disabled_tracer_yields_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.start("a") is None
        with tracer.request("a") as trace:
            assert trace is None
        assert tracer.ids() == []

    def test_request_installs_and_restores_context(self):
        tracer = Tracer()
        assert current_trace() is None
        with tracer.request("r1", transport="http") as trace:
            assert current_trace() is trace
            assert CURRENT_SPAN.get().name == "request"
            assert trace.transport == "http"
        assert current_trace() is None
        assert CURRENT_SPAN.get() is None
        root = trace.find("request")
        assert root.duration is not None


class TestContextPropagation:
    def test_to_thread_carries_the_trace(self):
        tracer = Tracer()

        async def scenario():
            with tracer.request("r1") as trace:
                seen = await asyncio.to_thread(current_trace)
                assert seen is trace

        asyncio.run(scenario())

    def test_concurrent_tasks_keep_distinct_traces(self):
        tracer = Tracer()
        observed: dict[str, str] = {}

        async def handle(request_id):
            with tracer.request(request_id) as trace:
                await asyncio.sleep(0)
                observed[request_id] = current_trace().request_id
                assert current_trace() is trace

        async def scenario():
            await asyncio.gather(handle("a"), handle("b"), handle("c"))

        asyncio.run(scenario())
        assert observed == {"a": "a", "b": "b", "c": "c"}

    def test_current_trace_isolated_per_thread(self):
        trace = Trace("r1")
        token = CURRENT_TRACE.set(trace)
        try:
            seen: list[object] = []
            thread = threading.Thread(
                target=lambda: seen.append(current_trace())
            )
            thread.start()
            thread.join()
            # A fresh thread has a fresh context: no trace leaks in.
            assert seen == [None]
        finally:
            CURRENT_TRACE.reset(token)
