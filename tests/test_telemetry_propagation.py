"""Trace-context propagation and the cross-worker delta protocol.

Pins the merge semantics documented in
``repro/telemetry/propagate.py``: counters add, histograms combine,
spans reparent under the dispatch site, events rebase onto the parent
clock, and every delta that cannot be recovered is counted in
``telemetry.worker_deltas_lost``.
"""

import pytest

import repro.telemetry as telemetry
from repro.parallel import ParallelConfig, parallel_map
from repro.telemetry import core
from repro.telemetry.core import MAX_TRACE_EVENTS, Registry
from repro.telemetry.propagate import (
    DELTA_VERSION,
    TracedTask,
    count_lost_deltas,
    current_trace,
    merge_delta,
    mint_trace,
    snapshot_delta,
    trace_scope,
)


from contextlib import contextmanager


@contextmanager
def _use(registry):
    """Install ``registry`` on this thread for the block (tests only)."""
    previous = core.current()
    core._local.registry = registry
    try:
        yield registry
    finally:
        core._local.registry = previous


def _traced_work(x):
    telemetry.count("worker.items")
    telemetry.observe("worker.value", float(x))
    with telemetry.span("worker.body"):
        pass
    return x * 2


def _boom(x):
    if x == 0:
        raise RuntimeError("injected")
    telemetry.count("worker.items")
    return x


class TestTraceContext:
    def test_mint_is_unique_and_labelled(self):
        a, b = mint_trace("req"), mint_trace("req")
        assert a.trace_id != b.trace_id
        assert a.trace_id.startswith("req-")
        assert mint_trace("enc", budget_s=1.5).budget_s == 1.5

    def test_scope_sets_and_restores(self):
        with telemetry.session():
            assert current_trace() is None
            outer, inner = mint_trace("outer"), mint_trace("inner")
            with trace_scope(outer):
                assert current_trace() is outer
                with trace_scope(inner):
                    assert current_trace() is inner
                assert current_trace() is outer
            assert current_trace() is None

    def test_scope_noop_without_telemetry(self):
        assert core.current() is None
        with trace_scope(mint_trace()) as ctx:
            assert ctx is not None
        assert current_trace() is None

    def test_span_events_tagged_with_trace_id(self):
        with telemetry.session(trace=True) as registry:
            ctx = mint_trace("tagged")
            with trace_scope(ctx):
                with telemetry.span("inside"):
                    pass
            with telemetry.span("outside"):
                pass
        tagged = [e for e in registry.events
                  if e["args"].get("trace") == ctx.trace_id]
        assert len(tagged) == 1
        assert tagged[0]["args"]["path"] == "inside"

    def test_context_is_picklable(self):
        import pickle

        ctx = mint_trace("wire", budget_s=0.25)
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestDeltaMerge:
    def _child_delta(self, trace=False):
        child = Registry(trace=trace)
        child.count("hits", 3)
        child.observe("lat", 0.5)
        child.observe("lat", 1.5)
        stat = child.spans.setdefault("frames.encode", core.SpanStat())
        stat.calls, stat.total_s = 2, 0.1
        return snapshot_delta(child)

    def test_snapshot_shape(self):
        delta = self._child_delta()
        assert delta["v"] == DELTA_VERSION
        assert delta["counters"] == {"hits": 3}
        assert delta["histograms"]["lat"] == {
            "count": 2, "total": 2.0, "min": 0.5, "max": 1.5,
        }
        assert delta["spans"]["frames.encode"] == {
            "calls": 2, "total_s": 0.1,
        }

    def test_counters_add(self):
        parent = Registry()
        parent.count("hits", 10)
        merge_delta(parent, self._child_delta())
        assert parent.counters["hits"] == 13
        assert parent.counters["telemetry.worker_deltas_merged"] == 1

    def test_histograms_combine(self):
        parent = Registry()
        parent.observe("lat", 1.0)
        merge_delta(parent, self._child_delta())
        hist = parent.histograms["lat"]
        assert hist.count == 3
        assert hist.total == pytest.approx(3.0)
        assert hist.min == 0.5 and hist.max == 1.5

    def test_spans_reparent_under_dispatch_site(self):
        parent = Registry()
        merge_delta(parent, self._child_delta(), under="serving.encode/fanout")
        assert parent.spans["serving.encode/fanout/frames.encode"].calls == 2
        # Merging a second sibling aggregates like same-path spans.
        merge_delta(parent, self._child_delta(), under="serving.encode/fanout")
        assert parent.spans["serving.encode/fanout/frames.encode"].calls == 4

    def test_events_rebased_and_tagged(self):
        child = Registry(trace=True)
        with _use(child):
            with telemetry.span("deep"):
                pass
        delta = snapshot_delta(child)
        parent = Registry(trace=True)
        parent.start = child.start - 2.0  # parent clock began 2s earlier
        merge_delta(parent, delta, under="site", trace_id="t-1")
        event = parent.events[0]
        assert event["args"]["path"] == "site/deep"
        assert event["args"]["trace"] == "t-1"
        assert event["ts"] >= 2e6  # rebased onto the parent origin

    def test_event_cap_counts_dropped(self):
        child = Registry(trace=True)
        with _use(child):
            with telemetry.span("one"):
                pass
        delta = snapshot_delta(child)
        parent = Registry(trace=True)
        parent.events.extend({"ts": 0.0, "args": {}}
                             for _ in range(MAX_TRACE_EVENTS))
        merge_delta(parent, delta)
        assert len(parent.events) == MAX_TRACE_EVENTS
        assert parent.dropped_events == 1

    def test_lost_delta_accounting(self):
        parent = Registry()
        count_lost_deltas(parent, 2)
        assert parent.counters["telemetry.worker_deltas_lost"] == 2
        count_lost_deltas(parent, 0)
        assert parent.counters["telemetry.worker_deltas_lost"] == 2
        count_lost_deltas(None, 5)  # no registry: must not raise


class TestTracedTask:
    def test_runs_under_fresh_registry_and_restores(self):
        with telemetry.session() as registry:
            outcome = TracedTask(_traced_work)(21)
            assert core.current() is registry
        assert outcome.result == 42
        assert outcome.error is None
        assert outcome.delta["counters"]["worker.items"] == 1
        # The child's counters never leaked into the dispatcher.
        assert "worker.items" not in registry.counters

    def test_capture_error_ships_delta(self):
        outcome = TracedTask(_boom, capture_error=True)(0)
        assert isinstance(outcome.error, RuntimeError)
        assert outcome.result is None
        assert outcome.delta["v"] == DELTA_VERSION

    def test_uncaptured_error_propagates(self):
        with pytest.raises(RuntimeError):
            TracedTask(_boom)(0)

    def test_root_span_wraps_the_call(self):
        outcome = TracedTask(_traced_work, root="attempt[3]")(1)
        assert outcome.delta["spans"]["attempt[3]"]["calls"] == 1
        assert outcome.delta["spans"]["attempt[3]/worker.body"]["calls"] == 1

    def test_trace_context_visible_in_worker(self):
        ctx = mint_trace("task")
        seen = []

        def probe(_):
            seen.append(current_trace())
            return None

        TracedTask(probe, ctx=ctx)(0)
        assert seen == [ctx]


class TestPoolRoundTrip:
    def test_thread_pool_deltas_merge(self):
        cfg = ParallelConfig(workers=2)
        with telemetry.session(trace=True) as registry:
            ctx = mint_trace("pool")
            with trace_scope(ctx):
                results = parallel_map(_traced_work, [1, 2, 3], cfg, label="t")
        assert results == [2, 4, 6]
        assert registry.counters["worker.items"] == 3
        assert registry.counters["telemetry.worker_deltas_merged"] == 3
        assert registry.histograms["worker.value"].count == 3
        # Worker spans landed under the dispatch span, and their events
        # carry the dispatcher's trace id.
        assert registry.spans["parallel.t/worker.body"].calls == 3
        worker_events = [
            e for e in registry.events
            if e["args"].get("path", "").endswith("worker.body")
        ]
        assert len(worker_events) == 3
        assert all(e["args"]["trace"] == ctx.trace_id for e in worker_events)

    def test_failed_item_deltas_counted_lost(self):
        cfg = ParallelConfig(workers=2)
        with telemetry.session() as registry:
            with pytest.raises(RuntimeError):
                parallel_map(_boom, [0, 1, 2], cfg, label="fail")
        # Item 0 raised while draining: nothing was merged, all three
        # in-flight deltas are unrecoverable and say so.
        assert registry.counters["telemetry.worker_deltas_lost"] == 3
        assert "telemetry.worker_deltas_merged" not in registry.counters

    def test_disabled_telemetry_stays_unwrapped(self):
        cfg = ParallelConfig(workers=2)
        assert core.current() is None
        assert parallel_map(_traced_work, [1, 2], cfg) == [2, 4]
