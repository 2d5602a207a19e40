"""Hook registry, span tracer and metrics registry unit tests."""

from __future__ import annotations

import threading
import time

import pytest

from repro import observability as obs
from repro.kokkos.parallel import parallel_for
from repro.kokkos.policy import RangePolicy
from repro.observability.hooks import HookRegistry, ToolSubscriber
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import SpanTracer, TracerSubscriber


class Recorder(ToolSubscriber):
    """Flat event log of every callback, for pairing assertions."""

    def __init__(self):
        self.events: list[tuple] = []

    def begin_parallel_for(self, name, extent, space, kid):
        self.events.append(("begin_for", name, extent, space, kid))

    def end_parallel_for(self, kid):
        self.events.append(("end_for", kid))


@pytest.fixture
def recorder():
    """A Recorder attached to the global registry, detached afterwards."""
    rec = Recorder()
    obs.registry().subscribe(rec)
    try:
        yield rec
    finally:
        obs.registry().unsubscribe(rec)


# ----------------------------------------------------------------------
# hook registry
# ----------------------------------------------------------------------
class TestHookRegistry:
    def test_inactive_without_subscribers(self):
        reg = HookRegistry()
        assert not reg.active
        sub = reg.subscribe(ToolSubscriber())
        assert reg.active
        reg.unsubscribe(sub)
        assert not reg.active

    def test_disable_suppresses_active(self):
        reg = HookRegistry()
        reg.subscribe(ToolSubscriber())
        reg.disable()
        assert not reg.active
        reg.enable()
        assert reg.active

    def test_disabled_context_restores(self):
        reg = HookRegistry()
        reg.subscribe(ToolSubscriber())
        with reg.disabled():
            assert not reg.active
        assert reg.active

    def test_fan_out_to_multiple_subscribers(self):
        reg = HookRegistry()
        a, b = Recorder(), Recorder()
        reg.subscribe(a)
        reg.subscribe(b)
        kid = reg.begin_parallel_for("k", 10, "host")
        reg.end_parallel_for(kid)
        assert a.events == b.events == [("begin_for", "k", 10, "host", kid), ("end_for", kid)]

    def test_kernel_ids_increment(self):
        reg = HookRegistry()
        reg.subscribe(Recorder())
        k0 = reg.begin_parallel_for("a", 1, "host")
        k1 = reg.begin_parallel_for("b", 1, "host")
        k2 = reg.begin_parallel_for("c", 1, "host")
        assert k0 < k1 < k2

    def test_parallel_for_emits_paired_events(self, recorder):
        parallel_for("test-kernel", RangePolicy(0, 4), lambda i: None)
        begins = [e for e in recorder.events if e[0] == "begin_for"]
        ends = [e for e in recorder.events if e[0] == "end_for"]
        assert len(begins) == len(ends) == 1
        assert begins[0][1] == "test-kernel" and begins[0][2] == 4
        assert begins[0][4] == ends[0][1]  # same kernel id

    def test_kernel_log_shim_round_trip(self):
        # a kernel log is a subscriber a tool attaches, not module state:
        # it sees launches exactly while it is subscribed
        log = []

        class KernelLog(ToolSubscriber):
            def begin_parallel_for(self, name, extent, space, kid):
                log.append(name)

        reg = obs.registry()
        sub = reg.subscribe(KernelLog())
        try:
            parallel_for("logged", RangePolicy(0, 3), lambda i: None)
            reg.unsubscribe(sub)
            parallel_for("silent", RangePolicy(0, 3), lambda i: None)
            assert log == ["logged"]
            reg.subscribe(sub)
            parallel_for("logged-again", RangePolicy(0, 3), lambda i: None)
        finally:
            reg.unsubscribe(sub)
        assert log == ["logged", "logged-again"]


# ----------------------------------------------------------------------
# span tracer
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_measures_without_recording(self):
        tr = SpanTracer()
        with tr.span("untracked") as sp:
            pass
        assert sp.dur_s >= 0.0
        assert tr.spans == []

    def test_nesting_parent_and_depth(self):
        tr = SpanTracer()
        tr.start()
        with tr.span("outer"):
            with tr.span("middle"):
                with tr.span("inner"):
                    pass
        tr.stop()
        by_name = {s.name: s for s in tr.spans}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent == -1
        assert by_name["middle"].parent == by_name["outer"].id
        assert by_name["inner"].parent == by_name["middle"].id
        assert by_name["inner"].depth == 2

    def test_attributes_recorded(self):
        tr = SpanTracer()
        tr.start()
        with tr.span("step", cat="phase", step=3, mode="jacobian"):
            pass
        (s,) = tr.spans
        assert s.args == {"step": 3, "mode": "jacobian"} and s.cat == "phase"

    def test_instrument_decorator(self):
        tr = SpanTracer()

        @tr.instrument(name="my.fn")
        def f(x):
            return x + 1

        tr.start()
        assert f(1) == 2
        assert [s.name for s in tr.spans] == ["my.fn"]

    def test_clear_resets_clock_and_ids(self):
        tr = SpanTracer()
        tr.start()
        with tr.span("a"):
            pass
        tr.clear()
        with tr.span("b"):
            pass
        (s,) = tr.spans
        assert s.id == 0 and s.ts_us >= 0.0

    def test_aggregate(self):
        tr = SpanTracer()
        tr.start()
        for _ in range(3):
            with tr.span("hot"):
                pass
        with tr.span("cold"):
            pass
        agg = tr.aggregate()
        assert agg["hot"]["count"] == 3 and agg["cold"]["count"] == 1
        assert agg["hot"]["total_s"] >= agg["hot"]["max_s"] >= agg["hot"]["min_s"] >= 0.0

    def test_aggregate_self_time_excludes_children(self):
        tr = SpanTracer()
        tr.start()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.01)
        agg = tr.aggregate()
        # inner is a leaf: self == total; outer's self excludes inner
        assert agg["inner"]["self_s"] == agg["inner"]["total_s"]
        assert agg["outer"]["self_s"] < agg["outer"]["total_s"] - 0.005
        assert agg["outer"]["self_s"] >= 0.0

    def test_now_us_monotone_and_clear_resets_epoch(self):
        tr = SpanTracer()
        a = tr.now_us()
        b = tr.now_us()
        assert 0.0 <= a <= b
        tr.clear()
        assert tr.now_us() < b + 1e6  # fresh epoch, not the old clock

    def test_planted_slowdown_inflates_named_span_only(self):
        tr = SpanTracer()
        tr.plant_slowdown("victim", 0.02)
        tr.start()
        with tr.span("victim"):
            pass
        with tr.span("bystander"):
            pass
        by_name = {s.name: s for s in tr.spans}
        assert by_name["victim"].dur_s >= 0.02
        assert by_name["bystander"].dur_s < 0.02
        # survives clear() (sessions clear the trace after planting) ...
        tr.clear()
        with tr.span("victim"):
            pass
        assert tr.spans[0].dur_s >= 0.02
        # ... and zero-seconds / clear_slowdowns() remove it
        tr.plant_slowdown("victim", 0.0)
        tr.clear()
        with tr.span("victim"):
            pass
        assert tr.spans[-1].dur_s < 0.02
        tr.plant_slowdown("victim", 0.02)
        tr.clear_slowdowns()
        assert tr._planted == {}

    def test_rank_labels_pid(self):
        tr = SpanTracer()
        tr.set_rank(7)
        tr.start()
        with tr.span("x"):
            pass
        assert tr.spans[0].pid == 7

    def test_stop_mid_span_keeps_stack_consistent(self):
        tr = SpanTracer()
        tr.start()
        with tr.span("outer"):
            tr.stop()
        tr.start()
        with tr.span("root"):
            pass
        assert tr.spans[-1].parent == -1  # no leaked parent from "outer"


class TestTracerSubscriber:
    def test_kernel_dispatch_becomes_span(self):
        with obs.tracing() as tr:
            with tr.span("phase"):
                parallel_for("my-kernel", RangePolicy(0, 4), lambda i: None)
        kernels = [s for s in tr.spans if s.cat == "kernel"]
        assert [s.name for s in kernels] == ["my-kernel"]
        phase = next(s for s in tr.spans if s.name == "phase")
        assert kernels[0].parent == phase.id
        assert kernels[0].args["extent"] == 4
        assert kernels[0].args["dispatch"] == "parallel_for"

    def test_session_detaches_subscriber(self):
        before = len(obs.registry().subscribers)
        with obs.tracing():
            assert len(obs.registry().subscribers) == before + 1
        assert len(obs.registry().subscribers) == before
        assert not obs.get_tracer().recording


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        m = MetricsRegistry()
        c = m.counter("a.b")
        c.inc()
        c.inc(4)
        assert m.counter("a.b").value == 5

    def test_gauge(self):
        m = MetricsRegistry()
        m.gauge("occupancy").set(0.75)
        assert m.gauge("occupancy").value == 0.75

    def test_histogram_summary(self):
        m = MetricsRegistry()
        h = m.histogram("iters")
        for v in (10, 20, 30):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["min"] == 10 and s["max"] == 30
        assert s["mean"] == pytest.approx(20.0)

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.gauge("g").set(1.0)
        m.histogram("h").observe(2.0)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        m.reset()
        assert m.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_histogram_quantiles(self):
        m = MetricsRegistry()
        h = m.histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.0, abs=2.0)
        assert h.quantile(0.95) == pytest.approx(95.0, abs=2.0)
        assert h.quantile(0.0) == 1.0 and h.quantile(1.0) == 100.0
        s = h.summary()
        assert s["p50"] == h.quantile(0.5) and s["p95"] == h.quantile(0.95)

    def test_histogram_quantiles_empty(self):
        m = MetricsRegistry()
        s = m.histogram("empty").summary()
        assert s["p50"] == 0.0 and s["p95"] == 0.0

    def test_histogram_reservoir_bounded_and_representative(self):
        from repro.observability.metrics import Histogram

        h = Histogram()
        n = Histogram.RESERVOIR_CAP * 8
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert len(h._samples) <= Histogram.RESERVOIR_CAP
        # stride decimation keeps the sample spread across the range, so
        # quantiles stay near truth even after eviction
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.1)
        assert h.quantile(0.95) == pytest.approx(0.95 * n, rel=0.1)


class TestMetricsThreadSafety:
    """Satellite: the concurrency contract of the metrics primitives."""

    THREADS = 8
    N = 5000

    def _hammer(self, fn):
        ts = [threading.Thread(target=fn) for _ in range(self.THREADS)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()

    def test_counter_increments_are_not_lost(self):
        m = MetricsRegistry()
        c = m.counter("c")
        self._hammer(lambda: [c.inc() for _ in range(self.N)])
        assert c.value == self.THREADS * self.N

    def test_histogram_observations_are_not_lost(self):
        m = MetricsRegistry()
        h = m.histogram("h")
        self._hammer(lambda: [h.observe(1.0) for _ in range(self.N)])
        s = h.summary()
        assert s["count"] == self.THREADS * self.N
        assert s["sum"] == pytest.approx(float(self.THREADS * self.N))
        assert s["min"] == s["max"] == 1.0

    def test_registry_creation_races_yield_one_instance(self):
        m = MetricsRegistry()
        seen = []

        def create():
            seen.append(m.counter("shared"))

        self._hammer(create)
        assert all(c is seen[0] for c in seen)
        seen[0].inc()
        assert m.counter("shared").value == 1
