"""Span tracer, kernel span and metrics registry unit tests."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import observability as obs
from repro.kokkos.parallel import parallel_for
from repro.kokkos.policy import RangePolicy
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import SpanTracer


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

    def test_stop_mid_span_keeps_stack_consistent(self):
        tr = SpanTracer()
        tr.start()
        with tr.span("outer"):
            tr.stop()
        tr.start()
        with tr.span("root"):
            pass
        assert tr.spans[-1].parent == -1  # no leaked parent from "outer"


class TestKernelSpans:
    def test_kernel_dispatch_becomes_span(self):
        with obs.tracing() as tr:
            with tr.span("phase"):
                parallel_for("my-kernel", RangePolicy(0, 4), lambda i: None)
        kernels = [s for s in tr.spans if s.cat == "kernel"]
        assert [s.name for s in kernels] == ["my-kernel"]
        phase = next(s for s in tr.spans if s.name == "phase")
        # the enclosing open span on the same thread is the kernel's parent
        assert kernels[0].parent == phase.id and kernels[0].tid == phase.tid
        assert kernels[0].depth == phase.depth + 1
        assert kernels[0].args == {"extent": 4, "space": "HostVector", "dispatch": "parallel_for"}
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


    def test_merge_folds_another_registry_in(self):
        """What a numerics process reports joins the registry it returns to."""
        here, there = MetricsRegistry(), MetricsRegistry()
        here.counter("c").inc(2)
        here.histogram("h").observe(5.0)
        there.counter("c").inc(3)
        there.counter("only.there").inc()
        there.gauge("g").set(0.5)
        for v in (1.0, 9.0):
            there.histogram("h").observe(v)
        here.merge(there.export())
        snap = here.snapshot()
        assert snap["counters"] == {"c": 5, "only.there": 1}
        assert snap["gauges"] == {"g": 0.5}
        h = snap["histograms"]["h"]
        assert (h["count"], h["sum"], h["min"], h["max"], h["last"]) == (3, 15.0, 1.0, 9.0, 9.0)
        assert h["p50"] == 5.0

    def test_series_merge_keeps_timestamps_and_counts(self):
        here, there = obs.SeriesRegistry(), obs.SeriesRegistry()
        there.series("r", solve="v").append(2.0, ts_us=7.0, t_unix=1.0)
        there.series("r", solve="v").append(1.0, ts_us=9.0, t_unix=2.0)
        here.merge(there.export())
        merged = here.get("r", solve="v")
        assert merged.points == [(7.0, 1.0, 2.0), (9.0, 2.0, 1.0)] and merged.count == 2

    def test_adopted_spans_get_ids_past_this_tracers(self):
        here, there = SpanTracer(), SpanTracer()
        for tr in (here, there):
            tr.start()
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
            tr.stop()
        here.adopt(there.spans)
        assert sorted(s.id for s in here.spans) == [0, 1, 2, 3]
        by_id = {s.id: s for s in here.spans}
        assert [by_id[s.parent].name for s in here.spans if s.name == "inner"] == ["outer", "outer"]
        with here.span("next") as nxt:
            pass
        assert nxt.id == -1  # not recording: no id handed out, none reused


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

    def test_merges_from_many_workers_are_not_lost(self):
        """Every worker thread merges its process's report into one
        registry: a 10 us switch interval loses no update."""
        there = MetricsRegistry()
        there.counter("c").inc(3)
        there.histogram("h").observe(2.0)
        report = there.export()
        m = MetricsRegistry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-5)
        try:
            self._hammer(lambda: [m.merge(report) for _ in range(500)])
        finally:
            sys.setswitchinterval(interval)
        assert m.counter("c").value == self.THREADS * 500 * 3
        assert m.histogram("h").summary()["sum"] == 2.0 * self.THREADS * 500

    def test_registry_creation_races_yield_one_instance(self):
        m = MetricsRegistry()
        seen = []

        def create():
            seen.append(m.counter("shared"))

        self._hammer(create)
        assert all(c is seen[0] for c in seen)
        seen[0].inc()
        assert m.counter("shared").value == 1
