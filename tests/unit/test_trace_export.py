"""Chrome trace-event export tests (Perfetto-compatible schema)."""

from __future__ import annotations

import json

from repro import observability as obs
from repro.kokkos.parallel import parallel_for
from repro.kokkos.policy import RangePolicy
from repro.observability.tracer import SpanTracer


def _sample_tracer() -> SpanTracer:
    """A short recorded session with nesting and a kernel dispatch."""
    with obs.tracing() as tr:
        with tr.span("solve", steps=2):
            for step in range(2):
                with tr.span("step", step=step):
                    parallel_for("kern", RangePolicy(0, 4), lambda i: None)
    return tr


class TestChromeTraceExport:
    def test_json_round_trip(self, tmp_path):
        tr = _sample_tracer()
        path = obs.write_chrome_trace(tmp_path / "trace.json", tr.spans)
        doc = json.loads(path.read_text())  # must be loadable JSON
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"

    def test_complete_events_schema(self, tmp_path):
        tr = _sample_tracer()
        doc = obs.to_chrome_trace(tr.spans)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tr.spans)
        for e in xs:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_timestamps_monotone_and_non_negative(self):
        tr = _sample_tracer()
        xs = [e for e in obs.to_chrome_trace(tr.spans)["traceEvents"] if e["ph"] == "X"]
        for e in xs:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        # spans are appended in completion order: end times never decrease
        ends = [e["ts"] + e["dur"] for e in xs]
        assert all(b >= a - 1e-9 for a, b in zip(ends, ends[1:]))

    def test_child_intervals_contained_in_parents(self):
        tr = _sample_tracer()
        by_id = {s.id: s for s in tr.spans}
        children = [s for s in tr.spans if s.parent != -1]
        assert children  # the sample really nests
        for s in children:
            p = by_id[s.parent]
            assert s.ts_us >= p.ts_us - 1e-6
            assert s.end_us <= p.end_us + 1e-6
            assert s.depth == p.depth + 1

    def test_metadata_events_and_metrics(self):
        tr = _sample_tracer()
        snap = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
        doc = obs.to_chrome_trace(tr.spans, metrics=snap, process_labels={0: "rank zero"})
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert {"process_name", "thread_name"} <= names
        proc = next(e for e in meta if e["name"] == "process_name")
        assert proc["args"]["name"] == "rank zero"
        assert doc["otherData"]["metrics"] == snap

    def test_kernel_span_present_with_args(self):
        tr = _sample_tracer()
        doc = obs.to_chrome_trace(tr.spans)
        kerns = [e for e in doc["traceEvents"] if e.get("cat") == "kernel"]
        assert len(kerns) == 2
        assert all(e["name"] == "kern" and e["args"]["extent"] == 4 for e in kerns)


class TestCounterEventExport:
    def test_series_become_counter_events(self):
        from repro.observability.timeseries import SeriesRegistry

        tr = _sample_tracer()
        reg = SeriesRegistry()
        reg.record("newton.residual", 10.0)
        reg.record("newton.residual", 0.5)
        reg.record("gmres.residual", 3.0, mode="assembled")
        doc = obs.to_chrome_trace(tr.spans, series=reg, counter_pid=4)
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(cs) == 3
        for e in cs:
            assert e["pid"] == 4 and e["ts"] >= 0.0
            assert set(e["args"]) == {"value"}
        tracks = {e["name"] for e in cs}
        assert "newton.residual" in tracks
        assert "gmres.residual{mode=assembled}" in tracks
        vals = [e["args"]["value"] for e in cs if e["name"] == "newton.residual"]
        assert vals == [10.0, 0.5]

    def test_no_series_no_counter_events(self):
        tr = _sample_tracer()
        doc = obs.to_chrome_trace(tr.spans)
        assert all(e["ph"] != "C" for e in doc["traceEvents"])

    def test_counter_events_pass_check_trace(self, tmp_path):
        import sys
        from pathlib import Path

        from repro.observability.timeseries import SeriesRegistry

        tr = _sample_tracer()
        reg = SeriesRegistry()
        reg.record("newton.residual", 1.0)
        path = obs.write_chrome_trace(tmp_path / "t.json", tr.spans, series=reg)
        tools = Path(__file__).resolve().parents[2] / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_trace import _check_counter
        finally:
            sys.path.pop(0)
        doc = json.loads(path.read_text())
        errors: list[str] = []
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        for i, e in enumerate(counters):
            _check_counter(i, e, errors)
        assert errors == []


class TestAsciiRenderings:
    def test_summary_table_smoke(self):
        tr = _sample_tracer()
        text = obs.summary_table(tr.spans)
        assert "solve" in text and "kern" in text and "share" in text

    def test_ascii_flame_smoke(self):
        tr = _sample_tracer()
        text = obs.ascii_flame(tr.spans)
        assert "solve" in text and "#" in text

    def test_metrics_table_smoke(self):
        snap = {
            "counters": {"gmres.iterations": 12},
            "gauges": {"occ": 0.5},
            "histograms": {"h": {"count": 1, "mean": 2.0, "min": 2.0, "max": 2.0, "sum": 2.0}},
        }
        text = obs.metrics_table(snap)
        assert "gmres.iterations" in text and "12" in text

    def test_metrics_table_shows_quantile_columns(self):
        from repro.observability.metrics import MetricsRegistry

        m = MetricsRegistry()
        h = m.histogram("iters")
        for v in (10, 20, 30, 40):
            h.observe(v)
        text = obs.metrics_table(m.snapshot())
        assert "p50" in text and "p95" in text

    def test_metrics_table_empty(self):
        assert "no metrics" in obs.metrics_table({})
