"""perfdiff: document loading, self-time attribution, ranking, CLI."""

from __future__ import annotations

import json

import pytest

from repro.observability.perfdiff import (
    DEFAULT_MIN_DELTA_S,
    diff_documents,
    format_diff,
    load_perf_document,
    main,
)


def _bench(path, spans):
    """A bench document carrying per-span aggregates."""
    path.write_text(json.dumps({"bench": "test", "spans": spans}))
    return str(path)


class TestLoadPerfDocument:
    def test_snapshot_without_self_falls_back_to_total(self, tmp_path):
        """A span aggregate written without self time diffs on inclusive time."""
        p = _bench(tmp_path / "s.json", {"a": {"count": 1, "total_s": 3.0}})
        doc = load_perf_document(p)
        assert doc["spans"]["a"]["self_s"] == 3.0

    def test_chrome_trace_reconstructs_self_time(self, tmp_path):
        # parent 0-100us wholly contains child 20-60us on the same lane:
        # parent self = 60us, child self = 40us
        trace = {
            "traceEvents": [
                {"name": "parent", "ph": "X", "ts": 0, "dur": 100, "pid": 0, "tid": 0},
                {"name": "child", "ph": "X", "ts": 20, "dur": 40, "pid": 0, "tid": 0},
                {"name": "other", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
                {"name": "meta", "ph": "M", "pid": 0, "tid": 0},
            ],
            "otherData": {"metrics": {"counters": {"c": 3}}},
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps(trace))
        doc = load_perf_document(str(p))
        assert doc["spans"]["parent"]["self_s"] == pytest.approx(60e-6)
        assert doc["spans"]["child"]["self_s"] == pytest.approx(40e-6)
        # separate pid lane: no containment across processes
        assert doc["spans"]["other"]["self_s"] == pytest.approx(100e-6)
        assert doc["counters"] == {"c": 3.0}

    def test_bench_document(self, tmp_path):
        doc = {
            "bench": "solver_hotpath",
            "spans": {"newton.step": {"count": 8, "total_s": 1.0, "self_s": 0.2}},
            "deterministic": {"gmres": {"assembled": {"stream_bytes": 5.0}}},
        }
        p = tmp_path / "b.json"
        p.write_text(json.dumps(doc))
        loaded = load_perf_document(str(p))
        assert loaded["spans"]["newton.step"]["self_s"] == 0.2
        assert loaded["counters"]["deterministic.gmres.assembled.stream_bytes"] == 5.0

    def test_unrecognized_document_raises(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError):
            load_perf_document(str(p))


class TestDiffDocuments:
    def _docs(self):
        base = {
            "label": "base",
            "spans": {
                "gmres.iteration": {"count": 100, "total_s": 1.0, "self_s": 0.4},
                "newton.step": {"count": 8, "total_s": 2.0, "self_s": 0.1},
                "steady": {"count": 1, "total_s": 0.5, "self_s": 0.5},
            },
            "counters": {"gmres.iterations": 100.0},
        }
        cur = {
            "label": "cur",
            "spans": {
                # planted: self time quadruples; ancestors inflate too
                "gmres.iteration": {"count": 100, "total_s": 2.3, "self_s": 1.7},
                "newton.step": {"count": 8, "total_s": 3.3, "self_s": 0.1},
                "steady": {"count": 1, "total_s": 0.5, "self_s": 0.5},
            },
            "counters": {"gmres.iterations": 120.0},
        }
        return base, cur

    def test_planted_span_ranks_first_despite_ancestor_inflation(self):
        base, cur = self._docs()
        report = diff_documents(base, cur)
        assert report["top_regression"] == "gmres.iteration"
        assert report["spans"][0]["name"] == "gmres.iteration"
        assert report["spans"][0]["delta_s"] == pytest.approx(1.3)
        # ancestor's inclusive delta is visible but does not outrank it
        assert report["spans"][0]["incl_delta_s"] == pytest.approx(1.3)

    def test_share_and_totals(self):
        base, cur = self._docs()
        report = diff_documents(base, cur)
        assert report["base_total_s"] == pytest.approx(1.0)
        assert report["cur_total_s"] == pytest.approx(2.3)
        assert report["total_delta_s"] == pytest.approx(1.3)
        assert report["spans"][0]["share"] == pytest.approx(1.0)

    def test_min_delta_filters_noise(self):
        base, cur = self._docs()
        cur["spans"]["steady"]["self_s"] += DEFAULT_MIN_DELTA_S / 10
        report = diff_documents(base, cur)
        assert all(r["name"] != "steady" for r in report["spans"])

    def test_new_and_vanished_spans(self):
        base = {"label": "b", "spans": {}, "counters": {}}
        cur = {
            "label": "c",
            "spans": {"fresh": {"count": 1, "total_s": 0.2, "self_s": 0.2}},
            "counters": {},
        }
        report = diff_documents(base, cur)
        (row,) = report["spans"]
        assert row["name"] == "fresh" and row["ratio"] == float("inf")

    def test_counter_rows(self):
        base, cur = self._docs()
        report = diff_documents(base, cur)
        (row,) = report["counters"]
        assert row["name"] == "gmres.iterations" and row["delta"] == pytest.approx(20.0)

    def test_no_regression_top_is_none(self):
        base, cur = self._docs()
        report = diff_documents(cur, base)  # reversed: everything improves
        assert report["top_regression"] is None


class TestCli:
    def test_main_prints_attribution_table(self, tmp_path, capsys):
        a = _bench(tmp_path / "a.json", {"slow": {"count": 1, "total_s": 1.0, "self_s": 1.0}})
        b = _bench(tmp_path / "b.json", {"slow": {"count": 1, "total_s": 2.0, "self_s": 2.0}})
        assert main([a, b]) == 0
        out = capsys.readouterr().out
        assert "top regression: slow" in out
        assert "Span attribution by self time" in out

    def test_main_json_report(self, tmp_path, capsys):
        a = _bench(tmp_path / "a.json", {"s": {"count": 1, "total_s": 1.0, "self_s": 1.0}})
        b = _bench(tmp_path / "b.json", {"s": {"count": 1, "total_s": 3.0, "self_s": 3.0}})
        out_json = tmp_path / "report.json"
        assert main([a, b, "--json", str(out_json)]) == 0
        report = json.loads(out_json.read_text())
        assert report["top_regression"] == "s"

    def test_main_bad_input_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        ok = _bench(tmp_path / "ok.json", {})
        assert main([missing, ok]) == 2
        assert "perfdiff:" in capsys.readouterr().err

    def test_format_diff_handles_empty(self):
        report = diff_documents(
            {"label": "a", "spans": {}, "counters": {}},
            {"label": "b", "spans": {}, "counters": {}},
        )
        text = format_diff(report)
        assert "no span deltas" in text
