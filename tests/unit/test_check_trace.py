"""tools/check_trace.py attribution-era rules (stdlib trace validator)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture(scope="module")
def check_trace():
    sys.path.insert(0, str(TOOLS))
    try:
        from check_trace import check_trace as fn
    finally:
        sys.path.pop(0)
    return fn


def _base_events():
    """Minimal passing trace: solve structure + one kernel span."""
    return [
        {"name": "velocity.solve", "cat": "phase", "ph": "X", "ts": 0, "dur": 100,
         "pid": 0, "tid": 0, "args": {}},
        {"name": "newton.step", "cat": "phase", "ph": "X", "ts": 1, "dur": 50,
         "pid": 0, "tid": 0, "args": {}},
        {"name": "kern", "cat": "kernel", "ph": "X", "ts": 2, "dur": 10,
         "pid": 0, "tid": 0, "args": {}},
    ]


def _write(tmp_path, events):
    p = tmp_path / "trace.json"
    p.write_text(json.dumps({"traceEvents": events}))
    return str(p)


def _roofline(**overrides):
    r = {"bytes": 100.0, "flops": 10.0, "ai": 0.1, "roof_frac": 0.5,
         "bw_frac": 0.5, "basis": "modeled", "gpu": "MI250X-GCD"}
    r.update(overrides)
    return r


class TestBaseline:
    def test_minimal_trace_passes(self, check_trace, tmp_path):
        assert check_trace(_write(tmp_path, _base_events())) == []


class TestCategoryRule:
    @pytest.mark.parametrize(
        "cat", ["phase", "kernel", "evaluator", "halo", "compute", "gpusim"]
    )
    def test_emitted_category_passes(self, check_trace, tmp_path, cat):
        ev = _base_events()
        ev.append({"name": "x", "cat": cat, "ph": "X", "ts": 3, "dur": 1,
                   "pid": 0, "tid": 0, "args": {}})
        assert check_trace(_write(tmp_path, ev)) == []

    @pytest.mark.parametrize("cat", ["copy", "fence", "region", "function", "kernal", None])
    def test_removed_or_misspelled_category_rejected(self, check_trace, tmp_path, cat):
        ev = _base_events()
        ev.append({"name": "x", "cat": cat, "ph": "X", "ts": 3, "dur": 1,
                   "pid": 0, "tid": 0, "args": {}})
        errors = check_trace(_write(tmp_path, ev))
        assert any("unknown span category" in e for e in errors)


class TestRooflineRules:
    def test_valid_annotation_passes(self, check_trace, tmp_path):
        ev = _base_events()
        ev[2]["args"]["roofline"] = _roofline()
        assert check_trace(_write(tmp_path, ev)) == []

    @pytest.mark.parametrize("bad", [
        {"bytes": -1.0}, {"flops": float("nan")}, {"ai": None},
        {"roof_frac": "x"}, {"basis": "guessed"},
    ])
    def test_bad_field_rejected(self, check_trace, tmp_path, bad):
        ev = _base_events()
        ev[2]["args"]["roofline"] = _roofline(**bad)
        errors = check_trace(_write(tmp_path, ev))
        assert errors and any("roofline" in e for e in errors)

    def test_missing_field_rejected(self, check_trace, tmp_path):
        ev = _base_events()
        r = _roofline()
        del r["bw_frac"]
        ev[2]["args"]["roofline"] = r
        assert any("bw_frac" in e for e in check_trace(_write(tmp_path, ev)))


class TestRankPidRule:
    def test_stitched_rank_on_matching_pid_passes(self, check_trace, tmp_path):
        ev = _base_events()
        ev.append({"name": "rank.spmv", "cat": "compute", "ph": "X", "ts": 5,
                   "dur": 2, "pid": 1, "tid": 0, "args": {"rank": 1}})
        assert check_trace(_write(tmp_path, ev)) == []

    def test_unstitched_rank_span_rejected(self, check_trace, tmp_path):
        ev = _base_events()
        ev.append({"name": "rank.spmv", "cat": "compute", "ph": "X", "ts": 5,
                   "dur": 2, "pid": 0, "tid": 0, "args": {"rank": 3}})
        errors = check_trace(_write(tmp_path, ev))
        assert any("rank to pid" in e for e in errors)


class TestCounterRules:
    def test_valid_counter_passes(self, check_trace, tmp_path):
        ev = _base_events()
        ev.append({"name": "newton.residual", "ph": "C", "ts": 3, "pid": 0,
                   "tid": 0, "args": {"value": 1.5}})
        assert check_trace(_write(tmp_path, ev)) == []

    @pytest.mark.parametrize("args", [{}, {"value": "oops"}, {"value": float("inf")},
                                      {"value": True}])
    def test_bad_counter_args_rejected(self, check_trace, tmp_path, args):
        ev = _base_events()
        ev.append({"name": "bad", "ph": "C", "ts": 3, "pid": 0, "tid": 0,
                   "args": args})
        assert check_trace(_write(tmp_path, ev))

    def test_negative_counter_ts_rejected(self, check_trace, tmp_path):
        ev = _base_events()
        ev.append({"name": "bad", "ph": "C", "ts": -1, "pid": 0, "tid": 0,
                   "args": {"value": 1.0}})
        assert any("bad ts" in e for e in check_trace(_write(tmp_path, ev)))
