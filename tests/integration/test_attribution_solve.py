"""End-to-end perf attribution: planted regressions, stitched CLI traces,
OpenMetrics artifacts, diagnostics stability, attribution overhead.

Covers the acceptance criteria of the attribution pipeline:

* a profile trace with a delay planted on one span name
  (``tools/plant_delay.py``) diffs against a clean baseline run and
  ``perfdiff`` ranks exactly the slowed span first (the CI negative
  control);
* ``--nparts 4`` produces a stitched Chrome trace with spans from all
  four ranks on their own pids, monotone clock-aligned timestamps, and
  a clean ``tools/check_trace.py`` verdict;
* the ``--openmetrics`` artifact parses under the stdlib OpenMetrics
  grammar checker;
* ``diagnostics["observability"]`` survives a JSON round-trip
  bitwise-stable;
* recording convergence series + per-cycle byte attribution keeps solve
  overhead within the observability subsystem's 5% envelope.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import observability as obs
from repro.app.antarctica import AntarcticaTest
from repro.app.config import AntarcticaConfig, VelocityConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=VelocityConfig())


def _tool(module: str, name: str):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        return getattr(__import__(module), name)
    finally:
        sys.path.pop(0)


def _profile(tmp_path, tag, *extra):
    from repro.__main__ import main

    out = tmp_path / f"trace_{tag}.json"
    rc = main([
        "profile", "--out", str(out), "--resolution-km", "400", "--layers", "4", *extra,
    ])
    assert rc == 0
    return out


class TestPlantedRegression:
    PLANT = "gmres.iteration"

    def test_perfdiff_ranks_planted_span_first(self, tmp_path, capsys):
        from repro.observability.perfdiff import main as perfdiff_main

        base = _profile(tmp_path, "base")
        cur = _profile(tmp_path, "slow")
        slow = json.loads(cur.read_text())
        _tool("plant_delay", "plant_delay")(slow, self.PLANT, 0.001)
        cur.write_text(json.dumps(slow))
        capsys.readouterr()  # drop the profile chatter

        assert perfdiff_main([str(base), str(cur)]) == 0
        out = capsys.readouterr().out
        assert f"top regression: {self.PLANT}" in out
        assert "Span attribution by self time" in out
        # machine-readable check too: rank 1 by self-time delta
        report_path = tmp_path / "report.json"
        assert perfdiff_main([str(base), str(cur), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["top_regression"] == self.PLANT
        assert report["spans"][0]["name"] == self.PLANT
        # ~292 iterations x 1ms planted: the delta is large and positive
        assert report["spans"][0]["delta_s"] > 0.05


class TestStitchedProfileCli:
    def test_nparts4_trace_stitched_and_valid(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "stitched.json"
        om = tmp_path / "metrics.om"
        rc = main([
            "profile", "--out", str(out), "--openmetrics", str(om),
            "--resolution-km", "400", "--layers", "4", "--nparts", "4",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Roofline attribution" in text
        assert "Critical path: halo wait vs compute" in text

        assert _tool("check_trace", "check_trace")(str(out)) == []
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # all four rank lanes plus the driver lane are populated
        assert {e["pid"] for e in xs} == {0, 1, 2, 3, 4}
        rank_spans = [e for e in xs if isinstance(e["args"].get("rank"), int)]
        assert rank_spans and all(e["pid"] == e["args"]["rank"] for e in rank_spans)
        ts = [e["ts"] for e in xs]
        assert all(b >= a for a, b in zip(ts, ts[1:])) and min(ts) >= 0.0
        # driver lane carries the roofline-annotated solver phases
        annotated = [e for e in xs if "roofline" in e["args"]]
        assert annotated
        labels = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"rank 0", "rank 3", "driver"} <= labels

        from repro.observability import parse_exposition

        families = parse_exposition(om.read_text())
        assert "newton_residual" in families
        assert "gmres_iterations" in families


class TestSeriesFromSolve:
    def test_residual_series_recorded_per_solve(self):
        obs.get_series().reset()
        test = AntarcticaTest.build(TINY)
        sol = test.problem.solve()
        newton = obs.get_series().get("newton.residual")
        assert newton is not None
        assert newton.count >= sol.newton.iterations
        vals = newton.values()
        assert vals[-1] < vals[0]  # it converged
        gmres = [s for s in obs.get_series().all() if s.name == "gmres.residual"]
        assert gmres and all(s.labels.get("mode") for s in gmres)
        # the series summary rides the solve diagnostics
        summ = sol.diagnostics["observability"]["series"]
        assert any(k.startswith("newton.residual") for k in summ)


class TestDiagnosticsStability:
    def test_observability_diagnostics_json_round_trip_bitwise(self):
        obs.get_series().reset()
        test = AntarcticaTest.build(TINY)
        with obs.tracing():
            sol = test.problem.solve()
        d = sol.diagnostics["observability"]
        first = json.dumps(d, sort_keys=True)
        second = json.dumps(json.loads(first), sort_keys=True)
        assert first == second
        reparsed = json.loads(second)
        assert reparsed["metrics"]["counters"]["newton.steps"] >= 1


class TestAttributionOverhead:
    def test_attribution_overhead_under_5_percent(self):
        # re-run of the observability overhead acceptance with the
        # attribution emission sites live: series recording + per-cycle
        # byte math on vs off must stay within the same 5% envelope
        test = AntarcticaTest.build(TINY)
        test.problem.solve()  # warm caches outside the timed region

        def timed_solve() -> float:
            t0 = time.perf_counter()
            test.problem.solve()
            return time.perf_counter() - t0

        series = obs.get_series()
        with series.disabled():
            t_off = min(timed_solve() for _ in range(3))
        assert series.active
        t_on = min(timed_solve() for _ in range(3))
        assert t_on <= 1.05 * t_off + 0.05, (t_on, t_off)


class TestSnapshotReconciliation:
    def test_snapshot_self_never_exceeds_total(self, tmp_path):
        """The span aggregate perfdiff reads from a profile's Chrome trace."""
        from repro.observability.perfdiff import load_perf_document

        doc = load_perf_document(str(_profile(tmp_path, "recon")))
        assert doc["spans"]
        for name, rec in doc["spans"].items():
            assert 0.0 <= rec["self_s"] <= rec["total_s"] + 1e-9, name
        # the root span's inclusive time bounds everyone's self time sum
        root = doc["spans"]["velocity.solve"]["total_s"]
        build = doc["spans"]["antarctica.build"]["total_s"]
        total_self = sum(r["self_s"] for r in doc["spans"].values())
        assert total_self <= (root + build) * 1.05
