"""End-to-end observability: traced solves, the profile CLI, overhead.

Covers the acceptance criteria of the observability subsystem:

* ``python -m repro profile`` writes a Perfetto-loadable Chrome trace
  containing Newton steps, per-kernel spans and GMRES iterations, with a
  metrics snapshot riding along;
* with ``nparts > 1`` the per-neighbor halo exchanges appear as nested
  spans;
* ``phase_seconds`` / ``eval_sweeps`` are per-solve, not cumulative
  (two successive ``solve()`` calls report the same counts);
* outside ``tracing()`` a solve stores no span, so every production
  launch takes the tracer's not-recording fast path, and its numbers
  are bitwise those of a traced solve.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import observability as obs
from repro.app.antarctica import AntarcticaTest
from repro.app.config import AntarcticaConfig, VelocityConfig
from repro.app.velocity_solver import WORKSET_SIZE

REPO_ROOT = Path(__file__).resolve().parents[2]

#: tiny synthetic Antarctica: seconds per solve, all phases exercised
TINY = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=VelocityConfig())


def _solve_traced(cfg: AntarcticaConfig):
    test = AntarcticaTest.build(cfg)
    with obs.tracing() as tr:
        sol = test.problem.solve()
    return sol, tr


class TestTracedSolve:
    def test_trace_contains_solver_structure(self):
        sol, tr = _solve_traced(TINY)
        names = {s.name for s in tr.spans}
        assert {
            "velocity.solve",
            "newton.step",
            "newton.evaluate",
            "gmres.solve",
            "gmres.cycle",
            "gmres.iteration",
            "stokes.evaluate",
            "stokes.scatter",
            "precond.setup",
        } <= names
        kernels = [s for s in tr.spans if s.cat == "kernel"]
        assert kernels, "parallel_for dispatches must appear as kernel spans"
        # the kernel spans, counted exactly: one StokesFOResid launch per
        # workset of every evaluator sweep, each a parallel_for span
        # under velocity.solve -- a dropped or doubled emission fails
        by_id = {s.id: s for s in tr.spans}
        (solve,) = [s for s in tr.spans if s.name == "velocity.solve"]

        def under_solve(s):
            while s.parent != -1:
                s = by_id[s.parent]
                if s is solve:
                    return True
            return False

        per_sweep = -(-sol.diagnostics["num_cells"] // WORKSET_SIZE)
        launches = sum(sol.diagnostics["eval_sweeps"].values()) * per_sweep
        assert sum(map(under_solve, kernels)) == launches == len(kernels)
        assert all(s.args["dispatch"] == "parallel_for" for s in kernels)
        steps = [s for s in tr.spans if s.name == "newton.step"]
        assert len(steps) == sol.newton.iterations

    def test_diagnostics_embed_observability(self):
        sol, tr = _solve_traced(TINY)
        d = sol.diagnostics["observability"]
        assert d["tracing_active"] is True
        assert d["spans_recorded"] > 0
        counters = d["metrics"]["counters"]
        assert counters["newton.steps"] >= sol.newton.iterations
        assert counters["gmres.iterations"] > 0
        hist = d["metrics"]["histograms"]["gmres.iterations_per_solve"]
        assert hist["count"] >= sol.newton.iterations

    def test_phase_seconds_match_spans(self):
        sol, tr = _solve_traced(TINY)
        phases = sol.diagnostics["phase_seconds"]
        agg = tr.aggregate()
        # phase accounting is sourced from the same spans the trace holds
        assert phases["gmres"] == pytest.approx(agg["gmres.solve"]["total_s"], rel=1e-6)
        assert 0.0 < sum(phases.values()) <= sol.diagnostics["solve_seconds"] * 1.05

    def test_spmd_halo_spans(self):
        cfg = replace(TINY, velocity=replace(TINY.velocity, nparts=2))
        sol, tr = _solve_traced(cfg)
        names = {s.name for s in tr.spans}
        assert {"spmd.spmv", "halo.recv", "spmd.assemble_jacobian", "halo.ghost_refresh"} <= names
        # per-neighbor receives nest inside the SpMV refresh
        by_id = {s.id: s for s in tr.spans}
        recvs = [s for s in tr.spans if s.name == "halo.recv"]
        assert recvs and all(s.parent != -1 for s in recvs)
        assert any(by_id[s.parent].name == "spmd.spmv" for s in recvs)
        assert all(s.args["bytes"] > 0 for s in recvs)
        counters = sol.diagnostics["observability"]["metrics"]["counters"]
        assert counters["halo.bytes.vector_gather"] > 0
        assert any(k.startswith("halo.sent.r") for k in counters)


class TestPerSolveLifecycle:
    def test_two_solves_report_per_solve_numbers(self):
        # satellite regression: phase_seconds and eval_sweeps must reset
        # per solve -- a second solve() reports its own counts, not the
        # running total of both
        test = AntarcticaTest.build(TINY)
        d1 = test.problem.solve().diagnostics
        d2 = test.problem.solve().diagnostics
        assert d2["eval_sweeps"] == d1["eval_sweeps"]
        # a cumulative-lifecycle bug would carry solve 1's phase times
        # into solve 2's report, pushing their sum past solve 2's wall
        for d in (d1, d2):
            assert 0.0 < sum(d["phase_seconds"].values()) <= d["solve_seconds"] * 1.05
        # both sweeps counted something and stayed per-solve-sized
        assert 0 < d2["eval_sweeps"]["jacobian"] <= test.config.velocity.newton_steps + 1


class TestProfileCli:
    def test_profile_writes_valid_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        rc = main(
            [
                "profile",
                "--out", str(out),
                "--resolution-km", "400",
                "--layers", "4",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "chrome trace" in text and "Span summary" in text and "flame" in text

        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from check_trace import check_trace
        finally:
            sys.path.pop(0)
        assert check_trace(str(out)) == []

        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"velocity.solve", "newton.step", "gmres.iteration"} <= names
        assert doc["otherData"]["metrics"]["counters"]["gmres.iterations"] > 0
        # every kept series point is a counter event: the trace is the series log
        points = sum(len(ts.points) for ts in obs.get_series().all())
        assert points > 0
        assert sum(e["ph"] == "C" for e in doc["traceEvents"]) == points

        # one share rule: summary and flame divide by the same root spans
        summary = next(ln for ln in text.splitlines() if ln.split("|")[0].strip() == "velocity.solve")
        flame = next(ln for ln in text.splitlines() if ln.split()[-2:-1] == ["velocity.solve"])
        assert summary.split("|")[-1].strip() == flame.split()[1]


class TestHookOverhead:
    def test_inactive_registry_overhead_under_5_percent(self):
        # the overhead bound, structurally: outside tracing() the tracer
        # does not record, so every launch takes the one-attribute-read
        # fast path and no span is stored, and an untraced solve is
        # bitwise the traced one
        tracer = obs.get_tracer()
        tracer.clear()
        assert not tracer.recording
        test = AntarcticaTest.build(TINY)
        silent = test.problem.solve()
        assert tracer.spans == []
        traced, _ = _solve_traced(TINY)
        assert np.array_equal(silent.u, traced.u)
        assert silent.newton.linear_iterations == traced.newton.linear_iterations
