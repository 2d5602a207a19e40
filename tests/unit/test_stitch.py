"""SPMD trace stitching: rank->pid, critical path."""

from __future__ import annotations

import pytest

from repro.observability.stitch import (
    DRIVER_PID,
    critical_path_table,
    halo_compute_split,
    stitch_process_labels,
    stitch_spans,
)
from repro.observability.tracer import Span


def _span(id, name, ts_us, dur_us, *, cat="phase", pid=0, parent=-1, **args):
    return Span(
        id=id, name=name, cat=cat, ts_us=float(ts_us), dur_us=float(dur_us),
        pid=pid, tid=0, depth=0 if parent == -1 else 1, parent=parent, args=args,
    )


class TestSplitAndStitch:
    def test_split_partitions_by_rank_arg(self):
        spans = [
            _span(0, "newton.step", 0.0, 100.0),
            _span(1, "rank.spmv", 1.0, 2.0, cat="compute", rank=0),
            _span(2, "halo.recv", 3.0, 1.0, cat="halo", rank=1),
            _span(3, "rank.spmv", 4.0, 2.0, cat="compute", rank=7),  # out of range
        ]
        out = stitch_spans(spans, nparts=2)
        assert [(s.id, s.pid) for s in out] == [(0, 2), (1, 0), (2, 1), (3, 2)]

    def test_stitch_maps_rank_to_pid_and_driver(self):
        spans = [
            _span(0, "newton.step", 0.0, 100.0),
            _span(1, "rank.spmv", 1.0, 2.0, cat="compute", rank=1),
        ]
        out = stitch_spans(spans, nparts=4)
        by_name = {s.name: s for s in out}
        assert by_name["rank.spmv"].pid == 1
        assert by_name["rank.spmv"].args["rank"] == 1
        assert by_name["newton.step"].pid == DRIVER_PID(4) == 4

    def test_stitch_clamps_and_sorts(self):
        spans = [
            _span(0, "a", 50.0, 1.0, rank=0),
            _span(1, "b", -30.0, 1.0, rank=1),
            _span(2, "c", 20.0, 1.0),
        ]
        out = stitch_spans(spans, nparts=2)
        # -30us clamps to 0, and the result is sorted by start time
        assert [s.name for s in out] == ["b", "c", "a"]
        assert out[0].ts_us == 0.0
        assert all(out[i].ts_us <= out[i + 1].ts_us for i in range(len(out) - 1))

    def test_originals_not_mutated(self):
        orig = _span(0, "rank.spmv", 5.0, 1.0, cat="compute", rank=2)
        stitch_spans([orig], nparts=4)
        assert orig.ts_us == 5.0 and orig.pid == 0

    def test_process_labels(self):
        labels = stitch_process_labels(2)
        assert labels == {0: "rank 0", 1: "rank 1", 2: "driver"}


class TestHaloComputeSplit:
    def _step_trace(self):
        # newton.step -> spmd.spmv container -> rank-tagged leaves
        return [
            _span(0, "newton.step", 0.0, 100.0, step=0),
            _span(1, "spmd.spmv", 1.0, 50.0, cat="halo", parent=0),
            _span(2, "halo.recv", 2.0, 10.0, cat="halo", parent=1, rank=0),
            _span(3, "rank.spmv", 12.0, 30.0, cat="compute", parent=1, rank=0),
            _span(4, "halo.recv", 2.0, 20.0, cat="halo", parent=1, rank=1),
            _span(5, "rank.spmv", 22.0, 10.0, cat="compute", parent=1, rank=1),
        ]

    def test_per_rank_split_and_critical_rank(self):
        (rec,) = halo_compute_split(self._step_trace())
        assert rec["step"] == 0
        assert rec["per_rank"][0]["halo_s"] == pytest.approx(10e-6)
        assert rec["per_rank"][0]["compute_s"] == pytest.approx(30e-6)
        assert rec["per_rank"][1]["halo_s"] == pytest.approx(20e-6)
        assert rec["halo_s"] == pytest.approx(30e-6)
        assert rec["compute_s"] == pytest.approx(40e-6)
        # both ranks total 40us; max() ties break to the first -- assert
        # the invariant rather than the tie
        totals = {r: b["halo_s"] + b["compute_s"] for r, b in rec["per_rank"].items()}
        assert totals[rec["critical_rank"]] == max(totals.values())
        assert rec["halo_fraction"] == pytest.approx(30.0 / 70.0)

    def test_containers_not_double_counted(self):
        (rec,) = halo_compute_split(self._step_trace())
        # spmd.spmv is cat="halo" but has no rank arg: only leaves count
        assert rec["halo_s"] < 50e-6

    def test_table_renders(self):
        table = critical_path_table(halo_compute_split(self._step_trace()))
        assert "halo share" in table and "critical rank" in table
        assert critical_path_table([]).startswith("(no newton.step")


class TestStitchedSolveTrace:
    def test_four_rank_profile_stitches_all_ranks(self):
        # acceptance: stitched --nparts 4 trace contains spans from all
        # four ranks plus the driver, with monotone stamps
        from dataclasses import replace as dreplace

        from repro import observability as obs
        from repro.app.antarctica import AntarcticaTest
        from repro.app.config import AntarcticaConfig, VelocityConfig

        cfg = AntarcticaConfig(
            resolution_km=400.0, num_layers=4,
            velocity=dreplace(VelocityConfig(), nparts=4),
        )
        test = AntarcticaTest.build(cfg)
        with obs.tracing() as tr:
            test.problem.solve()
        stitched = stitch_spans(tr.spans, nparts=4)
        pids = {s.pid for s in stitched}
        assert pids == {0, 1, 2, 3, DRIVER_PID(4)}
        assert all(
            stitched[i].ts_us <= stitched[i + 1].ts_us for i in range(len(stitched) - 1)
        )
        records = halo_compute_split(stitched)
        assert records and all(set(r["per_rank"]) == {0, 1, 2, 3} for r in records)
        assert all(0.0 < r["halo_fraction"] < 1.0 for r in records)
