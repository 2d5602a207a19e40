"""Roofline annotation: AI/%-of-roof math, bases, tables, reconciliation."""

from __future__ import annotations

import pytest

from repro.gpusim import ANTARCTICA_16KM, GPUSimulator, MI250X_GCD
from repro.gpusim.specs import ALL_GPUS
from repro.observability.attribution import (
    ROOFLINE_FIELDS,
    ROOFLINE_KEY,
    annotate_roofline,
    reconcile_rocprof_bytes,
    roofline_table,
    span_bytes,
)
from repro.observability.tracer import SpanTracer

SPEC = ALL_GPUS["MI250X-GCD"]


def _spans(*defs):
    """Build closed spans with controlled args via a private tracer."""
    tr = SpanTracer()
    tr.start()
    for name, args in defs:
        with tr.span(name, **args):
            pass
    return tr.spans


class TestSpanBytes:
    def test_explicit_bytes(self):
        (s,) = _spans(("k", {"bytes": 128.0}))
        assert span_bytes(s) == 128.0

    def test_matvec_plus_stream_split(self):
        (s,) = _spans(("gmres.cycle", {"matvec_bytes": 100.0, "stream_bytes": 28.0}))
        assert span_bytes(s) == 128.0

    def test_unpriced_and_garbage(self):
        a, b = _spans(("x", {}), ("y", {"bytes": "oops"}))
        assert span_bytes(a) == 0.0
        assert span_bytes(b) == 0.0


class TestAnnotateRoofline:
    def test_modeled_basis_exact_fractions(self):
        # bytes/flops/model_time chosen so the fractions are closed-form
        bw, pf = float(SPEC.hbm_bytes_per_s), float(SPEC.fp64_flops)
        (s,) = _spans(("gpusim.run", {
            "bytes": bw,            # 1 s of peak-bandwidth traffic
            "flops": 0.5 * pf,      # 0.5 s of peak flops
            "model_time_s": 2.0,
        }))
        assert annotate_roofline([s], SPEC) == 1
        r = s.args[ROOFLINE_KEY]
        assert r["basis"] == "modeled" and r["gpu"] == SPEC.name
        assert r["bw_frac"] == pytest.approx(0.5)
        assert r["ai"] == pytest.approx(0.5 * pf / bw)
        # compute-bound at this AI iff AI > ridge point
        attainable = min(pf, bw * r["ai"])
        assert r["roof_frac"] == pytest.approx((0.5 * pf / 2.0) / attainable)

    def test_pure_streaming_roof_is_bandwidth(self):
        (s,) = _spans(("mdsc.vcycle", {"bytes": 1e6, "model_time_s": 1e-3}))
        annotate_roofline([s], SPEC)
        r = s.args[ROOFLINE_KEY]
        assert r["flops"] == 0.0 and r["ai"] == 0.0
        assert r["roof_frac"] == pytest.approx(r["bw_frac"])

    def test_wall_basis_fallback(self):
        (s,) = _spans(("gmres.cycle", {"bytes": 4096.0}))
        assert s.dur_s > 0.0
        annotate_roofline([s], SPEC)
        assert s.args[ROOFLINE_KEY]["basis"] == "wall"

    def test_unpriced_spans_untouched(self):
        spans = _spans(("newton.step", {}), ("gmres.cycle", {"bytes": 1.0}))
        assert annotate_roofline(spans, SPEC) == 1
        assert ROOFLINE_KEY not in spans[0].args
        assert ROOFLINE_KEY in spans[1].args

    def test_annotation_carries_all_checked_fields(self):
        (s,) = _spans(("k", {"bytes": 10.0, "flops": 5.0}))
        annotate_roofline([s], SPEC)
        r = s.args[ROOFLINE_KEY]
        for f in ROOFLINE_FIELDS:
            assert isinstance(r[f], float) and r[f] >= 0.0


class TestRooflineTable:
    def test_rollup_by_name(self):
        spans = _spans(
            ("gmres.cycle", {"bytes": 2e9, "flops": 1e8}),
            ("gmres.cycle", {"bytes": 2e9, "flops": 1e8}),
            ("mdsc.vcycle", {"bytes": 1e9}),
        )
        annotate_roofline(spans, SPEC)
        table = roofline_table(spans, SPEC)
        assert "gmres.cycle" in table and "mdsc.vcycle" in table
        assert "4.000" in table  # 2 x 2e9 B = 4.000 GB rolled up
        assert "wall" in table and SPEC.name in table

    def test_empty_when_unannotated(self):
        spans = _spans(("a", {}))
        assert roofline_table(spans, SPEC) == "(no roofline-annotated spans)"


class TestRocprofReconciliation:
    def test_gpusim_spans_reconcile_exactly(self):
        # acceptance: span roofline byte args agree with the TCC_EA
        # 64 * (RDREQ + WRREQ) appendix formula on a real simulator run
        sim = GPUSimulator(MI250X_GCD)
        tr = SpanTracer()
        tr.start()
        import repro.observability.tracer as tracer_mod

        prev = tracer_mod._TRACER
        tracer_mod._TRACER = tr
        try:
            sim.run("optimized-jacobian", ANTARCTICA_16KM)
        finally:
            tracer_mod._TRACER = prev
        runs = [s for s in tr.spans if s.name == "gpusim.run"]
        assert runs, "gpusim.run span must be recorded"
        assert runs[0].args["bytes"] == runs[0].args["rocprof_bytes"]
        assert reconcile_rocprof_bytes(tr.spans) == []
        # and the annotation uses the simulated GPU time, not wall time
        annotate_roofline(tr.spans, SPEC)
        assert runs[0].args[ROOFLINE_KEY]["basis"] == "modeled"
        assert runs[0].args[ROOFLINE_KEY]["bw_frac"] > 0.01

    def test_mismatch_reported(self):
        (s,) = _spans(("gpusim.run", {"bytes": 100.0, "rocprof_bytes": 164.0}))
        errs = reconcile_rocprof_bytes([s])
        assert len(errs) == 1 and "gpusim.run" in errs[0]
