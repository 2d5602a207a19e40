"""Roofline attribution: modeled bytes/flops per span, %-of-roof tables.

The paper justified every kernel change with byte counters (rocprof
TCC_EA requests, Table II launch sweeps) rather than wall time alone.
This module closes the same loop for recorded traces: emission sites
attach their modeled traffic to span ``args`` (``bytes``, ``flops``,
and -- for gpusim kernel spans -- ``rocprof_bytes`` and
``model_time_s``), and :func:`annotate_roofline` turns those raw
numbers into roofline coordinates against a chosen GPU:

* ``ai``        -- arithmetic intensity, flops per HBM byte;
* ``roof_frac`` -- attained fraction of the roofline ceiling at that
  AI (for pure-streaming spans with no flop model this is the
  bandwidth fraction);
* ``bw_frac``   -- implied HBM bandwidth over peak;
* ``basis``     -- ``"modeled"`` when the span carries a simulated GPU
  time (``model_time_s``, gpusim spans), ``"wall"`` when the only
  clock is the Python harness's own duration.  Wall-basis fractions
  are honest but tiny -- they measure the harness, not the modeled
  GPU -- so tables always print the basis next to the fraction.

Byte sources per span family:

=================  ==================================================
``gpusim.run``     memtrace :class:`~repro.gpusim.memtrace.DataMovement`
                   (``bytes`` equals ``rocprof_formula_bytes()`` by the
                   request-counting contract; a reconciliation helper
                   asserts it)
``gmres.cycle``    :mod:`repro.gpusim.solver_bytes` per-cycle matvec +
                   orthogonalization streams at the depths actually run
``mdsc.vcycle``    the preconditioner's ``bytes_per_apply`` (matrices
                   and vectors it streams per V-cycle)
``halo.*``         measured exchange payloads (already in ``args``)
=================  ==================================================
"""

from __future__ import annotations

__all__ = [
    "annotate_roofline",
    "roofline_table",
    "reconcile_rocprof_bytes",
    "span_bytes",
]

#: span arg key the annotation pass writes; check_trace validates it
ROOFLINE_KEY = "roofline"

#: required numeric fields of a roofline annotation
ROOFLINE_FIELDS = ("bytes", "flops", "ai", "roof_frac", "bw_frac")


def span_bytes(span) -> float:
    """Modeled/measured HBM bytes of one span, 0.0 when unpriced.

    Accepts an explicit ``bytes`` arg or the ``matvec_bytes`` +
    ``stream_bytes`` split the GMRES cycle spans carry.
    """
    args = span.args
    b = args.get("bytes")
    if b is None:
        b = args.get("matvec_bytes", 0.0) + args.get("stream_bytes", 0.0)
    try:
        return max(0.0, float(b))
    except (TypeError, ValueError):
        return 0.0


def _roofline_model(spec):
    # the paper's Fig. 3 roof has one definition; deferred import
    # (repro.perf -> gpusim -> observability cycle, see export.py)
    from repro.perf.roofline import RooflineModel

    return RooflineModel(spec)


def _coordinates(roof, b: float, fl: float, t: float) -> tuple[float, float, float]:
    """``(ai, roof_frac, bw_frac)`` of ``b`` bytes and ``fl`` flops in ``t`` s."""
    bw_frac = (b / t) / roof.spec.hbm_bytes_per_s
    if fl <= 0.0:
        # pure-streaming span: the roof at AI -> 0 is the bandwidth
        # ceiling, so %-of-roof degenerates to the bandwidth fraction
        return 0.0, bw_frac, bw_frac
    ai = fl / b
    return ai, (fl / t / 1.0e9) / float(roof.attainable_gflops(ai)), bw_frac


def annotate_roofline(spans, spec) -> int:
    """Attach roofline coordinates to every priced span, in place.

    ``spec`` is a :class:`repro.gpusim.specs.GPUSpec` (the roof the
    spans are measured against).  Returns the number of spans
    annotated.  Spans without a byte model are left untouched; spans
    with zero duration and no modeled time cannot imply a bandwidth and
    are skipped too.
    """
    roof = _roofline_model(spec)
    n = 0
    for s in spans:
        b = span_bytes(s)
        if b <= 0.0:
            continue
        model_t = s.args.get("model_time_s")
        if model_t is not None and model_t > 0.0:
            t, basis = float(model_t), "modeled"
        elif s.dur_s > 0.0:
            t, basis = s.dur_s, "wall"
        else:
            continue
        fl = max(0.0, float(s.args.get("flops", 0.0) or 0.0))
        ai, roof_frac, bw_frac = _coordinates(roof, b, fl, t)
        s.args[ROOFLINE_KEY] = {
            "bytes": b,
            "flops": fl,
            "ai": ai,
            "roof_frac": roof_frac,
            "bw_frac": bw_frac,
            "basis": basis,
            "gpu": spec.name,
        }
        n += 1
    return n


def roofline_table(spans, spec) -> str:
    """ASCII per-span-name roofline rollup (the attribution table, top 20).

    Aggregates annotated spans by name: total bytes, total flops,
    aggregate AI, time-weighted %-of-roof, and the time basis.  Spans
    must have been through :func:`annotate_roofline` first (unannotated
    spans are ignored).
    """
    from repro.perf.report import format_table  # deferred (import cycle, see export.py)

    agg: dict[str, list] = {}
    for s in spans:
        r = s.args.get(ROOFLINE_KEY)
        if not r:
            continue
        t = s.args.get("model_time_s") if r["basis"] == "modeled" else s.dur_s
        a = agg.setdefault(s.name, [0, 0.0, 0.0, 0.0, r["basis"]])
        a[0] += 1
        a[1] += r["bytes"]
        a[2] += r["flops"]
        a[3] += float(t)
    rows = []
    roof = _roofline_model(spec)
    for name, (count, b, fl, t, basis) in sorted(agg.items(), key=lambda kv: -kv[1][1])[:20]:
        # annotated spans carry positive bytes and a positive time
        ai, roof_frac, bw_frac = _coordinates(roof, b, fl, t)
        rows.append(
            [name, count, f"{b / 1e9:.3f}", f"{fl / 1e9:.3f}",
             f"{ai:.3f}", f"{roof_frac:.2%}", f"{bw_frac:.2%}", basis]
        )
    if not rows:
        return "(no roofline-annotated spans)"
    return format_table(
        ["span", "count", "GB moved", "Gflop", "AI [f/B]", "% of roof", "% peak BW", "basis"],
        rows,
        title=f"Roofline attribution vs {spec.name}",
    )


def reconcile_rocprof_bytes(spans) -> list[str]:
    """Check gpusim span byte args against the rocprof request formula.

    The memtrace contract defines modeled bytes as 64 B per request, so
    a ``gpusim.run`` span's ``bytes`` must equal its ``rocprof_bytes``
    (the TCC_EA ``64 * (RDREQ + WRREQ)`` appendix formula) exactly; any
    drift means an emission site and the byte model disagree.  Returns
    a list of mismatch descriptions (empty = reconciled).
    """
    errors = []
    for s in spans:
        rb = s.args.get("rocprof_bytes")
        if rb is None:
            continue
        b = span_bytes(s)
        if b != rb:
            errors.append(
                f"{s.name} (id {s.id}): bytes {b:g} != rocprof formula {rb:g}"
            )
    return errors
