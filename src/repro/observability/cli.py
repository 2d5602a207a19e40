"""``python -m repro profile`` and ``python -m repro perfdiff``.

``profile`` runs the coarse Antarctica solve under the span tracer and
writes a Chrome trace (open it at https://ui.perfetto.dev) plus per-span,
roofline-attribution (against ``--gpu``) and metrics summaries; with
``--nparts N > 1`` the trace is stitched into one Chrome process per
rank plus a driver process, and a halo-wait vs compute table is
printed.  ``perfdiff BASELINE CURRENT`` ranks the spans of two perf
documents by their contribution to a regression.
"""

from __future__ import annotations

import gc

from repro.cli_types import positive_float, positive_int
from repro.gpusim.specs import ALL_GPUS, MI250X_GCD
from repro.observability import perfdiff

__all__ = ["register", "profile"]


def profile(args) -> int:
    from repro import observability as obs
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.config import VelocityConfig

    resolution_km, layers, nparts = args.resolution_km, args.layers, args.nparts
    spec = ALL_GPUS[args.gpu]
    cfg = AntarcticaConfig(
        resolution_km=resolution_km,
        num_layers=layers,
        velocity=VelocityConfig(nparts=nparts),
    )
    obs.get_metrics().reset()
    obs.get_series().reset()
    # no cyclic-GC pass inside the traced run (timeit's rule): a pass over
    # the whole process heap lands in whichever span is open, and perfdiff
    # would rank that span as the regression
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        with obs.tracing() as tracer:
            with tracer.span("antarctica.build", resolution_km=resolution_km, layers=layers):
                test = AntarcticaTest.build(cfg)
            sol = test.run()
    finally:
        if gc_enabled:
            gc.enable()
    spans = tracer.spans
    obs.annotate_roofline(spans, spec)
    mismatches = obs.reconcile_rocprof_bytes(spans)
    series = obs.get_series()
    snapshot = obs.get_metrics().snapshot()

    counter_pid = 0
    process_labels = None
    export_spans = spans
    stitched = None
    if nparts > 1:
        # rank p on Chrome pid p, driver timeline (Newton/GMRES) on pid nparts
        stitched = obs.stitch_spans(spans, nparts)
        export_spans = stitched
        process_labels = obs.stitch_process_labels(nparts)
        counter_pid = obs.DRIVER_PID(nparts)
    path = obs.write_chrome_trace(
        args.out,
        export_spans,
        metrics=snapshot,
        process_labels=process_labels,
        series=series,
        counter_pid=counter_pid,
    )
    if args.openmetrics:
        obs.write_openmetrics(args.openmetrics, snapshot, series)
        print(f"openmetrics:  {args.openmetrics}")
    print(f"chrome trace: {path} ({len(export_spans)} spans) -- open at https://ui.perfetto.dev")
    print(f"mean |u| = {sol.mean_velocity:.6f} m/yr over {sol.diagnostics['num_cells']} cells")
    if mismatches:
        print(f"WARNING: {len(mismatches)} span(s) fail rocprof byte reconciliation:")
        for m in mismatches:
            print(f"  {m}")
    print()
    print(obs.summary_table(spans))
    print()
    print(obs.roofline_table(spans, spec))
    if stitched is not None:
        records = obs.halo_compute_split(stitched)
        if records:
            print()
            print(obs.critical_path_table(records))
    print()
    print(obs.ascii_flame(spans))
    print()
    print(obs.metrics_table(snapshot))
    return 0


def register(sub) -> None:
    p = sub.add_parser(
        "profile", help="traced coarse solve -> Chrome trace JSON", description=__doc__
    )
    p.add_argument(
        "--out", default="trace.json", help="Chrome trace output path (what perfdiff reads)"
    )
    p.add_argument(
        "--openmetrics", default=None,
        help="write metrics + convergence series as OpenMetrics text",
    )
    p.add_argument(
        "--resolution-km", type=positive_float, default=300.0, help="footprint resolution [km]"
    )
    p.add_argument("--layers", type=positive_int, default=5, help="extruded layer count")
    p.add_argument("--nparts", type=positive_int, default=1, help="SPMD rank count")
    p.add_argument(
        "--gpu", default=MI250X_GCD.name, choices=sorted(ALL_GPUS), help="modeled architecture"
    )
    p.set_defaults(run=profile)

    p = sub.add_parser("perfdiff", help="diff two perf documents, rank span regressions")
    perfdiff.add_arguments(p)
    p.set_defaults(run=perfdiff.run)
