"""Command-line reproduction driver: ``python -m repro <artifact>``.

Regenerates the paper's tables/figures without the pytest harness:

.. code-block:: bash

    python -m repro table2      # LaunchBounds sweep on MI250X
    python -m repro table3      # time per call + speedups
    python -m repro table4      # efficiencies + Phi
    python -m repro fig3        # rooflines (CSV-ready series + ASCII)
    python -m repro fig5        # time-oriented portability plane
    python -m repro solve       # the Antarctica velocity solve (coarse)
    python -m repro profile     # traced coarse solve -> Chrome trace JSON
    python -m repro perfdiff A B  # diff two perf snapshots/traces
    python -m repro chaos       # coarse solve under a fault schedule
    python -m repro verify      # race checks + differential oracle table
    python -m repro tune        # warm the autotuner cache for a mesh
    python -m repro serve       # resilient async solve service (HTTP)
    python -m repro serve --check  # the serve chaos acceptance gate
    python -m repro transient <scenario>  # coupled thickness/velocity run
    python -m repro transient --check     # the transient acceptance gate
    python -m repro all

``profile`` runs the coarse Antarctica solve under the observability
span tracer and writes a Chrome trace-event file (open it at
https://ui.perfetto.dev) plus per-span, roofline-attribution and
metrics summaries.  Spans carrying modeled bytes/flops are annotated
with arithmetic intensity and %-of-roof against ``--gpu`` (default:
the autotuner's GPU).  With ``--nparts N > 1`` the per-rank halo and
compute spans are stitched into a clock-aligned multi-process trace
(rank = Chrome pid, driver timeline on pid N) and a per-Newton-step
halo-wait vs compute critical-path table is printed.  ``--snapshot``
writes the perfdiff-ready aggregate, ``--openmetrics`` the OpenMetrics
text exposition, ``--series-jsonl`` the convergence series log, and
``--plant-slow name:seconds`` plants a deliberate regression (the
perfdiff negative control).  See ``python -m repro profile --help``.

``perfdiff baseline current`` diffs two perf documents (profile
``--snapshot`` files, Chrome traces, or BENCH_solver.json) and ranks
spans by their contribution to the regression -- the tool the CI
perf-gate runs when ``tools/check_bench.py`` trips.

``chaos`` runs the coarse Antarctica SPMD solve twice -- fault-free,
then with a named fault schedule armed on the process fault plane
(``--schedule reference``: corrupted halo exchanges, a NaN-poisoned
evaluator sweep, a killed rank) -- and reports every injection /
detection / recovery event plus the recovered-vs-clean solution error.
With ``--check`` it exits nonzero unless every scheduled fault fired
and the recovered solution sits within ``10 x newton_tol`` of the
fault-free one (the CI gate).

``tune`` runs the online autotuner for a coarse Antarctica (or
``--mesh greenland``) mesh and persists the winning configuration to
the versioned JSON cache (location: ``REPRO_TUNE_CACHE`` or
``~/.cache/repro/tuned_configs.json``): kernel variant and LaunchBounds
by the GPU model, preconditioner and operator mode by one measured
solve per configuration worth a trial (four), every one priced at the
same kernel axes.  Any later solve built with
``VelocityConfig(tuned="auto")`` on the same (mesh, GPU) pair reuses it
with zero trials.  ``--gpu`` picks the modeled architecture, ``--force``
retunes through an existing cache entry.

``serve`` starts the resilient asyncio solve service with its stdlib
HTTP frontend (``POST /solve``, ``GET /healthz``, ``GET /metrics`` in
OpenMetrics text) -- per-request deadlines, retry with jittered
backoff, per-scenario circuit breaking, request dedup, and a
graceful-degradation ladder under queue pressure.  ``--check`` runs
the deterministic chaos acceptance scenario instead (worker kills with
checkpoint resume, injected halo/NaN faults, a deadline storm driving
the breaker through open -> half-open -> closed) and exits nonzero
unless every completed request is bitwise identical to its fault-free
reference; ``--disarm-breaker`` is the planted negative control CI
asserts fails.

``verify`` runs the correctness-tooling subsystem: the differential
oracle registry (kernel variants vs reference, SFad vs finite
differences and complex step, fused vs separate assembly, SPMD vs
serial, byte-formula reconciliation), race/determinism checks of every
kernel body, and a detection selftest on two planted defects.
``--suite kernels|jacobian|spmd|bytes|matvec`` restricts the table;
``--fixture racy|perturbed`` promotes a planted defect to "production"
so CI can assert the nonzero exit path; ``--check`` makes the exit
code strict.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.launch import TABLE2_LAUNCH_CONFIGS, default_launch_bounds
from repro.gpusim import A100, MI250X_GCD, GPUSimulator, ANTARCTICA_16KM
from repro.gpusim.specs import ALL_GPUS
from repro.kokkos.policy import LaunchBounds
from repro.perf import (
    RooflineModel,
    TimeOrientedModel,
    theoretical_minimum,
    performance_portability,
    format_table,
    ascii_scatter,
)

AMD_TUNED = LaunchBounds(128, 2)


def _profiles():
    out = {}
    for gpu, spec in (("A100", A100), ("MI250X-GCD", MI250X_GCD)):
        sim = GPUSimulator(spec)
        for mode in ("jacobian", "residual"):
            out[("baseline", mode, gpu)] = sim.run(f"baseline-{mode}", ANTARCTICA_16KM)
            lb = AMD_TUNED if gpu == "MI250X-GCD" else None
            out[("optimized", mode, gpu)] = sim.run(
                f"optimized-{mode}", ANTARCTICA_16KM, launch_bounds=lb
            )
    return out


def table2() -> None:
    sim = GPUSimulator(MI250X_GCD)
    rows = []
    for mode in ("jacobian", "residual"):
        base = None
        for lb in TABLE2_LAUNCH_CONFIGS:
            eff = lb if lb.explicit else default_launch_bounds(mode)
            p = sim.run(f"optimized-{mode}", ANTARCTICA_16KM, launch_bounds=eff)
            base = base or p.time_s
            rows.append(
                [mode, str(lb), p.time_s, p.arch_vgprs, p.accum_vgprs, f"{base / p.time_s:.2f}x"]
            )
    print(format_table(
        ["kernel", "LaunchBounds", "time [s]", "Arch VGPR", "Accum VGPR", "speedup"],
        rows,
        title="Table II (reproduced): LaunchBounds on MI250X GCD",
    ))


def table3(profiles=None) -> None:
    profiles = profiles or _profiles()
    rows = []
    for mode in ("jacobian", "residual"):
        row = [mode]
        for gpu in ("A100", "MI250X-GCD"):
            b = profiles[("baseline", mode, gpu)]
            o = profiles[("optimized", mode, gpu)]
            row += [b.time_s, o.time_s, f"{b.time_s / o.time_s:.2f}x"]
        rows.append(row)
    print(format_table(
        ["kernel", "base A100", "opt A100", "speedup", "base MI250X", "opt MI250X", "speedup"],
        rows,
        title="Table III (reproduced): time per call and speedup",
    ))


def table4(profiles=None) -> None:
    profiles = profiles or _profiles()
    th = {m: theoretical_minimum(f"optimized-{m}", ANTARCTICA_16KM.num_cells) for m in ("jacobian", "residual")}
    rows = []
    for impl in ("baseline", "optimized"):
        for metric in ("e_time", "e_DM"):
            for mode in ("jacobian", "residual"):
                effs = []
                for gpu in ("A100", "MI250X-GCD"):
                    p = profiles[(impl, mode, gpu)]
                    peak = ALL_GPUS[gpu].hbm_bytes_per_s
                    if metric == "e_time":
                        effs.append(min(1.0, th[mode].min_time_s(peak) / p.time_s))
                    else:
                        effs.append(min(1.0, th[mode].total_bytes / p.hbm_bytes))
                rows.append(
                    [impl, metric, mode, f"{effs[0]:.0%}", f"{effs[1]:.0%}",
                     f"{performance_portability(effs):.0%}"]
                )
    print(format_table(
        ["impl", "efficiency", "kernel", "A100", "1 GCD MI250X", "Phi"],
        rows,
        title="Table IV (reproduced): efficiencies and portability metric",
    ))


def fig3(profiles=None) -> None:
    profiles = profiles or _profiles()
    for gpu, spec in (("A100", A100), ("MI250X-GCD", MI250X_GCD)):
        model = RooflineModel(spec)
        pts, marks = [], {"baseline-jacobian": "J", "optimized-jacobian": "j",
                          "baseline-residual": "R", "optimized-residual": "r"}
        for (impl, mode, g), p in profiles.items():
            if g == gpu:
                pts.append((p.arithmetic_intensity, p.gflops_per_s, marks[f"{impl}-{mode}"]))
        ai, gf = model.ceiling_series()
        print(f"\nFigure 3 (reproduced) -- roofline, {gpu} "
              "(J/j = Jacobian base/opt, R/r = Residual)")
        print(ascii_scatter(
            pts,
            lines=[(ai[0], float(gf[0]), model.ridge_point, spec.fp64_flops / 1e9, "/"),
                   (model.ridge_point, spec.fp64_flops / 1e9, ai[-1], spec.fp64_flops / 1e9, "-")],
            xlabel="AI [flop/byte]",
            ylabel="GFLOP/s",
        ))


def fig5(profiles=None) -> None:
    profiles = profiles or _profiles()
    for mode in ("jacobian", "residual"):
        th = theoretical_minimum(f"optimized-{mode}", ANTARCTICA_16KM.num_cells)
        m = TimeOrientedModel(kernel=mode, theoretical=th, peak_bandwidth=A100.hbm_bytes_per_s)
        marks = {("baseline", "A100"): "B", ("optimized", "A100"): "O",
                 ("baseline", "MI250X-GCD"): "b", ("optimized", "MI250X-GCD"): "o"}
        pts = []
        for (impl, md, gpu), p in profiles.items():
            if md == mode:
                tp = m.add_profile(p)
                pts.append((tp.bytes_moved, tp.time_s, marks[(impl, gpu)]))
        wall_b, wall_t = m.achievable_point
        xs, ts, wall = m.series()
        print(f"\nFigure 5 (reproduced) -- time-oriented model, {mode} "
              "(B/O = A100 base/opt, b/o = MI250X, * = achievable)")
        print(ascii_scatter(
            pts + [(wall_b, wall_t, "*")],
            lines=[(xs[0], float(ts[0]), xs[-1], float(ts[-1]), "/"),
                   (wall, float(ts[0]) * 0.5, wall, float(ts[-1]) * 2.0, "|")],
            xlabel="HBM bytes moved",
            ylabel="time/invocation [s]",
        ))


def solve() -> None:
    from repro.app import AntarcticaConfig, AntarcticaTest

    test = AntarcticaTest.build(AntarcticaConfig(resolution_km=300.0, num_layers=5))
    sol = test.run(callback=lambda k, x, f, lin: print(f"  newton {k + 1}: |F| = {f:.3e}"))
    passed, ref = test.check(sol)
    print(f"mean |u| = {sol.mean_velocity:.6f} m/yr  regression: {'PASS' if passed else 'FAIL'}")


def profile(
    out: str = "trace.json",
    jsonl: str | None = None,
    resolution_km: float = 300.0,
    layers: int = 5,
    nparts: int = 1,
    gpu: str | None = None,
    snapshot_out: str | None = None,
    openmetrics_out: str | None = None,
    series_jsonl: str | None = None,
    plant_slow: str | None = None,
) -> None:
    """Traced coarse Antarctica solve -> Chrome trace + text summaries."""
    import dataclasses
    import json

    from repro import observability as obs
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.config import VelocityConfig
    from repro.gpusim.specs import ALL_GPUS, default_tuning_spec

    spec = ALL_GPUS[gpu] if gpu else default_tuning_spec()
    cfg = AntarcticaConfig(
        resolution_km=resolution_km,
        num_layers=layers,
        velocity=dataclasses.replace(VelocityConfig(), nparts=nparts),
    )
    obs.get_metrics().reset()
    obs.get_series().reset()
    tr = obs.get_tracer()
    if plant_slow:
        # negative control for the perfdiff pipeline: slow one span by a
        # known amount and check the diff ranks it first
        name, _, secs = plant_slow.partition(":")
        tr.plant_slowdown(name, float(secs or 0.0))
    try:
        with obs.tracing() as tracer:
            with tracer.span("antarctica.build", resolution_km=resolution_km, layers=layers):
                test = AntarcticaTest.build(cfg)
            sol = test.run()
    finally:
        tr.clear_slowdowns()
    spans = tracer.spans
    annotated = obs.annotate_roofline(spans, spec)
    mismatches = obs.reconcile_rocprof_bytes(spans)
    series = obs.get_series()
    snapshot = obs.get_metrics().snapshot()
    aggregate = tracer.aggregate()

    counter_pid = 0
    process_labels = None
    export_spans = spans
    stitched = None
    if nparts > 1:
        # per-rank streams -> one clock-aligned trace: rank p on Chrome
        # pid p, driver timeline (Newton/GMRES) on pid nparts
        streams, driver = obs.split_rank_streams(spans, nparts)
        obs.align_clocks(streams)
        stitched = obs.stitch_spans(streams, driver, nparts)
        export_spans = stitched
        process_labels = obs.stitch_process_labels(nparts)
        counter_pid = obs.DRIVER_PID(nparts)
    path = obs.write_chrome_trace(
        out,
        export_spans,
        metrics=snapshot,
        process_labels=process_labels,
        series=series,
        counter_pid=counter_pid,
    )
    if jsonl:
        obs.write_jsonl(jsonl, export_spans)
        print(f"span log:     {jsonl} ({len(export_spans)} spans)")
    if series_jsonl:
        obs.write_series_jsonl(series_jsonl, series)
        npts = sum(len(s.points) for s in series.all())
        print(f"series log:   {series_jsonl} ({npts} points)")
    if openmetrics_out:
        obs.write_openmetrics(openmetrics_out, snapshot, series)
        print(f"openmetrics:  {openmetrics_out}")
    if snapshot_out:
        doc = {
            "kind": obs.perfdiff.SNAPSHOT_KIND,
            "schema_version": obs.perfdiff.SNAPSHOT_SCHEMA,
            "label": f"profile res={resolution_km:g}km nz={layers} nparts={nparts}",
            "spans": {
                name: {
                    "count": a["count"],
                    "total_s": a["total_s"],
                    "self_s": a["self_s"],
                    "cat": a["cat"],
                }
                for name, a in aggregate.items()
            },
            "counters": dict(snapshot.get("counters", {})),
        }
        with open(snapshot_out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"perf snapshot: {snapshot_out} ({len(doc['spans'])} span aggregates)")
    print(f"chrome trace: {path} ({len(export_spans)} spans) -- open at https://ui.perfetto.dev")
    print(f"mean |u| = {sol.mean_velocity:.6f} m/yr over {sol.diagnostics['num_cells']} cells")
    if mismatches:
        print(f"WARNING: {len(mismatches)} span(s) fail rocprof byte reconciliation:")
        for m in mismatches:
            print(f"  {m}")
    print()
    print(obs.summary_table(spans, wall_s=sol.diagnostics["solve_seconds"]))
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


def chaos(
    schedule: str = "reference",
    seed: int = 2024,
    resolution_km: float = 350.0,
    layers: int = 4,
    nparts: int = 4,
    check: bool = False,
) -> int:
    """Coarse Antarctica SPMD solve under a named fault schedule.

    Solves fault-free first, then arms the fault plane and solves again
    with recovery enabled; prints every injection/detection/recovery
    event and the recovered-vs-clean solution error.  Returns nonzero
    (for ``--check``) if any scheduled fault went undelivered or the
    recovered solution strays beyond ``10 x newton_tol`` (relative) from
    the fault-free one.
    """
    import dataclasses

    import numpy as np

    from repro import resilience as res
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.config import VelocityConfig

    cfg = AntarcticaConfig(
        resolution_km=resolution_km,
        num_layers=layers,
        velocity=dataclasses.replace(VelocityConfig(), nparts=nparts),
    )
    test = AntarcticaTest.build(cfg)
    problem = test.problem
    print(
        f"fault-free solve: {nparts} ranks, {problem.dofmap.num_dofs} dofs, "
        f"{problem.mesh.num_elems} cells"
    )
    clean = problem.solve()

    if schedule not in res.SCHEDULES:
        raise SystemExit(f"unknown schedule {schedule!r}; have {sorted(res.SCHEDULES)}")
    sched = res.SCHEDULES[schedule](seed=seed, nparts=nparts)
    policy = res.RecoveryPolicy()
    print(f"chaos solve: schedule {schedule!r}, seed {seed}")
    with res.fault_injection(sched, policy=policy) as plane:
        sol = problem.solve(resilience=policy)
        undelivered = [inj.describe() for inj in plane.schedule.pending()]

    r = sol.diagnostics["resilience"]
    rows = [
        [
            e["category"], e["kind"], e["site"],
            ", ".join(f"{k}={v}" for k, v in e.items() if k not in ("category", "kind", "site")),
        ]
        for e in r["events"]
    ]
    print(format_table(
        ["category", "kind", "site", "detail"],
        rows,
        title=(
            f"chaos events: {r['injections']} injected / "
            f"{r['detections']} detected / {r['recoveries']} recovered"
        ),
    ))

    uref = max(1.0, float(np.max(np.abs(clean.u))))
    rel_err = float(np.max(np.abs(sol.u - clean.u))) / uref
    tol = 10.0 * cfg.velocity.newton_tol
    print(f"dead ranks: {r['dead_ranks'] or 'none'}")
    print(f"mean |u|: chaos {sol.mean_velocity:.6f} / clean {clean.mean_velocity:.6f} m/yr")
    print(f"recovered-vs-clean solution error: {rel_err:.3e} (bar: {tol:.1e})")
    ok = not undelivered and rel_err <= tol and r["recoveries"] > 0
    if undelivered:
        print(f"UNDELIVERED injections: {undelivered}")
    print("chaos check:", "PASS" if ok else "FAIL")
    return 0 if (ok or not check) else 1


def tune(
    mesh: str = "antarctica",
    resolution_km: float = 350.0,
    layers: int = 4,
    gpu: str | None = None,
    cache_path: str | None = None,
    force: bool = False,
) -> int:
    """Warm the autotuner cache for one (mesh, GPU) pair."""
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.velocity_solver import StokesVelocityProblem
    from repro.gpusim.specs import ALL_GPUS, default_tuning_spec
    from repro.tune import AutoTuner, TuneCache, cache_key

    spec = ALL_GPUS[gpu] if gpu else default_tuning_spec()
    try:
        acfg = AntarcticaConfig(family=mesh, resolution_km=resolution_km, num_layers=layers)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    mesh_key = acfg.key

    cache = TuneCache(cache_path)
    key = cache_key(mesh_key, spec.name)
    existing = cache.get(key)
    if existing is not None and not force:
        print(f"cache hit for {key} (cost {existing.cost_bytes:.3e} bytes, "
              f"{existing.trials} trials recorded); use --force to retune")
        print(f"tuned config: {existing.candidate.describe()}")
        print(f"cache: {cache.path}")
        return 0

    # the one builder, so the key written here is the key a
    # tuned="auto" build of the same config looks up
    test = AntarcticaTest.build(acfg)
    tuner = AutoTuner(
        lambda c: StokesVelocityProblem(test.mesh, test.geometry, c),
        acfg.velocity,
        mesh_key,
        spec=spec,
        cache=cache,
    )
    report = tuner.tune()
    default = report.trials[0]
    rows = []
    for t in report.trials:
        marker = "*" if t.candidate == report.record.candidate else ("" if t.valid else "x")
        rows.append([
            marker,
            t.candidate.describe(),
            t.gmres_iterations,
            f"{t.kernel_bytes / 1e9:.3f}",
            f"{t.solver_bytes / 1e9:.3f}",
            f"{t.cost_bytes / 1e9:.3f}",
            f"{t.cost_bytes / default.cost_bytes:.2f}x",
            f"{t.wall_seconds:.2f}",
        ])
    print(format_table(
        ["", "candidate", "gmres its", "kernel GB", "solver GB", "cost GB", "vs default", "wall [s]"],
        rows,
        title=f"autotuner trials: {mesh_key} on {spec.name} "
        f"({len(report.trials)} solver configurations measured at one kernel configuration)",
    ))
    rec = report.record
    print(f"winner: {rec.candidate.describe()}")
    print(f"deterministic cost: {rec.cost_bytes:.3e} bytes "
          f"({rec.cost_bytes / rec.default_cost_bytes:.2f}x the default solver axes)")
    print(f"kernel axes, by model: {rec.candidate.kernel_impl}/lb={rec.candidate.launch_bounds} -- "
          f"{default.kernel_bytes / 1e9:.3f} GB of sweeps vs {report.default_kernel_bytes / 1e9:.3f} GB "
          f"at {acfg.velocity.kernel_impl}/lb=default "
          f"({default.kernel_bytes / report.default_kernel_bytes:.2f}x)")
    print(f"persisted to {cache.path} under key {key!r}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["transient"]:
        # the transient runner owns its flag set (scenario names, resume
        # paths, kill scripting); delegate before the artifact parser
        from repro.transient.cli import main as transient_main

        return transient_main(argv[1:])
    ap = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    ap.add_argument(
        "artifact",
        choices=[
            "table2", "table3", "table4", "fig3", "fig5",
            "solve", "profile", "perfdiff", "chaos", "verify", "tune", "serve", "all",
        ],
    )
    ap.add_argument(
        "paths", nargs="*",
        help="perfdiff: BASELINE and CURRENT perf documents "
        "(profile --snapshot files, Chrome traces, or BENCH docs)",
    )
    ap.add_argument("--out", default="trace.json", help="profile: Chrome trace output path")
    ap.add_argument("--jsonl", default=None, help="profile: also write a JSON-lines span log")
    ap.add_argument(
        "--snapshot", default=None,
        help="profile: write a perfdiff-ready span/counter aggregate JSON",
    )
    ap.add_argument(
        "--openmetrics", default=None,
        help="profile: write metrics + convergence series as OpenMetrics text",
    )
    ap.add_argument(
        "--series-jsonl", default=None,
        help="profile: write convergence time-series points as JSON lines",
    )
    ap.add_argument(
        "--plant-slow", default=None, metavar="NAME:SECONDS",
        help="profile: plant a deliberate slowdown on one span name "
        "(perfdiff negative control)",
    )
    ap.add_argument(
        "--top", type=int, default=15, help="perfdiff: rows per section in the diff table"
    )
    ap.add_argument(
        "--json", default=None, metavar="PATH",
        help="perfdiff: also write the full report as JSON to PATH",
    )
    ap.add_argument(
        "--min-delta", type=float, default=None,
        help="perfdiff: ignore span deltas smaller than this many seconds",
    )
    ap.add_argument(
        "--resolution-km", type=float, default=None,
        help="footprint resolution [km] (default: profile 300, chaos 350)",
    )
    ap.add_argument(
        "--layers", type=int, default=None,
        help="extruded layer count (default: profile 5, chaos 4)",
    )
    ap.add_argument(
        "--nparts", type=int, default=None,
        help="SPMD rank count (default: profile 1, chaos 4)",
    )
    ap.add_argument(
        "--schedule", default="reference", help="chaos: named fault schedule to arm"
    )
    ap.add_argument("--seed", type=int, default=2024, help="chaos: fault-schedule RNG seed")
    ap.add_argument(
        "--check", action="store_true",
        help="chaos/verify: exit nonzero on failure (the CI gate)",
    )
    ap.add_argument(
        "--suite", default="all",
        help="verify: oracle suite to run (all|kernels|jacobian|spmd|bytes|matvec)",
    )
    ap.add_argument(
        "--fixture", default="none",
        help="verify: treat a planted defect as production (none|racy|perturbed)",
    )
    ap.add_argument(
        "--mesh", default="antarctica",
        help="tune: mesh family to tune for (antarctica|greenland)",
    )
    ap.add_argument(
        "--gpu", default=None,
        help="tune/profile: modeled architecture "
        "(A100|MI250X-GCD; default REPRO_TUNE_GPU or MI250X-GCD)",
    )
    ap.add_argument(
        "--cache", default=None,
        help="tune: cache file (default REPRO_TUNE_CACHE or ~/.cache/repro/tuned_configs.json)",
    )
    ap.add_argument(
        "--force", action="store_true", help="tune: retune through an existing cache entry"
    )
    ap.add_argument(
        "--disarm-breaker", action="store_true",
        help="serve: disable the circuit breaker (--check negative control)",
    )
    ap.add_argument(
        "--workers", type=int, default=2, help="serve: worker thread count"
    )
    ap.add_argument("--host", default="127.0.0.1", help="serve: HTTP bind host")
    ap.add_argument("--port", type=int, default=8077, help="serve: HTTP bind port")
    args = ap.parse_args(argv)
    if args.artifact == "serve":
        from repro.serve.cli import serve as run_serve

        return run_serve(
            check=args.check,
            seed=args.seed,
            disarm_breaker=args.disarm_breaker,
            openmetrics_out=args.openmetrics,
            workers=args.workers,
            host=args.host,
            port=args.port,
        )
    if args.artifact == "verify":
        from repro.verify.cli import verify as run_verify

        return run_verify(suite=args.suite, check=args.check, fixture=args.fixture)
    if args.artifact == "profile":
        profile(
            out=args.out,
            jsonl=args.jsonl,
            resolution_km=args.resolution_km if args.resolution_km is not None else 300.0,
            layers=args.layers if args.layers is not None else 5,
            nparts=args.nparts if args.nparts is not None else 1,
            gpu=args.gpu,
            snapshot_out=args.snapshot,
            openmetrics_out=args.openmetrics,
            series_jsonl=args.series_jsonl,
            plant_slow=args.plant_slow,
        )
        return 0
    if args.artifact == "perfdiff":
        from repro.observability import perfdiff as pd

        if len(args.paths) != 2:
            ap.error("perfdiff needs exactly two paths: BASELINE CURRENT")
        extra = ["--top", str(args.top)]
        if args.json:
            extra += ["--json", args.json]
        if args.min_delta is not None:
            extra += ["--min-delta", str(args.min_delta)]
        return pd.main([*args.paths, *extra])
    if args.artifact == "tune":
        return tune(
            mesh=args.mesh,
            resolution_km=args.resolution_km if args.resolution_km is not None else 350.0,
            layers=args.layers if args.layers is not None else 4,
            gpu=args.gpu,
            cache_path=args.cache,
            force=args.force,
        )
    if args.artifact == "chaos":
        return chaos(
            schedule=args.schedule,
            seed=args.seed,
            resolution_km=args.resolution_km if args.resolution_km is not None else 350.0,
            layers=args.layers if args.layers is not None else 4,
            nparts=args.nparts if args.nparts is not None else 4,
            check=args.check,
        )
    if args.artifact == "all":
        profiles = _profiles()
        table2()
        print()
        table3(profiles)
        print()
        table4(profiles)
        fig3(profiles)
        fig5(profiles)
        print()
        solve()
    else:
        {"table2": table2, "table3": table3, "table4": table4,
         "fig3": fig3, "fig5": fig5, "solve": solve}[args.artifact]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
