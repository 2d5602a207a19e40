"""``python -m repro tune``: run the autotuner for one (mesh, GPU) pair and
persist the winner to the versioned JSON cache (``--cache``, else
``REPRO_TUNE_CACHE``, else ``~/.cache/repro/tuned_configs.json``), where any
later ``VelocityConfig(tuned="auto")`` build of the same pair finds it with
zero trials; ``--force`` retunes through an existing entry.
"""

from __future__ import annotations

__all__ = ["register", "tune"]


def tune(args) -> int:
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.velocity_solver import StokesVelocityProblem
    from repro.gpusim.specs import ALL_GPUS, default_tuning_spec
    from repro.perf.report import format_table
    from repro.tune import AutoTuner, TuneCache, cache_key

    spec = ALL_GPUS[args.gpu] if args.gpu else default_tuning_spec()
    try:
        acfg = AntarcticaConfig(
            family=args.mesh, resolution_km=args.resolution_km, num_layers=args.layers
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    mesh_key = acfg.key

    cache = TuneCache(args.cache)
    key = cache_key(mesh_key, spec.name)
    existing = cache.get(key)
    if existing is not None and not args.force:
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


def register(sub) -> None:
    p = sub.add_parser("tune", help="warm the autotuner cache for a mesh", description=__doc__)
    p.add_argument("--mesh", default="antarctica", help="mesh family (antarctica|greenland)")
    p.add_argument("--resolution-km", type=float, default=350.0, help="footprint resolution [km]")
    p.add_argument("--layers", type=int, default=4, help="extruded layer count")
    p.add_argument(
        "--gpu", default=None,
        help="modeled architecture (A100|MI250X-GCD; default REPRO_TUNE_GPU or MI250X-GCD)",
    )
    p.add_argument(
        "--cache", default=None,
        help="cache file (default REPRO_TUNE_CACHE or ~/.cache/repro/tuned_configs.json)",
    )
    p.add_argument("--force", action="store_true", help="retune through an existing cache entry")
    p.set_defaults(run=tune)
