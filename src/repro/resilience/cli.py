"""``python -m repro chaos``: the coarse Antarctica SPMD solve, fault-free
and then under a named fault schedule with recovery enabled; prints every
injection / detection / recovery event.  ``--check`` (the CI gate) exits
nonzero unless every scheduled fault fired, at least one recovery ran and
the recovered solution is bitwise equal to the fault-free one.
"""

from __future__ import annotations

__all__ = ["register", "chaos"]


def chaos(args) -> int:
    import numpy as np

    from repro import resilience as res
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.config import VelocityConfig
    from repro.perf.report import format_table

    schedule, nparts = args.schedule, args.nparts
    cfg = AntarcticaConfig(
        resolution_km=args.resolution_km,
        num_layers=args.layers,
        velocity=VelocityConfig(nparts=nparts),
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
    sched = res.SCHEDULES[schedule](seed=args.seed, nparts=nparts)
    policy = res.RecoveryPolicy()
    print(f"chaos solve: schedule {schedule!r}, seed {args.seed}")
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

    bitwise = np.array_equal(sol.u, clean.u)
    print(f"dead ranks: {r['dead_ranks'] or 'none'}")
    print(f"mean |u|: chaos {sol.mean_velocity:.6f} / clean {clean.mean_velocity:.6f} m/yr")
    print(
        "recovered-vs-clean solution: "
        + ("bitwise equal" if bitwise else f"max |diff| {np.max(np.abs(sol.u - clean.u)):.3e}")
    )
    ok = not undelivered and bitwise and r["recoveries"] > 0
    if undelivered:
        print(f"UNDELIVERED injections: {undelivered}")
    print("chaos check:", "PASS" if ok else "FAIL")
    return 0 if (ok or not args.check) else 1


def register(sub) -> None:
    p = sub.add_parser(
        "chaos", help="coarse SPMD solve under a fault schedule", description=__doc__
    )
    p.add_argument("--schedule", default="reference", help="named fault schedule to arm")
    p.add_argument("--seed", type=int, default=2024, help="fault-schedule RNG seed")
    p.add_argument("--resolution-km", type=float, default=350.0, help="footprint resolution [km]")
    p.add_argument("--layers", type=int, default=4, help="extruded layer count")
    p.add_argument("--nparts", type=int, default=4, help="SPMD rank count")
    p.add_argument("--check", action="store_true", help="exit nonzero on failure (the CI gate)")
    p.set_defaults(run=chaos)
