"""``python -m repro tune``: run the autotuner for one (mesh, GPU) pair and
print its trial table, its winner and the kernel axes the model chose.
It writes nothing; no later solve reads the result.
"""

from __future__ import annotations

from repro.cli_types import positive_float, positive_int
from repro.gpusim.specs import ALL_GPUS, MI250X_GCD

__all__ = ["register", "tune"]


def tune(args) -> int:
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.app.velocity_solver import StokesVelocityProblem
    from repro.perf.report import format_table
    from repro.tune import AutoTuner

    spec = ALL_GPUS[args.gpu]
    acfg = AntarcticaConfig(
        family=args.mesh, resolution_km=args.resolution_km, num_layers=args.layers
    )
    mesh_key = acfg.key
    test = AntarcticaTest.build(acfg)
    tuner = AutoTuner(
        lambda c: StokesVelocityProblem(test.mesh, test.geometry, c),
        acfg.velocity,
        mesh_key,
        spec=spec,
    )
    report = tuner.tune()
    default, winner = report.trials[0], report.winner
    rows = []
    for t in report.trials:
        marker = "*" if t is winner else ("" if t.valid else "x")
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
    print(f"winner: {winner.candidate.describe()}")
    print(f"deterministic cost: {winner.cost_bytes:.3e} bytes "
          f"({winner.cost_bytes / default.cost_bytes:.2f}x the default solver axes)")
    print(f"kernel axes, by model: {winner.candidate.kernel_impl}/lb={winner.candidate.launch_bounds} -- "
          f"{default.kernel_bytes / 1e9:.3f} GB of sweeps vs {report.default_kernel_bytes / 1e9:.3f} GB "
          f"at {acfg.velocity.kernel_impl}/lb=default "
          f"({default.kernel_bytes / report.default_kernel_bytes:.2f}x)")
    return 0


def register(sub) -> None:
    p = sub.add_parser("tune", help="measure the autotuner's trials for a mesh", description=__doc__)
    p.add_argument("--mesh", default="antarctica", choices=("antarctica", "greenland"),
                   help="mesh family")
    p.add_argument("--resolution-km", type=positive_float, default=350.0,
                   help="footprint resolution [km]")
    p.add_argument("--layers", type=positive_int, default=4, help="extruded layer count")
    p.add_argument("--gpu", default=MI250X_GCD.name, choices=sorted(ALL_GPUS),
                   help="modeled architecture")
    p.set_defaults(run=tune)
