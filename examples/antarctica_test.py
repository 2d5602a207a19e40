"""The Antarctica standalone test (paper Section III-B), configurable.

Runs the velocity solver on the synthetic Antarctica: N damped Newton
steps with GMRES (linear tolerance 1e-6), then compares the mean of the
final solution against the stored reference at relative tolerance 1e-5.

Run:  python examples/antarctica_test.py [--resolution-km 300] [--layers 5]
      [--impl optimized|baseline] [--precond NAME]

Note: the paper's single-GPU setting is 16 km / 20 layers (~256K cells);
pure-Python numerics make that expensive, so the default here is coarse.
The GPU benchmarks always simulate the full 256K-cell kernel workload.
"""

import argparse
import time

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.app.config import PRECONDITIONERS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution-km", type=float, default=300.0)
    ap.add_argument("--layers", type=int, default=5)
    ap.add_argument("--impl", default="optimized", choices=["optimized", "baseline"])
    ap.add_argument("--precond", default=VelocityConfig().preconditioner, choices=PRECONDITIONERS)
    ap.add_argument(
        "--footprint",
        default="quad",
        choices=["quad", "voronoi"],
        help="quad = paper's hexahedral test; voronoi = MALI's MPAS/prism path",
    )
    ap.add_argument("--newton-steps", type=int, default=8)
    ap.add_argument("--store-reference", action="store_true", help="record this run as the regression reference")
    args = ap.parse_args()

    config = AntarcticaConfig(
        resolution_km=args.resolution_km,
        num_layers=args.layers,
        footprint=args.footprint,
        velocity=VelocityConfig(
            kernel_impl=args.impl,
            preconditioner=args.precond,
            newton_steps=args.newton_steps,
        ),
    )
    print(f"building Antarctica test: {args.resolution_km} km, {args.layers} layers, {args.impl} kernel")
    t0 = time.time()
    test = AntarcticaTest.build(config)
    print(
        f"  {test.mesh.num_elems} hexahedra, {test.problem.dofmap.num_dofs} dofs "
        f"({time.time() - t0:.1f} s to build)"
    )

    t0 = time.time()
    sol = test.run(
        callback=lambda k, x, f, lin: print(
            f"  newton {k + 1}: |F| = {f:.4e}  gmres its = {lin.iterations} "
            f"({'converged' if lin.converged else 'NOT converged'})"
        )
    )
    print(
        f"solve time: {time.time() - t0:.1f} s "
        f"({sol.newton.iterations} Newton steps, stopped on {sol.newton.stop_reason})"
    )
    d = sol.diagnostics
    phases = d["phase_seconds"]
    print(
        f"  {d['newton_steps_per_s']:.2f} newton steps/s "
        f"(sweeps: {d['eval_sweeps']['jacobian']} jacobian, {d['eval_sweeps']['residual']} residual)"
    )
    print(
        "  phases [s]: "
        + "  ".join(f"{name} {phases[name]:.3f}" for name in ("evaluate", "scatter", "preconditioner", "gmres"))
    )
    print(f"mean |u| = {sol.mean_velocity:.6f} m/yr (surface mean {sol.surface_mean_velocity:.3f})")

    if args.store_reference:
        test.store_reference(sol.mean_velocity)
        print("stored as the new reference value")
    else:
        passed, ref = test.check(sol)
        if ref is None:
            print("no stored reference for this configuration (run with --store-reference)")
        else:
            rel = abs(sol.mean_velocity - ref) / abs(ref)
            print(f"regression: {'PASS' if passed else 'FAIL'} (reference {ref:.6f}, rel diff {rel:.2e})")


if __name__ == "__main__":
    main()
