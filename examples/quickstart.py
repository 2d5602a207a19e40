"""Quickstart: solve ice velocities and profile the kernels in 40 lines.

Builds a coarse synthetic Antarctica, runs the full FO Stokes velocity
solve (8 damped Newton steps, GMRES + vertical-line preconditioning), then asks
the GPU performance model what the paper's two kernels cost on an A100
and one MI250X GCD.

Run:  python examples/quickstart.py
"""

from repro.app import AntarcticaConfig, AntarcticaTest
from repro.perf.paper import PAPER_GPUS, run_as_paper


def main() -> None:
    # 1. the physics: a coarse Antarctica velocity solve -----------------
    config = AntarcticaConfig(resolution_km=300.0, num_layers=5)
    test = AntarcticaTest.build(config)
    print(
        f"mesh: {test.mesh.num_elems} hexahedra "
        f"({test.mesh.footprint.num_elems} columns x {test.mesh.nlayers} layers), "
        f"{test.problem.dofmap.num_dofs} velocity dofs"
    )

    sol = test.run(callback=lambda k, x, f, lin: print(f"  newton {k + 1}: |F| = {f:.3e}"))
    print(f"mean |u| = {sol.mean_velocity:.3f} m/yr, max = {sol.max_velocity:.1f} m/yr")
    passed, ref = test.check(sol)
    print(f"regression vs stored reference: {'PASS' if passed else 'FAIL'} (ref = {ref})")

    # 2. the performance model: the paper's kernels at 256K cells --------
    print("\nGPU kernel profiles at the paper's problem size (~256K cells):")
    for spec in PAPER_GPUS:
        for key in ("baseline-jacobian", "optimized-jacobian"):
            # optimized kernels on AMD use the paper's tuned LaunchBounds
            p = run_as_paper(spec, key)
            print(
                f"  {spec.name:11s} {key:20s} time/call = {p.time_s:.3e} s, "
                f"{p.gbytes_moved:6.1f} GB moved, AI = {p.arithmetic_intensity:.2f}"
            )


if __name__ == "__main__":
    main()
