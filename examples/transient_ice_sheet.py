"""Transient coupling on the scenario engine (velocity + Eq. 2).

MALI advances the ice sheet by alternating a diagnostic FO Stokes solve
with a prognostic thickness update.  This example runs that loop through
:class:`repro.transient.TransientEngine` -- the engine re-extrudes only
the vertical coordinate each step (every topology-derived artifact is
reused), warm-starts each Newton solve from the last two velocities
(a damped extrapolation over the step), caps
the step at the CFL bound, and advects a Lagrangian particle ensemble
through the evolving velocity field.

Run:  python examples/transient_ice_sheet.py [--scenario antarctica-retreat]
      python examples/transient_ice_sheet.py --list
"""

import argparse

import numpy as np

from repro.transient import SCENARIOS, TransientEngine, get_scenario
from repro.transient.scenarios import DT_YEARS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--scenario",
        default="antarctica-retreat",
        help="library scenario name (see --list)",
    )
    ap.add_argument("--steps", type=int, default=None, help="override the step count")
    ap.add_argument("--list", action="store_true", help="list library scenarios")
    args = ap.parse_args()

    if args.list:
        for name, sc in sorted(SCENARIOS.items()):
            print(f"{name:20s} {sc.description.splitlines()[0]}")
        return

    scenario = get_scenario(args.scenario)
    if args.steps is not None:
        scenario = scenario.with_steps(args.steps)

    engine = TransientEngine(scenario)
    print(
        f"scenario {scenario.name!r}: {scenario.num_steps} steps of "
        f"<= {DT_YEARS:g} yr on the {scenario.family} family "
        f"({engine.footprint.num_elems} columns, {engine.mesh.nlayers} layers), "
        f"forcing = {scenario.forcing}"
    )

    def report(step, info):
        print(
            f"  step {step + 1:3d}: t = {info['t_years']:7.1f} yr  "
            f"dt = {info['dt']:6.1f}  newton = {info['newton_iterations']}"
            f"{' warm' if info['warm_started'] else ' COLD'}  "
            f"volume = {info['volume'] / 1e9:.1f} km^3  "
            f"particles = {info['active_particles']}"
        )

    result = engine.run(callback=report)

    v0, v1 = result.volumes[0], result.volumes[-1]
    print(
        f"\nvolume: {v0 / 1e9:.1f} -> {v1 / 1e9:.1f} km^3 "
        f"({(v1 - v0) / v0:+.3%}); budget residual "
        f"{result.diagnostics['volume_budget_residual'] / 1e9:+.3e} km^3"
    )
    print(
        f"newton: cold start {result.cold_iterations} iterations, warm mean "
        f"{result.warm_mean_iterations:.2f} (tol_abs {result.tol_abs:.3e})"
    )
    drift = np.hypot(
        *(result.particles.xy - ParticleStart(engine, scenario).xy).T
    )
    print(
        f"particles: {result.particles.num_active}/{len(result.particles)} active, "
        f"mean drift {drift.mean() / 1e3:.2f} km, max {drift.max() / 1e3:.2f} km"
    )


class ParticleStart:
    """Reconstruct the deterministic seed positions for drift reporting."""

    def __init__(self, engine, scenario):
        from repro.transient import ParticleSet

        self.xy = ParticleSet.seed(
            engine.footprint,
            engine.initial_thickness(),
            scenario.num_particles,
            seed=scenario.particle_seed,
        ).xy


if __name__ == "__main__":
    main()
