"""``python -m repro transient`` -- run, check and resume transient scenarios.

The ``--check`` mode is the transient acceptance gate, structured like
the Antarctica regression check: it runs the closed-budget library
scenario through >= 20 coupled steps and asserts the three properties
the engine exists to provide --

1. **conservation**: relative total-volume drift at most 1e-12 under a
   zero net mass balance (interior upwind fluxes telescope exactly, so
   anything more is a bug);
2. **warm-start payoff**: the warm-started steps average strictly fewer
   Newton iterations than the cold first step, and at most four GMRES
   iterations per Newton step (3.0 under the forcing rule; 8.0 when
   every step is solved to ``linear_tol``);
3. **bitwise resume**: a run killed mid-trajectory and resumed from its
   checkpoint ends in exactly (``np.array_equal``) the state of the
   uninterrupted run -- thickness, velocity and particles;
4. **velocity predictor**: on the retreat scenario, where the ice thins
   fast enough for the extrapolated warm start to pay (the closed-budget
   run's counts do not move with it), 25 warm steps average at most 3.0
   Newton steps (2.64; 3.56 when every step starts from the last
   velocity as it is).

``--plant-leak`` arms the evolver's deliberate conservation violation;
CI runs it as a negative control to prove gate (1) actually fires.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.cli_types import finite_float, non_negative_int, positive_int
from repro.transient.engine import TransientEngine, TransientKilled
from repro.transient.scenarios import SCENARIOS, get_scenario

__all__ = ["register", "run", "run_check"]

#: the --check gates (documented here, asserted below)
CHECK_SCENARIO = "antarctica-closed"
CHECK_MIN_STEPS = 20
CHECK_DRIFT_TOL = 1.0e-12
CHECK_GMRES_PER_NEWTON = 4.0
CHECK_KILL_AT = 9  # kill after the 10th step (0-based index 9): mid-run
CHECK_PREDICTOR_SCENARIO = "antarctica-retreat"
CHECK_PREDICTOR_WARM_STEPS = 25
CHECK_WARM_NEWTON_MEAN = 3.0


def _print_step(step: int, info: dict) -> None:
    print(
        f"  step {step + 1:3d}: t = {info['t_years']:8.1f} yr  "
        f"dt = {info['dt']:6.1f}  vol = {info['volume']:.6e} m^3  "
        f"newton = {info['newton_iterations']}"
        f"{' (warm)' if info['warm_started'] else ' (cold)'}  "
        f"gmres = {info['gmres_iterations']}  "
        f"particles = {info['active_particles']}"
    )


def run_check(plant_leak: float = 0.0, verbose: bool = True) -> int:
    """Run the acceptance gate; returns a process exit code."""
    scenario = get_scenario(CHECK_SCENARIO)
    if scenario.num_steps < CHECK_MIN_STEPS:
        scenario = scenario.with_steps(CHECK_MIN_STEPS)
    engine = TransientEngine(scenario)
    gmres_its = []

    def cb(step, info):
        gmres_its.append(info["gmres_iterations"])
        if verbose:
            _print_step(step, info)

    print(f"transient check: scenario {scenario.name!r}, {scenario.num_steps} steps")
    result = engine.run(plant_leak=plant_leak, callback=cb)

    failures = []

    drift = result.volume_drift
    ok = drift <= CHECK_DRIFT_TOL
    print(f"  [{'ok' if ok else 'FAIL'}] volume drift {drift:.3e} (tol {CHECK_DRIFT_TOL:g})")
    if not ok:
        failures.append("volume conservation")

    cold = result.cold_iterations
    warm = result.warm_mean_iterations
    ok = warm < cold
    print(f"  [{'ok' if ok else 'FAIL'}] warm-start: cold {cold} its, warm mean {warm:.2f}")
    if not ok:
        failures.append("warm-start iteration reduction")

    per_newton = sum(gmres_its[1:]) / sum(result.newton_iterations[1:])
    ok = per_newton <= CHECK_GMRES_PER_NEWTON
    print(
        f"  [{'ok' if ok else 'FAIL'}] inexact Newton: {per_newton:.2f} GMRES iterations "
        f"per warm Newton step (at most {CHECK_GMRES_PER_NEWTON:g})"
    )
    if not ok:
        failures.append("GMRES iterations per Newton step")

    # kill/resume drill on a fresh engine sharing the same cached
    # problem; plant_leak passes through so the negative control still
    # compares like with like (it fails gate 1, not this one)
    with tempfile.TemporaryDirectory() as td:
        killed_engine = TransientEngine(scenario, cache=engine.cache)
        try:
            killed_engine.run(
                kill_at_step=CHECK_KILL_AT, checkpoint_dir=td, plant_leak=plant_leak
            )
            raise AssertionError("scripted kill did not fire")
        except TransientKilled as kill:
            resumed = killed_engine.run(resume_from=kill.path, plant_leak=plant_leak)
    ok = (
        np.array_equal(resumed.thickness, result.thickness)
        and np.array_equal(resumed.u, result.u)
        and np.array_equal(resumed.particles.xy, result.particles.xy)
        and np.array_equal(resumed.particles.active, result.particles.active)
    )
    print(
        f"  [{'ok' if ok else 'FAIL'}] kill at step {CHECK_KILL_AT + 1}/"
        f"{scenario.num_steps} + resume reproduces the run bitwise"
    )
    if not ok:
        failures.append("bitwise kill/resume")

    retreat = get_scenario(CHECK_PREDICTOR_SCENARIO).with_steps(1 + CHECK_PREDICTOR_WARM_STEPS)
    warm = TransientEngine(retreat).run().warm_mean_iterations
    ok = warm <= CHECK_WARM_NEWTON_MEAN
    print(
        f"  [{'ok' if ok else 'FAIL'}] velocity predictor: {retreat.name} warm mean {warm:.2f} "
        f"Newton steps over {CHECK_PREDICTOR_WARM_STEPS} steps (at most "
        f"{CHECK_WARM_NEWTON_MEAN:g})"
    )
    if not ok:
        failures.append("warm Newton steps with the velocity predictor")

    if failures:
        print(f"transient check FAILED: {', '.join(failures)}")
        return 1
    print("transient check passed")
    return 0


def _write_volume_csv(path: Path, result) -> None:
    lines = ["time_years,volume_m3"]
    lines += [f"{t!r},{v!r}" for t, v in zip(result.times, result.volumes)]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote volume time-series to {path}")


def register(sub) -> None:
    parser = sub.add_parser(
        "transient",
        help="coupled thickness/velocity run of a named scenario",
        description="Run a named transient ice-sheet scenario.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default=CHECK_SCENARIO,
        help=f"library scenario name (default: {CHECK_SCENARIO})",
    )
    parser.add_argument("--list", action="store_true", help="list library scenarios")
    parser.add_argument("--check", action="store_true", help="run the acceptance gate")
    parser.add_argument("--steps", type=positive_int, default=None, help="override step count")
    parser.add_argument(
        "--plant-leak",
        type=finite_float,
        default=0.0,
        help="arm the deliberate conservation leak (CI negative control)",
    )
    parser.add_argument(
        "--kill-at", type=non_negative_int, default=None, help="kill after this step index"
    )
    parser.add_argument("--resume", type=str, default=None, help="resume from a checkpoint .npz")
    parser.add_argument(
        "--checkpoint-dir", type=str, default=None, help="write periodic checkpoints here"
    )
    parser.add_argument(
        "--volume-csv", type=str, default=None, help="write the volume time-series as CSV"
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress per-step output")
    parser.set_defaults(run=run)


def run(args) -> int:
    if args.list:
        for name in sorted(SCENARIOS):
            sc = SCENARIOS[name]
            print(f"{name:20s} {sc.family:10s} {sc.num_steps:3d} steps  forcing={sc.forcing}")
        return 0

    if args.check:
        return run_check(plant_leak=args.plant_leak, verbose=not args.quiet)

    scenario = get_scenario(args.scenario)
    if args.steps is not None:
        scenario = scenario.with_steps(args.steps)
    engine = TransientEngine(scenario)
    print(f"transient scenario {scenario.name!r}: {scenario.num_steps} steps")
    try:
        result = engine.run(
            resume_from=args.resume,
            kill_at_step=args.kill_at,
            plant_leak=args.plant_leak,
            checkpoint_dir=args.checkpoint_dir,
            callback=None if args.quiet else _print_step,
        )
    except TransientKilled as kill:
        print(f"killed after step {kill.checkpoint.step} (checkpoint: {kill.path})")
        return 0
    d = result.diagnostics
    print(
        f"done: t = {d['t_final_years']:.1f} yr, volume {result.volumes[-1]:.6e} m^3 "
        f"(drift {result.volume_drift:.3e}), cold {result.cold_iterations} its, "
        f"warm mean {result.warm_mean_iterations:.2f}, "
        f"{d['active_particles']}/{len(result.particles)} particles active"
    )
    if args.volume_csv:
        _write_volume_csv(Path(args.volume_csv), result)
    return 0
