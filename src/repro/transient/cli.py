"""``python -m repro transient`` -- run, kill and resume transient scenarios.

The acceptance checks of the engine (conservation, warm starts, GMRES
iterations per Newton step, bitwise resume and the velocity predictor)
are the ``transient`` suite of ``python -m repro verify``.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli_types import non_negative_int, positive_int
from repro.transient.checkpoint import TransientCheckpoint
from repro.transient.engine import TransientEngine, TransientKilled
from repro.transient.scenarios import SCENARIOS, get_scenario

__all__ = ["register", "run"]


def _print_step(step: int, info: dict) -> None:
    print(
        f"  step {step + 1:3d}: t = {info['t_years']:8.1f} yr  "
        f"dt = {info['dt']:6.1f}  vol = {info['volume']:.6e} m^3  "
        f"newton = {info['newton_iterations']}"
        f"{' (warm)' if info['warm_started'] else ' (cold)'}  "
        f"gmres = {info['gmres_iterations']}  "
        f"particles = {info['active_particles']}"
    )


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
        default="antarctica-closed",
        choices=sorted(SCENARIOS),
        help="library scenario name (default: antarctica-closed)",
    )
    parser.add_argument("--list", action="store_true", help="list library scenarios")
    parser.add_argument("--steps", type=positive_int, default=None, help="override step count")
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
    parser.set_defaults(run=lambda args: run(args, parser.error))


def run(args, error) -> int:
    """``error(message)`` refuses the arguments the way the parser does (exit 2)."""
    if args.list:
        for name in sorted(SCENARIOS):
            sc = SCENARIOS[name]
            print(f"{name:20s} {sc.family:10s} {sc.num_steps:3d} steps  forcing={sc.forcing}")
        return 0

    scenario = get_scenario(args.scenario)
    if args.steps is not None:
        scenario = scenario.with_steps(args.steps)
    resume = None
    if args.resume:
        try:
            resume = TransientCheckpoint.load(args.resume).check_scenario(scenario)
        except (OSError, ValueError) as exc:
            error(f"argument --resume: {exc}")
    start = resume.step if resume is not None else 0
    if args.kill_at is not None and not start <= args.kill_at < scenario.num_steps:
        error(
            f"argument --kill-at: must be a step of the run ({start} to "
            f"{scenario.num_steps - 1}), got {args.kill_at}"
        )
    engine = TransientEngine(scenario)
    print(f"transient scenario {scenario.name!r}: {scenario.num_steps} steps")
    try:
        result = engine.run(
            resume_from=resume,
            kill_at_step=args.kill_at,
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
