"""Regenerate the golden baselines under ``tests/goldens/``.

Run this ONLY after an intentional numerics change (new kernel math,
solver retuning, machine-model recalibration), then review the printed
drift against the old goldens before committing the new ``.npz`` files:

    PYTHONPATH=src python tools/regen_goldens.py            # all goldens
    PYTHONPATH=src python tools/regen_goldens.py --only antarctica
    PYTHONPATH=src python tools/regen_goldens.py --dry-run  # measure, write nothing

``--dry-run`` prints the same drift table, writes nothing and exits 1 if
a field drifts past the tolerance its golden test uses -- the way to
record how far a roundoff-only change moved the goldens it did not
regenerate.

Each golden stores the inputs that produced it (resolution, layers,
grid) so the diff test can refuse to compare against a stale fixture.
"""

import argparse
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"


def antarctica_golden() -> dict:
    """Coarse Antarctica velocity solve (the tier-1 integration config)."""
    from repro.app import AntarcticaConfig, AntarcticaTest

    config = AntarcticaConfig(resolution_km=300.0, num_layers=5)
    sol = AntarcticaTest.build(config).run()
    return {
        "u": sol.u,
        "residual_norms": np.asarray(sol.newton.residual_norms, dtype=np.float64),
        "mean_velocity": np.float64(sol.mean_velocity),
        "max_velocity": np.float64(sol.max_velocity),
        "surface_mean_velocity": np.float64(sol.surface_mean_velocity),
        "resolution_km": np.float64(config.resolution_km),
        "num_layers": np.int64(config.num_layers),
    }


def greenland_golden() -> dict:
    """Coarse Greenland velocity solve (elongated single-dome geometry)."""
    from repro.app.config import VelocityConfig
    from repro.app.velocity_solver import StokesVelocityProblem
    from repro.mesh import greenland_geometry
    from repro.mesh.extrude import extrude_footprint
    from repro.mesh.planar import masked_quad_footprint

    nx, ny, nlayers = 9, 15, 5
    geo = greenland_geometry()
    fp = masked_quad_footprint(nx, ny, geo.lx, geo.ly, geo.mask)
    mesh = extrude_footprint(fp, geo, nlayers)
    sol = StokesVelocityProblem(mesh, geo, VelocityConfig()).solve()
    return {
        "u": sol.u,
        "residual_norms": np.asarray(sol.newton.residual_norms, dtype=np.float64),
        "mean_velocity": np.float64(sol.mean_velocity),
        "max_velocity": np.float64(sol.max_velocity),
        "surface_mean_velocity": np.float64(sol.surface_mean_velocity),
        "grid": np.array([nx, ny, nlayers], dtype=np.int64),
    }


def table3_golden() -> dict:
    """Table III analogue: baseline/optimized times and speedups per GPU."""
    from repro.perf import paper

    profiles = paper.paper_profiles()
    cells = [(gpu, mode) for gpu in paper.GPU_NAMES for mode in paper.MODES]
    base = np.array([profiles[("baseline", mode, gpu)].time_s for gpu, mode in cells])
    opt = np.array([profiles[("optimized", mode, gpu)].time_s for gpu, mode in cells])
    return {
        "gpu": np.array([gpu for gpu, _ in cells]),
        "mode": np.array([mode for _, mode in cells]),
        "baseline_time_s": base,
        "optimized_time_s": opt,
        "speedup": base / opt,
    }


#: steps per transient golden: long enough to exercise warm starts,
#: forcing and particle drift, short enough for the tier-1 diff test
TRANSIENT_GOLDEN_STEPS = 6

#: every library scenario gets a golden trajectory
TRANSIENT_SCENARIOS = (
    "antarctica-closed",
    "antarctica-retreat",
    "greenland-ramp",
    "shelf-collapse",
)


def transient_golden(name: str) -> dict:
    """Truncated transient trajectory: final state + volume series."""
    from repro.transient import TransientEngine, get_scenario

    scenario = get_scenario(name).with_steps(TRANSIENT_GOLDEN_STEPS)
    result = TransientEngine(scenario).run()
    return {
        "thickness": result.thickness,
        "volumes": np.asarray(result.volumes, dtype=np.float64),
        "times": np.asarray(result.times, dtype=np.float64),
        "dts": np.asarray(result.dts, dtype=np.float64),
        "newton_iterations": np.asarray(result.newton_iterations, dtype=np.int64),
        "particles_xy": result.particles.xy,
        "particles_zeta": result.particles.zeta,
        "particles_active": result.particles.active,
        "scenario_digest": np.asarray(scenario.digest, dtype="U32"),
        "num_steps": np.int64(len(result.dts)),
    }


GOLDENS = {
    "antarctica": antarctica_golden,
    "greenland": greenland_golden,
    "table3": table3_golden,
    **{
        f"transient_{name}": (lambda n=name: transient_golden(n))
        for name in TRANSIENT_SCENARIOS
    },
}


def _within(rtol: float = 0.0, atol: float = 0.0, scaled: float = 0.0, head: int | None = None):
    """``|new - old| <= atol + scaled * max|old| + rtol * |old|`` on the first ``head`` entries."""

    def ok(old: np.ndarray, new: np.ndarray) -> bool:
        old, new = np.atleast_1d(old)[:head], np.atleast_1d(new)[:head]
        tol = atol + scaled * float(np.max(np.abs(old), initial=0.0)) + rtol * np.abs(old)
        return bool(np.all(np.abs(new - old) <= tol))

    return ok


#: the tolerance each golden test holds a field to (tests/integration/
#: test_goldens.py, test_transient_goldens.py); a field not named here is
#: not compared by its test and is reported only
GATES = {
    "u": _within(rtol=1.0e-5, scaled=1.0e-8),
    "mean_velocity": _within(rtol=1.0e-6),
    "max_velocity": _within(rtol=1.0e-6),
    "surface_mean_velocity": _within(rtol=1.0e-6),
    "residual_norms": _within(rtol=1.0e-12, head=1),
    "baseline_time_s": _within(rtol=1.0e-12),
    "optimized_time_s": _within(rtol=1.0e-12),
    "speedup": _within(rtol=1.0e-12),
    "thickness": _within(scaled=1.0e-12),
    "volumes": _within(rtol=1.0e-12),
    "particles_xy": _within(atol=1.0e-4),
    "particles_active": np.array_equal,
    "newton_iterations": np.array_equal,
    "scenario_digest": np.array_equal,
}


def _report_drift(path: Path, fresh: dict) -> bool:
    """Print how ``fresh`` differs from the golden at ``path``; True when a
    field is past its test's tolerance (or changed shape)."""
    if not path.exists():
        print(f"  {path.name}: new golden")
        return False
    failed = False
    with np.load(path, allow_pickle=False) as old:
        for key, val in fresh.items():
            if key not in old:
                print(f"  {path.name}:{key}: new field")
                continue
            a, b = np.asarray(old[key]), np.asarray(val)
            if a.shape != b.shape:
                print(f"  {path.name}:{key}: shape {a.shape} -> {b.shape}")
                failed = True
                continue
            past = key in GATES and not GATES[key](a, b)
            failed |= past
            flag = "  PAST ITS TEST'S TOLERANCE" if past else ""
            if a.dtype.kind in "USb" or b.dtype.kind in "USb":
                if not np.array_equal(a, b):
                    print(f"  {path.name}:{key}: changed{flag}")
            else:
                diff = float(np.max(np.abs(a - b))) if a.size else 0.0
                if diff > 0.0:
                    scale = float(np.max(np.abs(a)))
                    print(
                        f"  {path.name}:{key}: max |drift| = {diff:.3e} "
                        f"({diff / scale:.1e} of scale){flag}"
                    )
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=sorted(GOLDENS), default=None, help="regenerate a single golden"
    )
    parser.add_argument(
        "--transient",
        action="store_true",
        help="regenerate only the transient scenario trajectories",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report the drift and write nothing; exit 1 if a field is past its test's tolerance",
    )
    args = parser.parse_args(argv)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    if args.only:
        names = [args.only]
    elif args.transient:
        names = sorted(n for n in GOLDENS if n.startswith("transient_"))
    else:
        names = sorted(GOLDENS)
    failed = False
    for name in names:
        print(f"{'measuring' if args.dry_run else 'regenerating'} {name} ...")
        fresh = GOLDENS[name]()
        path = GOLDEN_DIR / f"{name}.npz"
        failed |= _report_drift(path, fresh)
        if not args.dry_run:
            np.savez_compressed(path, **fresh)
            print(f"  wrote {path.relative_to(REPO_ROOT)}")
    return int(args.dry_run and failed)


if __name__ == "__main__":
    raise SystemExit(main())
