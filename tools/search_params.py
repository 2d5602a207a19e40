"""Grid search over machine-model calibration constants.

Finds the spec constants that best reproduce the paper's headline
ratios; the winner is copied into ``repro/gpusim/specs.py``.
"""

import dataclasses
import itertools
import math

from repro.gpusim.specs import A100, MI250X_GCD
from repro.perf import paper

#: squared-log-error charged per target when a candidate spec produces a
#: ratio log() can't score (zero, negative, or non-finite) -- far worse
#: than any plausible real point, so the sweep skips it instead of dying
BAD_POINT_PENALTY = 100.0

_TAGS = dict(zip(paper.GPU_NAMES, "AM"))
_SUFFIX = {"e_time": "et", "e_DM": "edm"}


def _efficiency_key(impl, metric, mode, gpu):
    return f"{_TAGS[gpu]}_{mode}_{_SUFFIX[metric]}_{impl[0]}"


def evaluate(a100, mi):
    """Return (error, metrics dict)."""
    profiles = paper.paper_profiles((a100, mi))
    out = {f"{_TAGS[gpu]}_{mode}_speedup": s for (mode, gpu), s in paper.speedups(profiles).items()}
    for (impl, metric, mode), values in paper.table4_values(profiles).items():
        for gpu, v in zip(paper.GPU_NAMES, values):
            out[_efficiency_key(impl, metric, mode, gpu)] = v

    # Table II ratios on MI
    for mode in paper.MODES:
        sweep = paper.launchbounds_sweep(mode, mi)
        out[f"t2_{mode}"] = sweep["default"].time_s / sweep[str(paper.AMD_TUNED)].time_s

    return score(out), out


#: weight of each Table IV row the search fits (rows not named are not targets)
EFFICIENCY_WEIGHTS = {
    ("baseline", "e_DM", "jacobian"): 1.0,
    ("baseline", "e_DM", "residual"): 0.5,
    ("optimized", "e_DM", "jacobian"): 1.0,
    ("optimized", "e_time", "jacobian"): 1.0,
    ("optimized", "e_time", "residual"): 1.0,
}

#: (paper value, weight) per metric key produced by :func:`evaluate`
TARGETS = {
    **{f"{_TAGS[gpu]}_{mode}_speedup": (s, 3.0) for (mode, gpu), s in paper.PAPER_SPEEDUPS.items()},
    **{f"t2_{mode}": (s, 2.0) for mode, s in paper.PAPER_BEST_SPEEDUP.items()},
    **{
        _efficiency_key(*row, gpu): (quoted, weight)
        for row, weight in EFFICIENCY_WEIGHTS.items()
        for gpu, quoted in zip(paper.GPU_NAMES, paper.PAPER_EFFICIENCIES[row])
    },
}


def score(out):
    """Weighted squared-log error of ``out`` against :data:`TARGETS`."""
    err = 0.0
    for k, (t, w) in TARGETS.items():
        v = out[k]
        # a degenerate candidate spec can drive a ratio to zero, negative,
        # or non-finite territory; log() would raise and abort the whole
        # sweep, so charge a flat worst-case penalty and move on
        if not math.isfinite(v) or v <= 0.0:
            err += w * BAD_POINT_PENALTY
            continue
        err += w * (math.log(v / t)) ** 2
    return err


def build_grids(quick: bool = False):
    """Search grids per GPU; ``quick`` collapses them to a smoke-sized sweep."""
    grid_a = {
        "interleave_l2": [0.15, 0.25, 0.35, 0.5],
        "rmw_bandwidth_penalty": [0.40, 0.50, 0.60],
        "bw_half_occupancy": [0.02, 0.05],
    }
    grid_m = {
        "interleave_l2": [0.012, 0.02, 0.035, 0.06],
        "rmw_bandwidth_penalty": [0.25, 0.35, 0.45],
        "bw_half_occupancy": [0.08, 0.15, 0.25],
        "scratch_hbm_fraction": [0.25, 0.4, 0.55],
    }
    if quick:
        grid_a = {k: v[:1] for k, v in grid_a.items()}
        grid_m = {k: v[:1] for k, v in grid_m.items()}
    return grid_a, grid_m


def search(grid_a, grid_m, limit=None, progress=print):
    """Exhaustive sweep; returns (err, a100_params, mi_params, metrics)."""
    best = None
    keys_a, vals_a = zip(*grid_a.items())
    keys_m, vals_m = zip(*grid_m.items())
    combos_a = list(itertools.product(*vals_a))
    combos_m = list(itertools.product(*vals_m))
    total = len(combos_a) * len(combos_m)
    if limit is not None:
        total = min(total, limit)
    progress(f"{total} combos")
    evaluated = 0
    for ca in combos_a:
        a100 = dataclasses.replace(A100, **dict(zip(keys_a, ca)))
        for cm in combos_m:
            if limit is not None and evaluated >= limit:
                return best
            mi = dataclasses.replace(MI250X_GCD, **dict(zip(keys_m, cm)))
            err, out = evaluate(a100, mi)
            evaluated += 1
            if best is None or err < best[0]:
                best = (err, dict(zip(keys_a, ca)), dict(zip(keys_m, cm)), out)
    return best


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="one-point grids: smoke-test the sweep plumbing"
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="stop after evaluating this many combos"
    )
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit <= 0:
        parser.error("--limit must be a positive integer")

    grid_a, grid_m = build_grids(quick=args.quick)
    best = search(grid_a, grid_m, limit=args.limit)
    err, pa, pm, out = best
    print("best err", err)
    print("A100:", pa)
    print("MI:", pm)
    for k in sorted(out):
        print(f"  {k:24s} {out[k]:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
