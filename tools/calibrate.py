"""Calibration driver: prints Table II/III/IV analogues from the simulator.

Used during development to fix the machine-model constants in
``repro/gpusim/specs.py``; kept in-tree so the calibration is
reproducible and inspectable.
"""

from repro.perf import paper


def table3():
    print("=== Table III analogue (time per call, speedup) ===")
    profiles = paper.paper_profiles()
    ours = paper.speedups(profiles)
    for gpu in paper.GPU_NAMES:
        for mode in paper.MODES:
            b, o = (profiles[(impl, mode, gpu)] for impl in paper.IMPLS)
            print(
                f"{gpu:10s} {mode:8s} base={b.time_s:.2e} opt={o.time_s:.2e} "
                f"speedup={ours[(mode, gpu)]:4.2f}x   (paper: {paper.PAPER_SPEEDUPS[(mode, gpu)]})"
            )


def table4():
    print("\n=== Table IV analogue (e_time / e_DM) ===")
    ours = paper.table4_values(paper.paper_profiles())
    for (impl, metric, mode), quoted in paper.PAPER_EFFICIENCIES.items():
        cells = "  ".join(
            f"{gpu} {v:5.1%} (paper {q:.0%})"
            for gpu, v, q in zip(paper.GPU_NAMES, ours[(impl, metric, mode)], quoted)
        )
        print(f"{impl:9s} {metric:6s} {mode:8s}  {cells}")


def table2():
    print("\n=== Table II analogue (MI250X LaunchBounds sweep) ===")
    for mode in paper.MODES:
        sweep = paper.launchbounds_sweep(mode)
        quoted = paper.PAPER_TABLE2_TIMES[mode]
        base = sweep["default"].time_s
        for (key, p), pt in zip(sweep.items(), quoted):
            print(
                f"{mode:8s} {key:8s} t={p.time_s:.2e} speedup={base/p.time_s:4.2f}x "
                f"vgpr={p.arch_vgprs}/{p.accum_vgprs}  (paper t={pt:.1e}, "
                f"speedup={quoted[0]/pt:4.2f}x)"
            )


TABLES = {"2": table2, "3": table3, "4": table4}


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--table",
        choices=["2", "3", "4", "all"],
        default="all",
        help="which paper-table analogue to print (default: all)",
    )
    args = parser.parse_args(argv)
    if args.table == "all":
        table3()
        table4()
        table2()
    else:
        TABLES[args.table]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
