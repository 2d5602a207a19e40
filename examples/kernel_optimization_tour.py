"""A tour of the paper's GPU optimizations and performance models.

Walks through the whole Section V/VI story on the simulated GPUs:

1. per-thread trace of the baseline vs optimized kernel (what the
   optimizations change at the access level);
2. Table-III-style time/speedup comparison on A100 and MI250X;
3. roofline placement (Fig. 3);
4. the time-oriented performance portability plane (Figs. 4-5) with
   e_time/e_DM efficiencies and the Phi metric (Table IV).

Run:  python examples/kernel_optimization_tour.py
"""

from repro.gpusim import record_kernel_trace
from repro.perf import RooflineModel, format_table, paper


def trace_story() -> None:
    print("=== 1. what the optimizations change (per-thread trace) ===")
    rows = []
    for key in ("baseline-jacobian", "optimized-jacobian"):
        p = record_kernel_trace(key)
        res_writes = sum(1 for a, w in zip(p.slot_trace, p.writes) if w and a.view == "Residual")
        res_reads = sum(1 for a, w in zip(p.slot_trace, p.writes) if not w and a.view == "Residual")
        rows.append([key, len(p.slot_trace), res_reads, res_writes, p.flops])
    print(format_table(["kernel", "slot accesses", "Residual reads", "Residual writes", "flops"], rows))
    print("-> local accumulation turns hundreds of global read-modify-writes into one write per slot\n")


def speedup_story(profiles) -> None:
    print("=== 2. time per invocation (Table III analogue) ===")
    rows = [
        [mode, gpu, profiles[("baseline", mode, gpu)].time_s,
         profiles[("optimized", mode, gpu)].time_s, f"{speedup:.2f}x"]
        for (mode, gpu), speedup in paper.speedups(profiles).items()
    ]
    print(format_table(["kernel", "GPU", "baseline [s]", "optimized [s]", "speedup"], rows))
    print()


def roofline_story(profiles) -> None:
    print("=== 3. roofline placement (Fig. 3 analogue) ===")
    rows = []
    for spec in paper.PAPER_GPUS:
        gpu, model = spec.name, RooflineModel(spec)
        for impl in paper.IMPLS:
            p = profiles[(impl, "jacobian", gpu)]
            pt = RooflineModel.point_from_profile(p)
            rows.append(
                [gpu, impl, f"{pt.arithmetic_intensity:.3f}", f"{pt.gflops:.0f}",
                 f"{model.bandwidth_fraction(pt):.0%}"]
            )
    print(format_table(["GPU", "Jacobian impl", "AI [flop/B]", "GFLOP/s", "frac peak BW"], rows))
    print("-> optimization raises arithmetic intensity (less data moved) and bandwidth fraction\n")


def portability_story(profiles) -> None:
    print("=== 4. time-oriented model and Phi (Figs. 4-5, Table IV analogue) ===")
    rows = []
    for mode in paper.MODES:
        for impl in paper.IMPLS:
            effs, phi = paper.portability([profiles[(impl, mode, gpu)] for gpu in paper.GPU_NAMES])
            rows.append(
                [mode, impl,
                 f"{effs[0].e_time:.0%}/{effs[1].e_time:.0%}", f"{phi.e_time:.0%}",
                 f"{effs[0].e_DM:.0%}/{effs[1].e_DM:.0%}", f"{phi.e_DM:.0%}"]
            )
    print(format_table(
        ["kernel", "impl", "e_time A100/MI", "Phi(time)", "e_DM A100/MI", "Phi(DM)"], rows
    ))
    print("-> the paper's conclusion: data-locality optimizations lift Phi by tens of points")


def main() -> None:
    profiles = paper.paper_profiles()

    trace_story()
    speedup_story(profiles)
    roofline_story(profiles)
    portability_story(profiles)


if __name__ == "__main__":
    main()
