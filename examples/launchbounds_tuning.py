"""Kokkos LaunchBounds tuning on the MI250X (the paper's Table II study).

Sweeps ``LaunchBounds<MaxThreads, MinBlocks>`` for the optimized
Jacobian and Residual kernels on the simulated MI250X GCD, reporting
time per call, architectural/accumulation VGPRs, occupancy and speedup
-- and explains the mechanism (the CDNA2 per-wave VGPR budget).

Run:  python examples/launchbounds_tuning.py
"""

from repro.core.launch import TABLE2_LAUNCH_CONFIGS, default_launch_bounds
from repro.gpusim import MI250X_GCD
from repro.gpusim.registers import cdna2_vgpr_budget
from repro.perf.paper import MODES, launchbounds_sweep
from repro.perf.report import format_table


def main() -> None:
    for mode in MODES:
        rows = []
        sweep = launchbounds_sweep(mode)
        base_time = sweep["default"].time_s
        for lb in TABLE2_LAUNCH_CONFIGS:
            eff = lb if lb.explicit else default_launch_bounds(mode)
            budget, waves = cdna2_vgpr_budget(MI250X_GCD, eff)
            p = sweep[str(lb)]
            rows.append(
                [
                    str(lb),
                    p.time_s,
                    p.arch_vgprs,
                    p.accum_vgprs,
                    p.scratch_bytes_per_thread,
                    f"{waves} w/SIMD",
                    f"{budget} vgpr/wave",
                    f"{base_time / p.time_s:.2f}x",
                ]
            )
        print(f"\n=== optimized {mode} kernel on MI250X GCD ===")
        print(
            format_table(
                ["LaunchBounds", "time [s]", "Arch VGPR", "Accum VGPR", "scratch B/thr", "occupancy target", "budget", "speedup"],
                rows,
            )
        )
    print(
        "\nMechanism: an occupancy target of <=2 waves/SIMD leaves >=256 VGPRs per wave,"
        "\nletting the compiler keep the SFad accumulators in accumulation VGPRs instead"
        "\nof spilling to scratch memory -- the paper's 1.54x / 1.17x LaunchBounds wins."
    )


if __name__ == "__main__":
    main()
