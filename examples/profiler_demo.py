"""Profiler-interface demo: the paper's appendix methodology, simulated.

Shows the kernels through the same lenses the authors used: NVIDIA
Nsight Compute (``dram__bytes.sum`` & friends) on the A100 and AMD
rocprof (``TCC_EA_*`` request counters, arch/accum VGPR columns) on the
MI250X GCD -- including the appendix's GPU-bytes-moved formula and the
command lines / input files the paper documents.

Run:  python examples/profiler_demo.py
"""

from repro.gpusim import (
    A100,
    MI250X_GCD,
    GPUSimulator,
    ANTARCTICA_16KM,
    NsightComputeReport,
    RocprofReport,
)
from repro.perf.paper import run_as_paper


def main() -> None:
    print("# Perlmutter (A100): NVIDIA Nsight Compute")
    print("$", NsightComputeReport.command_line("StokesFOResid"))
    sim = GPUSimulator(A100)
    for key in ("baseline-jacobian", "optimized-jacobian"):
        rep = NsightComputeReport.from_profile(sim.run(key, ANTARCTICA_16KM))
        print()
        print(rep.render())

    print("\n# Frontier (MI250X GCD): AMD rocprof")
    print("$", RocprofReport.command_line())
    print("--- input_file.txt ---")
    print(RocprofReport.input_file())
    print("----------------------")
    for key in ("baseline-jacobian", "optimized-jacobian"):
        p = run_as_paper(MI250X_GCD, key)
        rep = RocprofReport.from_profile(p)
        print()
        print(rep.render())
        print(f"  (simulator ground truth: {p.hbm_bytes:.6g} bytes)")


if __name__ == "__main__":
    main()
