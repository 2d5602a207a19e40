"""Profiler-interface emulation (the paper's appendix methodology).

The paper gathers GPU data movement with NVIDIA Nsight Compute
(``dram__bytes.sum``) and AMD rocprof (``TCC_EA_*`` request counters,
``arch_vgpr``/``accum_vgpr`` columns).  This module renders a simulated
:class:`~repro.gpusim.simulator.KernelProfile` through the same
interfaces: the command lines, the rocprof input file, the counter
values, and the appendix's GPU-bytes-moved formula

``GPU Bytes Moved = 64*TCC_EA_WRREQ_64B
                  + 32*(TCC_EA_WRREQ_sum - TCC_EA_WRREQ_64B)
                  + 32*TCC_EA_RDREQ_32B
                  + 64*(TCC_EA_RDREQ_sum - TCC_EA_RDREQ_32B)``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.simulator import KernelProfile

__all__ = ["NsightComputeReport", "RocprofReport", "profiler_report"]


@dataclass(frozen=True)
class NsightComputeReport:
    """Nsight-Compute-style metrics for one kernel on an NVIDIA GPU."""

    kernel_name: str
    metrics: dict

    @staticmethod
    def from_profile(profile: KernelProfile) -> "NsightComputeReport":
        dram_bytes = profile.hbm_bytes
        elapsed = profile.time_s
        scratch = profile.timing.scratch_bytes  # local-memory spill traffic
        return NsightComputeReport(
            kernel_name=profile.variant_key,
            metrics={
                "dram__bytes.sum": float(dram_bytes),
                "dram__bytes_read.sum": float(profile.data_movement.read_bytes + scratch / 2.0),
                "dram__bytes_write.sum": float(profile.data_movement.write_bytes + scratch / 2.0),
                "dram__throughput.avg.pct_of_peak_sustained_elapsed": 100.0
                * (dram_bytes / elapsed)
                / profile.peak_bandwidth,
                "gpu__time_duration.sum": elapsed,
                "sm__sass_thread_inst_executed_op_dfma_pred_on.sum": float(profile.flops) / 2.0,
                "launch__registers_per_thread": profile.arch_vgprs,
                "sm__warps_active.avg.pct_of_peak_sustained_active": 100.0
                * profile.occupancy_fraction,
            },
        )

    @staticmethod
    def command_line(kernel_name: str = "StokesFOResid") -> str:
        """The appendix's Nsight Compute invocation."""
        return (
            f'nv-nsight-cu-cli -k {kernel_name} --metrics "dram_bytes.sum" <exe> <param>'
        )

    def dram_bytes(self) -> float:
        return self.metrics["dram__bytes.sum"]

    def render(self) -> str:
        lines = [f"== Nsight Compute (simulated): {self.kernel_name} =="]
        for k in sorted(self.metrics):
            v = self.metrics[k]
            lines.append(f"  {k:60s} {v:.6g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RocprofReport:
    """rocprof-style CSV row for one kernel on an AMD GCD."""

    kernel_name: str
    counters: dict

    #: the request mix of our coalesced accesses: reads are full 64B
    #: requests, writes are full 64B requests
    @staticmethod
    def from_profile(profile: KernelProfile) -> "RocprofReport":
        dm = profile.data_movement
        # scratch (spill) traffic shows up in the TCC counters too; the
        # spill stream is half reads, half writes
        scratch_reqs = int(profile.timing.scratch_bytes / 64.0 / 2.0)
        rd64 = dm.read_requests + scratch_reqs
        wr64 = dm.write_requests + scratch_reqs
        return RocprofReport(
            kernel_name=profile.variant_key,
            counters={
                "TCC_EA_RDREQ_sum": rd64,
                "TCC_EA_RDREQ_32B": 0,
                "TCC_EA_WRREQ_sum": wr64,
                "TCC_EA_WRREQ_64B": wr64,
                "SQ_INSTS_VALU_ADD_F64": int(profile.flops * 0.4),
                "SQ_INSTS_VALU_MUL_F64": int(profile.flops * 0.2),
                "SQ_INSTS_VALU_FMA_F64": int(profile.flops * 0.2),
                "SQ_INSTS_VALU_TRANS_F64": 0,
                "arch_vgpr": profile.arch_vgprs,
                "accum_vgpr": profile.accum_vgprs,
                "DurationNs": int(profile.time_s * 1.0e9),
            },
        )

    @staticmethod
    def input_file(kernel_name: str = "StokesFOResid") -> str:
        """The appendix's rocprof input file."""
        return "\n".join(
            [
                f"kernel: {kernel_name}",
                "pmc : SQ_INSTS_VALU_ADD_F64 SQ_INSTS_VALU_MUL_F64",
                "SQ_INSTS_VALU_FMA_F64 SQ_INSTS_VALU_TRANS_F64",
                "pmc : TCC_EA_RDREQ_32B_sum TCC_EA_RDREQ_sum",
                "TCC_EA_WRREQ_sum TCC_EA_WRREQ_64B_sum",
                "gpu: 0",
            ]
        )

    @staticmethod
    def command_line() -> str:
        return "rocprof -i input_file.txt --timestamp on -o my_output.csv <exe> <params>"

    def gpu_bytes_moved(self) -> float:
        """The appendix formula over the TCC_EA counters."""
        c = self.counters
        return (
            64.0 * c["TCC_EA_WRREQ_64B"]
            + 32.0 * (c["TCC_EA_WRREQ_sum"] - c["TCC_EA_WRREQ_64B"])
            + 32.0 * c["TCC_EA_RDREQ_32B"]
            + 64.0 * (c["TCC_EA_RDREQ_sum"] - c["TCC_EA_RDREQ_32B"])
        )

    def render(self) -> str:
        lines = [f"== rocprof (simulated): {self.kernel_name} =="]
        for k in sorted(self.counters):
            lines.append(f"  {k:28s} {self.counters[k]}")
        lines.append(f"  GPU Bytes Moved (formula)    {self.gpu_bytes_moved():.6g}")
        return "\n".join(lines)


def profiler_report(profile: KernelProfile):
    """The vendor-appropriate profiler report for a kernel profile."""
    from repro.gpusim.specs import ALL_GPUS

    spec = ALL_GPUS.get(profile.gpu)
    vendor = spec.vendor if spec is not None else ("nvidia" if "A100" in profile.gpu else "amd")
    if vendor == "nvidia":
        return NsightComputeReport.from_profile(profile)
    return RocprofReport.from_profile(profile)
