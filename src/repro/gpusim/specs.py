"""GPU architecture descriptions (paper Section IV-A).

Hardware numbers come from the paper and vendor documentation; the
``interleave_*``, ``bw_*`` and latency entries are the model's
calibration constants, chosen once against the paper's published
baseline/optimized measurements and then held fixed for every
experiment (they are properties of the machine model, not of any
kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "A100", "MI250X_GCD", "ALL_GPUS"]


@dataclass(frozen=True)
class GPUSpec:
    """One GPU (or GCD) as seen by the performance model."""

    name: str
    vendor: str  # "nvidia" | "amd"
    #: compute units: SMs on NVIDIA, CUs on AMD
    num_cus: int
    warp_size: int
    max_threads_per_cu: int
    #: 32-bit registers per SM (NVIDIA) / arch+accum VGPRs per SIMD (AMD)
    registers_per_cu: int
    simds_per_cu: int
    l1_bytes: int
    l2_bytes: int
    line_bytes: int
    hbm_bytes_per_s: float
    fp64_flops: float
    hbm_capacity_bytes: int
    #: instruction issue throughput per CU [inst/s] (scalar-equivalent)
    issue_rate_per_cu: float
    #: fixed kernel launch overhead [s]
    launch_latency_s: float
    #: fraction of co-resident warps effectively interleaving between a
    #: warp's consecutive accesses at each cache level (GPU schedulers
    #: burst warps, so this is << 1)
    interleave_l1: float
    interleave_l2: float
    #: peak fraction of HBM bandwidth sustainable by real kernels
    bw_max_fraction: float
    #: occupancy (resident warps / max warps) at which the achieved
    #: bandwidth reaches half of ``bw_max_fraction``
    bw_half_occupancy: float
    #: penalty factor on achieved bandwidth for read-modify-write global
    #: accumulation streams (dependent-access stalls)
    rmw_bandwidth_penalty: float
    #: multiplier converting scratch-spill bytes into HBM traffic
    #: (scratch is cached; only part reaches HBM)
    scratch_hbm_fraction: float

    @property
    def max_warps_per_cu(self) -> int:
        return self.max_threads_per_cu // self.warp_size

    @property
    def l1_lines(self) -> int:
        return self.l1_bytes // self.line_bytes

    @property
    def l2_lines(self) -> int:
        return self.l2_bytes // self.line_bytes

    @property
    def warp_bytes(self) -> int:
        """Bytes one warp touches per coalesced 8-byte access."""
        return self.warp_size * 8

    @property
    def lines_per_access(self) -> int:
        return max(1, self.warp_bytes // self.line_bytes)


#: NVIDIA A100-40GB (Perlmutter): 108 SMs, 40 MB L2, 1.55 TB/s, 9.7 TF64.
A100 = GPUSpec(
    name="A100",
    vendor="nvidia",
    num_cus=108,
    warp_size=32,
    max_threads_per_cu=2048,
    registers_per_cu=65536,
    simds_per_cu=4,
    l1_bytes=192 * 1024,
    l2_bytes=40 * 1024 * 1024,
    line_bytes=128,
    hbm_bytes_per_s=1.55e12,
    fp64_flops=9.7e12,
    hbm_capacity_bytes=40 * 1024**3,
    issue_rate_per_cu=1.41e9 * 2.0,  # ~clock x 2 issue slots
    launch_latency_s=3.0e-6,
    interleave_l1=0.50,
    interleave_l2=0.8,
    bw_max_fraction=0.93,
    bw_half_occupancy=0.02,
    rmw_bandwidth_penalty=0.45,
    scratch_hbm_fraction=0.30,
)

#: One GCD of an AMD MI250X (Frontier): 110 CUs, 8 MB L2, 1.6 TB/s, 24 TF64.
MI250X_GCD = GPUSpec(
    name="MI250X-GCD",
    vendor="amd",
    num_cus=110,
    warp_size=64,
    max_threads_per_cu=2048,
    registers_per_cu=512,  # VGPRs per SIMD (256 arch + 256 accum)
    simds_per_cu=4,
    l1_bytes=16 * 1024,
    l2_bytes=8 * 1024 * 1024,
    line_bytes=64,
    hbm_bytes_per_s=1.6e12,
    fp64_flops=23.9e12,
    hbm_capacity_bytes=64 * 1024**3,
    issue_rate_per_cu=1.7e9 * 1.2,
    launch_latency_s=8.0e-6,
    interleave_l1=0.50,
    interleave_l2=0.012,
    bw_max_fraction=0.90,
    bw_half_occupancy=0.15,
    rmw_bandwidth_penalty=0.30,
    scratch_hbm_fraction=0.55,
)

ALL_GPUS: dict[str, GPUSpec] = {"A100": A100, "MI250X-GCD": MI250X_GCD}

