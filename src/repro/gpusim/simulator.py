"""The simulator facade: run a kernel variant on a GPU model.

``GPUSimulator.run`` chains trace -> register allocation -> occupancy ->
data movement -> timing and returns a :class:`KernelProfile` holding
everything the paper reports per kernel: time per invocation, HBM bytes
moved, flops, arithmetic intensity, VGPR allocation, occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.launch import default_launch_bounds
from repro.core.variants import KernelVariant, get_variant
from repro.gpusim.memtrace import DataMovement, measure_data_movement
from repro.gpusim.occupancy import Occupancy, compute_occupancy
from repro.gpusim.registers import Allocation, allocate_registers
from repro.gpusim.specs import GPUSpec
from repro.gpusim.timing import KernelTiming, estimate_time
from repro.gpusim.trace import ThreadProgram, record_kernel_trace
from repro.kokkos.policy import LaunchBounds
from repro.observability import get_metrics, get_tracer

__all__ = ["ProblemSize", "ANTARCTICA_16KM", "KernelProfile", "GPUSimulator"]


@dataclass(frozen=True)
class ProblemSize:
    """Mesh-derived kernel workload description."""

    num_cells: int
    num_nodes: int = 8
    num_qps: int = 8

    def __post_init__(self):
        if self.num_cells <= 0 or self.num_nodes <= 0 or self.num_qps <= 0:
            raise ValueError("problem dimensions must be positive")


#: The paper's single-GPU test: ~256K hexahedra (12.8K quads x 20 layers).
ANTARCTICA_16KM = ProblemSize(num_cells=256_000)


@dataclass(frozen=True)
class KernelProfile:
    """Everything the paper reports about one kernel on one GPU."""

    gpu: str
    variant_key: str
    launch_bounds: str
    problem: ProblemSize
    time_s: float
    hbm_bytes: float
    flops: float
    arch_vgprs: int
    accum_vgprs: int
    scratch_bytes_per_thread: int
    occupancy_fraction: float
    achieved_bw: float
    timing: KernelTiming
    data_movement: DataMovement
    allocation: Allocation
    occupancy: Occupancy
    #: peak HBM bandwidth of the simulated GPU [bytes/s]; required so
    #: that :attr:`bandwidth_fraction_of_peak` is always well defined
    peak_bandwidth: float

    def __post_init__(self):
        if self.peak_bandwidth <= 0.0:
            raise ValueError("peak_bandwidth must be positive (bytes/s of the simulated GPU)")

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per HBM byte (the Roofline x-axis)."""
        return self.flops / self.hbm_bytes

    @property
    def gflops_per_s(self) -> float:
        return self.flops / self.time_s / 1.0e9

    @property
    def time_ms(self) -> float:
        return self.time_s * 1.0e3

    @property
    def gbytes_moved(self) -> float:
        return self.hbm_bytes / 1.0e9

    @property
    def bandwidth_fraction_of_peak(self) -> float:
        """Fraction of peak HBM bandwidth actually sustained."""
        return (self.hbm_bytes / self.time_s) / self.peak_bandwidth


class GPUSimulator:
    """Performance simulator for one GPU architecture."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec

    def run(
        self,
        variant: KernelVariant | str,
        problem: ProblemSize = ANTARCTICA_16KM,
        launch_bounds: LaunchBounds | None = None,
    ) -> KernelProfile:
        """Simulate one kernel invocation and profile it."""
        if isinstance(variant, str):
            variant = get_variant(variant)
        if launch_bounds is None:
            launch_bounds = default_launch_bounds(variant.mode)

        tr = get_tracer()
        with tr.span(
            "gpusim.run", cat="gpusim", variant=variant.key, gpu=self.spec.name
        ) as sp:
            program: ThreadProgram = record_kernel_trace(
                variant.key, num_nodes=problem.num_nodes, num_qps=problem.num_qps
            )
            alloc = allocate_registers(self.spec, variant, launch_bounds)
            occ = compute_occupancy(self.spec, alloc, problem.num_cells)
            dm = measure_data_movement(program, self.spec, occ, problem.num_cells)
            timing = estimate_time(self.spec, variant, program, alloc, occ, dm, problem.num_cells)
            if tr.recording:
                # raw roofline inputs: modeled traffic, the rocprof
                # request-formula cross-check, and the *simulated* kernel
                # time (the span's own duration measures the simulator)
                sp.args.update(
                    bytes=dm.total_bytes,
                    rocprof_bytes=dm.rocprof_formula_bytes(),
                    flops=float(program.flops) * problem.num_cells,
                    model_time_s=timing.time_s,
                )

        metrics = get_metrics()
        metrics.counter("gpusim.kernel_runs").inc()
        metrics.histogram("gpusim.l1_hit_fraction").observe(dm.l1_hit_fraction)
        metrics.histogram("gpusim.l2_hit_fraction").observe(dm.l2_hit_fraction)

        return KernelProfile(
            gpu=self.spec.name,
            variant_key=variant.key,
            launch_bounds=str(launch_bounds),
            problem=problem,
            time_s=timing.time_s,
            hbm_bytes=timing.hbm_bytes,
            flops=float(program.flops) * problem.num_cells,
            arch_vgprs=alloc.arch_vgprs,
            accum_vgprs=alloc.accum_vgprs,
            scratch_bytes_per_thread=alloc.scratch_bytes,
            occupancy_fraction=occ.fraction,
            achieved_bw=timing.achieved_bw,
            timing=timing,
            data_movement=dm,
            allocation=alloc,
            occupancy=occ,
            peak_bandwidth=self.spec.hbm_bytes_per_s,
        )
