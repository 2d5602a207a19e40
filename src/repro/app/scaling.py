"""Multi-GPU scaling model (the paper's future-work direction).

Combines the single-GPU kernel times from :mod:`repro.gpusim` with a
communication model of the machines' interconnects to project weak and
strong scaling of the velocity solver's GPU phase:

* per-rank kernel work from the simulator (Jacobian + Residual per
  Newton step, times the calibrated solver-phase multiplier);
* halo exchange per Newton step: ghost-column counts *measured* from a
  real RCB partition (:func:`repro.mesh.partition.halo_statistics`) via
  :meth:`ScalingModel.partitioned_strong_scaling`, or the ``4 sqrt(A)``
  compact-patch estimate as the analytic fallback; bytes = ghost
  columns x levels x dofs x 8 B, at the node-interconnect bandwidth
  (Slingshot-11: 25 GB/s/NIC per direction on both machines, 4
  NICs/node, paper Section IV-A);
* an allreduce latency term (log2 P) for the Newton/Krylov dot products.

This is a model, not a simulation of MPI -- it exists to let the
scaling examples and benches explore the paper's "scalability studies"
outlook with the same calibrated kernel costs.  The in-process SPMD
solve (:mod:`repro.fem.distributed`) is the companion *measurement*
path: its traffic meter records the actual bytes each exchange moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.simulator import GPUSimulator, ProblemSize
from repro.gpusim.specs import GPUSpec
from repro.kokkos.policy import LaunchBounds
from repro.mesh.partition import ghost_columns_estimate, halo_statistics, partition_footprint

__all__ = ["InterconnectSpec", "SLINGSHOT11", "ScalingModel", "ScalingPoint"]


@dataclass(frozen=True)
class InterconnectSpec:
    """Node interconnect description (paper Section IV-A)."""

    name: str
    bandwidth_per_nic: float  # bytes/s per direction
    nics_per_node: int
    gpus_per_node: int
    latency_s: float  # per message


#: Slingshot 11 as deployed on Perlmutter and Frontier: 4 NICs/node at
#: 25 GB/s/direction, 4 GPUs (GCDs: 8, but one NIC serves two) per node.
SLINGSHOT11 = InterconnectSpec(
    name="Slingshot-11",
    bandwidth_per_nic=25.0e9,
    nics_per_node=4,
    gpus_per_node=4,
    latency_s=2.0e-6,
)


@dataclass(frozen=True)
class ScalingPoint:
    """Projected per-Newton-step time at one GPU count."""

    num_gpus: int
    cells_per_gpu: int
    t_kernels: float
    t_halo: float
    t_allreduce: float
    #: ghost columns the halo term used (None when no halo, P = 1)
    ghost_columns: float | None = None
    #: "analytic" (4 sqrt(A) patch estimate) or "measured" (real partition)
    halo_source: str = "analytic"

    @property
    def t_step(self) -> float:
        return self.t_kernels + self.t_halo + self.t_allreduce

    @property
    def communication_fraction(self) -> float:
        return (self.t_halo + self.t_allreduce) / self.t_step


class ScalingModel:
    """Weak/strong scaling of the velocity solver's GPU phase."""

    def __init__(
        self,
        spec: GPUSpec,
        interconnect: InterconnectSpec = SLINGSHOT11,
        kernel_impl: str = "optimized",
        launch_bounds: LaunchBounds | None = None,
        levels: int = 21,
        linear_iters_per_newton: float = 40.0,
    ):
        self.spec = spec
        self.interconnect = interconnect
        self.kernel_impl = kernel_impl
        self.launch_bounds = launch_bounds
        self.levels = levels
        self.linear_iters = linear_iters_per_newton
        self._sim = GPUSimulator(spec)

    # -- pieces -----------------------------------------------------------
    def kernel_time_per_step(self, cells_per_gpu: int) -> float:
        """One Jacobian + one Residual evaluation per Newton step."""
        prob = ProblemSize(cells_per_gpu)
        tj = self._sim.run(f"{self.kernel_impl}-jacobian", prob, launch_bounds=self.launch_bounds).time_s
        tr = self._sim.run(f"{self.kernel_impl}-residual", prob, launch_bounds=self.launch_bounds).time_s
        return tj + tr

    def ghost_columns(self, cells_per_gpu: int) -> float:
        """Halo width estimate: the partition boundary of a compact 2-D
        patch of ``cells_per_gpu`` hexahedra over ``levels - 1`` layers
        (:func:`~repro.mesh.partition.ghost_columns_estimate`)."""
        return ghost_columns_estimate(cells_per_gpu, self.levels - 1)

    def halo_time_per_step(
        self, cells_per_gpu: int, num_gpus: int, ghost_columns: float | None = None
    ) -> float:
        """Halo-exchange time per Newton step.

        ``ghost_columns`` overrides the analytic ``4 sqrt(A)`` estimate
        with a measured per-rank ghost-column count (from
        :func:`repro.mesh.partition.halo_statistics`).
        """
        if num_gpus <= 1:
            return 0.0
        cols = self.ghost_columns(cells_per_gpu) if ghost_columns is None else ghost_columns
        bytes_per_exchange = cols * self.levels * 2 * 8.0  # 2 dofs, fp64
        bw = self.interconnect.bandwidth_per_nic * self.interconnect.nics_per_node
        bw_per_gpu = bw / self.interconnect.gpus_per_node
        # one halo refresh per linear iteration (SpMV) plus one per step
        exchanges = self.linear_iters + 1.0
        return exchanges * (bytes_per_exchange / bw_per_gpu + self.interconnect.latency_s)

    def allreduce_time_per_step(self, num_gpus: int) -> float:
        if num_gpus <= 1:
            return 0.0
        # 2 dots per Krylov iteration, log-tree latency
        hops = math.ceil(math.log2(num_gpus))
        return 2.0 * self.linear_iters * hops * self.interconnect.latency_s

    # -- projections ------------------------------------------------------
    def weak_scaling(self, cells_per_gpu: int, gpu_counts: list[int]) -> list[ScalingPoint]:
        """Fixed work per GPU; ideal behavior is flat time per step."""
        out = []
        tk = self.kernel_time_per_step(cells_per_gpu)
        for p in gpu_counts:
            out.append(
                ScalingPoint(
                    num_gpus=p,
                    cells_per_gpu=cells_per_gpu,
                    t_kernels=tk,
                    t_halo=self.halo_time_per_step(cells_per_gpu, p),
                    t_allreduce=self.allreduce_time_per_step(p),
                    ghost_columns=self.ghost_columns(cells_per_gpu) if p > 1 else None,
                )
            )
        return out

    def strong_scaling(self, total_cells: int, gpu_counts: list[int]) -> list[ScalingPoint]:
        """Fixed total work; ideal behavior is 1/P time per step.

        The critical rank carries ``ceil(total / P)`` cells when ``P``
        does not divide the cell count -- the slowest rank sets the step
        time, so flooring here would under-count the load of every rank
        that matters.
        """
        out = []
        for p in gpu_counts:
            local = max(1, -(-total_cells // p))  # ceiling division
            out.append(
                ScalingPoint(
                    num_gpus=p,
                    cells_per_gpu=local,
                    t_kernels=self.kernel_time_per_step(local),
                    t_halo=self.halo_time_per_step(local, p),
                    t_allreduce=self.allreduce_time_per_step(p),
                    ghost_columns=self.ghost_columns(local) if p > 1 else None,
                )
            )
        return out

    def partitioned_strong_scaling(self, footprint, gpu_counts: list[int]) -> list[ScalingPoint]:
        """Strong scaling from *measured* decompositions of a real footprint.

        Partitions ``footprint`` with the repo's RCB partitioner at every
        GPU count and reads the critical rank's cell load and ghost-column
        count from :func:`repro.mesh.partition.halo_statistics` -- the
        measured replacement for the ``4 sqrt(A)`` estimate and the
        uniform ``total / P`` split.  Points carry
        ``halo_source="measured"``.
        """
        nz = self.levels - 1
        out = []
        for p in gpu_counts:
            stats = halo_statistics(partition_footprint(footprint, p))
            local = max(1, max(stats.owned_elems) * nz)
            ghost = float(stats.max_ghost_nodes) if p > 1 else None
            out.append(
                ScalingPoint(
                    num_gpus=p,
                    cells_per_gpu=local,
                    t_kernels=self.kernel_time_per_step(local),
                    t_halo=self.halo_time_per_step(local, p, ghost_columns=ghost),
                    t_allreduce=self.allreduce_time_per_step(p),
                    ghost_columns=ghost,
                    halo_source="measured",
                )
            )
        return out

    @staticmethod
    def efficiency(points: list[ScalingPoint], mode: str) -> list[float]:
        """Parallel efficiency per point (1.0 = ideal)."""
        if not points:
            return []
        t0, p0 = points[0].t_step, points[0].num_gpus
        if mode == "weak":
            return [t0 / pt.t_step for pt in points]
        if mode == "strong":
            return [(t0 * p0) / (pt.t_step * pt.num_gpus) for pt in points]
        raise ValueError(f"unknown scaling mode {mode!r}")
