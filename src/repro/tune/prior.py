"""The gpusim byte/occupancy model of the evaluator kernels.

A Python process cannot measure GPU register pressure, so the kernel
axes are decided by the model alone, in modeled HBM bytes per sweep --
the deterministic currency the whole perf stack uses (Section V: the
solve is bandwidth-bound, so bytes order configurations the way time
does on real hardware).  The gpusim pipeline (register allocation ->
occupancy -> cache/memtrace -> timing) runs once per distinct
``(kernel_impl, launch_bounds, mode)`` at this mesh's cell count.  This
is where Table II lives: a LaunchBounds that spills SFad accumulators to
scratch pays real modeled bytes and loses.

The memoized profiles are used twice: :meth:`GpusimPrior.best_kernel_axes`
chooses the kernel axes from them, and the tuner prices every measured
trial's evaluator sweeps at that one choice.
"""

from __future__ import annotations

from repro.gpusim.simulator import GPUSimulator, KernelProfile, ProblemSize
from repro.gpusim.specs import GPUSpec
from repro.kokkos.policy import LaunchBounds
from repro.tune.space import KERNEL_MODES, effective_launch_bounds, kernel_axes

__all__ = ["GpusimPrior"]


class GpusimPrior:
    """Price kernel configurations with the GPU model; memoize the runs."""

    def __init__(self, spec: GPUSpec, num_cells: int):
        self.spec = spec
        self.num_cells = num_cells
        self._sim = GPUSimulator(spec)
        self._profiles: dict[tuple[str, str, str], KernelProfile] = {}

    def kernel_profile(
        self, kernel_impl: str, launch_bounds: LaunchBounds, mode: str
    ) -> KernelProfile:
        """The memoized gpusim profile of one kernel at one configuration."""
        lb = effective_launch_bounds(launch_bounds, mode)
        key = (kernel_impl, mode, str(lb))
        prof = self._profiles.get(key)
        if prof is None:
            prof = self._sim.run(
                f"{kernel_impl}-{mode}",
                ProblemSize(num_cells=self.num_cells),
                launch_bounds=lb,
            )
            self._profiles[key] = prof
        return prof

    def sweep_bytes(self, kernel_impl: str, launch_bounds: LaunchBounds, sweeps: dict) -> float:
        """Modeled HBM bytes of ``sweeps[mode]`` evaluator sweeps per mode."""
        return float(
            sum(
                sweeps[mode] * self.kernel_profile(kernel_impl, launch_bounds, mode).hbm_bytes
                for mode in KERNEL_MODES
            )
        )

    def best_kernel_axes(self) -> tuple[str, LaunchBounds]:
        """Fewest modeled HBM bytes per sweep pair over the launchable
        points, modeled time as the tie-break, list order after
        (``min`` keeps the first of equals)."""

        def cost(axes):
            profiles = [self.kernel_profile(*axes, mode) for mode in KERNEL_MODES]
            return sum(p.hbm_bytes for p in profiles), sum(p.time_s for p in profiles)

        return min(kernel_axes(self.spec), key=cost)
