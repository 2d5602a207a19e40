"""The autotuner's two independent axis lists.

One :class:`TuneCandidate` is a full configuration along the four tuned
axes, but the search never forms their cross product, because the axes
do not interact:

* the **kernel axes** -- kernel implementation and
  ``Kokkos::LaunchBounds`` (Table II's knob) -- only change the *modeled*
  kernel cost: both implementations compute bitwise-identical physics,
  so no in-Python solve can tell two of these points apart.
  :func:`kernel_axes` lists the points *launchable* on the target GPU
  spec (a LaunchBounds whose block exceeds ``max_threads_per_cu`` cannot
  run on real hardware and is rejected by the occupancy model too);
* the **solver axes** -- preconditioner and operator mode -- change the
  Newton--Krylov trajectory and are measured.  :func:`solver_axes` lists
  the hand-picked default and then the pairs
  :data:`repro.app.config.PRECONDITIONER_TABLE` marks worth a trial,
  under both operator modes (SPMD solves always assemble).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.app.config import PRECONDITIONER_TABLE, VelocityConfig
from repro.core.launch import TABLE2_LAUNCH_CONFIGS, default_launch_bounds
from repro.gpusim.specs import GPUSpec
from repro.kokkos.policy import LaunchBounds

__all__ = [
    "TuneCandidate",
    "KERNEL_MODES",
    "effective_launch_bounds",
    "kernel_axes",
    "solver_axes",
]

#: the two kernels of one Newton step (a fused SFad Jacobian sweep plus
#: a line-search residual sweep), each with its own backend default
KERNEL_MODES = ("jacobian", "residual")


@dataclass(frozen=True)
class TuneCandidate:
    """One kernel-axes point paired with one solver-axes point."""

    kernel_impl: str
    launch_bounds: LaunchBounds
    preconditioner: str
    operator_mode: str

    def describe(self) -> str:
        return (
            f"{self.kernel_impl}/lb={self.launch_bounds}/"
            f"{self.preconditioner}/{self.operator_mode}"
        )

    def apply_to(self, config: VelocityConfig) -> VelocityConfig:
        """Overlay the tuned axes onto ``config`` (everything else --
        ``newton_steps``, ``nparts`` -- survives)."""
        return dataclasses.replace(
            config,
            kernel_impl=self.kernel_impl,
            preconditioner=self.preconditioner,
            operator_mode=self.operator_mode,
        )


def effective_launch_bounds(launch_bounds: LaunchBounds, mode: str) -> LaunchBounds:
    """Resolve the backend default for the given kernel mode."""
    return launch_bounds if launch_bounds.explicit else default_launch_bounds(mode)


def kernel_axes(spec: GPUSpec) -> list[tuple[str, LaunchBounds]]:
    """Launchable ``(kernel_impl, LaunchBounds)`` points, in a fixed order
    (the order is the model argmin's last tie-break)."""
    return [
        (impl, lb)
        for impl in ("optimized", "baseline")
        for lb in TABLE2_LAUNCH_CONFIGS
        if all(
            effective_launch_bounds(lb, mode).max_threads <= spec.max_threads_per_cu
            for mode in KERNEL_MODES
        )
    ]


def solver_axes(config: VelocityConfig) -> list[tuple[str, str]]:
    """The ``(preconditioner, operator_mode)`` pairs to measure for
    ``config``: its own hand-picked pair first, then every pair the
    table marks worth a trial, in table order."""
    # SPMD solves always assemble (the row-partitioned operator is the
    # halo-exchange unit), so matrix-free is no axis on a distributed
    # mesh -- the default, too, is listed as it will run
    modes = ("assembled",) if config.nparts > 1 else ("assembled", "matrix-free")
    default = (
        config.preconditioner,
        config.operator_mode if config.operator_mode in modes else "assembled",
    )
    return [default] + [
        (p.name, mode)
        for p in PRECONDITIONER_TABLE
        if p.production
        for mode in modes
        if (p.name, mode) != default
    ]
