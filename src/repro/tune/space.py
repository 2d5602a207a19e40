"""The autotuner's discrete configuration space.

One :class:`TuneCandidate` is a full solver configuration along the four
tuned axes: kernel implementation, ``Kokkos::LaunchBounds`` (Table II's
knob, consumed by the GPU model), preconditioner and operator mode.
The space is the cross product of :data:`DEFAULT_SPACE`, filtered down
to candidates that are actually *launchable* on the target GPU spec (a
LaunchBounds whose block exceeds ``max_threads_per_cu`` cannot run on
real hardware and is rejected by the occupancy model too) and
*constructible* as a :class:`repro.app.config.VelocityConfig` (e.g. the
multilevel ``mdsc-amg`` hierarchy needs Galerkin CSR products, so it
never pairs with ``operator_mode="matrix-free"``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.app.config import VelocityConfig
from repro.core.launch import TABLE2_LAUNCH_CONFIGS, default_launch_bounds
from repro.gpusim.specs import GPUSpec
from repro.kokkos.policy import LaunchBounds

__all__ = ["TuneCandidate", "TuneSpace", "DEFAULT_SPACE", "candidate_from_config"]

#: preconditioners with no matrix-free construction (assembled-only)
_ASSEMBLED_ONLY_PRECONDITIONERS = frozenset({"mdsc-amg"})


@dataclass(frozen=True)
class TuneCandidate:
    """One point of the discrete search space."""

    kernel_impl: str
    launch_bounds: LaunchBounds
    preconditioner: str
    operator_mode: str

    @property
    def solver_axes(self) -> tuple:
        """The axes that change the in-Python Newton--Krylov trajectory.

        ``kernel_impl`` and ``launch_bounds`` only change the *modeled*
        kernel cost (both implementations compute identical physics), so
        two candidates sharing these axes share one measured trial.
        """
        return (self.preconditioner, self.operator_mode)

    def describe(self) -> str:
        return (
            f"{self.kernel_impl}/lb={self.launch_bounds}/"
            f"{self.preconditioner}/{self.operator_mode}"
        )

    def effective_launch_bounds(self, mode: str) -> LaunchBounds:
        """Resolve the backend default for the given kernel mode."""
        if self.launch_bounds.explicit:
            return self.launch_bounds
        return default_launch_bounds(mode)

    def apply_to(self, config: VelocityConfig) -> VelocityConfig:
        """Overlay the tuned axes onto ``config`` (everything else --
        tolerances, GMRES and Newton budgets, ``nparts``, ``tuned`` --
        survives)."""
        return dataclasses.replace(
            config,
            kernel_impl=self.kernel_impl,
            preconditioner=self.preconditioner,
            operator_mode=self.operator_mode,
        )

    def to_dict(self) -> dict:
        return {
            "kernel_impl": self.kernel_impl,
            "launch_bounds": {
                "max_threads": self.launch_bounds.max_threads,
                "min_blocks": self.launch_bounds.min_blocks,
                "explicit": self.launch_bounds.explicit,
            },
            "preconditioner": self.preconditioner,
            "operator_mode": self.operator_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TuneCandidate":
        lb = d["launch_bounds"]
        return cls(
            kernel_impl=str(d["kernel_impl"]),
            launch_bounds=LaunchBounds(
                max_threads=int(lb["max_threads"]),
                min_blocks=int(lb["min_blocks"]),
                explicit=bool(lb["explicit"]),
            ),
            preconditioner=str(d["preconditioner"]),
            operator_mode=str(d["operator_mode"]),
        )


@dataclass(frozen=True)
class TuneSpace:
    """Axis values the search enumerates (the cross product, filtered)."""

    kernel_impls: tuple[str, ...] = ("optimized", "baseline")
    launch_bounds: tuple[LaunchBounds, ...] = tuple(TABLE2_LAUNCH_CONFIGS)
    preconditioners: tuple[str, ...] = ("mdsc", "vline", "jacobi")
    operator_modes: tuple[str, ...] = ("assembled", "matrix-free")

    def enumerate(self, spec: GPUSpec | None = None) -> list[TuneCandidate]:
        """All launchable, constructible candidates, in a fixed order.

        The order is the deterministic row-major sweep of the axis
        tuples above -- the search's trial sequence is a pure function
        of (space, prior, seed), never of dict/set iteration order.
        """
        out = []
        for impl in self.kernel_impls:
            for lb in self.launch_bounds:
                for pc in self.preconditioners:
                    for op in self.operator_modes:
                        c = TuneCandidate(impl, lb, pc, op)
                        if self._admissible(c, spec):
                            out.append(c)
        return out

    def _admissible(self, c: TuneCandidate, spec: GPUSpec | None) -> bool:
        if (
            c.operator_mode == "matrix-free"
            and c.preconditioner in _ASSEMBLED_ONLY_PRECONDITIONERS
        ):
            return False
        if spec is not None:
            for mode in ("jacobian", "residual"):
                if c.effective_launch_bounds(mode).max_threads > spec.max_threads_per_cu:
                    return False
        return True


#: the default search space (Table II LaunchBounds x solver axes)
DEFAULT_SPACE = TuneSpace()


def candidate_from_config(
    config: VelocityConfig, launch_bounds: LaunchBounds | None = None
) -> TuneCandidate:
    """The candidate a hand-picked :class:`VelocityConfig` corresponds to."""
    return TuneCandidate(
        kernel_impl=config.kernel_impl,
        launch_bounds=launch_bounds if launch_bounds is not None else TABLE2_LAUNCH_CONFIGS[0],
        preconditioner=config.preconditioner,
        operator_mode=config.operator_mode,
    )
