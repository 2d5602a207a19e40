"""The range policy and launch-bounds hints (Kokkos analogues).

``LaunchBounds`` mirrors ``Kokkos::LaunchBounds<MaxThreads, MinBlocks>``:
it does not change numerics but is consumed by the GPU register-allocation
and occupancy models (paper Table II studies exactly this knob on the
MI250X).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LaunchBounds", "DEFAULT_LAUNCH_BOUNDS", "RangePolicy"]


@dataclass(frozen=True)
class LaunchBounds:
    """``Kokkos::LaunchBounds<MaxThreads, MinBlocks>`` analogue.

    ``explicit`` distinguishes user-provided bounds from compiler/Kokkos
    defaults; on AMD the backend applies a different occupancy assumption
    when no bounds are given (see :mod:`repro.gpusim.registers`).
    """

    max_threads: int = 256
    min_blocks: int = 1
    explicit: bool = True

    def __post_init__(self):
        if self.max_threads <= 0 or self.min_blocks <= 0:
            raise ValueError("LaunchBounds parameters must be positive")

    def __str__(self):
        if not self.explicit:
            return "default"
        return f"{self.max_threads},{self.min_blocks}"


#: Placeholder meaning "no explicit LaunchBounds": the backend default.
DEFAULT_LAUNCH_BOUNDS = LaunchBounds(max_threads=256, min_blocks=1, explicit=False)


@dataclass(frozen=True)
class RangePolicy:
    """1-D iteration range ``[begin, end)``."""

    begin: int
    end: int

    def __post_init__(self):
        if self.end < self.begin:
            raise ValueError(f"empty-inverted range [{self.begin}, {self.end})")

    @property
    def extent(self) -> int:
        return self.end - self.begin

    def indices(self):
        return range(self.begin, self.end)
