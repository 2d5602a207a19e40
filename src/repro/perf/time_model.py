"""The time-oriented performance portability model (paper Figs. 4-5).

Each kernel implementation is a point in the (HBM GBytes moved, time per
invocation) plane.  Two bounds frame every point:

* the **architectural bound**: the diagonal ``t = bytes / peak_BW`` --
  running below it would be faster-than-light;
* the **application bound**: the vertical wall at the kernel's
  theoretical minimum data movement (no implementation can move less).

The "achievable" corner is their intersection: minimum bytes at peak
bandwidth.  Geometry only: a point's ``e_time``/``e_DM`` are
:func:`repro.perf.paper.efficiencies` (its own GPU's peak, not this diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perf.theoretical import TheoreticalMovement

__all__ = ["TimeOrientedPoint", "TimeOrientedModel"]


@dataclass(frozen=True)
class TimeOrientedPoint:
    """One observed kernel: (bytes moved, time per invocation)."""

    label: str
    gpu: str
    bytes_moved: float
    time_s: float

    def __post_init__(self):
        if self.bytes_moved <= 0 or self.time_s <= 0:
            raise ValueError("observed point must have positive coordinates")


@dataclass
class TimeOrientedModel:
    """Bounds + observed points for one kernel (possibly many GPUs)."""

    kernel: str
    theoretical: TheoreticalMovement
    #: common bandwidth bound -- the paper plots both GPUs against one
    #: diagonal because A100 and the MI250X GCD have comparable BW
    peak_bandwidth: float
    points: list[TimeOrientedPoint] = field(default_factory=list)

    def add_profile(self, profile, label: str | None = None) -> TimeOrientedPoint:
        p = TimeOrientedPoint(
            label=label or f"{profile.variant_key}@{profile.gpu}",
            gpu=profile.gpu,
            bytes_moved=profile.hbm_bytes,
            time_s=profile.time_s,
        )
        self.points.append(p)
        return p

    # -- bounds ----------------------------------------------------------
    def architectural_bound_time(self, bytes_moved) -> np.ndarray:
        """The diagonal: fastest possible time for a given data volume."""
        return np.asarray(bytes_moved, dtype=np.float64) / self.peak_bandwidth

    @property
    def application_wall_bytes(self) -> float:
        return self.theoretical.total_bytes

    @property
    def achievable_point(self) -> tuple[float, float]:
        """(bytes, time) of the theoretical optimum corner."""
        b = self.theoretical.total_bytes
        return b, b / self.peak_bandwidth

    def validate(self) -> None:
        """All observed points must respect both bounds (model sanity)."""
        for p in self.points:
            if p.bytes_moved < self.application_wall_bytes * (1.0 - 1.0e-9):
                raise ValueError(f"{p.label}: moved less than the application bound")
            if p.time_s < float(self.architectural_bound_time(p.bytes_moved)) * (1.0 - 1.0e-9):
                raise ValueError(f"{p.label}: faster than the architectural bound")

    def series(self, n: int = 32):
        """Plot data: (diagonal bytes, diagonal times, wall bytes)."""
        lo = 0.5 * self.application_wall_bytes
        hi = 4.0 * max([p.bytes_moved for p in self.points] + [self.application_wall_bytes])
        xs = np.logspace(np.log10(lo), np.log10(hi), n)
        return xs, self.architectural_bound_time(xs), self.application_wall_bytes
