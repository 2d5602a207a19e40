"""Performance portability metric Phi (Pennycook et al.; paper Eq. 4).

``Phi(a, p, H) = |H| / sum_i 1/e_i`` -- the harmonic mean of the
per-platform efficiencies, zero when any platform is unsupported.  The
paper instantiates two efficiencies: time per invocation relative to the
architectural+application bound (e_time) and HBM data movement relative
to the application bound (e_DM).
"""

from __future__ import annotations

__all__ = [
    "performance_portability",
    "efficiency_time",
    "efficiency_data_movement",
]


def performance_portability(efficiencies: list[float | None]) -> float:
    """Harmonic mean over platforms; 0 if any platform is unsupported.

    ``None`` marks an unsupported platform.  Efficiencies must be in
    (0, 1] -- a measured efficiency slightly above 1 (bound noise) is
    clamped.
    """
    if not efficiencies:
        raise ValueError("at least one platform required")
    if any(e is None for e in efficiencies):
        return 0.0
    vals = []
    for e in efficiencies:
        if e <= 0.0:
            raise ValueError("efficiency must be positive for supported platforms")
        vals.append(min(float(e), 1.0))
    return len(vals) / sum(1.0 / e for e in vals)


def efficiency_time(theoretical_min_time: float, observed_time: float) -> float:
    """e_time: achievable (bound) time over observed time."""
    if theoretical_min_time <= 0 or observed_time <= 0:
        raise ValueError("times must be positive")
    return theoretical_min_time / observed_time


def efficiency_data_movement(theoretical_min_bytes: float, observed_bytes: float) -> float:
    """e_DM: theoretical minimum bytes over observed bytes."""
    if theoretical_min_bytes <= 0 or observed_bytes <= 0:
        raise ValueError("byte counts must be positive")
    return theoretical_min_bytes / observed_bytes
