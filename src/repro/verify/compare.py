"""Array comparison with first-divergence context.

Every verification pillar reports disagreements the same way: not just
"arrays differ" but *where they first differ and by how much*, which is
what turns a red CI job into a five-minute diagnosis.  ``tol=0`` means
bitwise comparison (the SPMD/fused-assembly contracts); a positive
``rtol``/``atol`` pair covers reassociated floating-point sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Divergence", "collect", "first_divergence", "max_abs_error", "mismatch", "within"]


@dataclass(frozen=True)
class Divergence:
    """First point (C order) where two arrays disagree beyond tolerance."""

    name: str  # which compared quantity (e.g. "Residual.values")
    index: tuple  # multi-index of the first offending slot
    lhs: float
    rhs: float
    abs_err: float
    max_abs_err: float  # over the whole array pair
    num_bad: int  # offending slots in total

    def describe(self) -> str:
        return (
            f"{self.name}[{','.join(map(str, self.index))}]: "
            f"{self.lhs!r} vs {self.rhs!r} (|diff|={self.abs_err:.3e}, "
            f"max |diff|={self.max_abs_err:.3e}, {self.num_bad} slot(s) differ)"
        )


def max_abs_error(lhs, rhs) -> float:
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.size == 0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)))


def first_divergence(
    name: str,
    lhs,
    rhs,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> Divergence | None:
    """Return the first out-of-tolerance slot, or ``None`` when equal.

    ``rtol=atol=0`` demands bitwise equality (NaNs at matching slots
    still count as divergent: a NaN is never a verified agreement).
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.shape != rhs.shape:
        raise ValueError(f"{name}: shape mismatch {lhs.shape} vs {rhs.shape}")
    if lhs.size == 0:
        return None
    diff = np.abs(lhs - rhs)
    if rtol == 0.0 and atol == 0.0:
        bad = ~((lhs == rhs) & np.isfinite(lhs))
    else:
        bad = ~(diff <= atol + rtol * np.abs(rhs))
    if not np.any(bad):
        return None
    flat = int(np.argmax(bad.ravel()))
    index = np.unravel_index(flat, lhs.shape)
    with np.errstate(invalid="ignore"):
        max_err = float(np.nanmax(np.where(np.isfinite(diff), diff, np.inf)))
    return Divergence(
        name=name,
        index=tuple(int(i) for i in index),
        lhs=float(lhs[index]),
        rhs=float(rhs[index]),
        abs_err=float(diff[index]) if np.isfinite(diff[index]) else float("inf"),
        max_abs_err=max_err,
        num_bad=int(np.count_nonzero(bad)),
    )


def within(name: str, lhs, rhs, rtol: float) -> Divergence | None:
    """:func:`first_divergence` at ``rtol`` of each slot plus ``rtol`` of
    ``max|rhs|``: the contract of reassociated sums, whose error scales
    with the largest term rather than with the slot."""
    rhs = np.asarray(rhs, dtype=np.float64)
    scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    return first_divergence(name, lhs, rhs, rtol=rtol, atol=rtol * scale)


def mismatch(name: str, got: float, want: float) -> Divergence:
    """A count or bound that does not hold (``got`` against ``want``), as a
    one-slot :class:`Divergence`."""
    err = abs(got - want)
    return Divergence(
        name=name, index=(0,), lhs=got, rhs=want, abs_err=err, max_abs_err=err, num_bad=1
    )


def collect(found) -> list[Divergence]:
    """The comparisons of ``found`` that failed (the ``None``s dropped)."""
    return [d for d in found if d is not None]
