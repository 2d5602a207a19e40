"""Opt-in numerical sanitizer with op-level provenance.

Floating-point pathologies in an ice-sheet solve rarely announce
themselves where they are created: a negative argument slipping into a
Glen's-law power produces a NaN that only surfaces steps later as a
diverged Newton iteration.  The sanitizer instruments the scalar-type
seam (:mod:`repro.autodiff.ops`, where every templated physics
evaluation funnels through) and the solver stack (GMRES orthogonali-
zation, Newton residual norms) to trap three pathologies *at the op
that created them*:

* **non-finite creation** -- a NaN/Inf appearing in a result whose
  operands were all finite (propagation of an already-poisoned value is
  deliberately not re-reported);
* **catastrophic cancellation** -- a subtraction-like combination whose
  result magnitude collapses relative to its operands (modified
  Gram-Schmidt losing orthogonality is the classic solver case);
* **denormal flush risk** -- subnormal values entering a result: exact
  on the host, but flushed to zero by GPU denormal-flush modes, i.e. a
  latent host/device divergence.

Zero-overhead contract (the same one-flag fast-path idiom as the span
tracer's ``recording`` and the resilience fault plane): with the
sanitizer disarmed every instrumented site pays exactly one attribute
read.  Arm it with :func:`sanitizing`::

    with sanitizing() as san:
        problem.solve()
    print(san.summary())

``mode="raise"`` turns the first trapped event into a
:class:`SanitizerError` naming the op and site.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.autodiff.sfad import FadArray

__all__ = [
    "SanitizerError",
    "SanitizerEvent",
    "NumericalSanitizer",
    "sanitizer",
    "sanitizing",
]

#: smallest positive normal double: anything smaller (and nonzero) is
#: subnormal and at risk of a flush-to-zero on device backends
_TINY = float(np.finfo(np.float64).tiny)


class SanitizerError(FloatingPointError):
    """Raised in ``mode="raise"`` when an event is trapped."""

    def __init__(self, event: "SanitizerEvent"):
        super().__init__(event.describe())
        self.event = event


@dataclass(frozen=True)
class SanitizerEvent:
    """One trapped pathology with its provenance."""

    kind: str  # "nonfinite" | "cancellation" | "denormal"
    op: str  # creating operation, e.g. "ops.log", "gmres.mgs"
    site: str  # caller-supplied context, e.g. "step 3"
    count: int  # offending scalar slots in this result
    detail: dict = field(default_factory=dict)

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        where = f" at {self.site}" if self.site else ""
        return f"[{self.kind}] {self.op}{where}: {self.count} slot(s){' (' + extra + ')' if extra else ''}"


def _parts(x):
    """Value (and derivative) ndarray components of an operand/result."""
    if isinstance(x, FadArray):
        return (x.val, x.dx)
    if isinstance(x, np.ndarray):
        return (x,)
    if isinstance(x, (float, int)):
        return (np.float64(x),)
    return ()


def _all_finite(x) -> bool:
    return all(bool(np.all(np.isfinite(p))) for p in _parts(x))


class NumericalSanitizer:
    """Process-wide sanitizer state; disarmed (``active=False``) by default.

    ``check``/``check_cancellation`` must only be called behind an
    ``if sanitizer().active:`` guard -- the guard *is* the fast path.
    """

    def __init__(self):
        self.active = False
        self.mode = "record"  # "record" | "raise"
        self.trap_denormals = True
        #: |a-b| < cancellation_ratio * max(|a|,|b|) flags cancellation
        self.cancellation_ratio = 1.0e-12
        self.events: list[SanitizerEvent] = []
        self.counts = {"nonfinite": 0, "cancellation": 0, "denormal": 0}

    # -- lifecycle -----------------------------------------------------
    def arm(
        self,
        mode: str = "record",
        trap_denormals: bool = True,
        cancellation_ratio: float = 1.0e-12,
    ) -> "NumericalSanitizer":
        if mode not in ("record", "raise"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.trap_denormals = trap_denormals
        self.cancellation_ratio = float(cancellation_ratio)
        self.reset()
        self.active = True
        return self

    def disarm(self) -> None:
        self.active = False

    def reset(self) -> None:
        self.events.clear()
        self.counts = {"nonfinite": 0, "cancellation": 0, "denormal": 0}

    # -- event plumbing ------------------------------------------------
    def _emit(self, kind: str, op: str, site: str, count: int, **detail) -> None:
        event = SanitizerEvent(kind, op, site, int(count), dict(detail))
        self.events.append(event)
        self.counts[kind] += 1
        if self.mode == "raise":
            raise SanitizerError(event)

    # -- checks --------------------------------------------------------
    def check(self, op: str, out, *operands, site: str = "") -> None:
        """Trap non-finite creation and denormal content in ``out``.

        Non-finite slots are a *creation* event only when every operand
        was finite; otherwise the poison predates this op and the
        creating site already reported it.
        """
        nonfinite = 0
        denormal = 0
        for part in _parts(out):
            finite = np.isfinite(part)
            nonfinite += int(np.size(part) - np.count_nonzero(finite))
            if self.trap_denormals:
                a = np.abs(part)
                denormal += int(np.count_nonzero((a > 0.0) & (a < _TINY)))
        if nonfinite and all(_all_finite(o) for o in operands):
            self._emit("nonfinite", op, site, nonfinite)
        if denormal:
            self._emit("denormal", op, site, denormal)

    def check_cancellation(self, op: str, a, b, out, site: str = "") -> None:
        """Trap loss of significance in a subtraction-like result.

        ``a`` and ``b`` are the operand magnitudes (arrays or scalars),
        ``out`` the combined result; slots where the result shrinks
        below ``cancellation_ratio`` of the largest operand have lost
        essentially every significant digit.
        """
        av = np.abs(np.asarray(a, dtype=np.float64))
        bv = np.abs(np.asarray(b, dtype=np.float64))
        ov = np.abs(np.asarray(out, dtype=np.float64))
        scale = np.maximum(av, bv)
        bad = (scale > 0.0) & (ov < self.cancellation_ratio * scale)
        n = int(np.count_nonzero(bad))
        if n:
            self._emit(
                "cancellation", op, site, n,
                worst_ratio=float(np.min(np.where(bad, ov / np.where(scale > 0, scale, 1.0), np.inf))),
            )

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict:
        return {
            "events": len(self.events),
            **dict(self.counts),
            "by_op": self._by_op(),
        }

    def _by_op(self) -> dict:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.op] = out.get(e.op, 0) + 1
        return out


_SANITIZER = NumericalSanitizer()


def sanitizer() -> NumericalSanitizer:
    """The process-wide sanitizer instrumented sites consult."""
    return _SANITIZER


@contextmanager
def sanitizing(
    mode: str = "record",
    trap_denormals: bool = True,
    cancellation_ratio: float = 1.0e-12,
):
    """Arm the sanitizer for a block; always disarms on exit."""
    san = _SANITIZER
    if san.active:
        raise RuntimeError("sanitizer is already armed")
    san.arm(mode=mode, trap_denormals=trap_denormals, cancellation_ratio=cancellation_ratio)
    try:
        yield san
    finally:
        san.disarm()
