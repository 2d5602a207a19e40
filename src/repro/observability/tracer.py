"""Span tracer: nested wall-time intervals with attributes.

The tracer is the timeline half of the observability layer.  Code wraps
phases in ``tracer.span(name, **attrs)`` context managers, and
``parallel_for`` opens a ``cat="kernel"`` span around each dispatch
while the tracer records, so one trace interleaves solver phases
(Newton steps, GMRES cycles, halo exchanges) with per-kernel intervals
exactly the way a Kokkos Tools connector interleaves regions with
kernel callbacks.

Cost model: a span handle *always* measures its duration (two
``perf_counter_ns`` reads) so phase accounting stays correct, but spans
are stored -- with ids, parent links and depth for the exporters --
only while ``recording`` is on.  Outside a profiling session the solver
pays a handle allocation and two clock reads per phase and nothing
grows without bound.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "SpanTracer", "get_tracer"]


@dataclass
class Span:
    """One closed interval on the trace timeline.

    ``ts_us`` / ``dur_us`` are microseconds on the tracer's monotonic
    clock (zero at the last :meth:`SpanTracer.clear`), the unit Chrome
    trace events use.  ``pid`` is 0 until :func:`~repro.observability.
    stitch.stitch_spans` maps ranks to pids, and ``tid`` a small
    per-thread integer; ``parent`` is the id of the enclosing span on
    the same thread (-1 for roots) and ``depth`` its nesting level.
    """

    id: int
    name: str
    cat: str
    ts_us: float
    dur_us: float
    pid: int
    tid: int
    depth: int
    parent: int
    args: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us

    @property
    def dur_s(self) -> float:
        return self.dur_us * 1.0e-6


class _SpanHandle:
    """Context manager for one span; reusable timing even when not recording."""

    __slots__ = ("tracer", "name", "cat", "args", "id", "parent", "depth", "_t0_ns", "dur_ns")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.id = -1
        self.dur_ns = 0

    def __enter__(self) -> "_SpanHandle":
        tr = self.tracer
        if tr.recording:
            stack = tr._stack()
            self.id = tr._next_span_id()
            if stack:
                self.parent = stack[-1].id
                self.depth = stack[-1].depth + 1
            else:
                self.parent = -1
                self.depth = 0
            stack.append(self)
        self._t0_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter_ns()
        self.dur_ns = t1 - self._t0_ns
        tr = self.tracer
        if self.id >= 0:
            stack = tr._stack()
            if stack and stack[-1] is self:
                stack.pop()
            if tr.recording:
                tr._emit(self, t1)

    @property
    def dur_s(self) -> float:
        """Elapsed seconds; valid after the ``with`` block exits."""
        return self.dur_ns * 1.0e-9


class SpanTracer:
    """Collects :class:`Span` intervals on a shared monotonic clock."""

    def __init__(self):
        self.recording = False
        self.spans: list[Span] = []
        self._epoch_ns = time.perf_counter_ns()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._tls = threading.local()
        self._tid_map: dict[int, int] = {}

    # -- internals ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _next_span_id(self) -> int:
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
            return sid

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tid_map.get(ident)
        if tid is None:
            tid = self._tid_map[ident] = len(self._tid_map)
        return tid

    def _emit(self, handle: _SpanHandle, t1_ns: int) -> None:
        ts_us = (t1_ns - handle.dur_ns - self._epoch_ns) * 1.0e-3
        self.spans.append(
            Span(
                id=handle.id,
                name=handle.name,
                cat=handle.cat,
                ts_us=ts_us,
                dur_us=handle.dur_ns * 1.0e-3,
                pid=0,
                tid=self._tid(),
                depth=handle.depth,
                parent=handle.parent,
                args=handle.args,
            )
        )

    # -- public API -----------------------------------------------------
    def span(self, name: str, cat: str = "phase", **args) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("newton.step", step=k):``."""
        return _SpanHandle(self, name, cat, args)

    @property
    def epoch_ns(self) -> int:
        """``perf_counter_ns`` reading at the trace clock's zero.

        ``perf_counter`` is the system-wide monotonic clock, so another
        process that clears its tracer to this epoch stamps its spans
        and series points on this tracer's timeline.
        """
        return self._epoch_ns

    def now_us(self) -> float:
        """Current time in microseconds on the trace clock.

        Zero at the last :meth:`clear`, the same basis as ``Span.ts_us``
        -- time-series points stamped with this align exactly with the
        span timeline and export directly as Chrome counter events.
        """
        return (time.perf_counter_ns() - self._epoch_ns) * 1.0e-3

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def clear(self, epoch_ns: int | None = None) -> None:
        """Drop recorded spans and restart the trace clock at zero.

        ``epoch_ns`` puts the zero at another tracer's :attr:`epoch_ns`
        instead of now.
        """
        self.spans = []
        self._next_id = 0
        self._tid_map = {}
        self._tls = threading.local()
        self._epoch_ns = time.perf_counter_ns() if epoch_ns is None else epoch_ns

    def adopt(self, spans: list[Span]) -> None:
        """Append spans another process recorded on this tracer's clock.

        Their ids and parent links are shifted past every id this tracer
        has handed out, so both sets stay unique in one trace.
        """
        if not spans:
            return
        with self._id_lock:
            base = self._next_id
            self._next_id += max(s.id for s in spans) + 1
        for s in spans:
            s.id += base
            if s.parent >= 0:
                s.parent += base
        self.spans.extend(spans)

    def aggregate(self) -> dict[str, dict]:
        """Per-name rollup of the recorded spans.

        Returns ``{name: {count, total_s, self_s, mean_s, min_s, max_s,
        cat}}`` sorted by descending total time -- the numbers the ASCII
        summary table and the hot-path bench report.  ``total_s`` is
        inclusive; ``self_s`` excludes time spent in child spans, so a
        regression planted on one span name moves that name's ``self_s``
        and not its ancestors' (what perfdiff ranks by).
        """
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.dur_s
        agg: dict[str, dict] = {}
        for s in self.spans:
            own = max(0.0, s.dur_s - child_s.get(s.id, 0.0))
            a = agg.get(s.name)
            if a is None:
                agg[s.name] = {
                    "count": 1,
                    "total_s": s.dur_s,
                    "self_s": own,
                    "min_s": s.dur_s,
                    "max_s": s.dur_s,
                    "cat": s.cat,
                }
            else:
                a["count"] += 1
                a["total_s"] += s.dur_s
                a["self_s"] += own
                a["min_s"] = min(a["min_s"], s.dur_s)
                a["max_s"] = max(a["max_s"], s.dur_s)
        for a in agg.values():
            a["mean_s"] = a["total_s"] / a["count"]
        return dict(sorted(agg.items(), key=lambda kv: -kv[1]["total_s"]))


_TRACER = SpanTracer()


def get_tracer() -> SpanTracer:
    """The process-wide default tracer the solver stack emits to."""
    return _TRACER
