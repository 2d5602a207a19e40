"""Convergence time-series: first-class timestamped value streams.

Counters and histograms (``observability/metrics.py``) answer "how many
in total"; the series registry answers "how did it evolve": Newton and
GMRES residual histories, recovery-ladder events, serve worker
revivals -- each a named, labeled stream of ``(timestamp, value)``
points.  These are the signals a perf-attribution pass plots against
the span timeline: a GMRES residual plateau *inside* a slow
``gmres.solve`` span is the difference between "the preconditioner got
worse" and "the machine got slower".

Each point carries two clocks:

* ``ts_us`` -- microseconds on the span tracer's monotonic clock (zero
  at the last ``tracer.clear()``), so points align exactly with spans
  and export as Chrome trace counter events (``"ph": "C"``);
* ``t_unix`` -- Unix seconds, the timestamp OpenMetrics expositions
  carry.

Cost model mirrors the metrics registry: appends are always-on (a dict
lookup, a clock read, a list append) and memory is bounded -- each
series keeps at most :data:`TimeSeries.CAP` points by deterministic
stride decimation (keep every 2nd point and double the keep-stride when
full), so quantile-free history survives arbitrarily hot call sites.
``SeriesRegistry.disabled()`` turns every append into one attribute
read for overhead-sensitive A/B measurements.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.observability.tracer import get_tracer

__all__ = ["TimeSeries", "SeriesRegistry", "get_series"]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class TimeSeries:
    """One bounded stream of ``(ts_us, t_unix, value)`` points."""

    #: decimation threshold: at CAP kept points, every 2nd point is
    #: dropped and the keep-stride doubles (deterministic, no RNG)
    CAP = 4096

    __slots__ = ("name", "labels", "points", "count", "_stride", "_pending", "_lock")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.points: list[tuple[float, float, float]] = []
        self.count = 0  # observations offered, kept or not
        self._stride = 1
        self._pending = 0
        self._lock = threading.Lock()

    def append(self, value: float, ts_us: float | None = None, t_unix: float | None = None) -> None:
        """Record one observation (thread-safe, bounded memory)."""
        if ts_us is None:
            ts_us = get_tracer().now_us()
        if t_unix is None:
            t_unix = time.time()
        with self._lock:
            self.count += 1
            self._pending += 1
            if self._pending >= self._stride:
                self._pending = 0
                self.points.append((float(ts_us), float(t_unix), float(value)))
                if len(self.points) >= self.CAP:
                    self.points = self.points[::2]
                    self._stride *= 2

    def values(self) -> list[float]:
        return [p[2] for p in self.points]

    def to_dict(self) -> dict:
        """JSON-able dump: labels, total count, kept points."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "stride": self._stride,
            "points": [[p[0], p[1], p[2]] for p in self.points],
        }


class SeriesRegistry:
    """Named, labeled time-series created on first use.

    Naming follows the metrics convention (dot-separated subsystem
    paths); dynamic dimensions go in labels rather than the name, e.g.
    ``series("newton.residual", solve="velocity")`` or
    ``series("resilience.event", category="recovery", kind="step_rejection")``.
    """

    def __init__(self):
        self.active = True
        self._lock = threading.Lock()
        self._series: dict[tuple, TimeSeries] = {}

    def series(self, name: str, **labels) -> TimeSeries:
        key = (name, _label_key(labels))
        s = self._series.get(key)
        if s is None:
            with self._lock:
                s = self._series.setdefault(key, TimeSeries(name, labels))
        return s

    def record(self, name: str, value: float, **labels) -> None:
        """One-shot append honoring the ``active`` fast path."""
        if self.active:
            self.series(name, **labels).append(value)

    def export(self) -> list[tuple]:
        """``(name, labels, count, points)`` per series, for :meth:`merge` elsewhere."""
        return [(s.name, dict(s.labels), s.count, list(s.points)) for s in self.all()]

    def merge(self, exported: list[tuple]) -> None:
        """Append another registry's :meth:`export`, keeping its timestamps."""
        for name, labels, count, points in exported:
            s = self.series(name, **labels)
            for ts_us, t_unix, value in points:
                s.append(value, ts_us, t_unix)
            with s._lock:
                s.count += count - len(points)  # what the other side decimated

    def all(self) -> list[TimeSeries]:
        return [self._series[k] for k in sorted(self._series)]

    def get(self, name: str, **labels) -> TimeSeries | None:
        """Read a series without creating it (assertion-friendly)."""
        return self._series.get((name, _label_key(labels)))

    @contextmanager
    def disabled(self):
        """Suppress appends for a block (overhead A/B measurements)."""
        prev = self.active
        self.active = False
        try:
            yield self
        finally:
            self.active = prev

    def summary(self) -> dict:
        """Compact JSON-able rollup for ``diagnostics["observability"]``.

        One entry per (name, labels): observation count, first/last
        value -- enough to assert convergence shape without embedding
        whole histories in every solve's diagnostics.  O(series): every
        ``solve()`` embeds it, and reads only the two end points.
        """
        out = {}
        for s in self.all():
            label = ",".join(f"{k}={v}" for k, v in sorted(s.labels.items()))
            key = f"{s.name}{{{label}}}" if label else s.name
            points = s.points  # one list: decimation swaps it whole
            out[key] = {
                "count": s.count,
                "first": points[0][2] if points else 0.0,
                "last": points[-1][2] if points else 0.0,
            }
        return out

    def reset(self) -> None:
        """Drop all series (call sites re-create them on next use)."""
        with self._lock:
            self._series = {}


_SERIES = SeriesRegistry()


def get_series() -> SeriesRegistry:
    """The process-wide default series registry."""
    return _SERIES
