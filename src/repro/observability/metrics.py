"""Metrics registry: counters, gauges and histograms with one snapshot.

The scalar half of the observability layer.  Where the span tracer
answers "when did it run and for how long", the metrics registry
answers "how many and how much": Newton steps, GMRES iterations per
linear solve, halo bytes per channel and per neighbor pair, evaluator
sweeps, gpusim cache hit rates.

Instruments are created on demand (``registry.counter("gmres.
iterations")``) and accumulate process-wide until :meth:`MetricsRegistry.
reset`; ``snapshot()`` returns one JSON-able dict that the velocity
solver embeds in ``VelocitySolution.diagnostics["observability"]`` and
the exporters attach to the Chrome trace.  All updates are cheap enough
to stay always-on (an int add / float compare) -- there is no disabled
state to keep consistent.

Thread-safety contract (the SPMD worker-pool audit): ``Counter.inc``
and ``Histogram.observe`` are read-modify-write sequences, so each
instrument carries its own lock -- an uncontended CPython lock is a few
tens of nanoseconds, noise next to the numpy work between updates, and
it makes concurrent increments lossless (regression-tested in
``tests/unit/test_observability.py``).  ``Gauge.set`` is a single
attribute store -- atomic under the GIL by itself -- and stays lockless;
last-write-wins among racing writers is the gauge semantic anyway.
Instrument *creation* is guarded by the registry lock as before.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "get_metrics"]


class Counter:
    """Monotonically increasing count (events, bytes, iterations)."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-write-wins scalar (occupancy fraction, imbalance, rates)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, v: float) -> None:
        # single store: atomic under the GIL, last-write-wins by design
        self.value = float(v)


class Histogram:
    """Streaming summary of an observed distribution.

    Tracks count / sum / min / max / last plus the sum of squares for
    mean and standard deviation, and a bounded sample reservoir for
    p50/p95 quantiles.  The reservoir is *deterministically* decimated
    (keep every Nth observation, doubling N when :data:`RESERVOIR_CAP`
    fills) rather than randomly sampled -- same inputs, same snapshot,
    the property every bitwise-reproducibility test in this repo leans
    on.  Memory stays bounded no matter how hot the call site.
    """

    #: reservoir decimation threshold (kept samples, not observations)
    RESERVOIR_CAP = 1024

    __slots__ = ("count", "total", "sq_total", "min", "max", "last",
                 "_samples", "_stride", "_pending", "_lock")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.sq_total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self._samples: list[float] = []
        self._stride = 1
        self._pending = 0
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            self.count += 1
            self.total += v
            self.sq_total += v * v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self.last = v
            self._pending += 1
            if self._pending >= self._stride:
                self._pending = 0
                self._samples.append(v)
                if len(self._samples) >= self.RESERVOIR_CAP:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    def state(self) -> tuple:
        """Raw state for :meth:`merge` into a histogram of another process."""
        with self._lock:
            return (self.count, self.total, self.sq_total, self.min, self.max,
                    self.last, list(self._samples))

    def merge(self, state: tuple) -> None:
        """Add the observations behind another histogram's :meth:`state`."""
        count, total, sq_total, lo, hi, last, samples = state
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += total
            self.sq_total += sq_total
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)
            self.last = last
            self._samples.extend(samples)
            while len(self._samples) >= self.RESERVOIR_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2

    def quantile(self, q: float) -> float:
        """Quantile estimate from the kept reservoir (0 when empty)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[idx]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.sq_total / self.count - self.mean**2
        return math.sqrt(max(0.0, var))

    def summary(self) -> dict:
        if self.count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "stddev": 0.0, "last": 0.0, "p50": 0.0, "p95": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "stddev": self.stddev,
            "last": self.last,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    Naming convention (see DESIGN.md): dot-separated subsystem paths,
    with dynamic labels as trailing dotted components, e.g.
    ``halo.bytes.vector_gather`` or ``halo.sent.r0.to.r1``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram())
        return h

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument (cumulative since reset)."""
        return {
            "counters": {k: v.value for k, v in sorted(self._counters.items())},
            "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
            "histograms": {k: v.summary() for k, v in sorted(self._histograms.items())},
        }

    def export(self) -> dict:
        """Raw instrument state, for :meth:`merge` in another process's registry."""
        return {
            "counters": {k: v.value for k, v in self._counters.items()},
            "gauges": {k: v.value for k, v in self._gauges.items()},
            "histograms": {k: v.state() for k, v in self._histograms.items()},
        }

    def merge(self, exported: dict) -> None:
        """Fold another registry's :meth:`export` into this one.

        Counters add, histograms pool their observations and gauges take
        the other registry's value (last write wins, as within one).
        """
        for name, value in exported["counters"].items():
            self.counter(name).inc(value)
        for name, value in exported["gauges"].items():
            self.gauge(name).set(value)
        for name, state in exported["histograms"].items():
            self.histogram(name).merge(state)

    def reset(self) -> None:
        """Drop all instruments (call sites re-create them on next use)."""
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _METRICS
