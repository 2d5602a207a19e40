"""Trace exporters: Chrome trace-event JSON and ASCII summaries.

Chrome trace-event files load directly in Perfetto (https://ui.perfetto.
dev) or ``chrome://tracing``: each span becomes a ``"ph": "X"``
*complete* event with microsecond ``ts``/``dur``, the SPMD rank as the
``pid`` and the recording thread as the ``tid`` -- the same layout the
kokkos-tools "chrome connector" and NVTX exporters produce, so the
Newton timeline, per-kernel ``parallel_for`` spans and per-neighbor
halo exchanges render as a nested flame graph.

The ASCII renderings reuse :func:`repro.perf.report.format_table` so
profile output reads like the rest of the benchmark harness.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "summary_table",
    "ascii_flame",
    "metrics_table",
]


def to_chrome_trace(
    spans,
    metrics: dict | None = None,
    process_labels: dict | None = None,
    series=None,
    counter_pid: int = 0,
) -> dict:
    """Build the Chrome trace-event document for a span list.

    ``metrics`` (a :meth:`MetricsRegistry.snapshot` dict) rides along in
    ``otherData`` where Perfetto surfaces it as trace metadata.
    ``process_labels`` maps pid -> display name (default ``rank <pid>``).
    ``series`` (a :class:`~repro.observability.timeseries.SeriesRegistry`)
    exports each convergence series as ``"ph": "C"`` counter events on
    ``counter_pid`` -- Perfetto plots them as value tracks under the
    span timeline, so residual histories line up with the Newton/GMRES
    spans that produced them.  Points stamped before the trace clock's
    zero (recorded outside the session) are dropped: counter events
    must share the spans' non-negative time basis.
    """
    events = []
    seen: set[tuple[int, int]] = set()
    pids: set[int] = set()
    for s in spans:
        pids.add(s.pid)
        if (s.pid, s.tid) not in seen:
            seen.add((s.pid, s.tid))
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": {"name": f"thread {s.tid}"},
                }
            )
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": s.ts_us,
                "dur": s.dur_us,
                "pid": s.pid,
                "tid": s.tid,
                "args": dict(s.args, span_id=s.id, parent_id=s.parent, depth=s.depth),
            }
        )
    if series is not None:
        for ts in series.all():
            label = ",".join(f"{k}={v}" for k, v in sorted(ts.labels.items()))
            track = f"{ts.name}{{{label}}}" if label else ts.name
            for ts_us, _t_unix, value in ts.points:
                if ts_us < 0.0:
                    continue
                pids.add(counter_pid)
                events.append(
                    {
                        "name": track,
                        "ph": "C",
                        "ts": ts_us,
                        "pid": counter_pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
    labels = process_labels or {}
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": labels.get(pid, f"rank {pid}")},
            }
        )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics}
    return doc


def write_chrome_trace(
    path,
    spans,
    metrics: dict | None = None,
    process_labels: dict | None = None,
    series=None,
    counter_pid: int = 0,
) -> Path:
    """Write the Chrome trace JSON (creates parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = to_chrome_trace(
        spans, metrics=metrics, process_labels=process_labels, series=series, counter_pid=counter_pid
    )
    path.write_text(json.dumps(doc) + "\n")
    return path


def _root_seconds(spans) -> float:
    """Wall time a share is taken of: the sum of the root spans."""
    return sum(s.dur_s for s in spans if s.parent == -1)


def summary_table(spans) -> str:
    """Per-name rollup table (top 30): count, total, mean, share of the trace."""
    # deferred: repro.perf pulls in gpusim/core, which dispatch through
    # repro.kokkos.parallel -- an import-time cycle with the tracer
    from repro.perf.report import format_table

    agg: dict[str, list] = {}
    for s in spans:
        a = agg.setdefault(s.name, [s.cat, 0, 0.0])
        a[1] += 1
        a[2] += s.dur_s
    wall_s = _root_seconds(spans)
    rows = []
    for name, (cat, count, total) in sorted(agg.items(), key=lambda kv: -kv[1][2])[:30]:
        share = total / wall_s if wall_s > 0 else 0.0
        rows.append([name, cat, count, total, total / count, f"{share:.1%}"])
    return format_table(
        ["span", "cat", "count", "total [s]", "mean [s]", "share"],
        rows,
        title="Span summary (by total time)",
    )


def ascii_flame(spans) -> str:
    """Aggregated call-path flame rendering of a span list.

    Spans are merged by (path of names from the root), each line showing
    an indentation-coded path segment, its inclusive total, and a bar
    proportional to its share of the trace -- a text stand-in for the
    Perfetto flame graph.  Shares are of the sum of the root spans, the
    same rule as :func:`summary_table`; paths below 0.2 % are pruned.
    """
    by_id = {s.id: s for s in spans}

    def path_of(s) -> tuple[str, ...]:
        names = [s.name]
        seen = {s.id}
        while s.parent != -1:
            s = by_id.get(s.parent)
            if s is None or s.id in seen:
                break
            seen.add(s.id)
            names.append(s.name)
        return tuple(reversed(names))

    totals: dict[tuple[str, ...], list] = {}
    for s in spans:
        a = totals.setdefault(path_of(s), [0, 0.0])
        a[0] += 1
        a[1] += s.dur_s
    wall_s = _root_seconds(spans)

    lines = ["flame (inclusive totals; bar = share of trace)"]
    for path in sorted(totals, key=lambda p: (p[:-1], -totals[p][1])):
        count, total = totals[path]
        share = total / wall_s if wall_s > 0 else 0.0
        if share < 0.002:
            continue
        bar = "#" * max(1, int(round(share * 40)))
        indent = "  " * (len(path) - 1)
        lines.append(f"{total:10.4f}s {share:6.1%} x{count:<5d} {indent}{path[-1]} {bar}")
    return "\n".join(lines)


def metrics_table(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as text tables."""
    from repro.perf.report import format_table  # deferred, see summary_table

    parts = []
    counters = snapshot.get("counters", {})
    if counters:
        parts.append(
            format_table(
                ["counter", "value"],
                [[k, v] for k, v in counters.items()],
                title="Metrics: counters",
            )
        )
    gauges = snapshot.get("gauges", {})
    if gauges:
        parts.append(format_table(["gauge", "value"], [[k, v] for k, v in gauges.items()], title="Metrics: gauges"))
    hists = snapshot.get("histograms", {})
    if hists:
        parts.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p95", "min", "max", "sum"],
                [
                    [k, h["count"], h["mean"], h.get("p50", 0.0), h.get("p95", 0.0), h["min"], h["max"], h["sum"]]
                    for k, h in hists.items()
                ],
                title="Metrics: histograms",
            )
        )
    return "\n\n".join(parts) if parts else "(no metrics recorded)"
