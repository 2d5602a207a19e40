"""First-class observability: spans, metrics, trace export.

The measurement layer the paper's methodology presumes (per-kernel time
per invocation, bytes moved, phase breakdowns):

* :mod:`~repro.observability.tracer` -- nested wall-time spans with
  thread labels and key=value attributes: every ``parallel_for``
  dispatch inside :func:`tracing` is a ``cat="kernel"`` span, and the
  non-Kokkos phases (assembly scatter, preconditioner setup, GMRES
  iterations, halo exchange, gpusim runs) share its timeline;
* :mod:`~repro.observability.metrics` -- counters / gauges / histograms
  with a single JSON-able ``snapshot()`` embedded in
  ``VelocitySolution.diagnostics["observability"]``;
* :mod:`~repro.observability.export` -- Chrome trace-event JSON (open
  in Perfetto; spans as X events, series as C events) and ASCII
  flame/summary tables;
* :mod:`~repro.observability.timeseries` -- timestamped convergence
  series (residual histories, recovery events, worker revivals) aligned
  with the span clock;
* :mod:`~repro.observability.attribution` -- roofline annotation of
  priced spans (AI, %-of-roof vs a GPU spec) plus rocprof-formula byte
  reconciliation;
* :mod:`~repro.observability.stitch` -- SPMD trace stitching (rank ->
  Chrome pid) and the halo-wait vs compute critical-path split;
* :mod:`~repro.observability.openmetrics` -- OpenMetrics text
  exposition of metrics + series, with a stdlib validating parser;
* :mod:`~repro.observability.perfdiff` -- snapshot differ behind
  ``python -m repro perfdiff`` (stdlib-only: usable even when the
  package under diagnosis is broken).

Quick start::

    from repro import observability as obs

    with obs.tracing() as tracer:
        solution = problem.solve()
    obs.write_chrome_trace("trace.json", tracer.spans,
                           metrics=obs.get_metrics().snapshot())

or from the command line: ``python -m repro profile --out trace.json``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability.export import (
    ascii_flame,
    metrics_table,
    summary_table,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.observability.attribution import (
    annotate_roofline,
    reconcile_rocprof_bytes,
    roofline_table,
    span_bytes,
)
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry, get_metrics
from repro.observability.openmetrics import parse_exposition, render, write_openmetrics
from repro.observability.perfdiff import diff_documents, format_diff, load_perf_document
from repro.observability.stitch import (
    DRIVER_PID,
    critical_path_table,
    halo_compute_split,
    stitch_process_labels,
    stitch_spans,
)
from repro.observability.timeseries import SeriesRegistry, TimeSeries, get_series
from repro.observability.tracer import Span, SpanTracer, get_tracer

__all__ = [
    "Span",
    "SpanTracer",
    "get_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "tracing",
    "to_chrome_trace",
    "write_chrome_trace",
    "summary_table",
    "ascii_flame",
    "metrics_table",
    "TimeSeries",
    "SeriesRegistry",
    "get_series",
    "annotate_roofline",
    "roofline_table",
    "reconcile_rocprof_bytes",
    "span_bytes",
    "DRIVER_PID",
    "stitch_spans",
    "stitch_process_labels",
    "halo_compute_split",
    "critical_path_table",
    "render",
    "write_openmetrics",
    "parse_exposition",
    "load_perf_document",
    "diff_documents",
    "format_diff",
]


@contextmanager
def tracing():
    """Profiling session: record spans (kernel dispatches included) for a block.

    Clears the process-wide tracer and turns recording on, which is what
    makes each ``parallel_for`` a ``cat="kernel"`` span on the same
    timeline.  Yields the tracer; after the block, ``tracer.spans``
    holds the trace and recording is off again.
    """
    t = get_tracer()
    t.clear()
    t.start()
    try:
        yield t
    finally:
        t.stop()
