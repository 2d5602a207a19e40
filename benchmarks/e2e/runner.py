"""One run of one workload in this process: set-up, timed window, metrics.

``--trace 0`` (the *untraced pass*): one set-up, then operations run for
``seconds`` with the program untouched -- its tracer off (the default),
no wrappers installed -- and give the end-to-end metrics.

``--trace 1`` (the *traced pass*): one set-up plus the host calibration,
then untraced and traced slices alternate for ``seconds``.  The traced
slices give the per-layer self times, all slices give the counts, and
the two kinds of slice side by side give the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import WORK_ROOT, host, layers, workloads
from benchmarks.e2e.trace import Recorder

__all__ = ["run_workload"]

clock = time.perf_counter


def _end_to_end(wl, results, window_s: float, setup_s: float) -> dict:
    verified = [r.wall_s for r in results if r.ok]
    return {
        "setup_s": setup_s,
        # a run with no verified operation has no time to report; it is
        # flagged through ``failed``/``correct``, and the value only has
        # to be a number
        "time_to_solution_s": statistics.median(verified) if verified else window_s,
        "throughput_ops_s": len(verified) * wl.work_per_op / window_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, t_start: float
) -> tuple[dict, dict, list | None]:
    """Run one workload; returns ``(result, detail, span_rows)``.

    ``result`` is the object the benchmark contract prints; ``detail``
    adds what ``python -m benchmarks.e2e run`` and ``compare`` need
    (operation samples, exact counts, host description); ``span_rows``
    is every span of the traced pass (``None`` untraced).  ``t_start``
    is the ``perf_counter`` reading taken when the process started.
    """
    sizes = workloads.SMOKE if smoke else workloads.FULL
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": host.describe(),
    }
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK_ROOT) as workdir:
        wl = workloads.make(name, seed, sizes, Path(workdir))
        wl.setup()
        setup_s = clock() - t_start  # process start -> first timed operation
        try:
            rows = None
            if trace:
                metrics, results, rows = _traced_pass(wl, seconds, detail)
                units = {n: u for n, u, *_ in layers.PER_LAYER}
            else:
                t0 = clock()
                results = wl.window(seconds)
                metrics = _end_to_end(wl, results, clock() - t0, setup_s)
                units = {n: u for n, u, *_ in layers.END_TO_END}
        finally:
            wl.teardown()

    failed = [r for r in results if not r.ok]
    detail["op_samples_s"] = [r.wall_s for r in results if r.ok and not r.traced]
    detail["failures"] = [r.note for r in failed]
    if wl.sequential:
        detail["exact"] = {k: results[0].counts.get(k, 0) for k in layers.EXACT}
        detail["counts_repeat"] = all(r.counts == results[0].counts for r in results if r.ok)
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, detail, rows


def _traced_pass(wl, seconds: float, detail: dict):
    detail["calibration"] = cal = host.triad_gbs(smoke=detail["smoke"])
    hostinfo = {**detail["host"], "triad_gbs": cal["triad_gbs"]}
    rec = Recorder()
    slice_s = wl.trace_slice_s(seconds)
    results = []
    traced_wall = 0.0
    t_begin = clock()
    # an untraced slice then a traced one, in pairs, so that the two
    # kinds see the same number of operations and the same drift
    while not results or clock() - t_begin < seconds:
        results += wl.window(slice_s)
        t0 = clock()
        with rec.installed():
            results += wl.window(slice_s, rec)
        traced_wall += clock() - t0
    values = layers.per_layer(wl, results, rec, hostinfo, traced_wall)
    traced_ok = [r.wall_s for r in results if r.traced and r.ok]
    if wl.sequential and traced_ok:
        detail["reconcile_ratio"] = layers.reconcile(values, statistics.fmean(traced_ok))
    detail["spans"] = {
        name: {"incl_s": c[0], "self_s": c[1], "calls": c[2]}
        for name, c in sorted(layers.span_table(rec).items())
    }
    return values, results, rec.rows()
