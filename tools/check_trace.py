#!/usr/bin/env python
"""Minimal schema check for a ``python -m repro profile`` Chrome trace.

Stdlib-only (CI runs it right after the profile step):

.. code-block:: bash

    python -m repro profile --out /tmp/trace.json
    python tools/check_trace.py /tmp/trace.json

Validates that the file is JSON, ``traceEvents`` is a non-empty list,
every complete ("ph": "X") event carries the required fields with
non-negative microsecond timestamps, and the trace actually contains
the solve structure a profile run promises: ``newton.step`` phase spans
and at least one kernel-category span (one per ``parallel_for``).

Attribution-era checks (PR 8):

* counter ("ph": "C") events -- convergence series exported alongside
  spans -- must carry a non-negative ``ts`` and a dict ``args`` of
  numeric values;
* span ``args.roofline`` annotations must carry every required numeric
  field (bytes/flops/ai/roof_frac/bw_frac, all finite and
  non-negative) plus a ``basis`` of ``modeled`` or ``wall``;
* stitched SPMD traces must map rank to Chrome pid: any X event whose
  ``args`` carry an integer ``rank`` must live on ``pid == rank``.

Every span's ``cat`` must be one the tracer emits (``SPAN_CATEGORIES``):
a misspelled category, or one left over from a removed emitter
(``copy``, ``fence``, ``region``, ``function``), fails.

Service traces: a ``serve.lane_wait`` span (a worker waiting for the
pool's numerics lane) must lie inside a ``serve.execute`` span of the
same thread -- lane wait is part of a request's execution, not idle time.

Exits nonzero (with a reason on stderr) on any violation.
"""

from __future__ import annotations

import json
import math
import sys

# metadata ("ph": "M") events legitimately omit ts/dur
REQUIRED_FIELDS = ("name", "ph", "pid", "tid")

#: span categories the tracer can emit: solver phases, ``parallel_for``
#: kernels, evaluators, SPMD halo/compute, gpusim runs
SPAN_CATEGORIES = ("phase", "kernel", "evaluator", "halo", "compute", "gpusim")

ROOFLINE_NUMERIC_FIELDS = ("bytes", "flops", "ai", "roof_frac", "bw_frac")
ROOFLINE_BASES = ("modeled", "wall")


def _check_counter(i: int, e: dict, errors: list[str]) -> None:
    ts = e.get("ts")
    if not isinstance(ts, (int, float)) or ts < 0:
        errors.append(f"counter event {i} ({e.get('name')}): bad ts {ts!r}")
    args = e.get("args")
    if not isinstance(args, dict) or not args:
        errors.append(f"counter event {i} ({e.get('name')}): args must be a non-empty dict")
        return
    for k, v in args.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(
                f"counter event {i} ({e.get('name')}): non-numeric series value {k}={v!r}"
            )


def _check_roofline(i: int, e: dict, errors: list[str]) -> None:
    r = e["args"]["roofline"]
    if not isinstance(r, dict):
        errors.append(f"event {i} ({e.get('name')}): roofline arg is not a dict")
        return
    for f in ROOFLINE_NUMERIC_FIELDS:
        v = r.get(f)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v) or v < 0:
            errors.append(
                f"event {i} ({e.get('name')}): roofline field {f!r} bad value {v!r}"
            )
    if r.get("basis") not in ROOFLINE_BASES:
        errors.append(
            f"event {i} ({e.get('name')}): roofline basis {r.get('basis')!r} "
            f"not in {ROOFLINE_BASES}"
        )


def check_trace(path: str) -> list[str]:
    """Return a list of schema violations (empty = trace is valid)."""
    errors: list[str] = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing, not a list, or empty"]

    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        errors.append('no complete ("ph": "X") span events')
    for i, e in enumerate(events):
        for f in REQUIRED_FIELDS:
            if f not in e:
                errors.append(f"event {i} missing field {f!r}: {e}")
                break
        if e.get("ph") == "X":
            ts, dur = e.get("ts"), e.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"event {i} ({e.get('name')}): bad ts {ts!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i} ({e.get('name')}): bad dur {dur!r}")
            if e.get("cat") not in SPAN_CATEGORIES:
                errors.append(
                    f"event {i} ({e.get('name')}): unknown span category {e.get('cat')!r}"
                )
            args = e.get("args")
            if isinstance(args, dict):
                rank = args.get("rank")
                if isinstance(rank, int) and not isinstance(rank, bool) and e.get("pid") != rank:
                    errors.append(
                        f"event {i} ({e.get('name')}): rank {rank} on pid "
                        f"{e.get('pid')} -- stitched traces must map rank to pid"
                    )
                if "roofline" in args:
                    _check_roofline(i, e, errors)
        elif e.get("ph") == "C":
            _check_counter(i, e, errors)
        if len(errors) >= 20:
            errors.append("... (further errors suppressed)")
            break

    executes = [e for e in complete if e.get("name") == "serve.execute"]
    for e in complete:
        if e.get("name") == "serve.lane_wait" and not any(
            (x["pid"], x["tid"]) == (e["pid"], e["tid"])
            and x["ts"] <= e["ts"] and e["ts"] + e["dur"] <= x["ts"] + x["dur"]
            for x in executes
        ):
            errors.append(f"serve.lane_wait span at ts {e.get('ts')} is outside every serve.execute")

    names = {e.get("name") for e in complete}
    cats = {e.get("cat") for e in complete}
    if "newton.step" not in names:
        errors.append(f"no newton.step spans in trace (names: {sorted(names)[:10]}...)")
    if "velocity.solve" not in names:
        errors.append("no velocity.solve span in trace")
    if "kernel" not in cats:
        errors.append(f"no kernel-category spans in trace (cats: {sorted(map(str, cats))})")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/check_trace.py <trace.json>", file=sys.stderr)
        return 2
    errors = check_trace(argv[1])
    if errors:
        for e in errors:
            print(f"check_trace: {e}", file=sys.stderr)
        return 1
    with open(argv[1]) as f:
        n = len(json.load(f)["traceEvents"])
    print(f"check_trace: OK ({n} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
