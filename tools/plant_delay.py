#!/usr/bin/env python
"""Plant a known slowdown in a Chrome trace, as if the span had slept.

The perfdiff negative control needs a trace in which one span name is
slower by a known amount, and nothing else changes.  This writes that
trace from a recorded one instead of sleeping in the traced run:

.. code-block:: bash

    python -m repro profile --out /tmp/trace.json
    python tools/plant_delay.py /tmp/trace.json /tmp/trace_slow.json gmres.iteration 0.001
    python -m repro perfdiff /tmp/trace.json /tmp/trace_slow.json

For each ``"ph": "X"`` event named NAME, the result is the trace that a
``SECONDS`` sleep just before that span closed would have produced on
its (pid, tid) lane:

* the event itself is ``SECONDS`` longer;
* every event that encloses it grows by the same amount;
* every event on the lane that starts at or after its original end
  (spans, counter samples) starts that much later.

Enclosure is read the way perfdiff reads it: events replayed in start
order, longest first at equal starts, on a stack per lane.  So the
planted span's self time grows by ``SECONDS`` per call and every other
span's self time is unchanged.  Event ``args`` are kept as recorded.

Stdlib-only, like ``tools/check_trace.py``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys

__all__ = ["plant_delay", "main"]


def plant_delay(doc: dict, name: str, seconds: float) -> None:
    """Slow every ``name`` span of the Chrome trace ``doc``, in place.

    Raises :class:`ValueError` when ``seconds`` is not positive and
    finite, or when no complete event is called ``name``.
    """
    if not (math.isfinite(seconds) and seconds > 0.0):
        raise ValueError(f"seconds must be positive and finite, got {seconds!r}")
    delay_us = seconds * 1.0e6
    lanes: dict[tuple, list] = {}
    for ev in doc["traceEvents"]:
        if "ts" in ev:
            lanes.setdefault((ev.get("pid", 0), ev.get("tid", 0)), []).append(ev)
    planted = 0
    for lane in lanes.values():
        spans = [ev for ev in lane if ev.get("ph") == "X"]
        spans.sort(key=lambda e: (float(e["ts"]), -float(e.get("dur", 0.0))))
        # (original end, the planted event and its open enclosers)
        points: list[tuple[float, list]] = []
        stack: list = []
        for ev in spans:
            ts = float(ev["ts"])
            while stack and ts >= float(stack[-1]["ts"]) + float(stack[-1].get("dur", 0.0)):
                stack.pop()
            stack.append(ev)
            if ev.get("name") == name:
                points.append((ts + float(ev.get("dur", 0.0)), list(stack)))
        planted += len(points)
        # an event moves by one delay per planted end at or before its
        # start, unless that sleep happened inside it
        ends = sorted(end for end, _ in points)
        shift = {id(ev): bisect.bisect_right(ends, float(ev["ts"])) for ev in lane}
        grow: dict[int, int] = {}
        for end, grown in points:
            for ev in grown:
                grow[id(ev)] = grow.get(id(ev), 0) + 1
                if float(ev["ts"]) >= end:
                    shift[id(ev)] -= 1
        for ev in lane:
            ev["ts"] = float(ev["ts"]) + shift[id(ev)] * delay_us
            if id(ev) in grow:
                ev["dur"] = float(ev["dur"]) + grow[id(ev)] * delay_us
    if not planted:
        raise ValueError(f"no complete event named {name!r} in the trace")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write a Chrome trace with one span name slowed as if it slept."
    )
    parser.add_argument("trace", help="recorded Chrome trace JSON")
    parser.add_argument("out", help="where to write the planted trace")
    parser.add_argument("name", help="span name to slow")
    parser.add_argument("seconds", type=float, help="delay per call [s]")
    args = parser.parse_args(argv)
    try:
        with open(args.trace) as f:
            doc = json.load(f)
        plant_delay(doc, args.name, args.seconds)
    except (OSError, ValueError, KeyError) as exc:
        print(f"plant_delay: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
