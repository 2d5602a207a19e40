"""Regression diagnosis: diff two perf documents, rank span deltas.

``tools/check_bench.py`` answers *pass/fail*; this module answers
*which span and by how much*.  ``python -m repro perfdiff
baseline.json current.json`` loads two performance documents, computes
per-span **self-time** deltas (exclusive of child spans, so a slowdown
is attributed to the span that actually contains it rather than its
whole ancestor chain), ranks them by contribution to the total
regression (slowdowns first), and prints an attribution table.  The CI
perf-gate invokes it automatically when the gate trips so a red check
names the culprit phase instead of just a threshold.

Accepted document formats (auto-detected):

* **Chrome traces** -- ``{"traceEvents": [...]}`` from the profile CLI;
  ``"ph": "X"`` events aggregate by name, ``otherData.metrics``
  supplies counters;
* **BENCH_solver.json** perf-trajectory docs (``{"bench": ...}``) --
  the ``spans`` section carries per-span totals and the
  ``deterministic`` leaves flatten into counters, so the gate's own
  baseline artifact diffs directly against a fresh run.

Deliberately **stdlib-only** (no repro imports): CI can run it even
when the regression under diagnosis broke the package import, the same
contract ``tools/check_trace.py`` and ``tools/check_bench.py`` follow.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = [
    "load_perf_document",
    "diff_documents",
    "format_diff",
    "add_arguments",
    "run",
    "main",
]

#: below this absolute per-span delta (seconds) a row is noise, not signal
DEFAULT_MIN_DELTA_S = 1e-4
#: rows printed per attribution table
TOP_ROWS = 15


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


def _span_rec(rec: dict) -> dict:
    total = float(rec.get("total_s", 0.0))
    return {
        "count": int(rec.get("count", 0)),
        "total_s": total,
        # documents written before self-time attribution fall back to
        # inclusive time, which keeps the diff well-defined (if noisier)
        "self_s": float(rec.get("self_s", total)),
    }


def _trace_self_times(events: list) -> dict[str, dict]:
    """Aggregate ``"ph": "X"`` events into per-name totals + self times.

    Self time is reconstructed from interval containment per (pid, tid)
    timeline: events are replayed in start order and each event's
    duration is subtracted from the innermost enclosing span.
    """
    spans: dict[str, dict] = {}
    lanes: dict[tuple, list] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        lanes.setdefault((ev.get("pid", 0), ev.get("tid", 0)), []).append(ev)
    for lane in lanes.values():
        # longest-first at equal ts so parents precede their children
        lane.sort(key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))))
        stack: list[tuple] = []  # (end_ts, name, self_us accumulator index)
        self_us = [0.0] * len(lane)
        for i, ev in enumerate(lane):
            ts = float(ev.get("ts", 0.0))
            dur = float(ev.get("dur", 0.0))
            while stack and ts >= stack[-1][0]:
                stack.pop()
            if stack:
                self_us[stack[-1][1]] -= dur
            self_us[i] += dur
            stack.append((ts + dur, i))
        for i, ev in enumerate(lane):
            rec = spans.setdefault(ev["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            rec["count"] += 1
            rec["total_s"] += float(ev.get("dur", 0.0)) * 1e-6
            rec["self_s"] += max(0.0, self_us[i]) * 1e-6
    return spans


def load_perf_document(path: str) -> dict:
    """Load + normalize one document to ``{"label", "spans", "counters"}``.

    ``spans`` maps name -> ``{"count": int, "total_s": float,
    "self_s": float}`` (inclusive and exclusive-of-children seconds);
    ``counters`` maps name -> float.  Raises :class:`ValueError` for
    unrecognized documents.
    """
    with open(path) as f:
        doc = json.load(f)
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}

    if isinstance(doc, dict) and "traceEvents" in doc:
        spans = _trace_self_times(doc["traceEvents"])
        metrics = doc.get("otherData", {}).get("metrics", {})
        _flatten("", metrics.get("counters", {}), counters)
    elif isinstance(doc, dict) and "bench" in doc:
        for name, rec in doc.get("spans", {}).items():
            spans[name] = _span_rec(rec)
        _flatten("deterministic", doc.get("deterministic", {}), counters)
    else:
        raise ValueError(
            f"{path}: not a Chrome trace or bench document"
        )
    return {"label": path, "spans": spans, "counters": counters}


def diff_documents(base: dict, cur: dict) -> dict:
    """Span + counter deltas, ranked with regressions first.

    Span rows diff **self time** (exclusive of children): a slowdown
    planted inside one span moves only that span's row, not its whole
    ancestor chain, so rank 1 names the actual culprit.  Each row:
    ``{"name", "base_s", "cur_s", "delta_s", "incl_delta_s", "ratio",
    "base_count", "cur_count", "share"}`` where the ``_s`` columns are
    self seconds, ``incl_delta_s`` is the inclusive-time delta for
    context, and ``share`` is the row's signed fraction of the net
    self-time delta.  Rows are sorted by ``delta_s`` descending, so the
    heaviest slowdown is ranked first (improvements trail at the
    bottom).  Counter rows diff every numeric leaf with nonzero change.
    """
    names = set(base["spans"]) | set(cur["spans"])
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0}
    rows = []
    for name in names:
        b = base["spans"].get(name, empty)
        c = cur["spans"].get(name, empty)
        delta = c["self_s"] - b["self_s"]
        if abs(delta) < DEFAULT_MIN_DELTA_S:
            continue
        rows.append(
            {
                "name": name,
                "base_s": b["self_s"],
                "cur_s": c["self_s"],
                "delta_s": delta,
                "incl_delta_s": c["total_s"] - b["total_s"],
                "ratio": c["self_s"] / b["self_s"] if b["self_s"] > 0 else float("inf"),
                "base_count": b["count"],
                "cur_count": c["count"],
            }
        )
    total_delta = sum(r["delta_s"] for r in rows)
    for r in rows:
        r["share"] = r["delta_s"] / total_delta if total_delta != 0.0 else 0.0
    rows.sort(key=lambda r: -r["delta_s"])

    counter_rows = []
    for name in sorted(set(base["counters"]) | set(cur["counters"])):
        b = base["counters"].get(name, 0.0)
        c = cur["counters"].get(name, 0.0)
        if b == c:
            continue
        counter_rows.append(
            {
                "name": name,
                "base": b,
                "cur": c,
                "delta": c - b,
                "ratio": c / b if b != 0.0 else float("inf"),
            }
        )
    counter_rows.sort(key=lambda r: -abs(r["delta"] / r["base"] if r["base"] else r["delta"]))

    # sum of self times = wall time covered by spans, with no
    # parent/child double counting -- the honest "total" to report
    base_total = sum(s["self_s"] for s in base["spans"].values())
    cur_total = sum(s["self_s"] for s in cur["spans"].values())
    return {
        "baseline": base["label"],
        "current": cur["label"],
        "base_total_s": base_total,
        "cur_total_s": cur_total,
        "total_delta_s": total_delta,
        "spans": rows,
        "counters": counter_rows,
        "top_regression": rows[0]["name"] if rows and rows[0]["delta_s"] > 0 else None,
    }


def _table(headers: list, rows: list, title: str) -> str:
    # local minimal formatter: this module must not import repro.perf
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, sep]
    for j, row in enumerate(cells):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append(sep)
    return "\n".join(lines)


def format_diff(report: dict) -> str:
    """ASCII attribution tables for a :func:`diff_documents` report."""
    parts = [
        f"perfdiff: {report['baseline']} -> {report['current']}",
        f"total self time: {report['base_total_s']:.4f}s -> {report['cur_total_s']:.4f}s "
        f"({report['total_delta_s']:+.4f}s)",
    ]
    if report["top_regression"]:
        parts.append(f"top regression: {report['top_regression']}")
    if report["spans"]:
        rows = [
            [
                r["name"],
                f"{r['base_s']:.4f}",
                f"{r['cur_s']:.4f}",
                f"{r['delta_s']:+.4f}",
                f"{r['incl_delta_s']:+.4f}",
                f"{r['ratio']:.2f}x" if r["ratio"] != float("inf") else "new",
                f"{r['share']:+.1%}",
                f"{r['base_count']}->{r['cur_count']}",
            ]
            for r in report["spans"][:TOP_ROWS]
        ]
        parts.append(
            _table(
                ["span", "self base [s]", "self cur [s]", "self delta [s]",
                 "incl delta [s]", "ratio", "share of delta", "count"],
                rows,
                "Span attribution by self time (regressions first)",
            )
        )
    else:
        parts.append("(no span deltas above threshold)")
    if report["counters"]:
        rows = [
            [
                r["name"],
                f"{r['base']:g}",
                f"{r['cur']:g}",
                f"{r['delta']:+g}",
                f"{r['ratio']:.3f}x" if r["ratio"] != float("inf") else "new",
            ]
            for r in report["counters"][:TOP_ROWS]
        ]
        parts.append(_table(["counter", "base", "current", "delta", "ratio"], rows, "Counter deltas"))
    return "\n\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``perfdiff`` arguments (shared with ``python -m repro perfdiff``)."""
    parser.add_argument("baseline", help="baseline Chrome trace or bench JSON")
    parser.add_argument("current", help="current Chrome trace or bench JSON")
    parser.add_argument("--json", dest="json_out", default=None, help="also write the report as JSON")


def run(args: argparse.Namespace) -> int:
    try:
        base = load_perf_document(args.baseline)
        cur = load_perf_document(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"perfdiff: {exc}", file=sys.stderr)
        return 2
    report = diff_documents(base, cur)
    print(format_diff(report))
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"\nwrote {args.json_out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro perfdiff",
        description="Diff two perf documents and rank spans by regression contribution.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
