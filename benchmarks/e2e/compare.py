"""Compare two benchmark documents written by ``python -m benchmarks.e2e run``.

Per (end-to-end metric, workload) the verdict is one of

``improved`` / ``regressed``
    B's median is better / worse than A's by more than the metric's bound
    in ``BENCHMARK.json``, and either both sides' run-to-run spreads are
    within the bound or every value of B is on that side of every value
    of A.
``unchanged``
    The medians are within the bound and so are both spreads.
``unresolved``
    A spread is wider than the bound and the two sides' values overlap,
    or a side has fewer than two runs and so no spread: the runs cannot
    tell.

``failed_share`` has bound 0: any increase is a regression.  Every
deterministic layer count is compared for equality.  Every ratio is B
over A, A being the base.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["compare", "format_report", "load_bounds", "verdict", "Incomparable"]

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class Incomparable(ValueError):
    """The two documents do not describe the same benchmark."""


def load_bounds() -> dict:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def rel_spread(values: list[float]) -> float:
    """Run-to-run spread: the range of the runs' values as a share of their median.

    ``run`` makes two runs a side, too few for quartiles.
    """
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if min(len(a), len(b)) < 2:
        return "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    noisy = max(rel_spread(a), rel_spread(b)) > bound
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse_by > bound:
        return "regressed" if not noisy or all_worse else "unresolved"
    if -worse_by > bound:
        return "improved" if not noisy or all_better else "unresolved"
    return "unresolved" if noisy else "unchanged"


def compare(doc_a: dict, doc_b: dict, bounds: dict) -> dict:
    """Rows of the comparison plus whether it found a regression."""
    for key in ("schema", "smoke"):
        if doc_a.get(key) != doc_b.get(key):
            raise Incomparable(
                f"{key!r} differs ({doc_a.get(key)!r} vs {doc_b.get(key)!r}): "
                "a smoke run is never compared with a real run"
            )
    rows, exact_rows = [], []
    regressed = False
    for name in doc_a["workloads"]:
        wa, wb = doc_a["workloads"][name], doc_b["workloads"].get(name)
        if wb is None:
            raise Incomparable(f"workload {name!r} is missing from the second document")
        for metric, (better, bound) in bounds.items():
            ea, eb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            va, vb = ea["values"], eb["values"]
            med_a, med_b = statistics.median(va), statistics.median(vb)
            v = verdict(va, vb, better, bound)
            regressed |= v == "regressed"
            rows.append((name, metric, ea["unit"], med_a, med_b, bound, v))
        fa, fb = wa["failed_share"], wb["failed_share"]
        v = "regressed" if fb > fa else "improved" if fb < fa else "unchanged"
        regressed |= v == "regressed"
        rows.append((name, "failed_share", "ratio", fa, fb, 0.0, v))
        for metric, xa in wa.get("exact", {}).items():
            xb = wb.get("exact", {}).get(metric)
            exact_rows.append((name, metric, xa, xb, xa == xb))
    return {"rows": rows, "exact": exact_rows, "regressed": regressed}


def _ratio(a: float, b: float) -> str:
    return f"{b / a:.3f}x of {a:.6g}" if a else f"{b:.6g} (base 0)"


def format_report(report: dict) -> str:
    lines = [
        f"{'workload':18s} {'metric':20s} {'A (base)':>12s} {'B':>12s}  B/A     bound  verdict",
    ]
    for name, metric, unit, a, b, bound, v in report["rows"]:
        ratio = f"{b / a:6.3f}" if a else "   n/a"
        lines.append(
            f"{name:18s} {metric:20s} {a:12.6g} {b:12.6g} {ratio}  {bound:6.2f}  {v}  [{unit}]"
        )
    changed = [r for r in report["exact"] if not r[4]]
    lines.append("")
    lines.append(
        f"exact layer counts: {len(report['exact']) - len(changed)} equal, {len(changed)} changed"
    )
    for name, metric, xa, xb, _same in changed:
        detail = "missing in B" if xb is None else _ratio(xa, xb)
        lines.append(f"  {name:18s} {metric:36s} {xa!r} -> {xb!r}  ({detail})")
    lines.append("")
    lines.append("REGRESSED" if report["regressed"] else "no regression")
    return "\n".join(lines)
