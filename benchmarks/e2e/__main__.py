"""``python -m benchmarks.e2e run|compare``: the whole benchmark as one document.

``run`` starts fresh child processes (``benchmarks/e2e/run.py``, the entry
point ``BENCHMARK.json`` names), one after another, so that peak memory
and allocator state of one run never leak into the next, and merges what
they report: per workload :data:`UNTRACED_RUNS` untraced runs, whose
values give each end-to-end metric its median and run-to-run spread,
then one traced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e import WORK_ROOT
from benchmarks.e2e import compare as cmp

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).with_name("run.py")
SCHEMA = "benchmarks.e2e/1"

#: ``compare`` needs a run-to-run spread on each side before it may call a
#: difference real; a third run would take the smoke document past its 30 s
UNTRACED_RUNS = 2

#: timed window of a ``--smoke`` run; real runs take ``run_seconds``
SMOKE_SECONDS = 0.2


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool, tmp: Path) -> dict:
    detail = tmp / f"{workload}-{trace}.json"
    cmd = [
        sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail),
    ]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(detail.read_text())


def workload_entry(untraced: list[dict], traced: dict) -> dict:
    """One workload's part of the document, from its runs' detail records."""
    attempted = sum(u["attempted"] for u in untraced) + traced["attempted"]
    failed = sum(u["failed"] for u in untraced) + traced["failed"]
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": [f for d in untraced + [traced] for f in d["failures"]],
        "end_to_end": {
            metric: {
                "unit": untraced[0]["metrics"][metric]["unit"],
                "values": [u["metrics"][metric]["value"] for u in untraced],
                **(
                    {"samples": [s for u in untraced for s in u["op_samples_s"]]}
                    if metric == "time_to_solution_s" else {}
                ),
            }
            for metric in untraced[0]["metrics"]
        },
        "per_layer": traced["metrics"],
        # read after every operation of both passes; they must agree
        "exact": traced.get("exact", {}),
        "exact_agrees_across_passes": all(
            u.get("exact") == traced.get("exact") and u.get("counts_repeat", True)
            for u in untraced
        ) and traced.get("counts_repeat", True),
        "reconcile_ratio": traced.get("reconcile_ratio"),
        "spans": traced["spans"],
    }


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    doc = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": seconds,
        "header": {"git_commit": _git_commit()},
        "workloads": {},
    }
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_ROOT) as tmp:
        for name in (w["name"] for w in spec["workloads"]):
            print(f"[{name}]", file=sys.stderr, flush=True)
            untraced = [
                _child(name, args.seed, seconds, 0, args.smoke, Path(tmp))
                for _ in range(UNTRACED_RUNS)
            ]
            traced = _child(name, args.seed, seconds, 1, args.smoke, Path(tmp))
            doc["header"].setdefault("host", traced["host"])
            doc["header"].setdefault("calibration", traced["calibration"])
            doc["workloads"][name] = workload_entry(untraced, traced)
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    _print_summary(doc)
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


def _print_summary(doc: dict) -> None:
    for name, w in doc["workloads"].items():
        print(f"{name}: attempted {w['attempted']}, failed {w['failed']}")
        for metric, e in w["end_to_end"].items():
            vals = " ".join(f"{v:.6g}" for v in e["values"])
            print(f"  {metric:36s} {vals} {e['unit']}")
        print(f"  {'failed_share':36s} {w['failed_share']:.6g} ratio")
        for metric, e in w["per_layer"].items():
            if e["value"]:
                print(f"  {metric:36s} {e['value']:.6g} {e['unit']}")


def compare(args) -> int:
    doc_a = json.loads(Path(args.a).read_text())
    doc_b = json.loads(Path(args.b).read_text())
    try:
        report = cmp.compare(doc_a, doc_b, cmp.load_bounds())
    except cmp.Incomparable as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(cmp.format_report(report))
    return 1 if report["regressed"] else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run every workload, untraced then traced, and merge")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", help="write the document here")
    r.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    r.set_defaults(fn=run)
    c = sub.add_parser("compare", help="compare two documents; exit 1 on regression")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(fn=compare)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
