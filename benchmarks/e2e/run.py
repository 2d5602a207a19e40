"""Entry point of the benchmark contract: one workload, one run, one process.

    python3 benchmarks/e2e/run.py --workload steady_assembled --seed 0 --seconds 10 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits non-zero without a result when the program under
test (``src/repro``) is not beside the benchmark.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes; results are stamped smoke")
    p.add_argument("--detail", type=Path, help="also write samples, counts and host header here")
    p.add_argument("--spans", type=Path, help="with --trace 1, write every recorded span here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # the script's own directory would shadow the stdlib module `trace`
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from benchmarks.e2e.host import BLAS_ENV

    for var in BLAS_ENV:  # before numpy is imported
        os.environ[var] = "1"
    from benchmarks.e2e.runner import run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail, rows = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, _T0
    )
    if args.spans is not None and rows is not None:
        args.spans.write_text(json.dumps(rows))
    if args.detail is not None:
        args.detail.write_text(json.dumps({**detail, **result}, indent=1))
    for note in detail["failures"]:
        print(f"benchmark: failed operation: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
