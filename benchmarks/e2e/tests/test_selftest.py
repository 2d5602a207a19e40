"""Self-test of the benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests

Checks that the benchmark can see what it claims to see: a slowdown
planted inside one wrapped layer lands in that layer's self time and
trips ``compare``; a wrong reference raises the failed share; a smoke
run can never be compared with a real one.
"""

from __future__ import annotations

import copy
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from benchmarks.e2e import compare as cmp  # noqa: E402
from benchmarks.e2e import layers, runner, workloads  # noqa: E402
from benchmarks.e2e.__main__ import SCHEMA, UNTRACED_RUNS, workload_entry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD = "steady_assembled"


def _smoke_document(seconds: float = 1.5) -> dict:
    """One smoke-size workload as ``run`` measures it, but in this process."""
    runs = []
    for trace in [False] * UNTRACED_RUNS + [True]:
        result, detail, _rows = runner.run_workload(
            WORKLOAD, 0, seconds, trace, smoke=True, t_start=time.perf_counter()
        )
        runs.append({**detail, **result})
    return {
        "schema": SCHEMA,
        "smoke": True,
        "workloads": {WORKLOAD: workload_entry(runs[:-1], runs[-1])},
    }


@pytest.fixture(scope="module")
def baseline() -> dict:
    return _smoke_document()


def test_names_units_and_catalogue_agree_with_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_run_is_quick_stamped_and_never_compared_with_a_real_run(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert time.perf_counter() - t0 < 30.0
    doc = json.loads(out.read_text())
    assert doc["smoke"] is True
    assert set(doc["workloads"]) == set(workloads.WORKLOADS)
    for name, w in doc["workloads"].items():
        assert w["failed"] == 0, (name, w["failures"])
        assert set(w["per_layer"]) == {row[0] for row in layers.PER_LAYER}
        assert w["exact_agrees_across_passes"], name

    real = copy.deepcopy(doc)
    real["smoke"] = False
    with pytest.raises(cmp.Incomparable):
        cmp.compare(doc, real, cmp.load_bounds())
    # negative control: a document compared with itself has no regression
    assert not cmp.compare(doc, doc, cmp.load_bounds())["regressed"]


def test_planted_sleep_shows_in_its_layer_and_trips_compare(baseline, monkeypatch):
    from repro.fem.assembly import AssemblyPlan

    base = baseline["workloads"][WORKLOAD]
    op_s = statistics.median(base["end_to_end"]["time_to_solution_s"]["values"])
    calls = base["spans"]["fem.assemble_matrix"]["calls"] / max(
        1, base["spans"]["bench.op"]["calls"]
    )
    # ISSUE.md's 20 % of an operation, or twice what the bound lets pass
    # where that is more (a slowdown inside the bound must not trip
    # compare), spread over the layer's calls
    planted = max(0.20, 2.0 * cmp.load_bounds()["time_to_solution_s"][1]) * op_s
    original = AssemblyPlan.assemble_matrix

    def slow(self, *args, **kwargs):
        time.sleep(planted / calls)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AssemblyPlan, "assemble_matrix", slow)
    slowed = _smoke_document()
    monkeypatch.undo()

    layer = "fem.assemble_matrix_s"
    gain = (
        slowed["workloads"][WORKLOAD]["per_layer"][layer]["value"]
        - base["per_layer"][layer]["value"]
    )
    assert gain >= 0.9 * planted, (gain, planted)
    # no other self-time layer took the blame
    for name, _unit, _better, kind, _span in layers.PER_LAYER:
        if kind == "self" and name != layer:
            other = (
                slowed["workloads"][WORKLOAD]["per_layer"][name]["value"]
                - base["per_layer"][name]["value"]
            )
            assert other < 0.5 * planted, (name, other)

    report = cmp.compare(baseline, slowed, cmp.load_bounds())
    verdicts = {(w, m): v for w, m, _u, _a, _b, _bound, v in report["rows"]}
    assert report["regressed"]
    assert verdicts[(WORKLOAD, "time_to_solution_s")] == "regressed"
    assert verdicts[(WORKLOAD, "failed_share")] == "unchanged"


def test_planted_wrong_reference_raises_failed_share(baseline, monkeypatch):
    assert baseline["workloads"][WORKLOAD]["failed_share"] == 0.0  # negative control

    good = workloads.load_references()
    bad = copy.deepcopy(good)
    for key in bad["steady_mean_velocity"]:
        bad["steady_mean_velocity"][key] *= 1.0 + 1.0e-4  # ten times the tolerance
    monkeypatch.setattr(workloads, "load_references", lambda: bad)
    wrong = _smoke_document()
    monkeypatch.undo()

    entry = wrong["workloads"][WORKLOAD]
    assert entry["failed_share"] > 0.0
    assert entry["failed"] == entry["attempted"]
    assert "reference" in entry["failures"][0]
    report = cmp.compare(baseline, wrong, cmp.load_bounds())
    assert report["regressed"]
    assert "regressed" in {v for _w, m, *_rest, v in report["rows"] if m == "failed_share"}
