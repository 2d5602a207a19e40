"""tools/plant_delay.py: a planted delay reads as the sleep it stands for."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.observability.perfdiff import diff_documents, load_perf_document

TOOLS = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture(scope="module")
def tool():
    sys.path.insert(0, str(TOOLS))
    try:
        import plant_delay
    finally:
        sys.path.pop(0)
    return plant_delay


def _x(name, ts, dur, tid=0, pid=0):
    return {"name": name, "cat": "phase", "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {}}


def _trace():
    """``solve`` holds two ``cycle`` spans, each with one ``iter`` leaf;
    a counter sample and a second thread sit beside them."""
    return {
        "traceEvents": [
            {"name": "thread 0", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "t"}},
            _x("solve", 0.0, 100.0),
            _x("cycle", 10.0, 30.0),
            _x("iter", 12.0, 8.0),
            _x("after_iter", 25.0, 5.0),
            _x("cycle", 50.0, 30.0),
            _x("iter", 55.0, 10.0),
            {"name": "res", "ph": "C", "ts": 45.0, "pid": 0, "tid": 0, "args": {"r": 1.0}},
            _x("tail", 120.0, 10.0),
            _x("other_thread", 30.0, 40.0, tid=1),
        ]
    }


def _by_name(doc):
    out = {}
    for ev in doc["traceEvents"]:
        out.setdefault(ev["name"], []).append(ev)
    return out


def _planted(tool, name, seconds):
    doc = _trace()
    tool.plant_delay(doc, name, seconds)
    return doc


def test_the_sleep_grows_enclosers_and_shifts_what_follows(tool):
    ev = _by_name(_planted(tool, "iter", 0.001))  # 1000 us per call
    assert [(e["ts"], e["dur"]) for e in ev["iter"]] == [(12.0, 1008.0), (1055.0, 1010.0)]
    assert [(e["ts"], e["dur"]) for e in ev["cycle"]] == [(10.0, 1030.0), (1050.0, 1030.0)]
    assert (ev["solve"][0]["ts"], ev["solve"][0]["dur"]) == (0.0, 2100.0)
    # later on the lane: moved by the sleeps that ended before it started
    assert ev["after_iter"][0]["ts"] == 1025.0
    assert ev["res"][0]["ts"] == 1045.0
    assert ev["tail"][0]["ts"] == 2120.0
    # another lane and the metadata are untouched
    assert (ev["other_thread"][0]["ts"], ev["other_thread"][0]["dur"]) == (30.0, 40.0)
    assert ev["thread 0"][0] == _trace()["traceEvents"][0]


def test_only_the_planted_self_time_moves(tool, tmp_path):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(_trace()))
    cur.write_text(json.dumps(_planted(tool, "iter", 0.001)))
    report = diff_documents(load_perf_document(str(base)), load_perf_document(str(cur)))
    (row,) = report["spans"]
    assert row["name"] == report["top_regression"] == "iter"
    assert row["delta_s"] == pytest.approx(0.002)


def test_cli_writes_the_planted_trace(tool, tmp_path):
    src = tmp_path / "trace.json"
    src.write_text(json.dumps(_trace()))
    out = tmp_path / "slow.json"
    assert tool.main([str(src), str(out), "iter", "0.001"]) == 0
    assert json.loads(out.read_text()) == _planted(tool, "iter", 0.001)


@pytest.mark.parametrize(
    "value",
    ["gmres.iteration:abc", "gmres.iteration", "gmres.iteration:0", "gmres.iteration:-1",
     ":0.5", "gmres.iteration:nan", "gmres.iteration:inf", "gmres.cycle:0.5"],
)
def test_a_delay_that_plants_nothing_exits_2(tool, tmp_path, value, capsys):
    """``NAME:SECONDS`` split into the two arguments: a missing, empty or
    unknown name and a missing, zero, negative, non-finite or non-numeric
    delay each exit 2 and write nothing, so a negative control cannot pass
    vacuously."""
    src = tmp_path / "trace.json"
    src.write_text(json.dumps({"traceEvents": [_x("gmres.iteration", 0.0, 1.0)]}))
    out = tmp_path / "slow.json"
    name, _, seconds = value.partition(":")
    argv = [str(src), str(out), name] + ([seconds] if seconds else [])
    try:
        rc = tool.main(argv)
    except SystemExit as exc:  # refused by the parser
        rc = exc.code
    assert rc == 2 and not out.exists()
    assert "Traceback" not in capsys.readouterr().err
