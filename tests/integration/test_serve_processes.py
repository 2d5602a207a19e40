"""The solve service on its numerics processes, with real meshes and solves.

``SolveService()`` without a cache forks a zygote at construction and
each pool worker solves in its own process forked from it
(``repro.serve.process``).  These tests hold what that promises: served
requests compute side by side and bitwise equal to direct solves, a
process killed from outside mid-solve is resumed from its checkpoint,
no process outlives its service, and the solver's metrics and spans
still reach this process's registries.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.app.antarctica import AntarcticaTest
from repro.observability import get_metrics, get_series, parse_exposition, tracing, write_chrome_trace
from repro.serve import Job, SolveRequest, SolveScenario, SolveService
from tests.unit.test_serve import _http, _serving, _stop

REPO = Path(__file__).resolve().parents[2]

A = SolveScenario("antarctica-600km-3", 600.0, 3)
B = SolveScenario("antarctica-400km-4", 400.0, 4)
C = SolveScenario("antarctica-400km-4-spmd4", 400.0, 4, nparts=4)


def direct(scenario: SolveScenario):
    return AntarcticaTest.build(scenario.to_config()).problem.solve()


@pytest.fixture(scope="module")
def refs():
    return {s.digest: direct(s).u for s in (A, B, C)}


def running(pid: int) -> bool:
    """``pid`` is a live process (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_concurrent_solves_overlap_and_equal_direct_solves(refs):
    async def body():
        async with SolveService(workers=2) as service:
            served = []
            for pair in ((A, B), (A, C), (B, C)):
                resps = await asyncio.gather(*(service.submit(SolveRequest(s)) for s in pair))
                served += zip(pair, resps)
        return served

    with tracing() as tracer:
        served = asyncio.run(body())
    for scenario, resp in served:
        assert resp.status == "ok", (scenario.name, resp.reason)
        assert np.array_equal(resp.result.u, refs[scenario.digest]), scenario.name
    solves = [s for s in tracer.spans if s.name == "velocity.solve"]
    assert len(solves) == 6
    assert len({s.pid for s in solves}) == 2 and os.getpid() not in {s.pid for s in solves}
    assert any(
        x.pid != y.pid and x.ts_us < y.end_us and y.ts_us < x.end_us
        for x in solves for y in solves
    ), "no two solves ran at the same time"


def test_a_numerics_process_killed_from_outside_mid_solve_is_resumed(refs, monkeypatch):
    """SIGKILL, not the kill switch: the worker finds the process gone
    (EOF) and the job resumes from its step-2 checkpoint on a new one."""
    killed: list[int] = []
    beat = Job.beat

    def beat_then_kill(job, checkpoint):
        beat(job, checkpoint)
        if checkpoint.step == 2 and not killed:
            (pid,) = service.cache.pids()[1:]
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

    monkeypatch.setattr(Job, "beat", beat_then_kill)

    async def body():
        async with service:
            first = await service.submit(SolveRequest(B))
            second = await service.submit(SolveRequest(A))
        return first, second

    service = SolveService(workers=1)
    first, second = asyncio.run(body())
    assert first.status == "ok" and first.resumes == 1
    assert np.array_equal(first.result.u, refs[B.digest])
    assert service.pool.deaths == 1
    assert second.status == "ok" and second.resumes == 0
    assert np.array_equal(second.result.u, refs[A.digest])
    # the replacement's one process served the resumed job and the next request
    zygote, replacement = service.cache.pids()
    assert killed != [replacement] and len(killed) == 1
    assert not any(running(pid) for pid in (zygote, *killed, replacement))


def test_no_process_outlives_a_parent_that_exits_without_stop():
    code = """
import asyncio, os
from repro.serve import SolveRequest, SolveScenario, SolveService

async def main():
    service = SolveService(workers=2)
    await service.start()
    await asyncio.gather(
        service.submit(SolveRequest(SolveScenario("a", 600.0, 3))),
        service.submit(SolveRequest(SolveScenario("b", 640.0, 3))),
    )
    print(*service.cache.pids(), flush=True)
    os._exit(0)

asyncio.run(main())
"""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 3  # the zygote and two numerics processes
    limit = time.monotonic() + 2.0
    while any(running(pid) for pid in pids):
        assert time.monotonic() < limit, [pid for pid in pids if running(pid)]
        time.sleep(0.02)


def test_metrics_of_a_served_solve_are_those_of_a_direct_one():
    get_metrics().reset()
    direct(B)
    want = get_metrics().snapshot()["counters"]

    async def body():
        async with SolveService(workers=2) as service:
            resp = await service.submit(SolveRequest(B))
            assert resp.status == "ok"
            server_task, port = await _serving(service)
            code, payload = await _http(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await _stop(server_task)
        assert code == 200
        return parse_exposition(payload.decode())

    get_metrics().reset()
    get_series().reset()
    families = asyncio.run(body())
    for name in ("gmres.iterations", "gmres.matvecs", "newton.steps", "newton.checkpoints"):
        family = name.replace(".", "_")
        samples = {n: v for n, _l, v, _t in families[family]["samples"]}
        assert samples[f"{family}_total"] == want[name], name
    # the process's series arrive too: one Newton residual history
    assert get_series().get("newton.residual").count == want["newton.steps"] + 1


def test_a_traced_request_holds_the_process_spans_and_passes_check_trace(tmp_path):
    async def body():
        async with SolveService(workers=1) as service:
            return await service.submit(SolveRequest(A))

    with tracing() as tracer:
        resp = asyncio.run(body())
    assert resp.status == "ok"
    (solve,) = [s for s in tracer.spans if s.name == "velocity.solve"]
    (execute,) = [s for s in tracer.spans if s.name == "serve.execute"]
    assert solve.pid != execute.pid == 0
    # one clock: the process's solve sits inside the worker's execute span
    assert execute.ts_us <= solve.ts_us and solve.end_us <= execute.end_us
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)

    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), tracer.spans)
    sys.path.insert(0, str(REPO / "tools"))
    try:
        from check_trace import check_trace
    finally:
        sys.path.pop(0)
    assert check_trace(str(path)) == []
    assert any(e.get("pid") == solve.pid for e in json.loads(path.read_text())["traceEvents"])
