"""Unit tests for the solve service stack (repro.serve).

Service tests swap the artifact-cache builder for a stub problem so
they exercise the SERVICE semantics -- dedup, breaker, degradation
ladder, retry, timeout, worker kill + checkpoint resume -- in
milliseconds, without building a single mesh.  The stub honours the
same solve() contract the real problem exposes (checkpoint_cb,
resume_from, deadline, preconditioner), which is exactly the seam the
service depends on.
"""

import asyncio
import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.observability import parse_exposition
from repro.resilience import SolveTimeout
from repro.resilience.policies import RecoveryPolicy
from repro.serve import (
    ArtifactCache,
    CircuitBreaker,
    Job,
    KillSwitch,
    SolveRequest,
    SolveResponse,
    SolveScenario,
    SolveService,
    WorkerKilled,
    WorkerPool,
)
from repro.serve.http import serve_http


# ----------------------------------------------------------------------
# stub problem honouring the real solve() seam
# ----------------------------------------------------------------------

class Behavior:
    """Scripted behaviour for one stub problem."""

    def __init__(self, fail_times: int = 0, block: threading.Event | None = None,
                 steps: int = 3):
        self.fail_remaining = fail_times
        self.block = block
        self.steps = steps


class FakeProblem:
    def __init__(self, scenario: SolveScenario, behavior: Behavior | None):
        self.scenario = scenario
        self.behavior = behavior or Behavior()
        self.calls: list[dict] = []

    def solve(self, checkpoint_every=None, checkpoint_cb=None, resume_from=None,
              deadline=None, preconditioner=None, **_kw):
        b = self.behavior
        self.calls.append({
            "resume_from": resume_from,
            "preconditioner": preconditioner,
        })
        if b.block is not None:
            assert b.block.wait(timeout=10.0), "test forgot to release the block"
        if b.fail_remaining > 0:
            b.fail_remaining -= 1
            raise RuntimeError("scripted transient failure")
        start = resume_from.step if resume_from is not None else 0
        for step in range(start, b.steps):
            if deadline is not None:
                deadline.check(f"fake.step {step}")
            if checkpoint_cb is not None:
                checkpoint_cb(SimpleNamespace(step=step + 1))
        return SimpleNamespace(
            u=np.arange(4.0) + b.steps,
            mean_velocity=1.0,
            newton=SimpleNamespace(iterations=b.steps),
            preconditioner=preconditioner,
        )


def make_cache(behaviors: dict | None = None):
    """ArtifactCache over stub problems; returns (cache, problems-by-name)."""
    problems: dict[str, FakeProblem] = {}

    def builder(scenario: SolveScenario):
        problem = FakeProblem(scenario, (behaviors or {}).get(scenario.name))
        problems[scenario.name] = problem
        return SimpleNamespace(problem=problem)

    return ArtifactCache(builder=builder), problems


def scenario(name: str, **kw) -> SolveScenario:
    return SolveScenario(name=name, **kw)


# ----------------------------------------------------------------------
# request/response types
# ----------------------------------------------------------------------

class TestRequests:
    def test_digest_ignores_name(self):
        a = scenario("a", resolution_km=500.0)
        b = scenario("b", resolution_km=500.0)
        c = scenario("a", resolution_km=501.0)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_coarsened(self):
        s = scenario("s", resolution_km=500.0, num_layers=8)
        coarse = s.coarsened()
        assert coarse.name == "s~coarse"
        assert coarse.resolution_km == 1000.0
        assert coarse.num_layers == 4
        assert coarse.digest != s.digest

    def test_validation(self):
        with pytest.raises(ValueError):
            scenario("bad", preconditioner="nonsense")
        with pytest.raises(ValueError):
            scenario("bad", num_layers=0)
        with pytest.raises(ValueError):
            SolveResponse(request=SolveRequest(scenario("x")), status="weird")


# ----------------------------------------------------------------------
# circuit breaker state machine
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_success_resets_failure_streak(self):
        br = CircuitBreaker("s", failure_threshold=3)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"
        assert br.allow()

    def test_trips_open_at_threshold(self):
        br = CircuitBreaker("s", failure_threshold=2)
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()

    def test_probe_schedule_arming_request_is_still_shed(self):
        br = CircuitBreaker("s", failure_threshold=1, probe_after=2)
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()          # shed 1
        assert not br.allow()          # shed 2: arms half-open, still shed
        assert br.state == "half_open"
        assert br.allow()              # the single probe
        assert not br.allow()          # concurrent request during probe: shed
        br.record_success()
        assert br.state == "closed"
        assert br.allow()

    def test_probe_failure_reopens_and_resets_shed_count(self):
        br = CircuitBreaker("s", failure_threshold=1, probe_after=2)
        br.record_failure()
        br.allow(); br.allow()         # arm
        assert br.allow()              # probe
        br.record_failure("still broken")
        assert br.state == "open"
        assert not br.allow()          # shed count restarted: not armed yet
        assert br.state == "open"
        assert not br.allow()
        assert br.state == "half_open"

    def test_transition_record(self):
        br = CircuitBreaker("s", failure_threshold=1, probe_after=1)
        br.record_failure()
        br.allow()                     # arms half-open (shed)
        br.allow()                     # probe
        br.record_success()
        walk = [(t["from"], t["to"]) for t in br.transitions]
        assert walk == [("closed", "open"), ("open", "half_open"),
                        ("half_open", "closed")]


# ----------------------------------------------------------------------
# kill switch + worker pool
# ----------------------------------------------------------------------

class TestKillSwitch:
    def test_fires_once_on_first_life_only(self):
        ks = KillSwitch()
        ks.arm("d1", 2)
        ks.check("d1", 1, resumes=0)             # wrong step: no fire
        ks.check("d1", 2, resumes=1)             # revived job: no fire
        with pytest.raises(WorkerKilled):
            ks.check("d1", 2, resumes=0)
        assert ks.fired == [("d1", 2)]
        ks.check("d1", 2, resumes=0)             # disarmed after firing


class TestWorkerPool:
    def test_reap_revives_dead_worker_and_resumes_job(self):
        pool = WorkerPool(workers=1)
        done = threading.Event()
        results = []

        def execute(job):
            if job.resumes == 0:
                job.beat(SimpleNamespace(step=2))
                raise WorkerKilled("bang")
            return ("resumed-from", job.checkpoint.step)

        def on_done(job, outcome):
            results.append(outcome)
            done.set()

        pool.submit(Job(execute, on_done))
        limit = time.monotonic() + 5.0
        while not done.is_set() and time.monotonic() < limit:
            pool.reap()
            time.sleep(0.002)
        assert done.is_set()
        assert results == [("resumed-from", 2)]
        assert pool.deaths == 1
        assert len(pool.workers) == 1
        pool.shutdown()

    def test_resize_shrinks_without_counting_deaths(self):
        pool = WorkerPool(workers=3)
        pool.resize(1)
        limit = time.monotonic() + 5.0
        while len(pool.workers) > 1 and time.monotonic() < limit:
            pool.reap()
            time.sleep(0.002)
        assert len(pool.workers) == 1
        assert pool.deaths == 0
        pool.shutdown()


# ----------------------------------------------------------------------
# the service itself
# ----------------------------------------------------------------------

def run(coro):
    return asyncio.run(coro)


def make_service(behaviors=None, **kw):
    cache, problems = make_cache(behaviors)
    kw.setdefault("policy", RecoveryPolicy(max_retries=1, backoff_s=0.0))
    service = SolveService(cache=cache, **kw)
    return service, problems


class TestSolveService:
    def test_ok_response(self):
        async def body():
            service, problems = make_service()
            async with service:
                resp = await service.submit(SolveRequest(scenario("a")))
            assert resp.status == "ok"
            assert resp.attempts == 1
            assert resp.resumes == 0
            assert not resp.deduped
            assert resp.result is not None
            assert resp.completed
            # success recorded as the cached-result rung's last good
            assert service.cache.cached_result(scenario("a")) is resp.result
            assert problems["a"].calls[0]["preconditioner"] is None
        run(body())

    def test_retry_then_ok(self):
        async def body():
            service, problems = make_service({"a": Behavior(fail_times=1)})
            async with service:
                resp = await service.submit(SolveRequest(scenario("a")))
            assert resp.status == "ok"
            assert resp.attempts == 2
            assert len(problems["a"].calls) == 2
        run(body())

    def test_failed_after_retry_budget(self):
        async def body():
            service, _ = make_service(
                {"a": Behavior(fail_times=10)},
                policy=RecoveryPolicy(max_retries=2, backoff_s=0.0),
            )
            async with service:
                resp = await service.submit(SolveRequest(scenario("a")))
            assert resp.status == "failed"
            assert resp.attempts == 3
            assert "scripted transient failure" in resp.reason
        run(body())

    def test_deadline_expiry_is_typed_timeout_without_partial(self):
        async def body():
            service, _ = make_service()
            async with service:
                resp = await service.submit(
                    SolveRequest(scenario("a"), deadline_s=0.0)
                )
            # budget spent before the first step: typed timeout, no
            # partial garbage, and no retry (retrying cannot help)
            assert resp.status == "timeout"
            assert resp.partial is None
            assert resp.attempts == 1
            assert "deadline" in resp.reason
        run(body())

    def test_identical_concurrent_requests_dedup_to_one_solve(self):
        async def body():
            gate = threading.Event()
            service, problems = make_service({"a": Behavior(block=gate)})
            async with service:
                first = asyncio.create_task(
                    service.submit(SolveRequest(scenario("a")))
                )
                await asyncio.sleep(0.05)  # let it register in flight
                second = asyncio.create_task(
                    service.submit(SolveRequest(scenario("same numbers")))
                )
                await asyncio.sleep(0.05)
                gate.set()
                r1, r2 = await asyncio.gather(first, second)
            assert r1.status == "ok" and r2.status == "ok"
            assert not r1.deduped and r2.deduped
            assert r2.result is r1.result
            assert len(problems["a"].calls) == 1
            assert "same numbers" not in problems
        run(body())

    def test_breaker_sheds_after_failures_then_probe_recovers(self):
        async def body():
            service, problems = make_service(
                {"a": Behavior(fail_times=2)},
                policy=RecoveryPolicy(max_retries=0, backoff_s=0.0),
                failure_threshold=2,
                probe_after=1,
            )
            async with service:
                req = SolveRequest(scenario("a"))
                assert (await service.submit(req)).status == "failed"
                assert (await service.submit(req)).status == "failed"
                shed = await service.submit(req)   # open: shed + arms
                assert shed.status == "shed"
                assert shed.reason == "breaker_open"
                probe = await service.submit(req)  # half-open probe
                assert probe.status == "ok"
                assert (await service.submit(req)).status == "ok"
            br = service.breakers[scenario("a").digest]
            walk = [(t["from"], t["to"]) for t in br.transitions]
            assert walk == [("closed", "open"), ("open", "half_open"),
                            ("half_open", "closed")]
        run(body())

    def test_degradation_rung_cheaper_preconditioner(self):
        async def body():
            service, problems = make_service(
                degrade_precond_depth=0, degrade_mesh_depth=100
            )
            async with service:
                resp = await service.submit(SolveRequest(scenario("a")))
                last = await service.submit(
                    SolveRequest(scenario("v", preconditioner="vline"))
                )
            assert resp.status == "degraded"
            assert resp.reason == "cheap_precond"
            # mdsc's next-cheaper rung in PRECOND_COST_ORDER is vline
            assert problems["a"].calls[0]["preconditioner"] == "vline"
            assert resp.solved == scenario("a")
            # vline is the last rung: jacobi costs 9-35x the solve time it
            # would shed, so the request keeps its own preconditioner
            assert last.status == "ok"
            assert problems["v"].calls[0]["preconditioner"] is None
        run(body())

    def test_degradation_rung_coarser_mesh(self):
        async def body():
            service, problems = make_service(degrade_mesh_depth=0)
            async with service:
                resp = await service.submit(
                    SolveRequest(scenario("a", resolution_km=500.0))
                )
            assert resp.status == "degraded"
            assert resp.reason == "coarse_mesh"
            assert resp.solved.name == "a~coarse"
            assert resp.solved.resolution_km == 1000.0
            assert "a~coarse" in problems and "a" not in problems
        run(body())

    def test_full_queue_serves_cached_then_sheds(self):
        async def body():
            gate = threading.Event()
            behaviors = {"slow1": Behavior(block=gate), "slow2": Behavior(block=gate)}
            service, _ = make_service(behaviors, workers=1, queue_size=1)
            async with service:
                # warm the cached-result rung for scenario a
                warm = await service.submit(SolveRequest(scenario("a")))
                assert warm.status == "ok"
                # occupy the worker, then fill the queue
                t1 = asyncio.create_task(
                    service.submit(SolveRequest(scenario("slow1", num_layers=4)))
                )
                await asyncio.sleep(0.05)
                t2 = asyncio.create_task(
                    service.submit(SolveRequest(scenario("slow2", num_layers=5)))
                )
                await asyncio.sleep(0.05)
                assert service.pool.depth() >= 1
                # queue full + known-good result: cached rung
                cached = await service.submit(SolveRequest(scenario("a")))
                assert cached.status == "degraded"
                assert cached.reason == "cached"
                assert cached.result is warm.result
                # queue full + nothing cached: shed
                shed = await service.submit(
                    SolveRequest(scenario("new", num_layers=6))
                )
                assert shed.status == "shed"
                assert shed.reason == "queue_full"
                gate.set()
                await asyncio.gather(t1, t2)
        run(body())

    def test_worker_kill_resumes_from_checkpoint(self):
        async def body():
            ks = KillSwitch()
            s = scenario("a")
            ks.arm(s.digest, 1)
            service, problems = make_service(kill_switch=ks)
            async with service:
                resp = await service.submit(SolveRequest(s))
            assert resp.status == "ok"
            assert resp.resumes == 1
            assert ks.fired == [(s.digest, 1)]
            assert service.pool.deaths == 1
            calls = problems["a"].calls
            assert len(calls) == 2
            assert calls[0]["resume_from"] is None
            assert calls[1]["resume_from"].step == 1
        run(body())


# ----------------------------------------------------------------------
# HTTP frontend
# ----------------------------------------------------------------------

async def _http(port: int, raw: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw.encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    code = int(head.split(b" ")[1])
    return code, body


class TestHttp:
    def test_endpoints(self):
        async def body():
            service, _ = make_service()
            bound: list[int] = []
            async with service:
                server_task = asyncio.create_task(
                    serve_http(service, port=0, ready_cb=bound.append)
                )
                while not bound:
                    await asyncio.sleep(0.01)
                port = bound[0]

                code, payload = await _http(
                    port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert code == 200
                health = json.loads(payload)
                assert health["status"] == "ok"
                assert health["workers"] == 2

                doc = json.dumps({"name": "http-demo", "resolution_km": 600})
                code, payload = await _http(
                    port,
                    "POST /solve HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(doc)}\r\n\r\n{doc}",
                )
                assert code == 200
                solved = json.loads(payload)
                assert solved["status"] == "ok"
                assert solved["scenario"] == "http-demo"

                code, payload = await _http(
                    port, "POST /solve HTTP/1.1\r\nHost: x\r\n"
                          "Content-Length: 2\r\n\r\n{}",
                )
                assert code == 200  # all-defaults scenario is valid

                bad = json.dumps({"name": "x", "preconditioner": "bogus"})
                code, _ = await _http(
                    port,
                    "POST /solve HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(bad)}\r\n\r\n{bad}",
                )
                assert code == 400

                code, payload = await _http(
                    port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert code == 200
                families = parse_exposition(payload.decode())
                assert "serve_requests" in families

                code, _ = await _http(
                    port, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert code == 404

                server_task.cancel()
                try:
                    await server_task
                except asyncio.CancelledError:
                    pass
        run(body())
