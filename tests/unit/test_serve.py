"""Unit tests for the solve service stack (repro.serve).

Service tests swap the artifact-cache builder for a stub problem so
they exercise the SERVICE semantics -- dedup, breaker, degradation
ladder, retry, timeout, worker kill + checkpoint resume -- in
milliseconds, without building a single mesh.  The stub honours the
same solve() contract the real problem exposes (checkpoint_cb,
resume_from, deadline), which is exactly the seam the
service depends on.
"""

import asyncio
import contextlib
import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.observability import get_metrics, get_series, parse_exposition
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
from repro.serve import breaker
from repro.serve import service as serve_service
from repro.serve.http import MAX_BODY_BYTES, serve_http


# ----------------------------------------------------------------------
# stub problem honouring the real solve() seam
# ----------------------------------------------------------------------

class Behavior:
    """Scripted behaviour for one stub problem."""

    def __init__(self, fail_times: int = 0, block: threading.Event | None = None,
                 steps: int = 3, entered: threading.Event | None = None):
        self.fail_remaining = fail_times
        self.block = block
        self.steps = steps
        #: set when solve() is entered (before it waits on ``block``)
        self.entered = entered


class FakeProblem:
    def __init__(self, scenario: SolveScenario, behavior: Behavior | None):
        self.scenario = scenario
        self.behavior = behavior or Behavior()
        self.calls: list[dict] = []

    def solve(self, checkpoint_cb=None, resume_from=None, deadline=None, **_kw):
        b = self.behavior
        self.calls.append({"resume_from": resume_from})
        if b.entered is not None:
            b.entered.set()
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

    def test_equal_problems_share_one_digest(self):
        """``600`` and ``600.0`` build equal configs, so they are one
        problem: one cache entry, one dedup key, one breaker."""
        a = scenario("a", resolution_km=600, num_layers=3.0, nparts=1, newton_steps=8.0)
        b = scenario("b", resolution_km=600.0, num_layers=3, nparts=1.0, newton_steps=8)
        assert a.digest == b.digest == scenario("c").digest
        assert type(a.resolution_km) is float
        assert [type(getattr(a, f)) for f in ("num_layers", "nparts", "newton_steps")] == [int] * 3
        assert a.to_config() == b.to_config()

    @pytest.mark.parametrize("field", ["num_layers", "nparts", "newton_steps"])
    @pytest.mark.parametrize("value", [3.5, True, "3", float("nan")])
    def test_a_count_that_is_not_whole_is_refused(self, field, value):
        """Refused at admission, not in the worker (``AntarcticaConfig``
        raised ``TypeError`` deep in the build) and not truncated."""
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            scenario("bad", **{field: value})

    def test_configs_refuse_a_count_that_is_not_whole(self):
        from repro.app.config import AntarcticaConfig, VelocityConfig

        with pytest.raises(ValueError, match="num_layers must be a whole number"):
            AntarcticaConfig(num_layers=3.5)
        with pytest.raises(ValueError, match="nparts must be a whole number"):
            VelocityConfig(nparts=2.5)
        assert AntarcticaConfig(num_layers=3.0).key == AntarcticaConfig(num_layers=3).key

    def test_coarsened(self):
        s = scenario("s", resolution_km=500.0, num_layers=8)
        coarse = s.coarsened()
        assert coarse.name == "s~coarse"
        assert coarse.resolution_km == 1000.0
        assert coarse.num_layers == 4
        assert coarse.digest != s.digest

    @pytest.mark.parametrize("n", range(1, 9))
    def test_coarsened_never_adds_layers(self, n):
        """The stand-in is the cheaper problem: a 1- or 2-layer request
        keeps its layers (the floor of 3 used to raise 2 to 3)."""
        coarse = scenario("s", resolution_km=500.0, num_layers=n).coarsened()
        assert coarse.num_layers <= n
        assert coarse.resolution_km == 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            scenario("bad", preconditioner="nonsense")
        with pytest.raises(ValueError):
            scenario("bad", num_layers=0)
        with pytest.raises(ValueError):
            SolveResponse(request=SolveRequest(scenario("x")), status="weird")
        # NaN slips past every ``<= 0`` check; a NaN deadline never expires
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="resolution_km must be finite"):
                scenario("bad", resolution_km=value)
            with pytest.raises(ValueError, match="deadline_s must be finite"):
                SolveRequest(scenario("x"), deadline_s=value)

    @pytest.mark.parametrize(
        "value", [True, False, "5", b"5", [5.0]], ids=["true", "false", "str", "bytes", "list"]
    )
    def test_a_deadline_that_is_not_a_number_is_refused(self, value):
        """``True`` passed ``math.isfinite`` as 1, and the HTTP frontend's
        ``float()`` made ``"5"`` a five-second budget."""
        with pytest.raises(ValueError, match="deadline_s must be a number"):
            SolveRequest(scenario("x"), deadline_s=value)

    def test_a_whole_deadline_is_stored_as_seconds(self):
        assert type(SolveRequest(scenario("x"), deadline_s=5).deadline_s) is float


# ----------------------------------------------------------------------
# circuit breaker state machine
# ----------------------------------------------------------------------

@pytest.fixture
def breaker_settings(monkeypatch):
    """Set the breaker's trip threshold and probe schedule for one test."""
    def settle(failure_threshold: int, probe_after: int = breaker.PROBE_AFTER) -> None:
        monkeypatch.setattr(breaker, "FAILURE_THRESHOLD", failure_threshold)
        monkeypatch.setattr(breaker, "PROBE_AFTER", probe_after)
    return settle


class TestCircuitBreaker:
    def test_success_resets_failure_streak(self, breaker_settings):
        breaker_settings(failure_threshold=3)
        br = CircuitBreaker("s")
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"
        assert br.allow()

    def test_trips_open_at_threshold(self, breaker_settings):
        breaker_settings(failure_threshold=2)
        br = CircuitBreaker("s")
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()

    def test_probe_schedule_arming_request_is_still_shed(self, breaker_settings):
        breaker_settings(failure_threshold=1, probe_after=2)
        br = CircuitBreaker("s")
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

    def test_probe_failure_reopens_and_resets_shed_count(self, breaker_settings):
        breaker_settings(failure_threshold=1, probe_after=2)
        br = CircuitBreaker("s")
        br.record_failure()
        br.allow(); br.allow()         # arm
        assert br.allow()              # probe
        br.record_failure("still broken")
        assert br.state == "open"
        assert not br.allow()          # shed count restarted: not armed yet
        assert br.state == "open"
        assert not br.allow()
        assert br.state == "half_open"

    def test_transition_record(self, breaker_settings):
        breaker_settings(failure_threshold=1, probe_after=1)
        br = CircuitBreaker("s")
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
    def test_dying_worker_hands_its_job_back(self):
        """No service and no polling: the dying thread requeues its job
        and starts its replacement on its way out."""
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
        assert done.wait(timeout=5.0)
        assert pool.deaths == 1
        assert len(pool.workers) == 1
        pool.shutdown()
        # joined: no second delivery can still be on its way
        assert results == [("resumed-from", 2)]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _until(predicate, what: str) -> None:
    limit = time.monotonic() + 5.0
    while not predicate():
        assert time.monotonic() < limit, f"timed out waiting for {what}"
        time.sleep(0.002)


# ----------------------------------------------------------------------
# the service itself
# ----------------------------------------------------------------------

def run(coro):
    return asyncio.run(coro)


def make_service(behaviors=None, **kw):
    cache, problems = make_cache(behaviors)
    kw.setdefault("policy", RecoveryPolicy(max_retries=1))
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
            assert service.cached_result(scenario("a")) is resp.result
        run(body())

    def test_remember_good_feeds_cached_result(self, monkeypatch):
        """The service keeps the cached rung itself, one bounded map for
        every cache: the most recently solved ``MAX_ENTRIES`` digests."""
        monkeypatch.setattr(serve_service, "MAX_ENTRIES", 2)

        async def body():
            service, _ = make_service()
            a, b, c = scenario("a"), scenario("b", num_layers=4), scenario("c", num_layers=5)
            async with service:
                assert service.cached_result(a) is None
                ra = await service.submit(SolveRequest(a))
                assert service.cached_result(a) is ra.result is not None
                rb = await service.submit(SolveRequest(b))
                ra2 = await service.submit(SolveRequest(a))  # a is now the newest
                await service.submit(SolveRequest(c))  # drops b
            assert service.cached_result(a) is ra2.result
            assert service.cached_result(b) is None and rb.result is not None
            assert service.cached_result(c) is not None
            assert not hasattr(service.cache, "cached_result")
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
                policy=RecoveryPolicy(max_retries=2),
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

    def test_breaker_sheds_after_failures_then_probe_recovers(self, breaker_settings):
        breaker_settings(failure_threshold=2, probe_after=1)

        async def body():
            service, problems = make_service(
                {"a": Behavior(fail_times=2)},
                policy=RecoveryPolicy(max_retries=0),
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

    def test_successful_requests_leave_no_breaker(self):
        async def body():
            service, _ = make_service()
            async with service:
                for k in range(5):
                    req = SolveRequest(scenario(f"s{k}", num_layers=3 + k))
                    assert (await service.submit(req)).status == "ok"
            # a breaker is made at a digest's first failure, so a service
            # seeing only successes keeps none
            assert service.breakers == {}
        run(body())

    def test_degradation_rung_coarser_mesh(self):
        async def body():
            service, problems = make_service()
            service.degrade_mesh_depth = 0
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
            other = scenario("b", num_layers=4)
            async with make_service()[0] as undisturbed:
                want = await undisturbed.submit(SolveRequest(s))
            ks.arm(s.digest, 1)
            service, problems = make_service(kill_switch=ks)
            async with service:
                # the worker dies mid-solve: the other worker's request
                # and the revived job are both served
                resp, bystander = await asyncio.gather(
                    service.submit(SolveRequest(s)),
                    service.submit(SolveRequest(other)),
                )
            assert bystander.status == "ok" and bystander.resumes == 0
            assert resp.status == "ok"
            assert resp.resumes == 1
            assert np.array_equal(resp.result.u, want.result.u)
            assert ks.fired == [(s.digest, 1)]
            assert service.pool.deaths == 1
            calls = problems["a"].calls
            assert len(calls) == 2
            assert calls[0]["resume_from"] is None
            assert calls[1]["resume_from"].step == 1
        run(body())

    def test_revivals_share_one_series(self):
        """``serve.worker_revival`` carries no per-job label: a long-running
        service must not grow a series (and a /metrics sample) per revival."""
        async def body():
            ks = KillSwitch()
            service, _ = make_service(kill_switch=ks)
            before = get_series().get("serve.worker_revival")
            offered = before.count if before else 0
            families = []
            async with service:
                for s in (scenario("a"), scenario("b", num_layers=4)):
                    ks.arm(s.digest, 1)
                    resp = await service.submit(SolveRequest(s))
                    assert resp.status == "ok" and resp.resumes == 1
                    families.append(
                        [x.labels for x in get_series().all() if x.name == "serve.worker_revival"]
                    )
            assert families == [[{}], [{}]]
            assert get_series().get("serve.worker_revival").count == offered + 2
        run(body())

    def test_stop_leaves_no_worker_thread_after_kills(self):
        """Two deaths replace two workers; ``stop()`` joins every thread
        the service started, well inside the pool's 5 s join timeout."""
        async def body():
            ks = KillSwitch()
            service, _ = make_service(kill_switch=ks)
            async with service:
                for s in (scenario("a"), scenario("b", num_layers=4)):
                    ks.arm(s.digest, 1)
                    assert (await service.submit(SolveRequest(s))).resumes == 1
                t0 = time.monotonic()
            return service, time.monotonic() - t0

        bystanders = set(threading.enumerate())
        service, stop_s = run(body())
        assert service.pool.deaths == 2
        assert stop_s < 1.0
        assert [t for t in threading.enumerate()
                if t.name.startswith("solve-worker-") and t not in bystanders] == []

    def test_deadline_spent_in_queue_is_typed_timeout_without_build(self):
        async def body():
            clock = FakeClock()
            gate, entered = threading.Event(), threading.Event()
            service, problems = make_service(
                {"holder": Behavior(block=gate, entered=entered)}, clock=clock, workers=1
            )
            async with service:
                first = asyncio.create_task(
                    service.submit(SolveRequest(scenario("holder")))
                )
                await asyncio.to_thread(entered.wait, 5.0)
                late = asyncio.create_task(
                    service.submit(SolveRequest(scenario("late", num_layers=4), deadline_s=10.0))
                )
                await asyncio.to_thread(
                    _until, lambda: service.pool.depth() == 1, "the late job to queue"
                )
                clock.now = 20.0  # the budget runs out while the job waits in the queue
                gate.set()
                held, resp = await asyncio.gather(first, late)
            assert held.status == "ok"
            assert resp.status == "timeout"
            assert resp.partial is None
            assert resp.attempts == 1
            assert "serve.queue" in resp.reason
            assert "late" not in problems  # no build was spent on it
        run(body())

# ----------------------------------------------------------------------
# HTTP frontend
# ----------------------------------------------------------------------

async def _http(port: int, raw: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw.encode())
    await writer.drain()
    writer.write_eof()  # the whole request is sent: a short body ends here
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    code = int(head.split(b" ")[1])
    return code, body


async def _serving(service):
    """Start the HTTP frontend on a free port; returns (task, port)."""
    bound: list[int] = []
    task = asyncio.create_task(serve_http(service, port=0, ready_cb=bound.append))
    while not bound:
        await asyncio.sleep(0.01)
    return task, bound[0]


async def _stop(task) -> None:
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await task


class TestHttp:
    def test_metrics_after_two_client_burst(self):
        """The exposition counts what the burst did: six responses, seven
        executed solves (a retry executes twice)."""
        async def body():
            get_metrics().reset()
            service, problems = make_service({"flaky": Behavior(fail_times=1)})
            async with service:
                server_task, port = await _serving(service)

                async def client(name: str, layers: int) -> None:
                    for _ in range(3):
                        doc = json.dumps({"name": name, "num_layers": layers})
                        code, _ = await _http(
                            port,
                            "POST /solve HTTP/1.1\r\nHost: x\r\n"
                            f"Content-Length: {len(doc)}\r\n\r\n{doc}",
                        )
                        assert code == 200

                await asyncio.gather(client("steady", 3), client("flaky", 4))
                code, payload = await _http(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                assert code == 200
                await _stop(server_task)
            families = parse_exposition(payload.decode())
            executed = sum(len(p.calls) for p in problems.values())
            assert executed == 7

            def sample(family: str, suffix: str) -> float:
                samples = {n: v for n, _l, v, _t in families[family]["samples"]}
                return samples[f"{family}{suffix}"]

            assert sample("serve_latency_s", "_count") == 6
            assert sample("serve_retries", "_total") == executed - 6
        run(body())

    def test_endpoints(self):
        async def body():
            service, _ = make_service()
            async with service:
                server_task, port = await _serving(service)

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

                await _stop(server_task)
        run(body())

    def _post(self, raws):
        """(code, body) per raw request sent to one stub-backed frontend."""
        async def body():
            service, problems = make_service()
            async with service:
                server_task, port = await _serving(service)
                out = [await _http(port, raw) for raw in raws]
                await _stop(server_task)
            return out, problems
        return run(body())

    @staticmethod
    def _solve_request(doc: str) -> str:
        return f"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: {len(doc)}\r\n\r\n{doc}"

    def test_family_reaches_the_scenario(self):
        """``family`` is part of the problem identity: the scenario built
        and the digest reported are Greenland's, and an unknown family is
        the scenario's ``ValueError`` -> 400."""
        (ok, bad), problems = self._post([
            self._solve_request(json.dumps({"name": "g", "family": "greenland"})),
            self._solve_request(json.dumps({"name": "m", "family": "mars"})),
        ])
        assert ok[0] == 200
        assert problems["g"].scenario.family == "greenland"
        assert json.loads(ok[1])["digest"] == scenario("g", family="greenland").digest
        assert bad[0] == 400 and "mars" in json.loads(bad[1])["error"]
        assert "m" not in problems

    @pytest.mark.parametrize(
        "doc",
        ["[]", "3", '"solve"', "null", '{"resolution_km": NaN}', '{"deadline_s": Infinity}'],
    )
    def test_non_object_body_is_a_400(self, doc):
        """A malformed body never reaches the service: not a JSON object,
        or an object with a non-finite number (Python's ``json`` parses
        ``NaN`` and ``Infinity``; the request types reject them)."""
        ((code, payload),), problems = self._post([self._solve_request(doc)])
        error = json.loads(payload)["error"]
        assert code == 400
        assert ("must be finite" if doc.startswith("{") else "JSON object") in error
        assert not problems

    @pytest.mark.parametrize(
        "doc",
        [
            '{"num_layers": 3.7}', '{"nparts": "2"}', '{"resolution_km": "600"}',
            '{"deadline_s": "5"}', '{"deadline_s": true}',
        ],
    )
    def test_a_value_of_the_wrong_type_is_a_400(self, doc):
        """The JSON values reach the scenario as sent: a 3.7-layer request
        used to solve 3 layers (``int()`` truncated it)."""
        ((code, payload),), problems = self._post([self._solve_request(doc)])
        assert code == 400
        assert "must be a" in json.loads(payload)["error"]
        assert not problems

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_bad_content_length_is_a_400(self, length):
        raw = f"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}"
        ((code, payload),), problems = self._post([raw])
        assert code == 400 and "error" in json.loads(payload)
        assert not problems

    def test_an_oversized_content_length_is_a_413_before_the_body(self):
        """A declared 1 GiB body is refused from the headers alone: the
        client keeps its connection open and sends none of it."""
        async def body():
            service, problems = make_service()
            async with service:
                server_task, port = await _serving(service)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 1073741824\r\n\r\n"
                )
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=1.0)
                writer.close()
                await _stop(server_task)
            return data, problems
        data, problems = run(body())
        head, _, payload = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
        assert str(MAX_BODY_BYTES) in json.loads(payload)["error"]
        assert not problems

    def test_body_shorter_than_content_length_is_a_400(self):
        raw = "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{\"name\": 1}"
        ((code, payload),), problems = self._post([raw])
        assert code == 400
        assert json.loads(payload)["error"] == "body ended after 11 of 50 Content-Length bytes"
        assert not problems
