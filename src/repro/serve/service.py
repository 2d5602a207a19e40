"""The resilient asyncio solve service.

Request lifecycle (all policy decisions on the event-loop thread; each
worker thread relays its requests to its own numerics process):

1. **dedup** -- an identical scenario already in flight?  Join its
   future; one solve serves every concurrent duplicate.
2. **circuit breaker** -- per-scenario; a scenario that keeps failing
   is shed (``breaker_open``) until its half-open probe succeeds.
3. **degradation ladder** -- admission looks at queue depth:
   normal -> *coarser mesh* -> *cached last-good result* -> shed
   (``queue_full``).  Degraded responses are typed (``degraded`` +
   rung) so callers know what they got; they are never
   bitwise-compared to full-fidelity results.
4. **deadline** -- the wall-clock budget starts at admission (queue
   wait counts), propagates into Newton/GMRES as a cooperative
   :class:`~repro.resilience.Deadline`, and expires as a typed
   ``timeout`` response carrying the last checkpoint as a partial.
5. **execution** -- a worker thread re-checks the deadline (queue wait
   spent it too), then its numerics process builds/reuses the
   scenario's cached artifacts and solves under heartbeat + kill-switch
   (:mod:`repro.serve.process`); the worker retries transient failures
   up to the recovery policy's ``max_retries`` and trampolines the
   outcome back onto the loop.
6. **supervision** -- a worker whose process dies mid-job (killed on a
   heartbeat, or on its own) hands the job back on its way out and
   starts its replacement; the job resumes from its last heartbeated
   checkpoint on a new process (bitwise-exact continuation).  A hung
   solve is bounded by its deadline.

Every decision increments a ``serve.*`` metric through the standard
observability registry, so the OpenMetrics exposition and the chaos
harness read one source of truth.
"""

from __future__ import annotations

import asyncio
import time

from repro.observability import get_metrics, get_tracer
from repro.resilience.deadline import Deadline, SolveTimeout
from repro.resilience.policies import RecoveryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ArtifactCache
from repro.serve.pool import Job, KillSwitch, WorkerKilled, WorkerPool
from repro.serve.process import ProcessCache
from repro.serve.requests import SolveRequest, SolveResponse, SolveScenario
from repro.store import MAX_ENTRIES

__all__ = ["SolveService"]


class SolveService:
    """Bounded-queue solve service with retries, breaking and degradation.

    ``workers`` is the number of numerics processes: without a ``cache``
    the service forks a zygote here, before the pool's threads start,
    and each worker solves in a process forked from it
    (:class:`~repro.serve.process.ProcessCache`).  A given ``cache``
    (an :class:`ArtifactCache`, or a test's stub) is solved on in the
    worker threads themselves.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 8,
        policy: RecoveryPolicy | None = None,
        cache: ArtifactCache | None = None,
        kill_switch: KillSwitch | None = None,
        clock=time.monotonic,
    ):
        if queue_size < 1:
            raise ValueError("queue_size must be positive")
        if workers < 1:  # before the fork below
            raise ValueError("at least one worker required")
        self.queue_size = queue_size
        #: queue depth from which admission solves the coarser mesh (two
        #: thirds of the bounded queue; a full queue serves the cached
        #: result or sheds)
        self.degrade_mesh_depth = max(2, (2 * queue_size) // 3)
        self.policy = policy if policy is not None else RecoveryPolicy(max_retries=1)
        #: the numerics processes this service forked (and stops)
        self._processes = ProcessCache() if cache is None else None
        self.cache = cache if cache is not None else self._processes
        self.kill_switch = kill_switch if kill_switch is not None else KillSwitch()
        self.clock = clock
        self.pool = WorkerPool(workers=workers)
        #: digest -> breaker, created at the digest's first failure; a
        #: digest without one is closed
        self.breakers: dict[str, CircuitBreaker] = {}
        #: digest -> future of the in-flight solve (the dedup join point)
        self._inflight: dict[str, asyncio.Future] = {}
        #: digest -> last known-good result (the ladder's cached rung),
        #: the most recently solved ``MAX_ENTRIES``; loop thread only
        self._good: dict[str, object] = {}
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def stop(self) -> None:
        self.pool.shutdown()
        if self._processes is not None:
            self._processes.close()

    async def __aenter__(self) -> "SolveService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    def _finish(self, response: SolveResponse, t0: float) -> SolveResponse:
        response.latency_s = self.clock() - t0
        get_metrics().histogram("serve.latency_s").observe(response.latency_s)
        get_metrics().counter(f"serve.response.{response.status}").inc()
        return response

    # ------------------------------------------------------------------
    async def submit(self, request: SolveRequest) -> SolveResponse:
        """Admit, (maybe) degrade, solve and respond -- the public API."""
        t0 = self.clock()
        metrics = get_metrics()
        metrics.counter("serve.requests").inc()
        scenario = request.scenario
        digest = scenario.digest

        # 1. dedup: identical problem already solving?  Join it -- the
        # admission work (breaker, ladder) was already done once.
        existing = self._inflight.get(digest)
        if existing is not None:
            metrics.counter("serve.dedup").inc()
            primary = await asyncio.shield(existing)
            joined = SolveResponse(
                request=request,
                status=primary.status,
                reason=primary.reason,
                result=primary.result,
                partial=primary.partial,
                solved=primary.solved,
                deduped=True,
                attempts=primary.attempts,
                resumes=primary.resumes,
            )
            return self._finish(joined, t0)

        # 2. circuit breaker (per scenario digest)
        br = self.breakers.get(digest)
        if br is not None and not br.allow():
            metrics.counter("serve.shed.breaker_open").inc()
            return self._finish(
                SolveResponse(request=request, status="shed", reason="breaker_open"),
                t0,
            )

        # 3. degradation ladder by queue pressure
        solved = scenario
        rung = ""
        depth = self.pool.depth()
        if depth >= self.queue_size:
            cached = self.cached_result(scenario)
            if cached is not None:
                metrics.counter("serve.degraded.cached").inc()
                return self._finish(
                    SolveResponse(
                        request=request, status="degraded", reason="cached",
                        result=cached, solved=scenario,
                    ),
                    t0,
                )
            metrics.counter("serve.shed.queue_full").inc()
            return self._finish(
                SolveResponse(request=request, status="shed", reason="queue_full"), t0
            )
        if depth >= self.degrade_mesh_depth:
            solved = scenario.coarsened()
            rung = "coarse_mesh"
            metrics.counter("serve.degraded.coarse_mesh").inc()

        # 4. deadline clock starts now: queue wait spends the budget
        deadline = (
            Deadline(request.deadline_s, clock=self.clock)
            if request.deadline_s is not None
            else None
        )

        # 5. enqueue; the worker resolves artifacts and solves
        loop = self._loop or asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        resp_fut: asyncio.Future = loop.create_future()
        if rung == "":
            # only full-fidelity in-flight solves are dedup targets: a
            # joiner must get what it asked for, not a degraded stand-in;
            # joiners await resp_fut, which resolves to the FINAL typed
            # response (after breaker accounting), not the raw outcome
            self._inflight[digest] = resp_fut

        def execute(job: Job):
            return self._execute(job, solved, deadline)

        def on_done(job: Job, outcome) -> None:
            loop.call_soon_threadsafe(self._resolve, fut, outcome)

        job = Job(execute, on_done)
        self.pool.submit(job)
        try:
            outcome = await fut
        except BaseException:
            if not resp_fut.done():
                resp_fut.cancel()
            raise
        finally:
            if self._inflight.get(digest) is resp_fut:
                del self._inflight[digest]

        # 6. typed response + breaker accounting (loop thread, race-free)
        kind, payload, attempts, resumes = outcome
        br = self.breakers.get(digest)
        if kind != "ok" and br is None:
            br = self.breakers[digest] = CircuitBreaker(digest)
        if kind == "ok":
            self._good.pop(solved.digest, None)
            self._good[solved.digest] = payload
            if len(self._good) > MAX_ENTRIES:
                del self._good[next(iter(self._good))]
            if br is not None:
                br.record_success()
            status = "degraded" if rung else "ok"
            resp = SolveResponse(
                request=request, status=status, reason=rung, result=payload,
                solved=solved, attempts=attempts, resumes=resumes,
            )
        elif kind == "timeout":
            br.record_failure("timeout")
            resp = SolveResponse(
                request=request, status="timeout", reason=str(payload),
                partial=payload.checkpoint, solved=solved,
                attempts=attempts, resumes=resumes,
            )
        else:
            br.record_failure(str(payload))
            resp = SolveResponse(
                request=request, status="failed", reason=str(payload),
                solved=solved, attempts=attempts, resumes=resumes,
            )
        if not resp_fut.done():
            resp_fut.set_result(resp)
        return self._finish(resp, t0)

    def cached_result(self, scenario: SolveScenario):
        """The last known-good result for ``scenario``, or ``None``."""
        return self._good.get(scenario.digest)

    @staticmethod
    def _resolve(fut: asyncio.Future, outcome) -> None:
        if not fut.done():
            fut.set_result(outcome)

    # ------------------------------------------------------------------
    def _execute(self, job: Job, scenario: SolveScenario, deadline):
        """Worker-thread body: artifacts, heartbeat, retries, typed outcome.

        Returns ``(kind, payload, attempts, resumes)`` -- never raises,
        except :class:`WorkerKilled` (the kill switch fired, or the
        numerics process died) which deliberately escapes to kill the
        thread (the dying worker requeues the job to resume from its
        last heartbeated checkpoint, so ``job.resumes``/``job.checkpoint``
        carry across lives).
        """
        tr = get_tracer()
        attempts = 0
        while True:
            attempts += 1
            try:
                with tr.span(
                    "serve.execute", scenario=scenario.name, attempt=attempts,
                    resumes=job.resumes,
                ):
                    def heartbeat(ckpt) -> None:
                        job.beat(ckpt)
                        self.kill_switch.check(scenario.digest, ckpt.step, job.resumes)

                    if deadline is not None:  # queue wait spent the budget too
                        deadline.check("serve.queue", checkpoint=job.checkpoint)
                    # the one place a worker enters numerics (a cache miss builds)
                    entry = self.cache.get(scenario)
                    with entry.lock:
                        sol = entry.problem.solve(
                            checkpoint_cb=heartbeat,
                            resume_from=job.checkpoint,
                            deadline=deadline,
                        )
                return ("ok", sol, attempts, job.resumes)
            except SolveTimeout as exc:
                # terminal: the budget is spent; retrying cannot help
                return ("timeout", exc, attempts, job.resumes)
            except WorkerKilled:
                # not a solve failure: the WORKER dies (thread exits)
                # and requeues this job to resume from its checkpoint
                raise
            except Exception as exc:  # noqa: BLE001 - typed into the response
                get_metrics().counter("serve.solve_errors").inc()
                if attempts > self.policy.max_retries:
                    return ("failed", exc, attempts, job.resumes)
                get_metrics().counter("serve.retries").inc()
