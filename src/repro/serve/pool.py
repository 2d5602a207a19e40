"""Supervised thread worker pool with checkpoint-resume on death.

The solve is pure-Python/numpy compute, so workers are plain threads
pulling :class:`Job` objects from a shared queue -- and at most one of
them computes at a time (:meth:`WorkerPool.lane`): the rest are hot
stand-bys.  What makes the pool a *service* component is the failure
model:

* every accepted Newton step heartbeats through the solver's
  ``checkpoint_cb`` (:meth:`Job.beat`), leaving the latest
  :class:`~repro.resilience.NewtonCheckpoint` on the job;
* a worker can die mid-job -- abruptly (the chaos harness's
  :class:`KillSwitch` raises :class:`WorkerKilled` inside the
  heartbeat, the thread analogue of the fault plane's RankKill) or by
  hanging (heartbeat goes stale);
* the supervisor (:meth:`WorkerPool.reap`, polled by the service's
  async supervisor task) detects either, **requeues the in-flight job
  with ``resume_from`` set to its last checkpoint**, and respawns a
  replacement worker so the pool keeps its size.

Resume is exact: the fused Newton path re-evaluates the residual and
Jacobian at the checkpointed iterate exactly as an uninterrupted step
start would, so a killed-and-resumed solve is bitwise identical to an
undisturbed one -- the property the chaos check asserts.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import threading
import time

from repro.observability import get_metrics, get_tracer

__all__ = ["Job", "KillSwitch", "Worker", "WorkerKilled", "WorkerPool"]


class WorkerKilled(RuntimeError):
    """Raised inside a worker to simulate its abrupt death."""


class KillSwitch:
    """Deterministic worker-kill schedule (the thread-pool RankKill).

    Armed per ``(scenario digest, Newton step)``: the worker solving
    that scenario dies at that step's heartbeat -- but only on the
    job's FIRST life (``resumes == 0``), so the revived job runs to
    completion instead of dying in a loop.  Each kill fires once.
    """

    def __init__(self):
        self._armed: set[tuple[str, int]] = set()
        self.fired: list[tuple[str, int]] = []
        self._lock = threading.Lock()

    def arm(self, digest: str, step: int) -> None:
        with self._lock:
            self._armed.add((digest, int(step)))

    def check(self, digest: str, step: int, resumes: int) -> None:
        """Called from the heartbeat; raises :class:`WorkerKilled` when armed."""
        if resumes > 0:
            return
        key = (digest, int(step))
        with self._lock:
            if key not in self._armed:
                return
            self._armed.remove(key)
            self.fired.append(key)
        raise WorkerKilled(f"kill switch fired for {digest} at step {step}")


class Job:
    """One unit of work: a solve request bound to an executor closure."""

    _ids = itertools.count(1)

    def __init__(self, execute, on_done, clock=time.monotonic):
        self.id = next(self._ids)
        #: ``execute(job) -> outcome`` run on a worker thread; may raise
        #: :class:`WorkerKilled` (death) -- anything else is the
        #: executor's responsibility to catch and encode in its outcome
        self.execute = execute
        #: ``on_done(job, outcome)`` called from the worker thread on
        #: completion (the service trampolines it onto the event loop)
        self.on_done = on_done
        self.clock = clock
        #: latest NewtonCheckpoint heartbeated by the solve (the
        #: ``resume_from`` of this job's next life)
        self.checkpoint = None
        #: times this job was revived after a worker death
        self.resumes = 0
        self.last_beat = clock()
        # exactly-once completion guard: a stalled-then-revived job may
        # eventually finish on BOTH threads; only the first result wins
        self._done = False
        self._done_lock = threading.Lock()

    def beat(self, checkpoint=None) -> None:
        """Heartbeat from the solver's ``checkpoint_cb``."""
        self.last_beat = self.clock()
        if checkpoint is not None:
            self.checkpoint = checkpoint

    def complete(self, outcome) -> bool:
        """Deliver the outcome exactly once; False if already delivered."""
        with self._done_lock:
            if self._done:
                return False
            self._done = True
        self.on_done(self, outcome)
        return True


class Worker:
    """One pool thread; ``current_job`` is its in-flight work (if any)."""

    _ids = itertools.count(1)

    def __init__(self, pool: "WorkerPool"):
        self.pool = pool
        self.id = next(self._ids)
        self.current_job: Job | None = None
        #: set by the supervisor when this worker is presumed hung and
        #: its job has been handed to a replacement
        self.abandoned = False
        self.thread = threading.Thread(
            target=self._run, name=f"solve-worker-{self.id}", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        while True:
            job = self.pool._queue.get()
            if job is None:  # shutdown sentinel
                return
            self.current_job = job
            try:
                outcome = job.execute(job)
            except WorkerKilled:
                # abrupt death: leave current_job set for the reaper and
                # exit the thread -- the supervisor revives the job from
                # its checkpoint and respawns the worker
                return
            job.complete(outcome)
            self.current_job = None


class WorkerPool:
    """Fixed-size supervised pool over one shared job queue.

    The queue is unbounded at this layer -- supervisor requeues must
    never block or drop -- and the *service* enforces admission against
    :meth:`depth` before submitting, which is where bounded-queue
    semantics (load shedding) belong.
    """

    def __init__(self, workers: int = 2, heartbeat_timeout_s: float | None = None,
                 clock=time.monotonic):
        if workers < 1:
            raise ValueError("at least one worker required")
        self._queue: queue.Queue = queue.Queue()
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.clock = clock
        self.workers: list[Worker] = [Worker(self) for _ in range(workers)]
        self.deaths = 0
        self.stalls = 0
        self._closed = False
        #: the numerics lane: the thread inside "build or solve", if any
        self._lane = threading.Condition()
        self._lane_holder: threading.Thread | None = None

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Jobs queued but not yet picked up (the admission signal)."""
        return self._queue.qsize()

    def busy(self) -> int:
        """Workers with a job in flight."""
        return sum(1 for w in self.workers if w.current_job is not None)

    def submit(self, job: Job) -> None:
        if self._closed:
            raise RuntimeError("pool is shut down")
        self._queue.put(job)
        get_metrics().gauge("serve.queue_depth").set(self.depth())

    @contextlib.contextmanager
    def lane(self, job: Job):
        """Hold the pool's one numerics lane while ``job`` builds or solves.

        Two threads inside numpy trade the GIL thousands of times per
        solve and finish later than one after the other would, so one
        worker computes and the rest wait here, on a lock.  A waiter is
        not hung: ``last_beat`` is stamped on acquisition and
        :meth:`reap` times out the holder only.  Any exit frees the lane
        (:class:`WorkerKilled` too); :meth:`shutdown` wakes the waiters.
        """
        with get_tracer().span("serve.lane_wait", job=job.id) as wait:
            with self._lane:
                while self._lane_holder is not None and not self._closed:
                    self._lane.wait()
                if self._closed:
                    raise RuntimeError("pool is shut down")
                self._lane_holder = threading.current_thread()
        get_metrics().histogram("serve.lane_wait_s").observe(wait.dur_s)
        job.beat()
        try:
            yield
        finally:
            with self._lane:
                self._lane_holder = None
                self._lane.notify()

    # ------------------------------------------------------------------
    def _revive(self, worker: Worker, cause: str) -> Job | None:
        job = worker.current_job
        worker.current_job = None
        if job is None or job._done:
            return None
        job.resumes += 1
        job.last_beat = self.clock()
        get_metrics().counter("serve.job.resumes").inc()
        # back of the queue with resume_from = its last checkpoint: any
        # idle worker (including the respawn) picks it up
        self._queue.put(job)
        return job

    def reap(self) -> list[Job]:
        """Detect dead/hung workers; requeue their jobs; respawn.

        Returns the revived jobs (for the supervisor's logging).  A
        dead thread is unambiguous.  A *hung* one (stale heartbeat) is
        presumed dead: its job is handed to a replacement and the old
        thread is marked abandoned -- if it ever finishes anyway, the
        job's exactly-once guard discards the late result.  Only the
        lane's holder can be hung, a waiter is not; the revived job waits
        for the abandoned thread to leave it (as for its entry lock).
        """
        revived: list[Job] = []
        metrics = get_metrics()
        for w in list(self.workers):
            if not w.thread.is_alive():
                self.deaths += 1
                metrics.counter("serve.worker.deaths").inc()
                job = self._revive(w, "death")
                if job is not None:
                    revived.append(job)
                self.workers[self.workers.index(w)] = Worker(self)
                continue
            if (
                self.heartbeat_timeout_s is not None
                and not w.abandoned
                and w.current_job is not None
                and w.thread is self._lane_holder
                and self.clock() - w.current_job.last_beat > self.heartbeat_timeout_s
            ):
                self.stalls += 1
                metrics.counter("serve.worker.stalls").inc()
                w.abandoned = True
                job = self._revive(w, "stall")
                if job is not None:
                    revived.append(job)
                self.workers[self.workers.index(w)] = Worker(self)
        return revived

    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        self._closed = True
        with self._lane:
            self._lane.notify_all()
        for _ in self.workers:
            self._queue.put(None)
        for w in self.workers:
            w.thread.join(timeout=join_timeout_s)
