"""Worker pool with checkpoint-resume on death.

Workers are plain threads pulling :class:`Job` objects from a shared
queue; the service's jobs hand their numerics to the worker's own
numerics process (:mod:`repro.serve.process`), so N workers compute on
N cores.  What makes the pool a *service* component is the failure
model:

* every accepted Newton step heartbeats through the solver's
  ``checkpoint_cb`` (:meth:`Job.beat`), leaving the latest
  :class:`~repro.resilience.NewtonCheckpoint` on the job;
* a worker can die mid-job: the chaos harness's :class:`KillSwitch`
  raises :class:`WorkerKilled` inside the heartbeat (the pool analogue
  of the injectors' RankKill) and the worker SIGKILLs its process, or
  the process dies on its own and the worker reads EOF;
* the dying worker hands its job back on its way out: the job is
  **requeued with ``resume_from`` set to its last checkpoint** and a
  replacement worker starts, so the pool keeps its size.

Hangs are bounded by the request's cooperative
:class:`~repro.resilience.Deadline`.

Resume is exact: the fused Newton path re-evaluates the residual and
Jacobian at the checkpointed iterate exactly as an uninterrupted step
start would, so a killed-and-resumed solve is bitwise identical to an
undisturbed one -- the property the chaos scenario asserts.
"""

from __future__ import annotations

import itertools
import queue
import threading

from repro.observability import get_metrics, get_series

__all__ = ["Job", "KillSwitch", "Worker", "WorkerKilled", "WorkerPool"]


class WorkerKilled(RuntimeError):
    """A worker dies: its kill switch fired, or its numerics process died."""


class KillSwitch:
    """Deterministic worker-kill schedule (the pool's RankKill).

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

    def __init__(self, execute, on_done):
        self.id = next(self._ids)
        #: ``execute(job) -> outcome`` run on a worker thread; an
        #: exception escaping it kills the worker (the service lets only
        #: :class:`WorkerKilled` escape and encodes the rest in its outcome)
        self.execute = execute
        #: ``on_done(job, outcome)`` called from the worker thread on
        #: completion (the service trampolines it onto the event loop)
        self.on_done = on_done
        #: latest NewtonCheckpoint heartbeated by the solve (the
        #: ``resume_from`` of this job's next life)
        self.checkpoint = None
        #: times this job was revived after a worker death
        self.resumes = 0

    def beat(self, checkpoint) -> None:
        """Heartbeat from the solver's ``checkpoint_cb``."""
        self.checkpoint = checkpoint


class Worker:
    """One pool thread; ``current_job`` is its in-flight work (if any)."""

    _ids = itertools.count(1)

    def __init__(self, pool: "WorkerPool"):
        self.pool = pool
        self.id = next(self._ids)
        self.current_job: Job | None = None
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
            except BaseException as exc:
                # death: hand the job back and start the replacement on
                # the way out; only a WorkerKilled death exits quietly
                self.pool._died(self)
                if isinstance(exc, WorkerKilled):
                    return
                raise
            job.on_done(job, outcome)
            self.current_job = None


class WorkerPool:
    """Fixed-size pool over one shared job queue.

    The queue is unbounded at this layer -- a dying worker's requeue
    must never block or drop -- and the *service* enforces admission
    against :meth:`depth` before submitting, which is where
    bounded-queue semantics (load shedding) belong.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("at least one worker required")
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        #: guards ``workers``, ``deaths`` and ``_closed`` against a death
        #: racing another death or :meth:`shutdown`
        self._lock = threading.Lock()
        self.workers: list[Worker] = [Worker(self) for _ in range(workers)]
        self.deaths = 0

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

    # ------------------------------------------------------------------
    def _died(self, worker: Worker) -> None:
        """``worker`` is dying: requeue its job and replace it.

        The job goes to the back of the queue with ``resumes + 1``, so
        its next life resumes from its last heartbeated checkpoint on
        whichever worker picks it up.  After :meth:`shutdown` the job
        is still requeued but no replacement starts.
        """
        job, worker.current_job = worker.current_job, None
        job.resumes += 1
        metrics = get_metrics()
        metrics.counter("serve.worker.deaths").inc()
        metrics.counter("serve.job.resumes").inc()
        # no job_id label: that grew one never-evicted series per revival
        get_series().record("serve.worker_revival", job.resumes)
        self._queue.put(job)
        with self._lock:
            self.deaths += 1
            if not self._closed:
                self.workers[self.workers.index(worker)] = Worker(self)

    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        with self._lock:
            self._closed = True
            workers = list(self.workers)
        for _ in workers:
            self._queue.put(None)
        for w in workers:
            w.thread.join(timeout=join_timeout_s)
