"""Numerics processes: every pool worker builds and solves in its own.

The paper's code scales by running one MPI rank per device, each with
its own address space.  Under CPython two threads inside numpy share
one core, so each pool worker thread owns a forked numerics process
that holds its own :class:`~repro.store.ArtifactCache` and builds and
solves there.  The worker thread only relays:

* the job goes to the process: the scenario, the solve's arguments,
  the :class:`~repro.resilience.Deadline` (it pickles as its absolute
  ``time.monotonic`` expiry), the armed fault schedule and the trace
  clock;
* each accepted Newton step's checkpoint comes back as a synchronous
  heartbeat: the process waits for the worker's ack, so a kill decided
  on a heartbeat lands before the next step;
* the outcome comes back last: the solution or the typed exception,
  the process's metrics and series (merged into this process's
  registries), its spans while this process's tracer records (under
  the numerics process's pid), and the fault schedule's delivery state
  and log.

:class:`ProcessCache` is the :class:`~repro.serve.service.SolveService`
``cache=`` seam: ``get(scenario)`` returns an entry whose
``problem.solve(...)`` is that relay, so the service has one code path
and the unit tests' in-process caches still substitute for this one.

Fork points.  A zygote is forked when the cache is created -- at
service construction, before any pool thread starts -- and forks every
numerics process, replacements included, from its own single thread,
handing each connection back with :func:`socket.send_fds`.  Nothing is
spawned: a fresh interpreter pays the imports again, and test stub
builders cannot cross a spawn.

Deaths.  A process that dies -- SIGKILLed by its worker when the kill
switch fires on a heartbeat, or on its own -- shows as EOF on its
connection; the relay raises :class:`~repro.serve.pool.WorkerKilled`,
and the pool's death path requeues the job to resume from its last
checkpoint on the replacement worker's new process.

Orphans.  :meth:`ProcessCache.close` stops the zygote, which SIGKILLs
and reaps every process it forked before it exits.  If this process
exits without closing, the zygote reads EOF on its control socket and
does the same; an idle numerics process reads EOF on its connection.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import socket
import sys
import threading
from multiprocessing.connection import Connection

from repro.observability import get_metrics, get_series, get_tracer
from repro.resilience.injectors import absorb_delivery, armed_copy, export_armed
from repro.serve.pool import WorkerKilled
from repro.store import MAX_ENTRIES, ArtifactCache

__all__ = ["NumericsProcess", "ProcessCache"]

#: seconds between the zygote's reaps of processes that died
_REAP_S = 0.1


class NumericsProcess:
    """This side of one numerics process: its pid and connection."""

    def __init__(self, pid: int, conn: Connection):
        self.pid = pid
        self.conn = conn
        #: one job at a time on the connection (the owning worker's)
        self.lock = threading.Lock()
        #: killed, or found dead by EOF (its zygote reaps it)
        self.dead = False

    def kill(self) -> None:
        """SIGKILL the process (its zygote reaps it) and drop the connection."""
        if not self.dead:
            self.dead = True
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        self.conn.close()

    def _died(self) -> WorkerKilled:
        self.dead = True
        self.conn.close()
        return WorkerKilled(f"numerics process {self.pid} died")

    def solve(self, scenario, checkpoint_cb=None, **kwargs):
        """Build-or-reuse ``scenario`` in the process and solve it there."""
        tracer = get_tracer()
        job = {
            "scenario": scenario,
            "kwargs": kwargs,
            "beats": checkpoint_cb is not None,
            "faults": export_armed(),
            "epoch_ns": tracer.epoch_ns,
            "recording": tracer.recording,
        }
        try:
            self.conn.send(job)
            while True:
                kind, payload = self.conn.recv()
                if kind != "beat":
                    break
                try:
                    checkpoint_cb(payload)
                except BaseException:
                    self.kill()
                    raise
                self.conn.send(None)
        except (EOFError, OSError):
            raise self._died() from None
        outcome, metrics, series, spans, delivery = payload
        get_metrics().merge(metrics)
        get_series().merge(series)
        if tracer.recording:
            tracer.adopt(spans)
        absorb_delivery(delivery)
        if kind == "raise":
            raise outcome
        return outcome


class _RemoteEntry:
    """A scenario bound to the calling worker's process (a cache entry's shape)."""

    def __init__(self, scenario, process: NumericsProcess):
        self.scenario = scenario
        self.process = process
        self.lock = process.lock

    @property
    def problem(self) -> "_RemoteEntry":
        return self

    def solve(self, **kwargs):
        return self.process.solve(self.scenario, **kwargs)


class ProcessCache:
    """Per-worker numerics processes behind the artifact cache's interface.

    ``get`` binds the calling thread to its own process, forked from the
    zygote on the thread's first request, so a replacement worker gets a
    fresh one.  The last known-good results (the degradation ladder's
    cached rung) stay in this process, bounded as the artifact cache's
    entries are.
    """

    def __init__(self):
        self._zygote = _Zygote()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._forked: list[NumericsProcess] = []
        self._good: dict[str, object] = {}

    def get(self, scenario) -> _RemoteEntry:
        process = getattr(self._local, "process", None)
        if process is None or process.dead:
            process = self._local.process = self._zygote.fork()
            with self._lock:
                self._forked = [p for p in self._forked if not p.dead] + [process]
        return _RemoteEntry(scenario, process)

    def remember_good(self, scenario, result) -> None:
        with self._lock:
            self._good.pop(scenario.digest, None)
            self._good[scenario.digest] = result
            if len(self._good) > MAX_ENTRIES:
                del self._good[next(iter(self._good))]

    def cached_result(self, scenario):
        return self._good.get(scenario.digest)

    def pids(self) -> list[int]:
        """The zygote's pid, then those of the numerics processes not known dead."""
        with self._lock:
            return [self._zygote.pid, *(p.pid for p in self._forked)]

    def close(self) -> None:
        """Stop every numerics process and the zygote; returns once all are reaped."""
        with self._lock:
            forked = list(self._forked)
        for process in forked:
            process.conn.close()
        self._zygote.stop()


class _Zygote:
    """The single-threaded process every numerics process is forked from."""

    def __init__(self):
        # the zygote must not flush this process's buffered output again
        sys.stdout.flush()
        sys.stderr.flush()
        here, there = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                here.close()
                _zygote(there)
                code = 0
            finally:
                os._exit(code)
        there.close()
        self.pid = pid
        self._ctrl = here
        self._lock = threading.Lock()

    def fork(self) -> NumericsProcess:
        with self._lock:
            self._ctrl.sendall(b"F")
            msg, fds, _flags, _addr = socket.recv_fds(self._ctrl, 32, 1)
        if not fds:
            raise RuntimeError("the zygote is gone")
        return NumericsProcess(int(msg), Connection(fds[0]))

    def stop(self) -> None:
        with self._lock:
            if self._ctrl.fileno() < 0:
                return
            try:
                self._ctrl.sendall(b"Q")
            except OSError:
                pass  # already gone: the wait below reaps it
            self._ctrl.close()
        os.waitpid(self.pid, 0)


def _zygote(ctrl: socket.socket) -> None:
    """Fork a numerics process per ``F``; on ``Q`` or EOF kill them all and return."""
    # a terminal's Ctrl-C is the service's to handle; it closes us
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    import repro.app.antarctica  # noqa: F401 -- every fork starts with the solver imported

    children: set[int] = set()
    try:
        while True:
            ready, _, _ = select.select([ctrl], [], [], _REAP_S)
            while children:
                pid, _status = os.waitpid(-1, os.WNOHANG)
                if pid == 0:
                    break
                children.discard(pid)
            if ready and ctrl.recv(1) != b"F":
                return
            if ready:
                children.add(_fork_numerics(ctrl))
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)


def _fork_numerics(ctrl: socket.socket) -> int:
    """Fork one numerics process and send its pid and connection back."""
    mine, theirs = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ctrl.close()
            mine.close()
            _serve(Connection(theirs.detach()))
            code = 0
        finally:
            os._exit(code)
    theirs.close()
    socket.send_fds(ctrl, [str(pid).encode()], [mine.fileno()])
    mine.close()
    return pid


def _serve(conn: Connection) -> None:
    """A numerics process's life: run jobs until the connection closes."""
    cache = ArtifactCache()
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        conn.send(_run(cache, conn, job))


def _run(cache: ArtifactCache, conn: Connection, job: dict) -> tuple:
    metrics, series, tracer = get_metrics(), get_series(), get_tracer()
    # each job reports only its own metrics, series and spans
    metrics.reset()
    series.reset()
    tracer.clear(job["epoch_ns"])
    if job["recording"]:
        tracer.start()

    def heartbeat(checkpoint) -> None:
        conn.send(("beat", checkpoint))
        conn.recv()  # the worker's ack; it SIGKILLs this process instead to kill it

    try:
        with armed_copy(job["faults"]) as delivery:
            try:
                entry = cache.get(job["scenario"])
                outcome = entry.problem.solve(
                    checkpoint_cb=heartbeat if job["beats"] else None, **job["kwargs"]
                )
                kind = "ok"
            except Exception as exc:  # noqa: BLE001 - typed into the outcome
                kind, outcome = "raise", _sendable(exc)
    finally:
        tracer.stop()
    pid = os.getpid()
    for span in tracer.spans:
        span.pid = pid
    return kind, (outcome, metrics.export(), series.export(), tracer.spans, delivery)


def _sendable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means it cannot cross
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
