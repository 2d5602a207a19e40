"""Resilient async solve service over the velocity-solver stack.

Production ice-sheet workflows do not call ``solve()`` once from a
script: they run many scenarios against shared hardware, under time
budgets, with failures.  This package wraps the reproduction's solver
in the service shape that workload implies:

* :mod:`~repro.serve.requests` -- typed scenario / request / response
  contracts (every request ends in ``ok``, ``degraded``, ``timeout``,
  ``failed`` or ``shed`` -- never an untyped hang);
* :mod:`~repro.serve.service` -- the asyncio :class:`SolveService`:
  bounded queue, admission control, per-request deadlines propagating
  into Newton/GMRES, request dedup, retry under the recovery policy's
  budget, and a graceful-degradation ladder (coarser mesh -> cached
  result -> shed);
* :mod:`~repro.serve.breaker` -- deterministic per-scenario circuit
  breaker (closed/open/half-open, outcome-driven);
* :mod:`~repro.serve.cache` -- the :mod:`repro.store` artifact cache
  under its serve-side name (build each mesh once; remember last-good
  results);
* :mod:`~repro.serve.pool` -- worker threads with checkpoint
  heartbeats; a dying worker hands its job back to resume
  bitwise-exactly from the last Newton checkpoint and starts its
  replacement;
* :mod:`~repro.serve.process` -- each worker's numerics process, forked
  from a zygote the service forks at construction: it builds and
  solves, the worker thread relays the job, the heartbeats and the
  outcome, so N workers compute on N cores;
* :mod:`~repro.serve.chaos` -- the deterministic chaos scenario, run by
  the ``serve`` suite of ``python -m repro verify``;
* :mod:`~repro.serve.http` -- a stdlib-only HTTP frontend
  (``/solve``, ``/healthz``, ``/metrics`` in OpenMetrics text).

Quick start::

    from repro.serve import SolveService, SolveRequest, SolveScenario

    async def main():
        async with SolveService(workers=2) as svc:
            req = SolveRequest(SolveScenario("demo", resolution_km=600.0,
                                             num_layers=3), deadline_s=30.0)
            resp = await svc.submit(req)
            print(resp.status, resp.result.mean_velocity)

or from the command line: ``python -m repro serve`` (HTTP) and
``python -m repro verify --suite serve`` (the chaos scenario).
"""

from __future__ import annotations

from repro.resilience.deadline import Deadline, SolveTimeout
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ArtifactCache, CacheEntry
from repro.serve.pool import Job, KillSwitch, Worker, WorkerKilled, WorkerPool
from repro.serve.requests import STATUSES, SolveRequest, SolveResponse, SolveScenario
from repro.serve.service import SolveService

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CircuitBreaker",
    "Deadline",
    "Job",
    "KillSwitch",
    "STATUSES",
    "SolveRequest",
    "SolveResponse",
    "SolveScenario",
    "SolveService",
    "SolveTimeout",
    "Worker",
    "WorkerKilled",
    "WorkerPool",
]
