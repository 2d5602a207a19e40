"""Fault injection, detection and recovery for the velocity-solve stack.

MALI production runs survive nonlinear-solve failures -- non-finite
viscosities from thin ice, stagnating GMRES, diverging Newton steps,
dying nodes -- via step rejection, retries and restart files.  This
package gives the reproduction the same three capabilities:

* :mod:`~repro.resilience.injectors` -- a deterministic, seeded
  fault-injection harness (:class:`FaultSchedule` armed on the
  process-wide :class:`FaultPlane`): halo-payload bit flips / drops /
  duplicates, NaN-poisoned kernel sweeps and rank failures, all firing
  at exact scheduled occurrences;
* :mod:`~repro.resilience.detectors` -- payload checksums, per-step
  non-finite guards, GMRES outcome classification;
* :mod:`~repro.resilience.policies` -- the recovery ladder
  (:class:`RecoveryPolicy`): retry, sweep re-evaluation,
  Newton step rejection with damping backoff, GMRES restart escalation,
  preconditioner fallback, SPMD work redistribution -- all reporting
  into a :class:`ResilienceLog` and ``resilience.*`` metrics;
* :mod:`~repro.resilience.checkpoint` -- Newton checkpoint/restart
  (:class:`NewtonCheckpoint`, ``newton_solve(resume_from=...)``).

Quick start::

    from repro import resilience as res

    policy = res.RecoveryPolicy()
    with res.fault_injection(res.reference_schedule(seed=7), policy=policy):
        solution = problem.solve(resilience=policy)
    print(solution.diagnostics["resilience"])

or from the command line: ``python -m repro verify --suite serve`` (the chaos
scenario, which arms the reference schedule on a 4-rank request).
"""

from __future__ import annotations

from repro.resilience.checkpoint import NewtonCheckpoint
from repro.resilience.deadline import Deadline, SolveTimeout
from repro.resilience.detectors import (
    GMRES_FLAGS,
    classify_gmres,
    nonfinite_count,
    payload_checksum,
    verify_payload,
)
from repro.resilience.injectors import (
    BitFlip,
    DropMessage,
    DuplicateMessage,
    FaultError,
    FaultPlane,
    FaultSchedule,
    HaloCorruptionError,
    Injector,
    NaNPoison,
    RankFailure,
    RankKill,
    fault_injection,
    fault_plane,
    reference_schedule,
)
from repro.resilience.policies import (
    RecoveryPolicy,
    ResilienceLog,
    choose_survivor,
)

__all__ = [
    "NewtonCheckpoint",
    "Deadline",
    "SolveTimeout",
    "GMRES_FLAGS",
    "classify_gmres",
    "nonfinite_count",
    "payload_checksum",
    "verify_payload",
    "BitFlip",
    "DropMessage",
    "DuplicateMessage",
    "FaultError",
    "FaultPlane",
    "FaultSchedule",
    "HaloCorruptionError",
    "Injector",
    "NaNPoison",
    "RankFailure",
    "RankKill",
    "fault_injection",
    "fault_plane",
    "reference_schedule",
    "RecoveryPolicy",
    "ResilienceLog",
    "choose_survivor",
]
