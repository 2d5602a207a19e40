"""Recovery policy ladder + the event log every rung reports into.

The ladder, from cheapest to most disruptive -- each rung mirrors what
an E3SM-class workflow does instead of aborting:

1. **retry** -- corrupted halo exchange payloads are re-fetched (the
   transport analogue of an MPI re-post);
2. **re-evaluation** -- a non-finite residual/Jacobian sweep is rerun
   (transient corruption clears; a persistent NaN means real physics
   trouble and escalates);
3. **Newton step rejection** -- a step whose line search cannot find a
   finite decreasing trial is rejected: the solver resumes from the
   last good iterate with the damping cap halved (the "cut the
   timestep" of a nonlinear solve);
4. **GMRES restart escalation** -- a stagnating linear solve retries
   with a grown Krylov space and iteration budget;
5. **preconditioner fallback** -- if the configured preconditioner's
   set-up fails, the solve continues with point Jacobi, then with none
   (``StokesVelocityProblem._preconditioner``), never with an abort;
6. **SPMD degradation** -- a failed rank's owned cells are reassigned
   to a survivor (serial fallback when none remain); the
   decomposition-independent ``BlockReducer`` keeps the trajectory
   identical to the healthy run.

Rung 1's budget is :attr:`RecoveryPolicy.max_retries`; rungs 2-4 budget
themselves with constants in :mod:`repro.solvers.newton`.  Every
detection and recovery lands in a :class:`ResilienceLog`, which mirrors
each event into ``resilience.*`` metrics so chaos-run statistics ride
the normal observability snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability import get_metrics, get_series

__all__ = [
    "ResilienceLog",
    "RecoveryPolicy",
    "choose_survivor",
]


class ResilienceLog:
    """Chronological record of injections, detections and recoveries.

    ``record`` appends one event dict and mirrors it into the metrics
    registry (``resilience.<category>`` and ``resilience.<category>.
    <kind>`` counters), so ``diagnostics["observability"]`` and
    ``diagnostics["resilience"]`` stay consistent with each other.
    """

    CATEGORIES = ("injection", "detection", "recovery")

    def __init__(self):
        self.events: list[dict] = []

    def record(self, category: str, kind: str, site: str, **detail) -> dict:
        if category not in self.CATEGORIES:
            raise ValueError(f"unknown event category {category!r}")
        event = {"category": category, "kind": kind, "site": site, **detail}
        self.events.append(event)
        metrics = get_metrics()
        metrics.counter(f"resilience.{category}").inc()
        metrics.counter(f"resilience.{category}.{kind}").inc()
        # recovery-ladder timeline: one timestamped point per event so
        # the convergence plots show *when* the ladder fired, not just
        # how often (the value is the running event count)
        get_series().record(
            "resilience.event", len(self.events), category=category, kind=kind
        )
        return event

    def extend(self, events) -> None:
        """Merge already-recorded events from another log.

        Does NOT re-mirror into the metrics registry -- the source log
        already did that when each event was first recorded (re-counting
        would double every ``resilience.*`` counter).
        """
        self.events.extend(events)

    def count(self, category: str, kind: str | None = None) -> int:
        return sum(
            1
            for e in self.events
            if e["category"] == category and (kind is None or e["kind"] == kind)
        )

    def summary(self) -> dict:
        """JSON-able chaos-run statistics: totals, per-kind counts, events."""
        by_kind: dict[str, dict[str, int]] = {c: {} for c in self.CATEGORIES}
        for e in self.events:
            kinds = by_kind[e["category"]]
            kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
        return {
            "injections": self.count("injection"),
            "detections": self.count("detection"),
            "recoveries": self.count("recovery"),
            "by_kind": {c: dict(sorted(k.items())) for c, k in by_kind.items()},
            "events": list(self.events),
        }


@dataclass
class RecoveryPolicy:
    """The retry budget and event log of the recovery ladder.

    Attach one to ``newton_solve(resilience=...)`` /
    ``StokesVelocityProblem.solve(resilience=...)`` to recover from
    detected faults instead of raising (see module docstring).
    """

    #: re-fetch attempts for a corrupted halo exchange (the solve
    #: service also re-runs a failed solve this many times)
    max_retries: int = 3
    log: ResilienceLog = field(default_factory=ResilienceLog)


def choose_survivor(dead: set[int], nparts: int) -> int | None:
    """Lowest-numbered live rank to absorb a failed rank's work.

    Returns ``None`` when no rank survives -- the caller falls back to a
    serial sweep (the degradation endpoint: one survivor doing all the
    work is operationally identical to a serial solve).
    """
    for p in range(nparts):
        if p not in dead:
            return p
    return None
