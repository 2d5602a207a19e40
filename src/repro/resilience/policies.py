"""Recovery policy ladder + the event log every rung reports into.

The ladder, from cheapest to most disruptive -- each rung mirrors what
an E3SM-class workflow does instead of aborting:

1. **retry** -- corrupted halo exchange payloads are re-fetched (the
   transport analogue of an MPI re-post); transient kernel-launch
   failures are re-launched;
2. **re-evaluation** -- a non-finite residual/Jacobian sweep is rerun
   (transient corruption clears; a persistent NaN means real physics
   trouble and escalates);
3. **Newton step rejection** -- a step whose line search cannot find a
   finite decreasing trial is rejected: the solver resumes from the
   last good iterate with the damping cap halved (the "cut the
   timestep" of a nonlinear solve);
4. **GMRES restart escalation** -- a stagnating linear solve retries
   with a grown Krylov space and iteration budget;
5. **preconditioner fallback** -- if the MDSC hierarchy setup fails,
   drop to the next factory on the ladder (Jacobi last), never to an
   unpreconditioned abort;
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

from repro.observability import get_metrics, get_series, get_tracer

__all__ = [
    "ResilienceLog",
    "RecoveryPolicy",
    "call_with_retries",
    "PreconditionerLadder",
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

    #: re-fetch/re-launch attempts for a corrupted exchange or failed launch
    max_retries: int = 3
    log: ResilienceLog = field(default_factory=ResilienceLog)


def call_with_retries(
    fn,
    policy: RecoveryPolicy,
    log: ResilienceLog,
    site: str,
    kind: str,
    recovery: str,
    exceptions: tuple[type[BaseException], ...] = (Exception,),
    **detail,
) -> int:
    """Run ``fn`` with the policy's retry budget; return its retries.

    Each failure is logged into ``log`` as a ``kind`` detection and
    retried at once; a success after failures as one ``recovery`` event
    (with the attempt count).  The last exception propagates once the
    budget is spent.
    """
    attempt = 0
    while True:
        try:
            fn()
        except exceptions as exc:
            attempt += 1
            log.record("detection", kind, site, **detail, attempt=attempt, error=str(exc))
            if attempt > policy.max_retries:
                raise
            continue
        if attempt > 0:
            with get_tracer().span("resilience.recover", site=site, kind=kind, attempts=attempt):
                log.record("recovery", recovery, site, **detail, attempts=attempt)
        return attempt


class PreconditionerLadder:
    """Factory chain: try each ``J -> M`` builder, fall through on failure.

    The production rung order is the configured preconditioner ->
    Jacobi -> None: when its set-up fails (a singular column block or
    collapsed MDSC operator, an injected fault), the solve continues
    with point-Jacobi -- degraded convergence beats a dead run.  Every fallback is logged as detection + recovery.
    """

    def __init__(self, factories: list[tuple[str, object]], log: ResilienceLog | None = None):
        if not factories:
            raise ValueError("at least one preconditioner factory required")
        self.factories = list(factories)
        self.log = log
        #: name of the factory the last build actually used
        self.last_used: str | None = None

    def __call__(self, J):
        tr = get_tracer()
        last_exc: Exception | None = None
        for i, (name, factory) in enumerate(self.factories):
            try:
                if factory is None:
                    self.last_used = name
                    return None
                M = factory(J)
                self.last_used = name
                if i > 0 and self.log is not None:
                    self.log.record(
                        "recovery", "preconditioner_fallback", "precond.setup",
                        fell_back_to=name, error=str(last_exc),
                    )
                return M
            except Exception as exc:  # noqa: BLE001 - every rung may fail
                last_exc = exc
                if self.log is not None:
                    self.log.record(
                        "detection", "preconditioner_failure", "precond.setup",
                        factory=name, error=str(exc),
                    )
                with tr.span("resilience.precond_fallback", failed=name):
                    continue
        raise RuntimeError(
            f"every preconditioner factory failed (last: {last_exc})"
        ) from last_exc


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
