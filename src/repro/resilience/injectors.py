"""Deterministic, seeded fault injection for the velocity-solve stack.

MALI/E3SM production runs survive the faults this module simulates --
non-finite viscosities poisoning an assembly sweep, corrupted or lost
halo messages, a node (rank) dropping out of the job -- via step
rejection, retries and restart rather than aborting.  The reproduction
needs the same faults on demand to prove its recovery ladder works, so
injection is a first-class, *deterministic* harness: a
:class:`FaultSchedule` lists injectors with exact firing occurrences,
every random choice comes from one seeded generator, and two runs of
the same schedule corrupt the same bits.

Execution model
---------------

Instrumented call sites (halo payload refresh, evaluator sweep outputs,
per-rank SPMD sweeps) consult the process-wide :class:`FaultPlane`:

* ``plane.perturb(site, payload, **ctx)`` passes a payload array through
  every injector attached to ``site`` and returns the (possibly
  corrupted) array;
* ``plane.poke(site, **ctx)`` gives failure-type injectors the chance to
  raise (:class:`RankFailure`).

Zero-overhead contract (mirrors the span tracer's ``recording`` flag): with
no schedule armed ``plane.active`` is ``False`` and a site pays exactly
one attribute read.  The solver hot path must stay within 5% of the
uninstrumented build -- see ``tests/integration/test_chaos_solve.py``.

Each injector counts the invocations that match its filter and fires at
the occurrence indices listed in ``at`` -- "corrupt the 40th halo
payload", "kill rank 1 at its 3rd sweep" -- which is what makes a chaos
run reproducible enough to assert recovered-solution accuracy in CI.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "FaultError",
    "RankFailure",
    "HaloCorruptionError",
    "Injector",
    "BitFlip",
    "DropMessage",
    "DuplicateMessage",
    "NaNPoison",
    "RankKill",
    "FaultSchedule",
    "reference_schedule",
    "FaultPlane",
    "fault_plane",
    "fault_injection",
    "export_armed",
    "armed_copy",
    "absorb_delivery",
]


class FaultError(RuntimeError):
    """Base class for injected (or detected-but-unrecoverable) faults."""


class RankFailure(FaultError):
    """A simulated SPMD rank died mid-solve."""

    def __init__(self, rank: int, message: str | None = None):
        super().__init__(message or f"rank {rank} failed")
        self.rank = int(rank)

    def __reduce__(self):
        return (type(self), (self.rank, str(self)))


class HaloCorruptionError(FaultError):
    """A halo payload failed checksum verification beyond the retry budget."""


# ---------------------------------------------------------------------------
# injectors
# ---------------------------------------------------------------------------


class Injector:
    """One fault source attached to a named site.

    ``at`` lists the 0-based occurrence indices (among invocations that
    pass :meth:`matches`) at which the injector fires; ``fired`` counts
    actual firings so schedules can assert full delivery.
    """

    kind = "base"

    def __init__(self, site: str, at: tuple[int, ...] | int = (0,)):
        self.site = site
        self.at = frozenset((at,) if isinstance(at, int) else at)
        self.seen = 0
        self.fired = 0

    def matches(self, ctx: dict) -> bool:
        """Subclass filter (e.g. only a specific rank's invocations)."""
        return True

    def visit(self, payload, rng: np.random.Generator, ctx: dict, log):
        """Count a matching invocation; corrupt/raise when scheduled."""
        if not self.matches(ctx):
            return payload
        occurrence = self.seen
        self.seen += 1
        if occurrence not in self.at:
            return payload
        self.fired += 1
        if log is not None:
            log.record(
                "injection", self.kind, self.site, occurrence=occurrence,
                **{k: v for k, v in ctx.items() if isinstance(v, (int, float, str, bool))},
            )
        return self.fire(payload, rng, ctx)

    def fire(self, payload, rng: np.random.Generator, ctx: dict):  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "site": self.site, "at": sorted(self.at),
                "seen": self.seen, "fired": self.fired}


class BitFlip(Injector):
    """Flip one random bit in one random float64 of the payload.

    The classic silent-data-corruption model (cosmic-ray upset on an
    in-flight message or a DRAM word): flipping a mantissa bit perturbs
    the value slightly, an exponent or sign bit catastrophically.  The
    receiver-side checksum catches either.
    """

    kind = "bitflip"

    def fire(self, payload, rng, ctx):
        out = np.array(payload, dtype=np.float64, copy=True)
        if out.size == 0:
            return out
        flat = out.ravel().view(np.uint64)
        i = int(rng.integers(flat.size))
        bit = int(rng.integers(64))
        flat[i] ^= np.uint64(1) << np.uint64(bit)
        return out


class DropMessage(Injector):
    """Replace the payload with zeros (the neighbor's message never arrived).

    Models a dropped MPI message / timed-out receive: the ghost region
    keeps whatever the transport delivers for a missing packet -- here,
    zeros, which is maximally visible to the checksum and to physics.
    """

    kind = "drop"

    def fire(self, payload, rng, ctx):
        return np.zeros_like(np.asarray(payload, dtype=np.float64))


class DuplicateMessage(Injector):
    """Apply the neighbor's additive message twice (payload doubled).

    Models a duplicated packet folded into an additive ghost exchange
    (Tpetra Export with ADD would sum the message twice).
    """

    kind = "duplicate"

    def fire(self, payload, rng, ctx):
        return np.asarray(payload, dtype=np.float64) * 2.0


class NaNPoison(Injector):
    """Poison a fraction of a kernel-output array with NaN (or Inf).

    Simulates the viscosity blowups MALI hits on thin ice: a handful of
    quadrature points produce non-finite stresses and the whole assembled
    residual goes NaN.  ``fraction`` of the entries (at least one) are
    overwritten.
    """

    kind = "nan_poison"

    def __init__(self, site: str, at=(0,), fraction: float = 0.001, value: float = np.nan):
        super().__init__(site, at)
        self.fraction = float(fraction)
        self.value = float(value)

    def fire(self, payload, rng, ctx):
        out = np.array(payload, dtype=np.float64, copy=True)
        if out.size == 0:
            return out
        n = max(1, int(round(self.fraction * out.size)))
        idx = rng.choice(out.size, size=min(n, out.size), replace=False)
        out.ravel()[idx] = self.value
        return out


class RankKill(Injector):
    """Fail one SPMD rank at its Nth evaluator sweep (raises RankFailure).

    ``at`` counts only the target rank's own sweep attempts, so
    ``RankKill(rank=1, at=2)`` kills rank 1 exactly at its third sweep
    regardless of how many ranks the solve runs.
    """

    kind = "rank_failure"

    def __init__(self, site: str = "spmd.rank", at=(0,), rank: int = 0):
        super().__init__(site, at)
        self.rank = int(rank)

    def matches(self, ctx):
        return ctx.get("rank") == self.rank

    def fire(self, payload, rng, ctx):
        raise RankFailure(self.rank)


# ---------------------------------------------------------------------------
# schedule + plane
# ---------------------------------------------------------------------------


class FaultSchedule:
    """A named, seeded list of injectors; the unit a chaos run arms.

    The seed feeds one ``np.random.default_rng`` shared by every
    injector, so a schedule's corruptions are a pure function of
    ``(seed, call order)`` -- deterministic across runs of the same
    program.
    """

    def __init__(self, injectors: list[Injector], seed: int = 2024, name: str = "custom"):
        self.injectors = list(injectors)
        self.seed = int(seed)
        self.name = name
        self._by_site: dict[str, list[Injector]] = {}
        for inj in self.injectors:
            self._by_site.setdefault(inj.site, []).append(inj)

    def for_site(self, site: str) -> list[Injector]:
        return self._by_site.get(site, [])

    @property
    def sites(self) -> list[str]:
        return sorted(self._by_site)

    def fired_count(self) -> int:
        return sum(inj.fired for inj in self.injectors)

    def pending(self) -> list[Injector]:
        """Injectors that have not yet fired every scheduled occurrence."""
        return [inj for inj in self.injectors if inj.fired < len(inj.at)]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "injectors": [inj.describe() for inj in self.injectors],
        }


def reference_schedule(seed: int = 2024, nparts: int = 4) -> FaultSchedule:
    """The CI chaos schedule: every fault class the acceptance bar names.

    At least one corrupted halo exchange (a bit flip, a dropped message
    and a duplicated message at distinct GMRES ghost refreshes), one
    NaN-poisoned evaluator sweep, and one failed rank.  Occurrences are
    chosen to land mid-solve on the coarse Antarctica problem (the first
    Newton steps each run hundreds of halo refreshes and one sweep per
    rank).
    """
    victim = 1 if nparts > 1 else 0
    return FaultSchedule(
        [
            BitFlip("halo.payload", at=(40,)),
            DropMessage("halo.payload", at=(90,)),
            DuplicateMessage("halo.payload", at=(140,)),
            NaNPoison("sweep.output", at=(5,), fraction=0.01),
            RankKill("spmd.rank", at=(2,), rank=victim),
        ],
        seed=seed,
        name="reference",
    )


class FaultPlane:
    """Process-wide injection point the instrumented sites consult.

    ``active`` is the dispatch fast path: ``False`` unless a schedule is
    armed, in which case sites route payloads through :meth:`perturb`
    and failure checks through :meth:`poke`.  ``log`` (a
    :class:`repro.resilience.policies.ResilienceLog`) records every
    injection; ``policy`` carries the retry budgets recovery sites use.
    """

    def __init__(self):
        self.schedule: FaultSchedule | None = None
        self.policy = None
        self.log = None
        self.active = False
        self._rng: np.random.Generator | None = None

    def arm(self, schedule: FaultSchedule, policy=None, log=None) -> "FaultPlane":
        """Install a schedule (and optional policy/log) and go active."""
        from repro.resilience.policies import RecoveryPolicy, ResilienceLog

        self.schedule = schedule
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.log = log if log is not None else self.policy.log
        if self.log is None:
            self.log = ResilienceLog()
        self._rng = np.random.default_rng(schedule.seed)
        self.active = True
        return self

    def disarm(self) -> None:
        self.schedule = None
        self.policy = None
        self.log = None
        self._rng = None
        self.active = False

    # -- site API -------------------------------------------------------
    def perturb(self, site: str, payload, **ctx):
        """Route a payload through the site's injectors (may corrupt it)."""
        if not self.active:
            return payload
        for inj in self.schedule.for_site(site):
            payload = inj.visit(payload, self._rng, ctx, self.log)
        return payload

    def poke(self, site: str, **ctx) -> None:
        """Give failure-type injectors at ``site`` a chance to raise."""
        if not self.active:
            return
        for inj in self.schedule.for_site(site):
            inj.visit(None, self._rng, ctx, self.log)


_PLANE = FaultPlane()


def fault_plane() -> FaultPlane:
    """The process-wide fault plane every instrumented site consults."""
    return _PLANE


@contextmanager
def fault_injection(schedule: FaultSchedule, policy=None, log=None):
    """Arm the fault plane for a block::

        with fault_injection(reference_schedule(seed=7)) as plane:
            solution = problem.solve()
        assert not plane.schedule.pending()
    """
    plane = _PLANE
    plane.arm(schedule, policy=policy, log=log)
    try:
        yield plane
    finally:
        plane.disarm()


# ---------------------------------------------------------------------------
# a solve in another process
# ---------------------------------------------------------------------------


def export_armed():
    """The armed schedule, policy, log and generator, or None when disarmed.

    What a solve in another process needs to run under this process's
    fault plane: pickled together, so a policy whose log is the plane's
    log still shares it on the other side.
    """
    p = _PLANE
    return (p.schedule, p.policy, p.log, p._rng) if p.active else None


@contextmanager
def armed_copy(state):
    """Run a block under an :func:`export_armed` state from another process.

    Yields a dict that, after the block, holds the delivery to send back
    to :func:`absorb_delivery`: each injector's ``(seen, fired)``, the
    generator, and the events the block logged.  ``state=None`` arms
    nothing and yields None.
    """
    if state is None:
        yield None
        return
    schedule, policy, log, rng = state
    logged, policy_logged = len(log.events), len(policy.log.events)
    plane = _PLANE.arm(schedule, policy=policy, log=log)
    plane._rng = rng
    delivery: dict = {}
    try:
        yield delivery
    finally:
        delivery.update(
            counts=[(inj.seen, inj.fired) for inj in schedule.injectors],
            rng=plane._rng,
            log=log.events[logged:],
            policy_log=[] if policy.log is log else policy.log.events[policy_logged:],
        )
        plane.disarm()


def absorb_delivery(delivery) -> None:
    """Fold an :func:`armed_copy` delivery back into the armed fault plane.

    The injectors' counts and the generator continue where the other
    process left them; its events join the logs without re-counting
    them in the metrics (the other process's metrics arrive on their own).
    """
    p = _PLANE
    if delivery is None or not p.active:
        return
    for inj, (seen, fired) in zip(p.schedule.injectors, delivery["counts"]):
        inj.seen, inj.fired = seen, fired
    p._rng = delivery["rng"]
    p.log.extend(delivery["log"])
    if p.policy.log is not p.log:
        p.policy.log.extend(delivery["policy_log"])
