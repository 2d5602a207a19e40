"""The chaos check: ``python -m repro chaos``.

One deterministic scenario exercising every resilience mechanism the
solver and the service claim, with a hard acceptance bar:

* **wave A (dedup)** -- three concurrent identical requests: exactly
  one solve runs, two join it;
* **wave B (worker kills)** -- two requests on distinct scenarios,
  each worker killed mid-solve by the :class:`KillSwitch` (steps 1 and
  2), which SIGKILLs its numerics process; each dying worker hands its
  job back to resume from its heartbeated checkpoint on a new process;
* **wave C (fault injection)** -- the coarse Antarctica SPMD request
  (350 km, 4 layers, 4 ranks, 8 Newton steps) solved under
  :func:`~repro.resilience.reference_schedule`: a bit-flipped, a dropped
  and a duplicated halo message, a NaN-poisoned evaluator sweep and a
  killed rank.  Every injector must fire, the dead rank must be
  reported and recovery must run; the event table is printed;
* **wave D (deadline storm + breaker)** -- three zero-budget requests
  time out immediately (typed, no partial garbage), opening the
  scenario's breaker; two more requests are shed ``breaker_open``; the
  next is admitted as the half-open probe, succeeds, and closes the
  breaker.

After the waves the service stops: no worker thread, numerics process
or zygote it started may outlive :meth:`SolveService.stop`, and the
stop must return well inside the pool's join timeout.

Acceptance: every admitted request completes or is shed with a typed
reason; every *completed full-fidelity* result is **bitwise identical**
to an independent fault-free solve of the same scenario; the breaker
walks exactly closed -> open -> half-open -> closed.  ``disarm_breaker``
is the CI negative control: with the breaker disabled the storm wave
cannot produce its sheds/transitions and the check must exit nonzero.

``python -m repro chaos`` prints the run and exits 0; ``--check`` (the
CI gate) exits 1 unless every assertion holds.

Determinism notes: the armed fault schedule is process-global (a
numerics process runs under a copy and hands its delivery back), so
wave C runs with no other request in flight; worker kills are keyed by
(scenario digest, step) and fire only on a job's first life; the
deadline storm uses a zero budget, which expires at the first
cooperative check regardless of machine speed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path

import numpy as np

from repro import observability as obs
from repro.perf import format_table
from repro.resilience.injectors import fault_injection, reference_schedule
from repro.resilience.policies import RecoveryPolicy
from repro.serve.pool import KillSwitch
from repro.serve.requests import SolveRequest, SolveScenario
from repro.serve.service import SolveService

__all__ = ["run_chaos_check"]

#: workers (numerics processes) of the service under test
WORKERS = 2
#: wall budget of ``SolveService.stop()``, well inside the pool's 5 s join timeout
STOP_BUDGET_S = 1.0


def _running(pid: int) -> bool:
    """``pid`` is a live process (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _reference_solutions(scenarios):
    """Independent fault-free golden solves (fresh builds, no service)."""
    from repro.app.antarctica import AntarcticaTest

    refs = {}
    for s in scenarios:
        test = AntarcticaTest.build(s.to_config())
        refs[s.digest] = test.problem.solve()
    return refs


def run_chaos_check(
    seed: int = 2024,
    disarm_breaker: bool = False,
    openmetrics_out: str | None = None,
    verbose: bool = True,
) -> int:
    """Run the deterministic chaos scenario; 0 = all assertions hold."""

    say = print if verbose else (lambda *a, **k: None)

    # tiny-but-real scenarios: distinct digests so kills and breakers
    # key independently; delta is the 4-rank coarse Antarctica solve the
    # reference schedule's occurrences are placed on
    alpha = SolveScenario("alpha", resolution_km=600.0, num_layers=3, newton_steps=6)
    bravo = SolveScenario("bravo", resolution_km=640.0, num_layers=3, newton_steps=6)
    charlie = SolveScenario("charlie", resolution_km=560.0, num_layers=3, newton_steps=6)
    delta = SolveScenario("delta", resolution_km=350.0, num_layers=4, nparts=4)
    scenarios = [alpha, bravo, charlie, delta]

    obs.get_metrics().reset()
    obs.get_series().reset()

    say("chaos: computing fault-free references "
        f"({len(scenarios)} scenarios)...")
    refs = _reference_solutions(scenarios)

    kill = KillSwitch()
    kill.arm(bravo.digest, step=1)
    kill.arm(charlie.digest, step=2)

    service = SolveService(
        workers=WORKERS,
        policy=RecoveryPolicy(max_retries=1),
        kill_switch=kill,
        breaker_enabled=not disarm_breaker,
    )

    sched = reference_schedule(seed=seed, nparts=delta.nparts)
    # threads of pools other than this service's (the caller's) are not judged
    bystanders = set(threading.enumerate())

    async def drive():
        out = {}
        async with service:
            say("wave A: 3 concurrent identical requests (dedup)...")
            out["A"] = await asyncio.gather(
                *(service.submit(SolveRequest(alpha)) for _ in range(3))
            )
            say("wave B: 2 requests, workers killed at steps 1 and 2...")
            out["B"] = await asyncio.gather(
                service.submit(SolveRequest(bravo)),
                service.submit(SolveRequest(charlie)),
            )
            say("wave C: SPMD request under the reference fault schedule...")
            with fault_injection(sched, policy=RecoveryPolicy()):
                out["C"] = await service.submit(SolveRequest(delta))
            out["undelivered"] = [i.describe() for i in sched.pending()]
            say("wave D: deadline storm -> breaker open -> probe...")
            storm = []
            for _ in range(3):
                storm.append(await service.submit(SolveRequest(alpha, deadline_s=0.0)))
            for _ in range(2):
                storm.append(await service.submit(SolveRequest(alpha)))
            storm.append(await service.submit(SolveRequest(alpha)))
            out["D"] = storm
            out["pids"] = service.cache.pids()
            stop_t0 = time.monotonic()
        out["stop_s"] = time.monotonic() - stop_t0
        return out

    out = asyncio.run(drive())

    # ------------------------------------------------------------------
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    def bitwise(resp, scenario) -> bool:
        return (
            resp.result is not None
            and np.array_equal(resp.result.u, refs[scenario.digest].u)
        )

    a = out["A"]
    check("A: all three requests ok", all(r.status == "ok" for r in a),
          ",".join(r.status for r in a))
    check("A: exactly two deduped", sum(r.deduped for r in a) == 2,
          f"deduped={sum(r.deduped for r in a)}")
    check("A: results bitwise equal to fault-free", all(bitwise(r, alpha) for r in a))

    b = out["B"]
    check("B: killed workers' requests still ok",
          all(r.status == "ok" for r in b), ",".join(r.status for r in b))
    check("B: both kills fired", len(kill.fired) == 2, f"fired={kill.fired}")
    check("B: each job resumed exactly once",
          all(r.resumes == 1 for r in b),
          f"resumes={[r.resumes for r in b]}")
    check("B: two dying workers handed their jobs back", service.pool.deaths == 2,
          f"deaths={service.pool.deaths}")
    check("B: resumed results bitwise equal to fault-free",
          bitwise(b[0], bravo) and bitwise(b[1], charlie))

    c = out["C"]
    rsum = (c.result.diagnostics.get("resilience") if c.result is not None else None)
    check("C: faulted SPMD request ok", c.status == "ok", c.status)
    check(f"C: all {len(sched.injectors)} scheduled injectors delivered",
          not out["undelivered"], str(out["undelivered"]))
    check("C: faults detected and recovered",
          rsum is not None and rsum["detections"] > 0 and rsum["recoveries"] > 0,
          str(None if rsum is None else (rsum["detections"], rsum["recoveries"])))
    check("C: dead rank reported", rsum is not None and bool(rsum["dead_ranks"]),
          str(None if rsum is None else rsum["dead_ranks"]))
    check("C: recovered result bitwise equal to fault-free", bitwise(c, delta))

    d = out["D"]
    timeouts, sheds, probe = d[:3], d[3:5], d[5]
    check("D: zero-budget requests time out (typed)",
          all(r.status == "timeout" for r in timeouts),
          ",".join(r.status for r in timeouts))
    check("D: immediate timeouts carry no partial garbage",
          all(r.partial is None for r in timeouts))
    check("D: breaker sheds exactly two requests",
          all(r.status == "shed" and r.reason == "breaker_open" for r in sheds),
          ",".join(f"{r.status}/{r.reason}" for r in sheds))
    br = service.breakers.get(alpha.digest)
    walk = [] if br is None else [(t["from"], t["to"]) for t in br.transitions]
    check("D: breaker walks closed->open->half_open->closed",
          walk == [("closed", "open"), ("open", "half_open"), ("half_open", "closed")],
          str(walk))
    check("D: half-open probe succeeds and is bitwise equal",
          probe.status == "ok" and bitwise(probe, alpha), probe.status)

    alive = [t.name for t in threading.enumerate()
             if t.name.startswith("solve-worker-") and t not in bystanders]
    running = [pid for pid in out["pids"] if _running(pid)]
    check("stop: no worker thread, numerics process or zygote outlives "
          "the service, stop is prompt",
          not alive and not running and out["stop_s"] < STOP_BUDGET_S,
          f"alive={alive} running={running} stop={out['stop_s']:.3f}s")

    all_resps = [*a, *b, c, *d]
    check("all responses typed",
          all(r.status in ("ok", "degraded", "timeout", "shed") and
              (r.status != "shed" or r.reason) for r in all_resps))

    # ------------------------------------------------------------------
    if openmetrics_out:
        obs.write_openmetrics(
            openmetrics_out, obs.get_metrics().snapshot(), obs.get_series()
        )
        say(f"openmetrics: {openmetrics_out}")

    if verbose:
        if rsum is not None:
            print(format_table(
                ["category", "kind", "site", "detail"],
                [
                    [e["category"], e["kind"], e["site"],
                     ", ".join(f"{k}={v}" for k, v in e.items()
                               if k not in ("category", "kind", "site"))]
                    for e in rsum["events"]
                ],
                title=(
                    f"chaos events: {rsum['injections']} injected / "
                    f"{rsum['detections']} detected / {rsum['recoveries']} recovered"
                ),
            ))
            print(f"dead ranks: {rsum['dead_ranks'] or 'none'}")
        rows = [
            [r.request.scenario.name, r.status, r.reason or "-",
             "yes" if r.deduped else "", r.attempts, r.resumes,
             f"{r.latency_s:.3f}"]
            for r in all_resps
        ]
        print(format_table(
            ["scenario", "status", "reason", "dedup", "attempts", "resumes", "lat [s]"],
            rows, title="chaos responses",
        ))
        print(format_table(
            ["assertion", "result", "detail"],
            [[n, "PASS" if ok else "FAIL", detail] for n, ok, detail in checks],
            title="chaos assertions",
        ))

    failures = [n for n, ok, _ in checks if not ok]
    if failures:
        say(f"chaos check: FAIL ({len(failures)} assertion(s))")
        return 1
    say("chaos check: PASS")
    return 0
