"""The five workloads: inputs, one operation, and its verification.

Every workload follows the same life cycle, driven by
:mod:`benchmarks.e2e.runner`:

``setup()``
    Builds the inputs from the seed, computes or loads the references,
    and runs **one untimed warm-up operation at the workload's own
    size** (the first solves in a fresh process run ~15 % slow).
``window(seconds, rec)``
    Runs operations until ``seconds`` have passed (at least one) and
    returns one :class:`OpResult` per operation.  Every operation's
    output is verified; one that raises, fails verification or (serve)
    ends in a status other than ``ok`` is a failed operation.
``teardown()``
    Releases what ``setup`` opened.

The program's process-global metrics and series registries are reset
before every operation (serve: before every window): they are
cumulative, so without the reset ``gmres.iterations`` reads 694, 1388,
2082 ... on successive identical solves.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import random
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.app.antarctica import AntarcticaTest
from repro.app.config import AntarcticaConfig, VelocityConfig
from repro.observability import get_metrics, get_series
from repro.serve import SolveRequest, SolveScenario, SolveService
from repro.transient import TransientEngine, get_scenario

from benchmarks.e2e.trace import ROOT

__all__ = ["WORKLOADS", "OpResult", "Sizes", "FULL", "SMOKE", "make", "load_references"]

REFERENCES_FILE = Path(__file__).with_name("references.json")

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark flavour (full or smoke)."""

    steady_km: float
    steady_layers: int
    #: coupled steps per transient operation (after the cold step)
    window_steps: int
    particles: int
    #: the scenarios serve_mix solves before the timed window
    serve_warm: tuple[SolveScenario, SolveScenario, SolveScenario, SolveScenario]
    #: serve requests per block: one count per pre-warmed scenario, then
    #: the count of never-seen scenarios
    serve_block: tuple[int, int, int, int, int]


FULL = Sizes(
    steady_km=200.0,
    steady_layers=10,
    window_steps=25,
    particles=256,
    serve_warm=(
        SolveScenario("antarctica-600km-3", 600.0, 3),
        SolveScenario("antarctica-400km-4", 400.0, 4),
        SolveScenario("antarctica-400km-4-spmd4", 400.0, 4, nparts=4),
        SolveScenario("greenland-300km-5", 300.0, 5, family="greenland"),
    ),
    serve_block=(4, 3, 1, 2, 1),
)
#: finishes in seconds; results are stamped ``"smoke": true``
SMOKE = Sizes(
    steady_km=600.0,
    steady_layers=3,
    window_steps=3,
    particles=16,
    serve_warm=(
        SolveScenario("antarctica-600km-3", 600.0, 3),
        SolveScenario("antarctica-700km-3", 700.0, 3),
        SolveScenario("antarctica-600km-3-spmd4", 600.0, 3, nparts=4),
        SolveScenario("greenland-500km-3", 500.0, 3, family="greenland"),
    ),
    serve_block=(1, 1, 1, 1, 1),
)


@dataclass
class OpResult:
    """Outcome of one operation."""

    ok: bool
    wall_s: float
    traced: bool
    op_id: object = None
    #: deterministic counts read from the program after the operation
    counts: dict = field(default_factory=dict)
    #: why verification failed (empty when ``ok``)
    note: str = ""
    #: workload-specific measurements (step times, dedup flag, ...)
    extra: dict = field(default_factory=dict)


def load_references() -> dict:
    return json.loads(REFERENCES_FILE.read_text())


def reset_program_state() -> None:
    get_metrics().reset()
    get_series().reset()


def program_counts() -> dict:
    """Layer work counts from the program's own counters since the last reset."""
    c = get_metrics().snapshot()["counters"]

    def total(prefix: str) -> float:
        return sum(v for k, v in c.items() if k.startswith(prefix))

    return {
        "mesh.halo_bytes": total("halo.bytes."),
        "mesh.halo_exchanges": total("halo.events."),
        "fem.matvecs": c.get("gmres.matvecs", 0),
        "fem.matvec_modeled_bytes": total("gmres.matvec.bytes."),
        "solvers.gmres_iterations": c.get("gmres.iterations", 0),
        "solvers.gmres_stream_modeled_bytes": total("gmres.stream.bytes."),
        "solvers.gmres_reorthogonalizations": c.get("gmres.reorthogonalizations", 0),
        "solvers.newton_steps": c.get("newton.steps", 0),
    }


def _failed(exc: BaseException, traced: bool, op_id, t0: float) -> OpResult:
    traceback.print_exception(exc, file=sys.stderr)
    return OpResult(False, clock() - t0, traced, op_id, note=f"raised {exc!r}")


class Workload:
    """Base class: sequential workloads run one operation after another."""

    name = ""
    #: operations run one after another and each does the same work, so
    #: their ``counts`` are identical (and compared exactly)
    sequential = True
    #: units of work ``throughput_ops_s`` counts per verified operation
    work_per_op = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self._next_op = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def op(self, rec, op_id) -> OpResult:
        raise NotImplementedError

    def trace_slice_s(self, seconds: float) -> float:
        """Length of one traced/untraced slice of the traced pass.

        Sequential workloads alternate single operations (``0`` = one
        operation per slice).
        """
        return 0.0

    def window(self, seconds: float, rec=None) -> list[OpResult]:
        results = []
        t_end = clock() + seconds
        while True:
            reset_program_state()
            op_id = self._next_op
            self._next_op += 1
            t0 = clock()
            try:
                results.append(self.op(rec, op_id))
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                results.append(_failed(exc, rec is not None, op_id, t0))
            if clock() >= t_end:
                return results

    def layer_extras(self, results: list[OpResult], rec, table: dict, traced_wall_s: float) -> dict:
        """Workload-specific per-layer metrics (default: none).

        ``table`` maps span name to ``[inclusive s, self s, calls, keysum]``
        summed over the traced operations.
        """
        return {}


# ----------------------------------------------------------------------
# steady_assembled / steady_matfree / steady_spmd4
# ----------------------------------------------------------------------
class Steady(Workload):
    """``AntarcticaTest.build(cfg)`` + ``.run()``: the paper's acceptance test."""

    operator_mode = "assembled"
    nparts = 1
    #: the paper's tolerance on the mean of the solution
    RTOL = 1.0e-5

    def setup(self) -> None:
        s = self.sizes
        self.cfg = AntarcticaConfig(
            resolution_km=s.steady_km,
            num_layers=s.steady_layers,
            velocity=VelocityConfig(operator_mode=self.operator_mode, nparts=self.nparts),
        )
        key = f"antarctica_res{s.steady_km:g}km_nz{s.steady_layers}"
        self.reference = load_references()["steady_mean_velocity"][key]
        self.u_serial = None
        if self.nparts > 1:
            # the serial solve is both the bitwise oracle of every SPMD
            # operation and this workload's warm-up
            serial = dataclasses.replace(
                self.cfg, velocity=dataclasses.replace(self.cfg.velocity, nparts=1)
            )
            self.u_serial = AntarcticaTest.build(serial).run().u
        else:
            self.op(None, None)

    def op(self, rec, op_id) -> OpResult:
        with rec.op(op_id) if rec else nullcontext():
            t0 = clock()
            test = AntarcticaTest.build(self.cfg)
            sol = test.run()
            wall = clock() - t0
        counts = program_counts()
        sweeps = sol.diagnostics["eval_sweeps"]
        counts["physics.sweeps_jacobian"] = sweeps["jacobian"]
        counts["physics.sweeps_residual"] = sweeps["residual"]
        note = self.verify(sol)
        return OpResult(not note, wall, rec is not None, op_id, counts, note)

    def verify(self, sol) -> str:
        rel = abs(sol.mean_velocity - self.reference) / abs(self.reference)
        if not rel <= self.RTOL:
            return f"mean_velocity {sol.mean_velocity!r} vs reference {self.reference!r} (rel {rel:.3e})"
        if sol.newton.iterations != 8:
            return f"{sol.newton.iterations} Newton steps, expected 8"
        if any(flag != "converged" for flag in sol.newton.linear_flags):
            return f"linear solves not all converged: {sol.newton.linear_flags}"
        if self.u_serial is not None and not np.array_equal(sol.u, self.u_serial):
            return "SPMD solution is not bitwise equal to the serial solution"
        return ""


class SteadyAssembled(Steady):
    name = "steady_assembled"


class SteadyMatfree(Steady):
    name = "steady_matfree"
    operator_mode = "matrix-free"


class SteadySpmd4(Steady):
    name = "steady_spmd4"
    nparts = 4


# ----------------------------------------------------------------------
# transient_retreat
# ----------------------------------------------------------------------
class TransientRetreat(Workload):
    """A window of warm-started coupled steps of ``antarctica-retreat``.

    Every operation resumes from the same checkpoint (taken after the
    cold step) and runs the same ``window_steps`` steps, so the work per
    operation does not depend on how many operations fit in the run: a
    faster program must not be handed easier steps.  Resume is bitwise
    equal to an uninterrupted run, so these are the steps a user's long
    run takes.
    """

    name = "transient_retreat"

    def setup(self) -> None:
        s = self.sizes
        self.work_per_op = s.window_steps  # throughput is coupled steps per second
        self.scenario = dataclasses.replace(
            get_scenario("antarctica-retreat"),
            num_steps=1 + s.window_steps,
            num_particles=s.particles,
            particle_seed=self.seed,
        )
        self.ckpt_dir = self.workdir / "checkpoints"
        self.engine = TransientEngine(self.scenario)
        cold = self.engine.run(num_steps=1)
        self.start = cold.final_checkpoint()
        self.op(None, None)

    def op(self, rec, op_id) -> OpResult:
        stamps = []
        # per-workset DAG executions (one workset covers this mesh),
        # including the per-step probes outside the Newton solves
        sweeps = self.engine.problem.field_manager.num_sweeps
        sweeps_before = dict(sweeps)
        with rec.op(op_id) if rec else nullcontext():
            t0 = clock()
            res = self.engine.run(
                resume_from=self.start,
                checkpoint_dir=self.ckpt_dir,
                callback=lambda step, info: stamps.append(clock()),
            )
            wall = clock() - t0
        counts = program_counts()
        ckpt_bytes = 0
        for f in self.ckpt_dir.iterdir():
            ckpt_bytes += f.stat().st_size
            f.unlink()
        first = self.start.step
        warm = res.newton_iterations[first:]
        for mode in ("jacobian", "residual"):
            counts[f"physics.sweeps_{mode}"] = sweeps[mode] - sweeps_before[mode]
        counts["transient.checkpoint_bytes"] = ckpt_bytes
        counts["transient.warm_newton_mean"] = float(np.mean(warm))
        counts["transient.sim_years"] = res.times[-1] - res.times[first]
        note = self.verify(res, warm)
        steps = [b - a for a, b in zip([t0] + stamps[:-1], stamps)]
        return OpResult(
            not note, wall, rec is not None, op_id, counts, note, extra={"step_s": steps}
        )

    def verify(self, res, warm) -> str:
        first = self.start.step
        # a resumed run audits V_N - V_0 against this run's sources only;
        # move the audit's origin to the resume point
        residual = res.diagnostics["volume_budget_residual"] + res.volumes[0] - res.volumes[first]
        if not abs(residual) <= 1.0e-9 * res.volumes[0]:
            return f"volume budget residual {residual:.6e} m^3 of V0 {res.volumes[0]:.6e}"
        if len(warm) != self.sizes.window_steps:
            return f"{len(warm)} steps taken, expected {self.sizes.window_steps}"
        if not np.mean(warm) < res.newton_iterations[0]:
            return f"warm Newton mean {np.mean(warm)} not below cold {res.newton_iterations[0]}"
        p = res.particles
        fields = (res.thickness, res.u, p.xy, p.zeta)
        if not all(np.all(np.isfinite(f)) for f in fields):
            return "non-finite thickness, velocity or particle state"
        if len(p) != self.sizes.particles or len(p.active) != len(p):
            return f"{len(p)} particles accounted, expected {self.sizes.particles}"
        return ""

    def layer_extras(self, results, rec, table, traced_wall_s) -> dict:
        steps = sorted(t for r in results for t in r.extra.get("step_s", ()))
        if not steps:
            return {}
        window = table.get(ROOT, (0.0,))[0]
        return {
            "transient.velocity_share": table.get("app.solve", (0.0,))[0] / window if window else 0.0,
            "transient.step_p50_s": statistics.median(steps),
            # 25-step windows give ~100 samples a run: p90 is the highest
            # percentile with ten samples beyond it
            "transient.step_p90_s": steps[min(len(steps) - 1, int(0.9 * len(steps)))],
            "transient.step_samples": len(steps),
        }


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
class ServeMix(Workload):
    """Closed loop of 2 clients against ``SolveService(workers=2)``.

    Closed because the callers this service has (ensemble and UQ
    drivers) block on each reply, and because it repeats: an open loop
    at 3 req/s swung 2x in p50 between identical runs on a 2-core box.

    Requests come in seeded blocks of 11 -- 10 from four pre-warmed
    scenarios in the ratio 4:3:1:2 and 1 at a never-seen resolution
    (cache miss: build under the cache lock) -- so every seed offers the
    same mix in a different order, in which no scenario follows itself.
    A window runs whole blocks, so the work per request does not depend
    on where the clock stopped it.
    """

    name = "serve_mix"
    sequential = False
    CLIENTS = 2
    WORKERS = 2
    DEADLINE_S = 30.0

    def setup(self) -> None:
        self.warm = self.sizes.serve_warm
        # references solved directly, outside the service
        self.refs = {s.digest: AntarcticaTest.build(s.to_config()).run().u for s in self.warm}
        self.blocks = self._blocks()
        self.loop = asyncio.new_event_loop()
        self.svc = SolveService(workers=self.WORKERS, queue_size=16)
        self.loop.run_until_complete(self._start_and_prewarm())

    async def _start_and_prewarm(self) -> None:
        await self.svc.start()
        for s in self.warm:
            await self.svc.submit(SolveRequest(s, deadline_s=self.DEADLINE_S))

    def teardown(self) -> None:
        self.loop.run_until_complete(self.svc.stop())
        self.loop.close()

    def _blocks(self):
        """Endless seeded request blocks (each a list of scenarios)."""
        rng = random.Random(self.seed)
        cold = 0
        *warm, misses = self.sizes.serve_block
        # indices into ``self.warm``; one past the end stands for a miss
        order = [i for i, n in enumerate(warm) for _ in range(n)] + [len(warm)] * misses
        last = -1
        while True:
            # the two clients hold neighbours of this order in flight, and
            # equal neighbours share one solve: left to chance that was 5 to
            # 10 shared solves in 66 requests depending on the seed, a 10 %
            # swing in throughput.  So no scenario follows itself.
            while True:
                rng.shuffle(order)
                if all(a != b for a, b in zip([last] + order, order)):
                    break
            last = order[-1]
            block = []
            for i in order:
                if i < len(warm):
                    block.append(self.warm[i])
                    continue
                # a resolution no request has named before: same mesh as
                # 500 km (so every miss costs the same), new cache key
                cold += 1
                km = 500.0 + cold * 1.0e-3 + round(rng.random() * 1.0e-4, 9)
                block.append(SolveScenario(f"cold-{cold}", km, 3))
            yield block

    def trace_slice_s(self, seconds: float) -> float:
        return seconds / 2.0

    def window(self, seconds: float, rec=None) -> list[OpResult]:
        reset_program_state()
        return self.loop.run_until_complete(self._window(seconds, rec is not None))

    async def _window(self, seconds: float, traced: bool) -> list[OpResult]:
        results: list[OpResult] = []
        t_end = clock() + seconds
        pending: collections.deque = collections.deque()

        def next_scenario():
            # whole blocks only: a window that stopped mid-block would hold
            # one heavy request more or fewer than the next (an nparts=4
            # solve costs 5x the median), which swung throughput by 15 %
            if not pending:
                if results and clock() >= t_end:
                    return None
                pending.extend(next(self.blocks))
            return pending.popleft()

        async def client() -> None:
            while (scenario := next_scenario()) is not None:
                t0 = clock()
                try:
                    resp = await self.svc.submit(
                        SolveRequest(scenario, deadline_s=self.DEADLINE_S)
                    )
                except Exception as exc:  # noqa: BLE001 - a raising request is a failed one
                    results.append(_failed(exc, traced, None, t0))
                else:
                    latency = clock() - t0
                    note = self.verify(scenario, resp)
                    # a joined request ran no sweeps of its own
                    sweeps = {} if resp.deduped or resp.result is None else resp.result.diagnostics["eval_sweeps"]
                    results.append(OpResult(not note, latency, traced, note=note, extra=sweeps))

        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        if traced:
            self.traced_counters = get_metrics().snapshot()["counters"]
        if results:
            # per-request means: the mix, not one request, is the unit
            totals = program_counts()
            for mode in ("jacobian", "residual"):
                totals[f"physics.sweeps_{mode}"] = sum(r.extra.get(mode, 0) for r in results)
            per_request = {k: v / len(results) for k, v in totals.items()}
            for r in results:
                r.counts = per_request
        return results

    def verify(self, scenario, resp) -> str:
        if resp.status != "ok":
            return f"status {resp.status} ({resp.reason})"
        sol = resp.result
        ref = self.refs.get(scenario.digest)
        if ref is not None:
            if not np.array_equal(sol.u, ref):
                return f"{scenario.name}: served solution differs from the direct solve"
            return ""
        if not np.all(np.isfinite(sol.u)):
            return f"{scenario.name}: non-finite solution"
        if any(flag != "converged" for flag in sol.newton.linear_flags):
            return f"{scenario.name}: linear solves not all converged"
        return ""

    def layer_extras(self, results, rec, table, traced_wall_s) -> dict:
        lat = sorted(r.wall_s for r in results)
        counters = self.traced_counters
        hits = counters.get("serve.cache.hit", 0)
        misses = counters.get("serve.cache.miss", 0)
        requests = max(1, counters.get("serve.requests", 0))
        out = {
            "serve.latency_p50_s": statistics.median(lat),
            # ~40 requests a window: p75 is the highest percentile with
            # ten samples beyond it
            "serve.latency_p75_s": lat[min(len(lat) - 1, int(0.75 * len(lat)))],
            "serve.latency_samples": len(lat),
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.cache_builds": misses,
            "serve.dedup_share": counters.get("serve.dedup", 0) / requests,
            "serve.degraded_share": sum(
                v for k, v in counters.items() if k.startswith("serve.degraded.")
            ) / requests,
        }
        out.update(_serve_attribution(rec, self.WORKERS, traced_wall_s))
        return out


def _serve_attribution(rec, workers: int, wall_s: float) -> dict:
    """Execute and wait time per request from the traced window's spans.

    A worker thread's spans belong to the request whose
    ``ArtifactCache.get`` opened on that thread; that group is matched
    to the ``SolveService.submit`` span of the same scenario digest that
    was open when it started (the earliest, since later arrivals join
    the first one's solve).  A joined request executes nothing itself,
    so all of its latency is wait.
    """
    rows = rec.self_times()
    submits = [(t0, t0 + dur, key) for name, _op, _tid, key, t0, dur, _s, _p in rows if name == "serve.submit"]
    groups: dict = {}
    for name, op, _tid, key, t0, dur, _self, parent in rows:
        if parent >= 0 or name == "serve.submit" or op is None:
            continue
        g = groups.setdefault(op, {"start": t0, "busy": 0.0, "key": None})
        g["busy"] += dur
        g["start"] = min(g["start"], t0)
        if name == "serve.cache_get":
            g["key"] = key
    executed = [0.0] * len(submits)
    for g in groups.values():
        owners = [
            i for i, (t0, t1, key) in enumerate(submits)
            if key == g["key"] and t0 <= g["start"] <= t1
        ]
        if owners:
            executed[min(owners, key=lambda i: submits[i][0])] += g["busy"]
    if not submits:
        return {}
    waits = [(t1 - t0) - ex for (t0, t1, _k), ex in zip(submits, executed)]
    busy = sum(g["busy"] for g in groups.values())
    return {
        "serve.execute_s": busy / len(submits),
        "serve.wait_s": statistics.fmean(waits),
        "serve.worker_busy_fraction": busy / (workers * wall_s) if wall_s > 0 else 0.0,
    }


WORKLOADS = {
    w.name: w for w in (SteadyAssembled, SteadyMatfree, SteadySpmd4, TransientRetreat, ServeMix)
}


def make(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, sizes, workdir)
