"""The online autotuner: prior-seeded search with measured trials.

The search closes the loop ROADMAP item 5 describes: the repo could
already *measure* every variant/LaunchBounds/smoother tradeoff,
but a human still picked the configuration.  ``AutoTuner.tune()`` picks
it automatically, per (mesh key, GPU architecture):

1. **Enumerate** the discrete space (:class:`repro.tune.space.TuneSpace`)
   and drop candidates unlaunchable on the target spec.
2. **Prior** (:class:`repro.tune.prior.GpusimPrior`): the gpusim
   byte/occupancy model prices every candidate; the kernel axes
   (``kernel_impl``, ``launch_bounds``) are decided *entirely* by the
   model -- a Python process cannot measure GPU register pressure, and
   both kernel implementations compute bitwise-identical physics -- and
   the solver axes are ranked for measured trials.
3. **Trials**: the top-ranked distinct solver-axis configurations (the
   hand-picked default always included, one seeded exploration pick from
   the remainder) each run one real solve.  The figures of merit are the
   *deterministic* counters -- GMRES iterations, modeled
   ``gmres.{matvec,stream}.bytes`` metered by the solver, evaluator
   sweep counts priced by the kernel model -- with wall seconds recorded
   as advisory only, so the winner is reproducible across machines.
4. **Persist** the winner to the versioned JSON cache
   (:class:`repro.tune.cache.TuneCache`); the next solve with
   ``tuned="auto"`` reuses it with zero trials.

Every phase emits observability events: ``tune.search`` / ``tune.trial``
spans, the ``tune.trials`` counter and ``tune.best_*`` gauges.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.app.config import VelocityConfig
from repro.gpusim.specs import GPUSpec, default_tuning_spec
from repro.observability import get_metrics, get_series, get_tracer
from repro.tune.cache import TuneCache, TuneRecord, cache_key
from repro.tune.prior import GpusimPrior, ProblemModel
from repro.tune.space import DEFAULT_SPACE, TuneCandidate, TuneSpace, candidate_from_config

__all__ = ["TrialResult", "TuneReport", "AutoTuner", "tuned_velocity_config"]

#: measured trials per search (including the hand-picked default)
DEFAULT_TRIAL_BUDGET = 5

#: a trial whose mean velocity strays beyond this relative distance from
#: the default trial's is not solving the same physics (diverged or
#: truncated) and is disqualified regardless of its byte bill
VALID_RTOL = 1.0e-4


@dataclass
class TrialResult:
    """Deterministic counters of one measured trial solve."""

    candidate: TuneCandidate
    gmres_iterations: int
    gmres_matvecs: int
    matvec_bytes: float
    stream_bytes: float
    kernel_bytes: float
    eval_sweeps: dict
    newton_converged: bool
    mean_velocity: float
    #: advisory only -- never ranks candidates
    wall_seconds: float
    valid: bool = True

    @property
    def solver_bytes(self) -> float:
        return self.matvec_bytes + self.stream_bytes

    @property
    def cost_bytes(self) -> float:
        """The deterministic figure of merit: total modeled HBM bytes of
        the solve (kernel sweeps + GMRES matvec/stream traffic)."""
        return self.kernel_bytes + self.solver_bytes

    @property
    def bytes_per_iteration(self) -> float:
        return self.solver_bytes / max(1, self.gmres_iterations)


@dataclass
class TuneReport:
    """Everything one search produced (the CLI prints this)."""

    mesh_key: str
    gpu: str
    record: TuneRecord
    trials: list[TrialResult] = field(default_factory=list)
    #: candidate.describe() per trial, in execution order (the
    #: determinism contract: same seed + same mesh => same sequence)
    trial_sequence: list[str] = field(default_factory=list)
    num_candidates: int = 0


class AutoTuner:
    """One search over one mesh on one architecture.

    ``problem_factory(velocity_config)`` must return an object with a
    ``solve()`` method yielding a :class:`repro.app.velocity_solver.
    VelocitySolution` plus ``dofmap``/``mesh``/``plan`` attributes (a
    :class:`StokesVelocityProblem` over a prebuilt mesh is the intended
    factory -- mesh construction is paid once, not per trial).
    """

    def __init__(
        self,
        problem_factory,
        base_config: VelocityConfig,
        mesh_key: str,
        spec: GPUSpec | None = None,
        cache: TuneCache | None = None,
        space: TuneSpace = DEFAULT_SPACE,
        budget: int = DEFAULT_TRIAL_BUDGET,
        seed: int = 0,
    ):
        if budget < 1:
            raise ValueError("trial budget must cover at least the default config")
        self.problem_factory = problem_factory
        self.base_config = base_config
        self.mesh_key = mesh_key
        self.spec = spec if spec is not None else default_tuning_spec()
        self.cache = cache if cache is not None else TuneCache()
        self.space = space
        self.budget = budget
        self.seed = seed

    # ------------------------------------------------------------------
    def _trial_config(self, candidate: TuneCandidate) -> VelocityConfig:
        # tuned="off" on trial configs: a trial must never consult the
        # cache (or re-enter the tuner) itself
        return dataclasses.replace(candidate.apply_to(self.base_config), tuned="off")

    def _counter_delta(self, before: dict, after: dict, name: str) -> float:
        return float(after.get(name, 0.0)) - float(before.get(name, 0.0))

    def _run_trial(self, candidate: TuneCandidate, prior: GpusimPrior) -> TrialResult:
        metrics = get_metrics()
        problem = self.problem_factory(self._trial_config(candidate))
        before = metrics.snapshot()["counters"]
        with get_tracer().span(
            "tune.trial", candidate=candidate.describe(), mesh=self.mesh_key
        ) as sp:
            sol = problem.solve()
        after = metrics.snapshot()["counters"]
        metrics.counter("tune.trials").inc()

        mode = sol.diagnostics["operator_mode"]
        sweeps = sol.diagnostics["eval_sweeps"]
        kernel_bytes = (
            sweeps["jacobian"] * prior.kernel_profile(candidate, "jacobian").hbm_bytes
            + sweeps["residual"] * prior.kernel_profile(candidate, "residual").hbm_bytes
        )
        trial = TrialResult(
            candidate=candidate,
            gmres_iterations=int(sum(sol.newton.linear_iterations)),
            gmres_matvecs=int(self._counter_delta(before, after, "gmres.matvecs")),
            matvec_bytes=self._counter_delta(before, after, f"gmres.matvec.bytes.{mode}"),
            stream_bytes=self._counter_delta(before, after, f"gmres.stream.bytes.{mode}"),
            kernel_bytes=float(kernel_bytes),
            eval_sweeps=dict(sweeps),
            newton_converged=bool(sol.newton.converged),
            mean_velocity=float(sol.mean_velocity),
            wall_seconds=float(sp.dur_s),
        )
        # trial outcome timeline: the search's figure of merit per trial,
        # labeled by candidate so convergence plots show the search path
        get_series().record(
            "tune.trial.cost_bytes", trial.cost_bytes,
            candidate=candidate.describe(), mesh=self.mesh_key,
        )
        return trial

    # ------------------------------------------------------------------
    def _candidates(self) -> list[TuneCandidate]:
        cands = self.space.enumerate(self.spec)
        if self.base_config.nparts > 1:
            # SPMD solves always assemble (the row-partitioned operator
            # is the halo-exchange unit), so the matrix-free half of the
            # space is dead weight on a distributed mesh
            cands = [c for c in cands if c.operator_mode == "assembled"]
        return cands

    def _best_kernel_axes(
        self, candidates: list[TuneCandidate], prior: GpusimPrior
    ) -> tuple[str, object]:
        """Model-decided kernel axes: fewest modeled HBM bytes per sweep
        pair, modeled time as the tiebreak, enumeration order after."""
        seen = []
        keys = set()
        for c in candidates:
            k = (c.kernel_impl, str(c.launch_bounds))
            if k not in keys:
                keys.add(k)
                seen.append(c)
        best = min(
            range(len(seen)),
            key=lambda i: (
                prior.kernel_profile(seen[i], "jacobian").hbm_bytes
                + prior.kernel_profile(seen[i], "residual").hbm_bytes,
                prior.kernel_profile(seen[i], "jacobian").time_s
                + prior.kernel_profile(seen[i], "residual").time_s,
                i,
            ),
        )
        return seen[best].kernel_impl, seen[best].launch_bounds

    def _trial_queue(
        self, candidates: list[TuneCandidate], prior: GpusimPrior, kernel_axes: tuple
    ) -> list[TuneCandidate]:
        """Distinct solver-axis configurations to measure, in order:
        the hand-picked default first, then the prior ranking, with the
        last slot a seeded exploration pick from the unranked tail."""
        impl, lb = kernel_axes
        default = candidate_from_config(self.base_config)
        queue = [default]
        seen = {default.solver_axes}
        ranked = []
        for score in prior.rank(candidates):
            c = score.candidate
            if c.solver_axes in seen:
                continue
            seen.add(c.solver_axes)
            ranked.append(TuneCandidate(impl, lb, *c.solver_axes))
        n_prior = max(0, self.budget - 1)
        explore = 1 if self.budget >= 3 and len(ranked) > n_prior else 0
        queue.extend(ranked[: n_prior - explore])
        if explore:
            rng = random.Random(self.seed)
            queue.append(rng.choice(ranked[n_prior - explore :]))
        return queue

    # ------------------------------------------------------------------
    def tune(self) -> TuneReport:
        """Run the search, persist the winner, and report every trial."""
        metrics = get_metrics()
        with get_tracer().span(
            "tune.search", mesh=self.mesh_key, gpu=self.spec.name, budget=self.budget
        ):
            candidates = self._candidates()
            # probe problem doubles as the default trial's problem model
            probe = self.problem_factory(self._trial_config(candidate_from_config(self.base_config)))
            model = ProblemModel(
                num_dofs=probe.dofmap.num_dofs,
                num_cells=probe.mesh.num_elems,
                nnz=probe.plan.nnz,
                dofs_per_elem=probe.dofmap.dofs_per_elem,
                newton_steps=self.base_config.newton_steps,
            )
            prior = GpusimPrior(self.spec, model)
            kernel_axes = self._best_kernel_axes(candidates, prior)
            queue = self._trial_queue(candidates, prior, kernel_axes)

            trials: list[TrialResult] = []
            for cand in queue:
                trials.append(self._run_trial(cand, prior))
            default_trial = trials[0]
            for t in trials[1:]:
                # a trial that solved different physics cannot win on bytes
                rel = abs(t.mean_velocity - default_trial.mean_velocity) / max(
                    1.0e-30, abs(default_trial.mean_velocity)
                )
                if rel > VALID_RTOL or (
                    default_trial.newton_converged and not t.newton_converged
                ):
                    t.valid = False

            # min() keeps the first of equal costs, i.e. trial order: an
            # exact tie never displaces the hand-picked default (trial 0)
            winner = min((t for t in trials if t.valid), key=lambda t: t.cost_bytes)
            record = TuneRecord(
                candidate=winner.candidate,
                cost_bytes=winner.cost_bytes,
                gmres_iterations=winner.gmres_iterations,
                trials=len(trials),
                default_cost_bytes=default_trial.cost_bytes,
            )
            self.cache.put(cache_key(self.mesh_key, self.spec.name), record)
            self.cache.save()

            metrics.gauge("tune.best_cost_bytes").set(winner.cost_bytes)
            metrics.gauge("tune.best_gmres_iterations").set(winner.gmres_iterations)
            metrics.gauge("tune.default_cost_bytes").set(default_trial.cost_bytes)
            metrics.gauge("tune.cost_ratio").set(
                winner.cost_bytes / max(1.0e-30, default_trial.cost_bytes)
            )
            metrics.counter("tune.cache.stores").inc()

        return TuneReport(
            mesh_key=self.mesh_key,
            gpu=self.spec.name,
            record=record,
            trials=trials,
            trial_sequence=[t.candidate.describe() for t in trials],
            num_candidates=len(candidates),
        )


# ----------------------------------------------------------------------
def tuned_velocity_config(
    mesh_key: str,
    config: VelocityConfig,
    problem_factory,
    spec: GPUSpec | None = None,
    cache: TuneCache | None = None,
    budget: int = DEFAULT_TRIAL_BUDGET,
    seed: int = 0,
) -> VelocityConfig:
    """The transparent ``tuned="auto"`` entry point.

    Cache hit: apply the persisted winner (zero trials).  Miss: run a
    bounded online search on this mesh, persist, apply.  Any other
    ``tuned`` value returns ``config`` unchanged.
    """
    if config.tuned != "auto":
        return config
    spec = spec if spec is not None else default_tuning_spec()
    cache = cache if cache is not None else TuneCache()
    rec = cache.get(cache_key(mesh_key, spec.name))
    if rec is None:
        rec = AutoTuner(
            problem_factory,
            config,
            mesh_key,
            spec=spec,
            cache=cache,
            budget=budget,
            seed=seed,
        ).tune().record
    return rec.candidate.apply_to(config)
