"""The transient engine: CFL-stepped thickness/velocity coupling.

MALI's forward model alternates a diagnostic FO Stokes velocity solve
with a prognostic thickness update (Eq. 2).  The engine runs that loop
with the three amortizations that make it affordable:

* **artifact reuse** -- the mesh, DofMap, AssemblyPlan and
  preconditioner scaffolding are built once per scenario (via the
  :class:`~repro.store.ArtifactCache`) and only the vertical coordinate
  is re-extruded each step
  (:meth:`~repro.app.velocity_solver.StokesVelocityProblem.refresh_geometry`),
  in place on the cached problem -- so a run holds its cache entry's
  lock throughout, as a serve worker does for a solve;
* **warm starts** -- each Newton solve starts from a damped linear
  extrapolation of the last two velocities (:func:`warm_start_guess`;
  the first warm step, with one velocity behind it, starts from that
  velocity).  The cold start measures ``||F(0)||`` once and fixes the
  absolute tolerance ``tol_abs = NEWTON_RTOL * ||F(0)||`` for the whole
  run, so warm-started steps converge in the few iterations it takes to
  re-enter the basin instead of burning the full Newton budget -- and,
  having a target, they are inexact Newton solves: GMRES runs to the
  Eisenstat-Walker term of :func:`repro.solvers.newton.forcing_term`,
  2.6 iterations per Newton step where ``linear_tol`` took 7.5;
* **adaptive CFL stepping** -- the requested ``DT_YEARS`` is capped at
  ``CFL_SAFETY`` times the evolver's stability bound for the current
  velocity, so the explicit upwind update stays monotone (and the
  ``H >= 0`` clip stays inactive on closed-budget runs, which is what
  lets the conservation gate demand drift at roundoff).

Every step is a pure function of the checkpointed state ``(H, u,
u_before, tol_abs, t, particles)``: geometry is refreshed from ``H`` at
the top of *every* step (not carried across steps as hidden mutable
state), and the predictor's second velocity lives in the run and its
checkpoint, never on the engine, so
a killed run resumed from a :class:`~repro.transient.checkpoint.
TransientCheckpoint` reproduces the uninterrupted trajectory bit for
bit -- the transient analogue of the Newton-level resume guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.observability import get_metrics, get_series, get_tracer
from repro.physics.thickness import ThicknessEvolver
from repro.store import ArtifactCache
from repro.transient.checkpoint import TransientCheckpoint
from repro.transient.particles import ParticleSet
from repro.transient.scenarios import (
    CFL_SAFETY,
    CHECKPOINT_EVERY,
    DT_YEARS,
    FORCING_RAMP_YEARS,
    NEWTON_RTOL,
    TransientScenario,
)

__all__ = ["TransientEngine", "TransientResult", "TransientKilled", "warm_start_guess"]

#: damping of the velocity predictor: the warm start moves this fraction
#: of the dt-scaled step-over-step velocity change past the last velocity.
#: Full extrapolation (1) overshoots where the ice thins fast (89 -> 87
#: Newton steps on antarctica-retreat's 25 warm steps, 83 -> 104 on
#: greenland-ramp's 20); 1/2 takes 66 and 65, and no library scenario
#: takes more steps with it than without (DESIGN.md sections 7 and 16)
PREDICTOR_THETA = 0.5


def warm_start_guess(u_prev: np.ndarray, u_before: np.ndarray, dts: list[float]) -> np.ndarray:
    """The next velocity solve's initial guess, extrapolated over the last step.

    ``u_prev`` and ``u_before`` are the velocities of the last two steps
    and ``dts`` the accepted step sizes so far, so the next solve sits
    ``dts[-1]`` after ``u_prev``, which sat ``dts[-2]`` after
    ``u_before``.  With no ``u_before`` (an empty array: the first warm
    step) the guess is ``u_prev`` itself.
    """
    if not u_before.size:
        return u_prev
    return u_prev + PREDICTOR_THETA * (dts[-1] / dts[-2]) * (u_prev - u_before)


class TransientKilled(RuntimeError):
    """A scripted kill fired mid-run (chaos/CI resume drills).

    Carries the checkpoint written at the kill point (and its path when
    a checkpoint directory was configured) so the harness that armed
    ``kill_at_step`` can immediately resume from exactly this state.
    """

    def __init__(self, checkpoint: TransientCheckpoint, path: Path | None):
        self.checkpoint = checkpoint
        self.path = path
        super().__init__(
            f"transient run killed after step {checkpoint.step} "
            f"(checkpoint {'at ' + str(path) if path else 'in memory'})"
        )


@dataclass
class TransientResult:
    """Outcome of a transient run plus the coupling diagnostics."""

    scenario: TransientScenario
    thickness: np.ndarray  # final (num_footprint_elems,) cell thickness
    u: np.ndarray  # final velocity dofs
    u_before: np.ndarray  # the step before's velocity dofs; empty after one step
    particles: ParticleSet
    volumes: list[float]  # V_0 .. V_N [m^3]
    times: list[float]  # 0 .. t_N [yr]
    dts: list[float]  # accepted step sizes [yr]
    newton_iterations: list[int]  # per-step Newton iteration counts
    warm_started: list[bool]  # per-step warm-start flags
    tol_abs: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def volume_drift(self) -> float:
        """Max relative departure of total volume from its initial value.

        The conservation gate for closed-budget (zero-forcing) scenarios:
        interior-edge upwind fluxes telescope exactly, so any drift
        beyond roundoff accumulation is a bug (or the planted CI leak).
        A non-finite volume anywhere gives a non-finite drift, which
        fails every ``drift <= tol`` gate.
        """
        v = np.asarray(self.volumes, dtype=np.float64)
        return float(np.max(np.abs(v - v[0])) / abs(v[0]))

    @property
    def cold_iterations(self) -> int:
        return self.newton_iterations[0]

    @property
    def warm_mean_iterations(self) -> float:
        """Mean Newton iterations over the warm-started steps."""
        warm = [n for n, w in zip(self.newton_iterations, self.warm_started) if w]
        return float(np.mean(warm)) if warm else float("nan")

    def final_checkpoint(self) -> TransientCheckpoint:
        """The state after the last recorded step: the one place a
        checkpoint is built (periodic, kill-point and end-of-run)."""
        return TransientCheckpoint(
            step=len(self.dts),
            t_years=self.times[-1],
            tol_abs=self.tol_abs,
            thickness=self.thickness,
            u=self.u,
            u_before=self.u_before,
            particles_xy=self.particles.xy,
            particles_zeta=self.particles.zeta,
            particles_active=self.particles.active,
            scenario_digest=self.scenario.digest,
            volumes=list(self.volumes),
            times=list(self.times),
            dts=list(self.dts),
            newton_iterations=list(self.newton_iterations),
        )


class TransientEngine:
    """Runs a :class:`TransientScenario` through the coupled loop."""

    def __init__(self, scenario: TransientScenario, cache=None):
        self.scenario = scenario
        self.cache = cache if cache is not None else ArtifactCache()
        self.entry = self.cache.get(scenario)
        self.test = self.entry.test
        self.problem = self.test.problem
        self.mesh = self.test.mesh
        self.geometry = self.test.geometry
        self.footprint = self.mesh.footprint
        self.evolver = ThicknessEvolver(self.footprint)
        self._centers = self.footprint.elem_centers()
        self._x2 = self.footprint.coords[:, 0]
        self._y2 = self.footprint.coords[:, 1]

    # ------------------------------------------------------------------
    def initial_thickness(self) -> np.ndarray:
        """Cell-centered initial thickness from the analytic geometry."""
        cx, cy = self._centers[:, 0], self._centers[:, 1]
        return np.asarray(self.geometry.thickness(cx, cy), dtype=np.float64)

    def _mass_balance(self, h_cell: np.ndarray, t_years: float):
        """(smb, bmb) per cell [m/yr] for the scenario's forcing at ``t``."""
        sc = self.scenario
        ne = self.footprint.num_elems
        zero = 0.0
        if sc.forcing == "none" or sc.forcing_amplitude == 0.0:
            return zero, zero
        cx, cy = self._centers[:, 0], self._centers[:, 1]
        if sc.forcing == "retreat":
            gx, gy = self.geometry.center
            r = np.hypot(cx - gx, cy - gy) / self.geometry.radius
            smb = -sc.forcing_amplitude * np.clip((r - 0.6) / 0.4, 0.0, 1.0)
            return smb, zero
        if sc.forcing == "ramp":
            level = min(t_years / FORCING_RAMP_YEARS, 1.0)
            return np.full(ne, -sc.forcing_amplitude * level), zero
        # "collapse": basal melt under floating ice, judged against the
        # *evolving* thickness's own floatation state
        from repro.constants import RHO_ICE, RHO_SEAWATER

        bed = np.asarray(self.geometry.bed(cx, cy), dtype=np.float64)
        floating = bed + h_cell * (RHO_ICE / RHO_SEAWATER) <= 0.0
        return zero, np.where(floating, -sc.forcing_amplitude, 0.0)

    # ------------------------------------------------------------------
    def run(
        self,
        num_steps: int | None = None,
        resume_from: TransientCheckpoint | str | Path | None = None,
        kill_at_step: int | None = None,
        checkpoint_dir: str | Path | None = None,
        callback=None,
    ) -> TransientResult:
        """Run (or resume) the coupled loop for ``num_steps`` steps.

        ``resume_from`` restarts bit-for-bit from a checkpoint (object
        or ``.npz`` path); ``kill_at_step=k`` checkpoints after step
        ``k`` completes and raises :class:`TransientKilled` (the resume
        drill); ``k`` must be a step the run takes, ``start <= k <
        num_steps``.  ``callback(step, result_so_far_dict)`` observes each
        step.  A fresh run takes at least one step; a resumed run with
        nothing left to do returns the checkpointed state.
        """
        sc = self.scenario
        total = sc.num_steps if num_steps is None else int(num_steps)
        if resume_from is None and total < 1:
            raise ValueError(f"num_steps must be at least 1 on a fresh run, got {total}")
        ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if ckpt_dir is not None:
            ckpt_dir.mkdir(parents=True, exist_ok=True)

        tracer = get_tracer()
        metrics = get_metrics()
        series = get_series()

        # -- initial or resumed state ----------------------------------
        if resume_from is None:
            h = self.initial_thickness()
            u_prev: np.ndarray | None = None
            u_before = np.empty(0)
            tol_abs: float | None = None
            t = 0.0
            start = 0
            particles = ParticleSet.seed(
                self.footprint, h, sc.num_particles, seed=sc.particle_seed
            )
            volumes = [self.evolver.total_volume(h)]
            times = [0.0]
            dts: list[float] = []
            newton_its: list[int] = []
            warm_flags: list[bool] = []
        else:
            ckpt = (
                resume_from
                if isinstance(resume_from, TransientCheckpoint)
                else TransientCheckpoint.load(resume_from)
            ).check_scenario(sc)
            h = np.array(ckpt.thickness, dtype=np.float64)
            u_prev = np.array(ckpt.u, dtype=np.float64)
            u_before = np.array(ckpt.u_before, dtype=np.float64)
            tol_abs = ckpt.tol_abs
            t = ckpt.t_years
            start = ckpt.step
            particles = ParticleSet(
                self.footprint, ckpt.particles_xy, ckpt.particles_zeta, ckpt.particles_active
            )
            volumes = list(ckpt.volumes)
            times = list(ckpt.times)
            dts = list(ckpt.dts)
            newton_its = list(ckpt.newton_iterations)
            # reconstruct: only the cold first step of the original run
            # was not warm-started (flags are derived, not checkpointed)
            warm_flags = [i > 0 for i in range(len(newton_its))]
        if kill_at_step is not None and not start <= kill_at_step < total:
            raise ValueError(f"kill_at_step must be in [{start}, {total}), got {kill_at_step}")
        if resume_from is not None:
            metrics.counter("transient.resumes").inc()

        clipped_total = 0.0
        source_total = 0.0

        def so_far() -> TransientResult:
            # the run up to the last recorded step (also every snapshot)
            return TransientResult(
                scenario=sc,
                thickness=h,
                u=u_prev,
                u_before=u_before,
                particles=particles,
                volumes=volumes,
                times=times,
                dts=dts,
                newton_iterations=newton_its,
                warm_started=warm_flags,
                tol_abs=float(tol_abs),
                diagnostics={
                    "scenario": sc.name,
                    "scenario_digest": sc.digest,
                    "num_steps": len(dts),
                    "t_final_years": t,
                    "tol_abs": float(tol_abs),
                    "cold_iterations": newton_its[0] if newton_its else 0,
                    "active_particles": particles.num_active,
                    # conservation audit: V_N - V_0 must equal the credited
                    # sources (SMB/BMB) plus the H>=0 clip corrections; the
                    # residual is the unexplained (bug) volume
                    "volume_budget_residual": float(
                        volumes[-1] - volumes[0] - source_total - clipped_total
                    ),
                    "clipped_volume": clipped_total,
                    "source_volume": source_total,
                },
            )

        # refresh_geometry rewrites the cached problem in place: own it
        run_span = tracer.span("transient.run", scenario=sc.name, steps=total)
        with self.entry.lock, run_span:
            for s in range(start, total):
                with tracer.span("transient.step", step=s):
                    # 1. geometry from the current thickness (every step,
                    # including the first after a resume: the mesh is
                    # derived state, never carried hidden across steps)
                    nodal_h = self.evolver.node_thickness(h)
                    nodal_s = self.geometry.surface_for_thickness(
                        self._x2, self._y2, nodal_h
                    )
                    self.problem.refresh_geometry(nodal_h, nodal_s)

                    # 2. velocity: warm-started from the predictor, fixed
                    # absolute tolerance
                    if tol_abs is None:
                        f0 = float(
                            np.linalg.norm(
                                self.problem.residual(
                                    np.zeros(self.problem.dofmap.num_dofs)
                                )
                            )
                        )
                        tol_abs = NEWTON_RTOL * f0
                    u0 = None
                    if u_prev is not None:
                        u0 = warm_start_guess(u_prev, u_before, dts)
                    with tracer.span("transient.velocity", step=s):
                        sol = self.problem.solve(u0=u0, newton_tol=tol_abs)
                    if u_prev is not None:
                        u_before = u_prev
                    u_prev = sol.u

                    # 3. thickness: CFL-capped explicit upwind step
                    with tracer.span("transient.thickness", step=s):
                        v_cell = self.problem.depth_averaged_cell_velocity(sol.u)
                        dt = DT_YEARS
                        dt_max = self.evolver.max_stable_dt(v_cell)
                        if np.isfinite(dt_max):
                            dt = min(dt, CFL_SAFETY * dt_max)
                        smb, bmb = self._mass_balance(h, t)
                        h = self.evolver.step(h, v_cell, dt, smb=smb, bmb=bmb)
                    clipped_total += self.evolver.last_step_stats["clipped_volume"]
                    source_total += self.evolver.last_step_stats["source_volume"]

                    # 4. particles ride the same velocity field
                    if len(particles):
                        with tracer.span("transient.particles", step=s):
                            particles.advect(self.problem.dofmap.nodal_view(sol.u), dt)

                    t += dt

                # -- record ------------------------------------------------
                vol = self.evolver.total_volume(h)
                volumes.append(vol)
                times.append(t)
                dts.append(dt)
                newton_its.append(sol.newton.iterations)
                warm_flags.append(bool(sol.diagnostics["warm_started"]))
                metrics.counter("transient.steps").inc()
                series.record("transient.volume", vol, scenario=sc.name)
                series.record("transient.dt", dt, scenario=sc.name)
                series.record(
                    "transient.newton_iterations",
                    sol.newton.iterations,
                    scenario=sc.name,
                )
                if callback is not None:
                    callback(
                        s,
                        {
                            "t_years": t,
                            "dt": dt,
                            "volume": vol,
                            "newton_iterations": sol.newton.iterations,
                            "gmres_iterations": sum(sol.newton.linear_iterations),
                            "warm_started": warm_flags[-1],
                            "active_particles": particles.num_active,
                        },
                    )

                done = s + 1
                if ckpt_dir is not None and done % CHECKPOINT_EVERY == 0 and done < total:
                    so_far().final_checkpoint().save(ckpt_dir / f"step{done:04d}.npz")
                    metrics.counter("transient.checkpoints").inc()
                if kill_at_step is not None and s == kill_at_step:
                    ck = so_far().final_checkpoint()
                    path = None
                    if ckpt_dir is not None:
                        path = ck.save(ckpt_dir / f"killed_step{done:04d}.npz")
                    metrics.counter("transient.kills").inc()
                    raise TransientKilled(ck, path)

        result = so_far()
        if ckpt_dir is not None:
            result.final_checkpoint().save(ckpt_dir / "final.npz")
        return result
