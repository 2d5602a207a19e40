"""Suite ``transient``: the coupled thickness/velocity engine -- volume
conservation, warm-start and forcing budgets, kill/resume bitwise
against the uninterrupted run, and chord steps that end on their
target -- each oracle with its planted control."""

from __future__ import annotations

import numpy as np

from repro.verify.compare import collect, first_divergence, mismatch
from repro.verify.oracles import register

__all__ = ["drift_divergences", "kill_resume_drill", "resume_divergences"]

#: antarctica-closed (20 steps) is killed after its 10th step, and
#: antarctica-retreat (12 steps) after its 3rd: the velocity predictor
#: fires on both sides of that kill (index 2 is its first step)
_CLOSED_KILL_AT = 9
_PREDICTOR_KILL_AT = 2
#: relative volume drift under a zero mass balance (1.4e-16: interior
#: upwind fluxes telescope exactly, so anything more is a bug); the
#: planted leak's 3 steps each keep 1 - 1e-9 of the ice
_DRIFT_TOL = 1.0e-12
_PLANTED_LEAK = 1.0e-9
#: antarctica-closed's GMRES iterations per warm Newton step under mdsc
#: (3.0; 8.0 at ``linear_tol``) and under the default vline (4.5; 11.5)
_GMRES_PER_NEWTON = 4.0
_VLINE_GMRES_PER_NEWTON = 6.0
#: antarctica-retreat's 25 warm steps average at most 4.5 Newton steps
#: (3.92, 32 Jacobian sweeps; 5.08 and 49 when every step starts from the
#: last velocity as it is).  Before chord steps the same pair was 2.64 /
#: 3.56 with one sweep per step, and the bound 3.0
_PREDICTOR_WARM_STEPS = 25
_WARM_NEWTON_MEAN = 4.5


def _gmres_per_warm_newton(engine):
    """``(run of ``engine``'s scenario, its GMRES iterations per warm
    Newton step)``."""
    gmres = []
    full = engine.run(callback=lambda step, info: gmres.append(info["gmres_iterations"]))
    return full, sum(gmres[1:]) / sum(full.newton_iterations[1:])


def kill_resume_drill(name: str, kill_at: int):
    """``(engine, uninterrupted run of the library scenario ``name``, its
    GMRES iterations per warm Newton step, checkpoint loaded from the
    ``.npz`` of the run killed after step ``kill_at + 1``)``."""
    import tempfile

    from repro.transient import (
        TransientCheckpoint,
        TransientEngine,
        TransientKilled,
        get_scenario,
    )

    engine = TransientEngine(get_scenario(name))
    full, per_newton = _gmres_per_warm_newton(engine)
    with tempfile.TemporaryDirectory() as td:
        try:
            engine.run(kill_at_step=kill_at, checkpoint_dir=td)
        except TransientKilled as kill:
            return engine, full, per_newton, TransientCheckpoint.load(kill.path)
    raise AssertionError("scripted kill did not fire")


def resume_divergences(drill, drop_u_before: bool = False):
    """The drill's run resumed from its ``.npz`` against the uninterrupted
    run, bitwise.  ``drop_u_before`` resumes from the checkpoint with
    ``u_before`` emptied, the negative control that must diverge wherever
    the velocity predictor fires after the kill."""
    import dataclasses

    engine, full, _, ckpt = drill
    if drop_u_before:
        ckpt = dataclasses.replace(ckpt, u_before=np.empty(0))
    resumed = engine.run(resume_from=ckpt)
    return collect(
        first_divergence(name, got, want)
        for name, got, want in (
            ("thickness", resumed.thickness, full.thickness),
            ("u", resumed.u, full.u),
            ("particles_xy", resumed.particles.xy, full.particles.xy),
            ("particles_zeta", resumed.particles.zeta, full.particles.zeta),
            ("particles_active", resumed.particles.active, full.particles.active),
            ("newton_iterations", resumed.newton_iterations, full.newton_iterations),
        )
    )


def drift_divergences(result):
    """The run's volume drift past ``_DRIFT_TOL`` (a non-finite one too)."""
    drift = result.volume_drift
    return [] if drift <= _DRIFT_TOL else [mismatch("volume drift", drift, _DRIFT_TOL)]


@register(
    "transient-closed-budget",
    "antarctica-closed conserves volume, warm steps beat the cold one on Newton and GMRES "
    "budgets under vline and mdsc, a kill/resume is bitwise; a planted leak is caught",
)
def _oracle_closed_budget():
    from dataclasses import replace
    from unittest import mock

    from repro.app import AntarcticaTest
    from repro.store import ArtifactCache
    from repro.transient import TransientEngine

    drill = kill_resume_drill("antarctica-closed", _CLOSED_KILL_AT)
    engine, full, per_newton, _ = drill
    divs = drift_divergences(full) + resume_divergences(drill)
    cold, warm = full.cold_iterations, full.warm_mean_iterations
    if not warm < cold:
        divs.append(mismatch("warm mean Newton steps", warm, cold))

    def build_mdsc(sc):
        cfg = sc.to_config()
        return AntarcticaTest.build(
            replace(cfg, velocity=replace(cfg.velocity, preconditioner="mdsc"))
        )

    mdsc = TransientEngine(engine.scenario, cache=ArtifactCache(builder=build_mdsc))
    per_newton_by_pc = {
        engine.problem.config.preconditioner: per_newton,
        "mdsc": _gmres_per_warm_newton(mdsc)[1],
    }
    bounds = {"vline": _VLINE_GMRES_PER_NEWTON, "mdsc": _GMRES_PER_NEWTON}
    for pc, value in per_newton_by_pc.items():
        if not value <= bounds[pc]:
            divs.append(
                mismatch(f"GMRES iterations per warm Newton step ({pc})", value, bounds[pc])
            )
    step = engine.evolver.step
    with mock.patch.object(
        engine.evolver, "step", lambda *a, **kw: step(*a, **kw) * (1.0 - _PLANTED_LEAK)
    ):
        leaky = engine.run(num_steps=3)
    if not drift_divergences(leaky):
        divs.append(mismatch("planted leak: volume drift", leaky.volume_drift, _DRIFT_TOL))
    return divs, (
        f"{len(full.dts)} steps: drift {full.volume_drift:.3e}; Newton steps cold {cold}, warm "
        f"mean {warm:.2f}; GMRES iterations per warm Newton step "
        f"{', '.join(f'{pc} {v:.2f}' for pc, v in per_newton_by_pc.items())}; killed after "
        f"step {_CLOSED_KILL_AT + 1}, resumed bitwise; planted leak drifts {leaky.volume_drift:.1e}"
    )


@register(
    "transient-velocity-predictor",
    "25 warm steps of antarctica-retreat average at most 4.5 Newton steps",
)
def _oracle_velocity_predictor():
    from repro.transient import TransientEngine, get_scenario

    retreat = get_scenario("antarctica-retreat").with_steps(1 + _PREDICTOR_WARM_STEPS)
    warm = TransientEngine(retreat).run().warm_mean_iterations
    divs = []
    if not warm <= _WARM_NEWTON_MEAN:
        divs.append(mismatch("warm mean Newton steps", warm, _WARM_NEWTON_MEAN))
    return divs, f"antarctica-retreat: warm mean {warm:.2f} over {_PREDICTOR_WARM_STEPS} steps"


#: what forcing may cost and must save on the 12-step 400 km / 4 retreat
#: run (measured under mdsc: thickness 1.3e-9 of scale, volumes 2.6e-11,
#: Newton steps 33 vs 32, GMRES iterations 102 vs 250; under the default
#: vline: Newton steps 33 vs 32, GMRES iterations 148 vs 368)
_INEXACT_THICKNESS_RTOL = 1.0e-7
_INEXACT_VOLUME_RTOL = 1.0e-9
_INEXACT_EXTRA_NEWTON_STEPS = 3
_INEXACT_GMRES_SHARE = 0.45


@register(
    "inexact-vs-exact-newton",
    "the retreat trajectory under Eisenstat-Walker forcing against every step solved to linear_tol",
)
def _oracle_inexact_newton():
    """Both runs stop every solve on the same ``tol_abs``; pinning the
    rule's ceiling to its floor is the exact solve."""
    from unittest import mock

    from repro.observability import get_metrics
    from repro.solvers import newton
    from repro.transient import TransientEngine, get_scenario

    engine = TransientEngine(get_scenario("antarctica-retreat"))
    iterations = get_metrics().counter("gmres.iterations")

    def run():
        before = iterations.value
        result = engine.run()
        return result, sum(result.newton_iterations), iterations.value - before

    forced, forced_newton, forced_gmres = run()
    with mock.patch.object(newton, "_ETA_MAX", newton.LINEAR_TOL):
        exact, exact_newton, exact_gmres = run()

    divs = collect(
        first_divergence(name, got, want, rtol=0.0, atol=rtol * float(np.max(np.abs(want))))
        for name, got, want, rtol in (
            ("thickness", forced.thickness, exact.thickness, _INEXACT_THICKNESS_RTOL),
            ("volumes", np.asarray(forced.volumes), np.asarray(exact.volumes), _INEXACT_VOLUME_RTOL),
        )
    )
    if forced_newton > exact_newton + _INEXACT_EXTRA_NEWTON_STEPS:
        divs.append(
            mismatch(
                "Newton steps", forced_newton, exact_newton + _INEXACT_EXTRA_NEWTON_STEPS
            )
        )
    if forced_gmres > _INEXACT_GMRES_SHARE * exact_gmres:
        divs.append(
            mismatch("GMRES iterations", forced_gmres, _INEXACT_GMRES_SHARE * exact_gmres)
        )
    return divs, (
        f"{len(forced.dts)} steps: thickness @ {_INEXACT_THICKNESS_RTOL:g} of scale, volumes @ "
        f"{_INEXACT_VOLUME_RTOL:g}; Newton steps {forced_newton} vs {exact_newton}, "
        f"GMRES iterations {forced_gmres} vs {exact_gmres}"
    )


@register(
    "transient-predictor-resume",
    "a retreat run killed while the velocity predictor fires resumes bitwise; dropping u_before diverges",
)
def _oracle_predictor_resume():
    drill = kill_resume_drill("antarctica-retreat", _PREDICTOR_KILL_AT)
    divs = resume_divergences(drill)
    planted = resume_divergences(drill, drop_u_before=True)
    if not planted:
        divs.append(mismatch("planted resume without u_before: divergences", 0.0, 1.0))
    return divs, (
        f"antarctica-retreat, {len(drill[1].dts)} steps, killed after step "
        f"{_PREDICTOR_KILL_AT + 1}: thickness, u, particles and Newton counts bitwise; "
        f"resume without u_before caught by {len(planted)} comparisons"
    )


def _warm_solves(engine, plant_stale_jacobian: bool = False):
    """``engine``'s scenario run, and ``(u0, newton_tol, solution, stale)``
    of every warm solve, ``stale`` counting the GMRES solves that ran on a
    Jacobian no sweep of that solve evaluated.  ``plant_stale_jacobian``
    hands each solve's first sweep the Jacobian of the previous solve's
    last one: a ``J`` carried across the geometry refresh."""
    from unittest import mock

    from repro.solvers import newton

    problem = engine.problem
    solves, state = [], {}
    solve, sweep, gmres = problem.solve, problem.residual_and_jacobian, newton.gmres

    def recording_solve(**kwargs):
        state.update(swept=[], stale=0, first=True)
        sol = solve(**kwargs)
        if kwargs.get("u0") is not None:
            solves.append((kwargs["u0"], kwargs["newton_tol"], sol, state["stale"]))
        return sol

    def recording_sweep(u):
        f, J = sweep(u)
        state["swept"].append(J)
        if plant_stale_jacobian:
            first, state["first"] = state["first"], False
            fresh, J = J, (state["J"] if first and "J" in state else J)
            state["J"] = fresh
        return f, J

    def spy_gmres(A, *args, **kwargs):
        state["stale"] += not any(A is J for J in state["swept"])
        return gmres(A, *args, **kwargs)

    with (
        mock.patch.object(problem, "solve", recording_solve),
        mock.patch.object(problem, "residual_and_jacobian", recording_sweep),
        mock.patch.object(newton, "gmres", spy_gmres),
    ):
        return engine.run(), solves


def _chord_divergences(solves, budget: int) -> tuple[list, str]:
    """Every warm solve ends on its target within ``budget`` steps, on
    Jacobians of its own sweeps only, and together they take fewer
    Jacobian sweeps than Newton steps."""
    divs = []
    for k, (_, _, sol, stale) in enumerate(solves):
        newton = sol.newton
        if newton.stop_reason != "tolerance" or newton.iterations > budget:
            divs.append(
                mismatch(f"warm solve {k} ({newton.stop_reason})", newton.iterations, budget)
            )
        if stale:
            divs.append(mismatch(f"warm solve {k}: GMRES on an older Jacobian", stale, 0))
    steps = sum(sol.newton.iterations for *_, sol, _ in solves)
    sweeps = sum(sol.newton.num_jacobian_evals for *_, sol, _ in solves)
    if not sweeps < steps:
        divs.append(mismatch("Jacobian sweeps of the warm solves", sweeps, steps - 1))
    return divs, f"{steps} Newton steps, {sweeps} Jacobian sweeps"


@register(
    "warm-jacobian-reuse",
    "the retreat run's warm solves take chord steps and still end on their target, a solve "
    "resumed with a chord step pending is bitwise; a Jacobian carried across time steps is caught",
)
def _oracle_warm_jacobian_reuse():
    import tempfile
    from pathlib import Path

    from repro.resilience import NewtonCheckpoint
    from repro.transient import TransientEngine, get_scenario

    engine = TransientEngine(get_scenario("antarctica-retreat"))
    problem = engine.problem
    budget = problem.config.newton_steps
    _, solves = _warm_solves(engine)
    divs, detail = _chord_divergences(solves, budget)

    # the last warm solve again, at the geometry it ran on, then resumed
    # from the first of its checkpoints with a chord step pending (saved
    # and loaded: the field is on disk)
    u0, tol, ran, _ = solves[-1]
    checkpoints = []
    full = problem.solve(u0=u0, newton_tol=tol, checkpoint_cb=checkpoints.append)
    pending = [c for c in checkpoints[:-1] if c.jacobian_x is not None]
    before = len(divs)
    if not pending:
        divs.append(mismatch("checkpoints with a chord step pending", 0.0, 1.0))
    else:
        with tempfile.TemporaryDirectory() as td:
            ckpt = NewtonCheckpoint.load(pending[0].save(Path(td) / "newton.npz"))
        resumed = problem.solve(u0=u0, newton_tol=tol, resume_from=ckpt)
        for name, got, want in (
            ("re-solve u", full.u, ran.u),
            ("resumed u", resumed.u, full.u),
            ("resumed residual norms", resumed.newton.residual_norms, full.newton.residual_norms),
            ("resumed GMRES iterations", resumed.newton.linear_iterations,
             full.newton.linear_iterations),
        ):
            got, want = np.asarray(got), np.asarray(want)
            if got.shape != want.shape:
                divs.append(mismatch(f"{name}: length", len(got), len(want)))
            else:
                divs += collect([first_divergence(name, got, want)])

    _, planted = _warm_solves(engine, plant_stale_jacobian=True)
    caught, planted_detail = _chord_divergences(planted, budget)
    if not caught:
        divs.append(mismatch("planted Jacobian carried across steps: divergences", 0.0, 1.0))
    return divs, (
        f"antarctica-retreat, {len(solves)} warm solves: {detail}; resumed from step "
        f"{pending[0].step if pending else '-'} with a chord step pending: "
        f"{'bitwise' if len(divs) == before else 'diverged'}; a Jacobian carried "
        f"across the geometry refresh: {planted_detail}, caught by {len(caught)}"
    )
