"""Inexact Newton on the real velocity solve.

``solve(newton_tol=...)`` -- today the transient engine's call -- follows
:func:`repro.solvers.newton.forcing_term`; a solve with a step budget
only (the paper's eight steps, every serve request) asks GMRES for
the 1e-6 ``LINEAR_TOL`` on every step, as it always did.
The bitwise contracts (resume == uninterrupted, chaos == fault-free,
SPMD == serial) have to hold under the rule too, and every warm solve of the scenario library
has to end on its target with every linear solve converged.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from repro import resilience as res
from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.solvers import forcing_term, gmres
from repro.store import ArtifactCache
from repro.transient import SCENARIOS, TransientEngine, get_scenario

newton_module = importlib.import_module("repro.solvers.newton")

#: (operator_mode, nparts) of the three solve paths
PATHS = [("assembled", 1), ("matrix-free", 1), ("assembled", 2)]

#: GMRES iterations per warm Newton step each line-smoothed
#: preconditioner holds the scenario library to.  Measured per scenario,
#: forced / every step solved to ``LINEAR_TOL``: mdsc 2.96-3.32 /
#: 8.00-9.00, vline 4.50-5.41 / 11.50-13.69.
GMRES_PER_NEWTON = {"mdsc": 4.0, "vline": 6.0}

#: (Newton steps, residual sweeps) the 25-step cold run at 400 km / 4
#: may take to its roundoff floor (measured: mdsc 11 / 25, vline 14 / 29)
ROUNDOFF_FLOOR_BUDGET = {"mdsc": (12, 25), "vline": (15, 29)}


def _problem(operator_mode="assembled", nparts=1, newton_steps=8, **options):
    velocity = VelocityConfig(
        operator_mode=operator_mode, nparts=nparts, newton_steps=newton_steps, **options
    )
    cfg = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=velocity)
    return AntarcticaTest.build(cfg).problem


def _engine(name, preconditioner):
    """The library scenario ``name`` solved under ``preconditioner``."""

    def build(sc):
        cfg = sc.to_config()
        velocity = replace(cfg.velocity, preconditioner=preconditioner)
        return AntarcticaTest.build(replace(cfg, velocity=velocity))

    return TransientEngine(get_scenario(name), cache=ArtifactCache(builder=build))


@pytest.fixture
def asked(monkeypatch):
    """Every tolerance ``newton_solve`` hands to ``gmres``, in order."""
    tols = []

    def spy(A, b, tol, **kwargs):
        tols.append(tol)
        return gmres(A, b, tol=tol, **kwargs)

    monkeypatch.setattr(newton_module, "gmres", spy)
    return tols


def _target(problem, rtol=1.0e-6):
    f0 = problem.residual(np.zeros(problem.dofmap.num_dofs))
    return rtol * float(np.linalg.norm(f0))


class TestWhichSolvesAreInexact:
    @pytest.mark.parametrize("operator_mode, nparts", PATHS)
    def test_a_step_budget_solve_asks_for_linear_tol(self, asked, operator_mode, nparts):
        problem = _problem(operator_mode, nparts)
        sol = problem.solve()
        assert asked == [newton_module.LINEAR_TOL] * 8
        # the paper's eight steps, all taken: no stop fired
        assert sol.newton.iterations == 8
        assert sol.newton.stop_reason == "max_steps"

    def test_a_solve_with_a_target_follows_the_rule(self, asked):
        problem = _problem(newton_steps=12)
        tol = _target(problem)
        sol = problem.solve(newton_tol=tol)
        norms = sol.newton.residual_norms
        assert sol.newton.converged and sol.newton.stop_reason == "tolerance"
        assert asked == [
            forcing_term(norms[: k + 1], tol, newton_module.LINEAR_TOL)
            for k in range(sol.newton.iterations)
        ]
        assert asked[0] == newton_module._ETA_MAX and min(asked) < asked[0]
        assert set(sol.newton.linear_flags) == {"converged"}

    def test_forcing_saves_iterations_not_steps(self, monkeypatch):
        problem = _problem(newton_steps=12)
        tol = _target(problem)
        forced = problem.solve(newton_tol=tol).newton
        monkeypatch.setattr(newton_module, "_ETA_MAX", newton_module.LINEAR_TOL)
        exact = problem.solve(newton_tol=tol).newton
        assert forced.converged and exact.converged
        assert forced.iterations <= exact.iterations + 1
        assert sum(forced.linear_iterations) <= 0.5 * sum(exact.linear_iterations)


class TestBitwiseContractsUnderForcing:
    def test_newton_resume_mid_solve(self):
        problem = _problem(newton_steps=12)
        tol = _target(problem)
        checkpoints = []
        full = problem.solve(newton_tol=tol, checkpoint_cb=checkpoints.append)
        assert full.newton.iterations >= 6
        # the process died after the third checkpoint was written
        resumed = problem.solve(newton_tol=tol, resume_from=checkpoints[2])
        assert np.array_equal(resumed.u, full.u)
        assert resumed.newton.residual_norms == full.newton.residual_norms
        assert resumed.newton.linear_iterations == full.newton.linear_iterations

    def test_warm_newton_resume_mid_solve(self, tmp_path):
        """From half the cold solution the solve takes chord steps, with one
        fresh sweep in between: a resume with a chord step pending (from
        the ``.npz``) and one without both continue bitwise."""
        problem = _problem(newton_steps=12)
        tol = _target(problem)
        u0 = 0.5 * problem.solve(newton_tol=tol).u
        checkpoints = []
        full = problem.solve(u0=u0, newton_tol=tol, checkpoint_cb=checkpoints.append)
        pending = [c.jacobian_x is not None for c in checkpoints]
        assert full.newton.stop_reason == "tolerance" and full.newton.jacobian_reuses >= 2
        assert pending[:3] == [True, False, True]
        for k in (1, 2):
            ckpt = type(checkpoints[k]).load(checkpoints[k].save(tmp_path / f"step{k}.npz"))
            resumed = problem.solve(u0=u0, newton_tol=tol, resume_from=ckpt)
            assert np.array_equal(resumed.u, full.u)
            assert resumed.newton.residual_norms == full.newton.residual_norms
            assert resumed.newton.linear_iterations == full.newton.linear_iterations
            # step j reuses when checkpoint j - 1 has a chord step pending;
            # the resume sweeps at its iterate, and once more where the
            # pending chord step's Jacobian was evaluated
            assert resumed.newton.jacobian_reuses == sum(pending[k:-1])
            assert resumed.newton.num_jacobian_evals == 1 + pending[k] + sum(
                not p for p in pending[k + 1 : -1]
            )

    def test_cold_and_fixed_step_solves_sweep_once_per_newton_step(self):
        """Chord steps are for warm solves with a target only: a cold
        solve with a target and a warm solve with a step budget keep one
        Jacobian sweep (and one preconditioner set-up) per Newton step."""
        problem = _problem(newton_steps=12)
        tol = _target(problem)
        cold = problem.solve(newton_tol=tol)
        fixed = problem.solve(u0=0.5 * cold.u)
        for sol in (cold, fixed):
            assert sol.diagnostics["jacobian_reuses"] == sol.newton.jacobian_reuses == 0
            assert sol.newton.num_jacobian_evals == sol.newton.iterations
            assert sol.diagnostics["eval_sweeps"]["jacobian"] == sol.newton.iterations
        assert fixed.newton.warm_started and fixed.newton.iterations >= 4

    def test_a_forced_solve_under_chaos_equals_fault_free(self):
        problem = _problem(nparts=4, newton_steps=12)
        tol = _target(problem)
        clean = problem.solve(newton_tol=tol)
        policy = res.RecoveryPolicy()
        with res.fault_injection(res.reference_schedule(nparts=4), policy=policy) as plane:
            chaos = problem.solve(newton_tol=tol, resilience=policy)
            assert not plane.schedule.pending()
        assert chaos.diagnostics["resilience"]["recoveries"] == 5
        assert np.array_equal(chaos.u, clean.u)
        assert chaos.newton.linear_iterations == clean.newton.linear_iterations

    def test_a_forced_transient_step_spmd_equals_serial(self):
        scenario = get_scenario("antarctica-retreat").with_steps(2)

        def run(nparts):
            def build(sc):
                cfg = sc.to_config()
                velocity = replace(cfg.velocity, nparts=nparts, operator_mode="assembled")
                return AntarcticaTest.build(replace(cfg, velocity=velocity))

            return TransientEngine(scenario, cache=ArtifactCache(builder=build)).run()

        serial, spmd = run(1), run(2)
        assert spmd.warm_started == [False, True]
        assert np.array_equal(spmd.u, serial.u)
        assert np.array_equal(spmd.thickness, serial.thickness)
        assert spmd.newton_iterations == serial.newton_iterations
        # the warm step took chord steps on the distributed operator
        sweeps = spmd.diagnostics["jacobian_sweeps"]
        assert sweeps == serial.diagnostics["jacobian_sweeps"]
        assert sweeps < sum(spmd.newton_iterations)


def _gmres_per_warm_newton(engine, monkeypatch):
    """Run ``engine``, hold every solve to its target, and return its
    GMRES iterations per warm Newton step."""
    solves = []
    solve = engine.problem.solve

    def recording_solve(**kwargs):
        sol = solve(**kwargs)
        solves.append((kwargs["newton_tol"], sol.newton))
        return sol

    monkeypatch.setattr(engine.problem, "solve", recording_solve)
    result = engine.run()
    assert len(solves) == engine.scenario.num_steps
    for tol, newton in solves:
        assert tol == result.tol_abs
        assert newton.final_residual <= tol
        # on the target, not on the roundoff floor or the step budget
        assert newton.stop_reason == "tolerance"
        assert set(newton.linear_flags) <= {"converged"}
    warm = solves[1:]
    return sum(sum(n.linear_iterations) for _, n in warm) / sum(n.iterations for _, n in warm)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_transient_solve_ends_on_its_target(name, monkeypatch):
    per_newton = _gmres_per_warm_newton(_engine(name, "mdsc"), monkeypatch)
    assert per_newton <= GMRES_PER_NEWTON["mdsc"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_default_transient_solve_ends_on_its_target(name, monkeypatch):
    engine = TransientEngine(get_scenario(name))
    assert engine.problem.config.preconditioner == "vline"
    assert _gmres_per_warm_newton(engine, monkeypatch) <= GMRES_PER_NEWTON["vline"]


def _long_cold_run_stops_on_the_roundoff_floor(preconditioner):
    newton_budget, sweep_budget = ROUNDOFF_FLOOR_BUDGET[preconditioner]
    sol = _problem(newton_steps=25, preconditioner=preconditioner).solve()
    newton = sol.newton
    assert newton.converged and newton.stop_reason == "roundoff_floor"
    assert newton.iterations <= newton_budget
    assert newton.final_residual <= 1.0e-12 * newton.residual_norms[0]
    assert sol.diagnostics["eval_sweeps"]["residual"] <= sweep_budget


def test_a_long_cold_run_stops_on_the_roundoff_floor():
    """``newton_tol = 1e-8`` is absolute against ``||F_0|| ~ 1e13``: 25
    steps used to end ``converged=False`` after 102 residual sweeps, the
    last fourteen steps at ``alpha = 1/64`` on ``||F|| ~ 0.2``."""
    _long_cold_run_stops_on_the_roundoff_floor("mdsc")


def test_a_long_default_cold_run_stops_on_the_roundoff_floor():
    _long_cold_run_stops_on_the_roundoff_floor("vline")


def test_transient_check_fails_when_every_step_is_solved_to_linear_tol(monkeypatch):
    """``transient-closed-budget`` holds antarctica-closed's GMRES
    iterations per warm Newton step to 4 under mdsc (3.0; the exact
    solve takes 8) and to 6 under the default vline (4.5; 11.5)."""
    from repro.verify.oracles import ORACLES

    (oracle,) = [o for o in ORACLES if o.name == "transient-closed-budget"]
    assert oracle.fn()[0] == []
    monkeypatch.setattr(newton_module, "_ETA_MAX", 1.0e-6)
    per_newton = {
        d.name: d for d in oracle.fn()[0] if d.name.startswith("GMRES iterations per warm")
    }
    assert per_newton["GMRES iterations per warm Newton step (mdsc)"].lhs > 4.0
    assert per_newton["GMRES iterations per warm Newton step (vline)"].lhs > 6.0
