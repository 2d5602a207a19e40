"""Integration tests of the transient engine on real velocity solves.

One module-scoped :class:`~repro.store.ArtifactCache` backs every
test (the same amortization the engine itself relies on), so the mesh
and AssemblyPlan are built once for the whole module.
"""

import threading

import numpy as np
import pytest

from repro.physics.thickness import ThicknessEvolver
from repro.store import ArtifactCache
from repro.transient import (
    TransientCheckpoint,
    TransientEngine,
    TransientKilled,
    get_scenario,
)
from repro.transient.engine import PREDICTOR_THETA

#: the closed-budget library scenario, truncated for test cost
STEPS = 5
KILL_AT = 1  # kill after step 2 of 5: resume covers most of the run


def _oracle(name):
    """The divergences of the registered oracle ``name``."""
    from repro.verify.oracles import ORACLES

    (oracle,) = [o for o in ORACLES if o.name == name]
    return oracle.fn()[0]


@pytest.fixture(scope="module")
def cache():
    return ArtifactCache()


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("antarctica-closed").with_steps(STEPS)


@pytest.fixture(scope="module")
def baseline(cache, scenario):
    """The uninterrupted reference trajectory."""
    return TransientEngine(scenario, cache=cache).run()


class TestWarmStarts:
    def test_warm_steps_beat_the_cold_start(self, baseline):
        """The acceptance criterion: warm mean strictly below cold."""
        assert baseline.warm_started[0] is False
        assert all(baseline.warm_started[1:])
        cold = baseline.cold_iterations
        assert baseline.warm_mean_iterations < cold
        # and not just on average: every warm step individually wins
        assert all(n < cold for n in baseline.newton_iterations[1:])

    def test_explicit_zero_guess_matches_default(self, cache, scenario):
        """solve(u0=zeros) IS the cold solve, bitwise (the x0 seam)."""
        engine = TransientEngine(scenario, cache=cache)
        h = engine.initial_thickness()
        nodal_h = engine.evolver.node_thickness(h)
        nodal_s = engine.geometry.surface_for_thickness(engine._x2, engine._y2, nodal_h)
        engine.problem.refresh_geometry(nodal_h, nodal_s)
        a = engine.problem.solve()
        b = engine.problem.solve(u0=np.zeros(engine.problem.dofmap.num_dofs))
        assert np.array_equal(a.u, b.u)
        assert a.diagnostics["warm_started"] is False
        assert b.diagnostics["warm_started"] is False

    def test_warm_start_flag_reported(self, cache, scenario):
        engine = TransientEngine(scenario, cache=cache)
        h = engine.initial_thickness()
        nodal_h = engine.evolver.node_thickness(h)
        nodal_s = engine.geometry.surface_for_thickness(engine._x2, engine._y2, nodal_h)
        engine.problem.refresh_geometry(nodal_h, nodal_s)
        cold = engine.problem.solve()
        warm = engine.problem.solve(u0=cold.u, newton_tol=1.0e-6 * cold.newton.residual_norms[0])
        assert warm.diagnostics["warm_started"] is True
        assert warm.newton.iterations < cold.newton.iterations


class TestConservation:
    def test_closed_budget_volume_drift_at_roundoff(self, baseline):
        assert baseline.volume_drift <= 1.0e-12
        assert abs(baseline.diagnostics["volume_budget_residual"]) <= 1.0e-12 * abs(
            baseline.volumes[0]
        )

    def test_planted_leak_is_caught(self, monkeypatch):
        """A thickness step that loses a little ice fails the
        ``transient-closed-budget`` oracle on its drift."""
        step = ThicknessEvolver.step

        def leaky_step(self, *args, **kwargs):
            return step(self, *args, **kwargs) * (1.0 - 1.0e-9)

        monkeypatch.setattr(ThicknessEvolver, "step", leaky_step)
        (drift,) = [d for d in _oracle("transient-closed-budget") if d.name == "volume drift"]
        assert drift.lhs > 1.0e-12


class TestKillResume:
    def test_kill_then_resume_is_bitwise_identical(self, tmp_path, cache, scenario, baseline):
        """The acceptance criterion: resume forks nothing."""
        engine = TransientEngine(scenario, cache=cache)
        with pytest.raises(TransientKilled) as exc:
            engine.run(kill_at_step=KILL_AT, checkpoint_dir=tmp_path)
        kill = exc.value
        assert kill.checkpoint.step == KILL_AT + 1
        assert kill.path is not None and kill.path.exists()

        resumed = engine.run(resume_from=kill.path)
        assert np.array_equal(resumed.thickness, baseline.thickness)
        assert np.array_equal(resumed.u, baseline.u)
        assert np.array_equal(resumed.particles.xy, baseline.particles.xy)
        assert np.array_equal(resumed.particles.zeta, baseline.particles.zeta)
        assert np.array_equal(resumed.particles.active, baseline.particles.active)
        assert resumed.volumes == baseline.volumes
        assert resumed.dts == baseline.dts
        assert resumed.newton_iterations == baseline.newton_iterations

    def test_a_fresh_run_of_no_steps_is_refused(self, cache, scenario):
        """It used to reach ``float(tol_abs)`` before the cold step set it."""
        engine = TransientEngine(scenario, cache=cache)
        with pytest.raises(ValueError, match="num_steps must be at least 1 on a fresh run, got 0"):
            engine.run(num_steps=0)

    def test_a_resume_with_nothing_left_returns_the_checkpointed_state(self, cache, scenario):
        engine = TransientEngine(scenario, cache=cache)
        done = engine.run(num_steps=2)
        for steps in (0, 2):
            back = engine.run(num_steps=steps, resume_from=done.final_checkpoint())
            assert back.dts == done.dts and back.tol_abs == done.tol_abs
            assert np.array_equal(back.thickness, done.thickness)
            assert np.array_equal(back.u, done.u)
            assert np.array_equal(back.u_before, done.u_before)

    @pytest.mark.parametrize("kill_at", [STEPS, 50])
    def test_a_kill_step_the_run_never_reaches_is_refused(self, cache, scenario, kill_at):
        """It used to run to the end and return as if nothing was asked."""
        engine = TransientEngine(scenario, cache=cache)
        with pytest.raises(ValueError, match=rf"in \[0, {STEPS}\), got {kill_at}"):
            engine.run(kill_at_step=kill_at)

    def test_a_kill_step_before_the_resume_is_refused(self, tmp_path, cache, scenario):
        engine = TransientEngine(scenario, cache=cache)
        with pytest.raises(TransientKilled) as exc:
            engine.run(kill_at_step=KILL_AT, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match=rf"in \[{KILL_AT + 1}, {STEPS}\), got {KILL_AT}"):
            engine.run(resume_from=exc.value.path, kill_at_step=KILL_AT)

    def test_resume_refuses_foreign_scenario(self, tmp_path, cache, scenario):
        engine = TransientEngine(scenario, cache=cache)
        with pytest.raises(TransientKilled) as exc:
            engine.run(kill_at_step=0, checkpoint_dir=tmp_path)
        other = TransientEngine(scenario.with_steps(STEPS + 1), cache=cache)
        with pytest.raises(ValueError, match="fork"):
            other.run(resume_from=exc.value.path)


class TestVelocityPredictor:
    """Warm steps start from ``warm_start_guess`` of the last two
    velocities, and a checkpoint carries both."""

    @staticmethod
    def _run(engine, monkeypatch, **kwargs):
        """``(result, initial guess per solve, velocity per solve)``."""
        guesses, velocities = [], []
        solve = engine.problem.solve

        def recording_solve(**kw):
            guesses.append(kw["u0"])
            sol = solve(**kw)
            velocities.append(sol.u)
            return sol

        monkeypatch.setattr(engine.problem, "solve", recording_solve)
        return engine.run(**kwargs), guesses, velocities

    def test_warm_steps_extrapolate_from_the_second_on(self, cache, monkeypatch):
        engine = TransientEngine(get_scenario("antarctica-retreat").with_steps(4), cache=cache)
        result, guesses, us = self._run(engine, monkeypatch)
        assert guesses[0] is None
        assert guesses[1] is us[0]  # one velocity behind: no prediction
        for s in (2, 3):
            ratio = result.dts[s - 1] / result.dts[s - 2]
            want = us[s - 1] + PREDICTOR_THETA * ratio * (us[s - 1] - us[s - 2])
            assert np.array_equal(guesses[s], want)
        assert result.u is us[3] and result.u_before is us[2]

    def test_the_cold_step_checkpoint_holds_no_u_before(self, cache):
        engine = TransientEngine(get_scenario("antarctica-retreat").with_steps(6), cache=cache)
        one = engine.run(num_steps=1).final_checkpoint()
        two = engine.run(num_steps=2).final_checkpoint()
        assert one.u_before.shape == (0,)
        assert np.array_equal(two.u_before, one.u)

    def test_kill_while_predicting_then_resume_is_bitwise(self, tmp_path, cache):
        """Killed after step 3 of 6: the predictor fires on both sides."""
        engine = TransientEngine(get_scenario("antarctica-retreat").with_steps(6), cache=cache)
        full = engine.run()
        with pytest.raises(TransientKilled) as exc:
            engine.run(kill_at_step=2, checkpoint_dir=tmp_path)
        ckpt = TransientCheckpoint.load(exc.value.path)
        assert ckpt.step == 3 and ckpt.u_before.shape == full.u.shape
        # the same checkpoint twice: nothing of the first resume stays behind
        for _ in range(2):
            resumed = engine.run(resume_from=exc.value.path)
            assert np.array_equal(resumed.thickness, full.thickness)
            assert np.array_equal(resumed.u, full.u)
            assert np.array_equal(resumed.particles.xy, full.particles.xy)
            assert np.array_equal(resumed.particles.zeta, full.particles.zeta)
            assert np.array_equal(resumed.particles.active, full.particles.active)
            assert resumed.newton_iterations == full.newton_iterations

    def test_a_resume_without_u_before_forks_the_run(self):
        """The planted control of ``transient-predictor-resume``."""
        from repro.verify.oracles import kill_resume_drill, resume_divergences

        drill = kill_resume_drill("antarctica-retreat", 2)
        assert resume_divergences(drill, drop_u_before=True)

    def test_the_check_fails_when_the_predictor_stops_firing(self, monkeypatch):
        from repro.transient import engine

        monkeypatch.setattr(engine, "PREDICTOR_THETA", 0.0)
        (mean,) = _oracle("transient-velocity-predictor")
        assert mean.name == "warm mean Newton steps"
        assert f"{mean.lhs:.2f}" == "3.56" and mean.rhs == 3.0


class TestArtifactReuse:
    def test_engines_share_the_cached_problem(self, cache, scenario):
        a = TransientEngine(scenario, cache=cache)
        b = TransientEngine(scenario, cache=cache)
        assert a.problem is b.problem
        assert a.test is b.test

    def test_geometry_refresh_keeps_symbolic_artifacts(self, cache, scenario):
        """Only the numeric geometry moves; topology-derived state is kept."""
        engine = TransientEngine(scenario, cache=cache)
        prob = engine.problem
        dofmap, plan = prob.dofmap, prob.plan
        fp_basis, elem_col = prob._fp_basis, prob._elem_col
        prob._build_preconditioner(prob.jacobian(np.zeros(dofmap.num_dofs)))
        symbolic, bc_scale = prob.mdsc_symbolic, prob.bc_diag_scale
        assert symbolic is not None
        h = engine.initial_thickness() * 0.95
        nodal_h = engine.evolver.node_thickness(h)
        nodal_s = engine.geometry.surface_for_thickness(engine._x2, engine._y2, nodal_h)
        basis_before = prob.basis
        sweeps_before = dict(prob.field_manager.num_sweeps)
        prob.refresh_geometry(nodal_h, nodal_s)
        assert prob.dofmap is dofmap
        assert prob.plan is plan
        assert prob.mdsc_symbolic is symbolic
        assert prob._fp_basis is fp_basis
        assert prob._elem_col is elem_col
        assert prob.basis is not basis_before  # 3D basis WAS recomputed
        # the Dirichlet row scale only conditions: probed at build, kept
        assert prob.field_manager.num_sweeps == sweeps_before
        assert prob.bc_diag_scale == bc_scale

    def test_a_run_builds_the_mdsc_symbolic_half_once(self, monkeypatch):
        """Six coupled steps, a set-up per Newton step, one map."""
        from repro.fem.sparse import ColumnCollapseMap

        built = []
        init = ColumnCollapseMap.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ColumnCollapseMap, "__init__", counting_init)
        result = TransientEngine(get_scenario("antarctica-closed").with_steps(6)).run()
        assert sum(result.newton_iterations) > 6
        assert len(built) == 1

    def test_a_run_owns_its_cache_entry(self, cache, scenario):
        """refresh_geometry rewrites the shared problem in place, so the
        run holds the entry lock serve's workers take for the same object."""
        lock = cache.get(scenario).lock
        held = []
        TransientEngine(scenario, cache=cache).run(
            num_steps=2, callback=lambda step, info: held.append(lock.locked())
        )
        assert held == [True, True]
        assert not lock.locked()

    def test_two_threaded_engines_match_solo(self, cache, scenario, baseline):
        results = {}

        def work(tag):
            results[tag] = TransientEngine(scenario, cache=cache).run()

        threads = [threading.Thread(target=work, args=(tag,)) for tag in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
        for tag in "ab":
            assert np.array_equal(results[tag].thickness, baseline.thickness)
            assert np.array_equal(results[tag].u, baseline.u)
            assert results[tag].volumes == baseline.volumes


class TestScenarioLibrary:
    @pytest.mark.parametrize("name", ["antarctica-retreat", "greenland-ramp", "shelf-collapse"])
    def test_forced_scenarios_lose_volume(self, cache, name):
        """Every forcing in the library removes mass; volume must drop."""
        result = TransientEngine(get_scenario(name).with_steps(2), cache=cache).run()
        assert result.volumes[-1] < result.volumes[0]
        # the budget closes: loss is explained by the credited sources
        assert abs(result.diagnostics["volume_budget_residual"]) <= 1.0e-10 * abs(
            result.volumes[0]
        )
