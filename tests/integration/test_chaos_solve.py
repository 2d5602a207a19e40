"""Chaos acceptance: the coarse Antarctica solve survives the reference
fault schedule, and the disarmed fault plane costs nothing.

The reference schedule delivers every fault class the robustness bar
names -- a bit-flipped, a dropped and a duplicated halo payload, a
NaN-poisoned evaluator sweep, and a failed SPMD rank -- against the
4-rank coarse Antarctica solve.  Every recovery rung used here is
numerically exact (checksum-verified refetch, sweep re-evaluation,
BFB work redistribution), so the test asserts the *strongest* form of
the acceptance criterion: the recovered solution is bitwise equal to
the fault-free one, far inside the ``10 * tol`` bar.

A failed preconditioner set-up is recovered by falling through to the
next rung (the configured preconditioner, then point Jacobi, then
none); a fallen-through solve is bitwise the solve configured with that
rung from the start.

The last part is the zero-overhead contract: with no schedule armed,
every instrumented site pays one attribute read and never enters any
resilience code (the CI ``perf-gate`` job tracks the companion <5%
timing bar on the solver hot-path benchmark).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import resilience as res
from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.app import velocity_solver

#: the acceptance configuration: coarse Antarctica, 4 simulated ranks
CHAOS_CFG = AntarcticaConfig(
    resolution_km=350.0,
    num_layers=4,
    velocity=VelocityConfig(nparts=4),
)


def _build():
    return AntarcticaTest.build(CHAOS_CFG).problem


class TestReferenceChaosSolve:
    def test_solve_recovers_from_reference_schedule(self):
        problem = _build()
        clean = problem.solve()

        policy = res.RecoveryPolicy()
        schedule = res.reference_schedule(seed=2024, nparts=4)
        with res.fault_injection(schedule, policy=policy) as plane:
            chaos = problem.solve(resilience=policy)
            undelivered = plane.schedule.pending()

        # every scheduled fault was actually delivered mid-solve
        assert not undelivered, [inj.describe() for inj in undelivered]
        assert schedule.fired_count() == 5

        # acceptance bar: bitwise equal to the fault-free solution, since
        # every recovery rung used by this schedule is numerically exact
        assert np.array_equal(chaos.u, clean.u)
        assert chaos.newton.converged == clean.newton.converged

    def test_diagnostics_record_every_event(self):
        problem = _build()
        policy = res.RecoveryPolicy()
        with res.fault_injection(res.reference_schedule(nparts=4), policy=policy):
            chaos = problem.solve(resilience=policy)

        r = chaos.diagnostics["resilience"]
        assert r["injections"] == 5
        assert r["detections"] >= 5
        assert r["recoveries"] >= 5
        kinds = {
            (e["category"], e["kind"]) for e in r["events"]
        }
        # each fault class maps to its detection and its recovery rung
        assert ("injection", "bitflip") in kinds
        assert ("injection", "drop") in kinds
        assert ("injection", "duplicate") in kinds
        assert ("injection", "nan_poison") in kinds
        assert ("injection", "rank_failure") in kinds
        assert ("detection", "halo_checksum_mismatch") in kinds
        assert ("recovery", "halo_refetch") in kinds
        assert ("detection", "rank_failure") in kinds
        assert ("recovery", "rank_redistribution") in kinds
        # the schedule and the degraded decomposition ride along
        assert r["schedule"]["name"] == "reference"
        assert r["dead_ranks"] == [1]

    def test_armed_solve_reports_linear_flags(self):
        problem = _build()
        policy = res.RecoveryPolicy()
        with res.fault_injection(res.reference_schedule(nparts=4), policy=policy):
            chaos = problem.solve(resilience=policy)
        flags = chaos.diagnostics["linear_flags"]
        assert len(flags) == chaos.newton.iterations
        assert set(flags) <= set(res.GMRES_FLAGS)


def _fallback_problem(preconditioner):
    """400 km / 4 layers, three Newton steps (enough set-ups to fall through)."""
    velocity = VelocityConfig(preconditioner=preconditioner, newton_steps=3)
    cfg = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=velocity)
    return AntarcticaTest.build(cfg).problem


def _failing_setup(*args, **kwargs):
    raise RuntimeError("singular column block")


class TestPreconditionerFallback:
    @pytest.mark.parametrize(
        "failing, rung",
        [(("VerticalLineSmoother",), "jacobi"), (("VerticalLineSmoother", "JacobiSmoother"), "none")],
        ids=["vline", "vline+jacobi"],
    )
    def test_a_failed_setup_solves_as_the_next_rung(self, failing, rung, monkeypatch):
        want = _fallback_problem(rung).solve()
        for name in failing:
            monkeypatch.setattr(velocity_solver, name, _failing_setup)
        policy = res.RecoveryPolicy()
        got = _fallback_problem("vline").solve(resilience=policy)

        assert np.array_equal(got.u, want.u)
        assert got.newton.linear_iterations == want.newton.linear_iterations
        setups = got.newton.iterations
        events = got.diagnostics["resilience"]["events"]
        failed = [e["factory"] for e in events if e["kind"] == "preconditioner_failure"]
        fell_back = [e["fell_back_to"] for e in events if e["kind"] == "preconditioner_fallback"]
        assert failed == [f for _ in range(setups) for f in ("vline", "jacobi")[: len(failing)]]
        assert fell_back == [rung] * setups
        assert policy.log.count("recovery") == setups

    def test_a_failed_setup_without_a_policy_raises(self, monkeypatch):
        monkeypatch.setattr(velocity_solver, "VerticalLineSmoother", _failing_setup)
        with pytest.raises(RuntimeError, match="singular column block"):
            _fallback_problem("vline").solve()


class TestNoInjectorOverhead:
    def test_disarmed_solve_never_enters_resilience_code(self, monkeypatch):
        # acceptance: with no injectors registered the hot path pays one
        # attribute read per site.  Wall-clock comparison of a run
        # against itself only measures machine jitter (the CI
        # ``perf-gate`` job tracks the timing bar on the hot-path
        # benchmark), so this test proves the stronger structural fact:
        # a disarmed solve executes *zero* resilience machinery.  Every
        # guarded entry point is replaced with a tripwire; the full SPMD
        # solve must complete without touching any of them.
        from repro.fem.distributed import DistributedMatrix
        from repro.mesh.partition import HaloExchange
        from repro.resilience.injectors import FaultPlane

        def tripwire(*a, **k):
            raise AssertionError("resilience path entered on a disarmed solve")

        monkeypatch.setattr(HaloExchange, "_refresh_ghosts_checked", tripwire)
        monkeypatch.setattr(DistributedMatrix, "_refresh_ghosts_checked", tripwire)
        monkeypatch.setattr(FaultPlane, "perturb", tripwire)
        monkeypatch.setattr(FaultPlane, "poke", tripwire)

        problem = _build()
        sol = problem.solve()
        assert sol.newton.iterations > 0

    def test_disarmed_solve_has_no_resilience_diagnostics(self):
        problem = _build()
        sol = problem.solve()
        assert "resilience" not in sol.diagnostics
