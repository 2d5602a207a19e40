"""Unit tests for the fault-injection harness and the recovery ladder.

Covers the resilience package in isolation -- deterministic seeded
injectors, checksum/finiteness/GMRES-outcome detectors, the recovery
policy rungs, Newton checkpoint/restart -- plus the solver-level wiring:
per-step non-finite guards that name the step and phase without a
policy, re-evaluation / step rejection / GMRES escalation with one, and
the instrumented launch sites in kokkos and gpusim.
"""

import pickle

import numpy as np
import pytest

from repro import resilience as res
from repro.fem.sparse import CsrMatrix
from repro.mesh.partition import HaloExchange, partition_footprint
from repro.mesh.planar import quad_footprint
from repro.observability import get_metrics
from repro.solvers.gmres import gmres
from repro.solvers import newton as newton_module
from repro.solvers.newton import newton_solve


@pytest.fixture(autouse=True)
def _plane_disarmed():
    """Every test starts and ends with the process fault plane disarmed."""
    res.fault_plane().disarm()
    yield
    res.fault_plane().disarm()


# ---------------------------------------------------------------------------
# injectors
# ---------------------------------------------------------------------------


class TestInjectors:
    def test_fires_only_at_scheduled_occurrences(self):
        inj = res.DropMessage("halo.payload", at=(1, 3))
        rng = np.random.default_rng(0)
        payload = np.ones(4)
        outs = [inj.visit(payload, rng, {}, None) for _ in range(5)]
        assert [bool(np.all(o == 0.0)) for o in outs] == [False, True, False, True, False]
        assert inj.seen == 5 and inj.fired == 2

    def test_bitflip_is_deterministic_per_seed(self):
        payload = np.linspace(1.0, 2.0, 8)
        corrupted = []
        for _ in range(2):
            inj = res.BitFlip("halo.payload", at=(0,))
            out = inj.visit(payload, np.random.default_rng(42), {}, None)
            corrupted.append(out)
        assert np.array_equal(corrupted[0], corrupted[1])
        assert not np.array_equal(corrupted[0], payload)
        # exactly one entry differs (a single flipped bit)
        assert np.count_nonzero(corrupted[0] != payload) == 1
        # the input is never mutated in place
        assert np.array_equal(payload, np.linspace(1.0, 2.0, 8))

    def test_duplicate_doubles_payload(self):
        inj = res.DuplicateMessage("halo.payload", at=(0,))
        out = inj.visit(np.full(3, 2.5), np.random.default_rng(0), {}, None)
        assert np.array_equal(out, np.full(3, 5.0))

    def test_nan_poison_fraction(self):
        inj = res.NaNPoison("sweep.output", at=(0,), fraction=0.25)
        out = inj.visit(np.ones(100), np.random.default_rng(1), {}, None)
        assert np.count_nonzero(np.isnan(out)) == 25

    def test_nan_poison_at_least_one_entry(self):
        inj = res.NaNPoison("sweep.output", at=(0,), fraction=1e-9)
        out = inj.visit(np.ones(10), np.random.default_rng(1), {}, None)
        assert np.count_nonzero(np.isnan(out)) == 1

    def test_rank_kill_counts_only_victim_sweeps(self):
        inj = res.RankKill(at=(1,), rank=2)
        rng = np.random.default_rng(0)
        # other ranks' pokes do not advance the victim's occurrence count
        for r in (0, 1, 3, 2, 0, 1):  # victim occurrence 0: no fire
            inj.visit(None, rng, {"rank": r}, None)
        with pytest.raises(res.RankFailure) as exc:
            inj.visit(None, rng, {"rank": 2}, None)  # victim occurrence 1
        assert exc.value.rank == 2

    def test_launch_fail_filters_by_name(self):
        inj = res.LaunchFail("kernel.launch", at=(0,), name="stokes.resid")
        rng = np.random.default_rng(0)
        inj.visit(None, rng, {"name": "other"}, None)  # filtered: no fire
        with pytest.raises(res.KernelLaunchError):
            inj.visit(None, rng, {"name": "stokes.resid"}, None)

    def test_schedule_pending_and_fired(self):
        sched = res.FaultSchedule(
            [res.DropMessage("halo.payload", at=(0,)), res.NaNPoison("sweep.output", at=(5,))]
        )
        assert len(sched.pending()) == 2 and sched.fired_count() == 0
        assert sched.sites == ["halo.payload", "sweep.output"]
        rng = np.random.default_rng(0)
        sched.for_site("halo.payload")[0].visit(np.ones(2), rng, {}, None)
        assert len(sched.pending()) == 1 and sched.fired_count() == 1

    def test_reference_schedule_covers_acceptance_faults(self):
        sched = res.reference_schedule(nparts=4)
        kinds = {i.kind for i in sched.injectors}
        assert {"bitflip", "drop", "duplicate", "nan_poison", "rank_failure"} <= kinds

    def test_fault_injection_context_arms_and_disarms(self):
        plane = res.fault_plane()
        assert not plane.active
        with res.fault_injection(res.FaultSchedule([])) as armed:
            assert armed is plane and plane.active
            assert plane.policy is not None and plane.log is not None
        assert not plane.active and plane.schedule is None

    def test_an_armed_schedule_runs_elsewhere_and_hands_its_delivery_back(self):
        """What a numerics process does with the service's armed schedule,
        with pickling standing in for the process boundary."""
        from repro.resilience import injectors

        sched = res.FaultSchedule(
            [res.DropMessage("halo.payload", at=(1,)),
             res.NaNPoison("sweep.output", at=(0,), fraction=1e-9)],
            seed=3,
        )
        with res.fault_injection(sched):
            sent = pickle.dumps(injectors.export_armed())
        with injectors.armed_copy(pickle.loads(sent)) as delivery:
            plane = res.fault_plane()
            for _ in range(2):
                plane.perturb("halo.payload", np.ones(2))
            plane.perturb("sweep.output", np.ones(2))
            drawn = plane._rng.bit_generator.state
        assert not plane.active
        assert sched.pending()  # this side has not heard yet
        with res.fault_injection(sched) as plane:
            injectors.absorb_delivery(pickle.loads(pickle.dumps(delivery)))
            assert not sched.pending() and sched.fired_count() == 2
            assert [i.seen for i in sched.injectors] == [2, 1]
            assert plane.log.count("injection") == 2
            assert plane._rng.bit_generator.state == drawn

    def test_rank_failure_keeps_its_rank_through_pickling(self):
        exc = pickle.loads(pickle.dumps(res.RankFailure(3)))
        assert exc.rank == 3 and str(exc) == "rank 3 failed"

    def test_perturb_identity_when_disarmed(self):
        plane = res.fault_plane()
        x = np.ones(3)
        assert plane.perturb("halo.payload", x) is x
        plane.poke("spmd.rank", rank=0)  # no-op, must not raise


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


class TestDetectors:
    def test_checksum_roundtrip_and_mismatch(self):
        x = np.linspace(0.0, 1.0, 16)
        c = res.payload_checksum(x)
        assert res.verify_payload(x.copy(), c)
        y = x.copy()
        y[3] = np.nextafter(y[3], 2.0)  # single-ulp corruption is caught
        assert not res.verify_payload(y, c)

    def test_nonfinite_count(self):
        assert res.nonfinite_count(np.array([1.0, np.nan, np.inf, -np.inf])) == 3
        assert res.nonfinite_count(np.ones(5)) == 0

    @pytest.mark.parametrize(
        "converged,breakdown,cycles,expect",
        [
            (True, False, [0.5], "converged"),
            (False, True, [0.5], "breakdown"),
            (False, False, [0.5, 0.995], "stagnated"),
            (False, False, [0.5, 0.4], "maxiter"),
            (False, False, [], "maxiter"),
        ],
    )
    def test_classify_gmres(self, converged, breakdown, cycles, expect):
        assert res.classify_gmres(converged, breakdown, cycles) == expect


class TestGmresFlags:
    def test_converged_flag(self):
        A = CsrMatrix.from_coo([0, 1], [0, 1], [2.0, 3.0], (2, 2))
        out = gmres(A, np.array([2.0, 3.0]), tol=1e-12)
        assert out.converged and out.flag == "converged"
        assert "tolerance" in out.reason

    def test_stagnated_flag_on_rotation_with_restart_1(self):
        # the classic GMRES(1) stagnation: a pure rotation makes no
        # progress from a restart-1 Krylov space
        rot = CsrMatrix.from_coo([0, 1], [1, 0], [1.0, -1.0], (2, 2))
        out = gmres(rot, np.array([1.0, 0.0]), tol=1e-12, restart=1, maxiter=6)
        assert not out.converged and out.flag == "stagnated"

    def test_maxiter_flag_when_still_reducing(self):
        rng = np.random.default_rng(3)
        n = 30
        dense = rng.normal(size=(n, n)) + n * np.eye(n)
        rows, cols = np.nonzero(dense)
        A = CsrMatrix.from_coo(rows, cols, dense[rows, cols], (n, n))
        out = gmres(A, rng.normal(size=n), tol=1e-14, restart=2, maxiter=4)
        assert not out.converged and out.flag in ("maxiter", "stagnated")
        assert out.reason  # every flag maps to a human-readable reason


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_log_records_and_summarizes(self):
        log = res.ResilienceLog()
        log.record("injection", "bitflip", "halo.payload", occurrence=4)
        log.record("detection", "halo_checksum_mismatch", "halo.payload")
        log.record("recovery", "halo_refetch", "halo.payload", attempts=1)
        s = log.summary()
        assert (s["injections"], s["detections"], s["recoveries"]) == (1, 1, 1)
        assert s["by_kind"]["recovery"] == {"halo_refetch": 1}
        assert s["events"][0]["occurrence"] == 4
        with pytest.raises(ValueError):
            log.record("bogus", "x", "y")

    def test_call_with_retries_recovers(self):
        policy = res.RecoveryPolicy(max_retries=3)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        log = res.ResilienceLog()
        retries = res.call_with_retries(
            flaky, policy, log, "gpusim.launch", "launch_failure", "launch_retry"
        )
        assert retries == 2 and calls["n"] == 3
        assert log.count("detection", "launch_failure") == 2
        assert log.count("recovery", "launch_retry") == 1
        assert policy.log.count("detection") == 0  # recorded into the log passed

    def test_call_with_retries_exhausts_budget(self):
        policy = res.RecoveryPolicy(max_retries=2)

        def always_fails():
            raise RuntimeError("persistent")

        with pytest.raises(RuntimeError, match="persistent"):
            res.call_with_retries(always_fails, policy, policy.log, "site", "kind", "kind_retry")
        assert policy.log.count("detection") == 3  # initial + 2 retries
        assert policy.log.count("recovery") == 0

    def test_log_extend_merges_without_double_counting(self):
        src = res.ResilienceLog()
        src.record("injection", "bitflip", "halo.payload")
        src.record("detection", "halo_checksum_mismatch", "halo.payload")
        dst = res.ResilienceLog()
        dst.record("recovery", "halo_refetch", "halo.payload")
        before = get_metrics().snapshot()["counters"]["resilience.injection"]
        dst.extend(src.events)
        assert (dst.count("injection"), dst.count("detection"), dst.count("recovery")) == (1, 1, 1)
        assert [e["category"] for e in dst.events] == ["recovery", "injection", "detection"]
        # the source log mirrored its events already; the merge adds none
        assert get_metrics().snapshot()["counters"]["resilience.injection"] == before

    def test_preconditioner_ladder_falls_through(self):
        log = res.ResilienceLog()

        def mdsc_fails(J):
            raise RuntimeError("singular collapsed block")

        ladder = res.PreconditionerLadder(
            [("mdsc", mdsc_fails), ("jacobi", lambda J: "jacobi-M"), ("none", None)],
            log=log,
        )
        assert ladder("J") == "jacobi-M"
        assert ladder.last_used == "jacobi"
        assert log.count("detection", "preconditioner_failure") == 1
        assert log.count("recovery", "preconditioner_fallback") == 1

    def test_preconditioner_ladder_none_rung(self):
        ladder = res.PreconditionerLadder(
            [("mdsc", lambda J: (_ for _ in ()).throw(RuntimeError("x"))), ("none", None)]
        )
        assert ladder("J") is None and ladder.last_used == "none"

    def test_preconditioner_ladder_all_fail(self):
        def bad(J):
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError, match="every preconditioner factory failed"):
            res.PreconditionerLadder([("a", bad), ("b", bad)])("J")
        with pytest.raises(ValueError):
            res.PreconditionerLadder([])

    def test_choose_survivor(self):
        assert res.choose_survivor({1}, 4) == 0
        assert res.choose_survivor({0, 1}, 4) == 2
        assert res.choose_survivor({0, 1, 2, 3}, 4) is None


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


class TestCheckpoint:
    # corruption / truncation / atomic-write cases: tests/unit/test_store.py
    def _ckpt(self):
        return res.NewtonCheckpoint(
            step=3,
            x=np.linspace(-1.0, 1.0, 12),
            residual_norms=[10.0, 1.0, 0.1, 0.01],
            step_lengths=[1.0, 0.5, 1.0],
            linear_iterations=[4, 5, 6],
            linear_flags=["converged", "converged", "maxiter"],
        )

    def test_save_load_roundtrip(self, tmp_path):
        ckpt = self._ckpt()
        path = ckpt.save(tmp_path / "newton")
        assert path.suffix == ".npz" and path.exists()
        back = res.NewtonCheckpoint.load(path)
        assert back.step == 3 and back.fnorm == 0.01
        assert np.array_equal(back.x, ckpt.x)
        assert back.linear_flags == ckpt.linear_flags
        assert back.digest == ckpt.digest


# ---------------------------------------------------------------------------
# newton: guards, recovery ladder, checkpoint/resume
# ---------------------------------------------------------------------------


def _quadratic():
    def F(x):
        return x * x - 4.0

    def J(x):
        return CsrMatrix.from_coo(np.arange(3), np.arange(3), 2.0 * x, (3, 3))

    return F, J, np.array([1.0, 3.0, 10.0])


class TestNewtonGuards:
    def test_mid_solve_nan_names_step_and_phase(self):
        F0, J, x0 = _quadratic()
        calls = {"n": 0}

        def F(x):
            calls["n"] += 1
            out = F0(x)
            if calls["n"] > 3:  # healthy through the step-1 sweep, then poison
                out = out.copy()
                out[0] = np.nan
            return out

        # calls 1-3 are the initial sweep, the step-0 trial and the
        # step-1 sweep; call 4 is the step-1 line-search trial: the
        # raise must name exactly that step and phase
        with pytest.raises(FloatingPointError, match=r"step 1 \(phase 'line_search'\)"):
            newton_solve(F, J, x0, max_steps=4)

    def test_initial_guess_message_preserved(self):
        with pytest.raises(FloatingPointError, match="initial guess"):
            newton_solve(lambda x: np.array([np.nan]), lambda x: CsrMatrix.identity(1), np.array([1.0]))

    def test_nonfinite_jacobian_detected(self):
        def F(x):
            return x - 1.0

        def J(x):
            return CsrMatrix.from_coo([0], [0], [np.inf], (1, 1))

        with pytest.raises(FloatingPointError, match="step 0"):
            newton_solve(F, J, np.array([5.0]))


class TestNewtonRecovery:
    def test_reevaluation_recovers_transient_nan(self):
        F0, J, x0 = _quadratic()
        poison = {"armed": True}

        def F(x):
            out = F0(x)
            if poison["armed"]:
                poison["armed"] = False  # transient: clears on re-evaluation
                out = out.copy()
                out[0] = np.nan
            return out

        policy = res.RecoveryPolicy()
        out = newton_solve(F, J, x0, max_steps=30, tol=1e-12, resilience=policy)
        assert out.converged
        assert policy.log.count("detection", "nonfinite_evaluation") == 1
        assert policy.log.count("recovery", "reevaluation") == 1

    def test_persistent_nan_exhausts_reevaluation_budget(self, monkeypatch):
        monkeypatch.setattr(newton_module, "_MAX_REEVALUATIONS", 3)
        F, J0, x0 = _quadratic()
        calls = {"n": 0}

        def J(x):
            calls["n"] += 1
            if calls["n"] > 1:  # healthy step 0, then persistently poisoned
                return CsrMatrix.from_coo(
                    np.arange(3), np.arange(3), np.full(3, np.nan), (3, 3)
                )
            return J0(x)

        policy = res.RecoveryPolicy()
        with pytest.raises(FloatingPointError, match=r"step 1 \(phase 'evaluate'\)"):
            newton_solve(F, J, x0, max_steps=4, resilience=policy)
        assert policy.log.count("detection", "nonfinite_evaluation") == 3
        assert policy.log.count("recovery") == 0

    def test_healthy_solve_identical_with_and_without_policy(self):
        F, J, x0 = _quadratic()
        plain = newton_solve(F, J, x0, max_steps=30, tol=1e-12)
        guarded = newton_solve(
            F, J, x0, max_steps=30, tol=1e-12,
            resilience=res.RecoveryPolicy(),
        )
        assert np.array_equal(plain.x, guarded.x)
        assert plain.residual_norms == guarded.residual_norms
        assert plain.step_lengths == guarded.step_lengths
        assert plain.linear_iterations == guarded.linear_iterations

    def test_gmres_escalation_rescues_stagnating_solve(self):
        # F(x) = R x - b with R a rotation: GMRES(1) stagnates, the
        # escalated restart-2 space solves the 2-D system exactly
        R = CsrMatrix.from_coo([0, 1], [1, 0], [1.0, -1.0], (2, 2))
        b = np.array([1.0, 0.5])

        policy = res.RecoveryPolicy()
        out = newton_solve(
            lambda x: R.matvec(x) - b,
            lambda x: R,
            np.zeros(2),
            max_steps=2,
            tol=1e-10,
            gmres_restart=1,
            gmres_maxiter=2,
            resilience=policy,
        )
        assert out.converged
        assert policy.log.count("detection", "gmres_stagnated") >= 1
        assert policy.log.count("recovery", "gmres_escalation") >= 1
        assert out.linear_flags[-1] == "converged"

    def test_linear_flags_align_with_iterations(self):
        F, J, x0 = _quadratic()
        out = newton_solve(F, J, x0, max_steps=6, tol=1e-12)
        assert len(out.linear_flags) == len(out.linear_iterations) == out.iterations
        assert set(out.linear_flags) <= set(res.GMRES_FLAGS)


class TestNewtonCheckpointResume:
    def test_resume_matches_uninterrupted_solve(self):
        F, J, x0 = _quadratic()
        full = newton_solve(F, J, x0, max_steps=30, tol=1e-12)

        captured = []
        newton_solve(F, J, x0, max_steps=3, tol=1e-12, checkpoint_cb=captured.append)
        assert [c.step for c in captured] == [1, 2, 3]
        resumed = newton_solve(
            F, J, x0, max_steps=30, tol=1e-12, resume_from=captured[-1]
        )
        assert resumed.converged
        assert np.array_equal(resumed.x, full.x)
        assert resumed.residual_norms == full.residual_norms
        assert resumed.linear_iterations == full.linear_iterations
        assert resumed.iterations == full.iterations

    def test_checkpoint_roundtrips_through_disk(self, tmp_path):
        F, J, x0 = _quadratic()
        part = newton_solve(F, J, x0, max_steps=2, tol=1e-12)
        assert part.checkpoint is not None and part.checkpoint.step == 2
        path = part.checkpoint.save(tmp_path / "ck")
        loaded = res.NewtonCheckpoint.load(path)
        resumed = newton_solve(F, J, x0, max_steps=30, tol=1e-12, resume_from=loaded)
        full = newton_solve(F, J, x0, max_steps=30, tol=1e-12)
        assert np.array_equal(resumed.x, full.x)

    def test_policy_defaults_enable_checkpointing(self):
        """Every accepted step is snapshotted, with or without a policy."""
        F, J, x0 = _quadratic()
        for policy in (None, res.RecoveryPolicy()):
            out = newton_solve(F, J, x0, max_steps=4, tol=1e-12, resilience=policy)
            assert out.checkpoint is not None
            assert out.checkpoint.step == out.iterations
            assert np.array_equal(out.checkpoint.x, out.x)


# ---------------------------------------------------------------------------
# instrumented sites: halo gather, kokkos + gpusim launches
# ---------------------------------------------------------------------------


class TestHaloSite:
    def _halo(self):
        fp = quad_footprint(4, 4, 1.0, 1.0)
        return HaloExchange(partition_footprint(fp, 2))

    def test_corrupted_gather_refetches_clean_payload(self):
        halo = self._halo()
        field = np.linspace(0.0, 1.0, halo.partition.footprint.num_nodes)
        clean = halo.gather(1, field)
        policy = res.RecoveryPolicy()
        sched = res.FaultSchedule([res.BitFlip("halo.payload", at=(0,))])
        with res.fault_injection(sched, policy=policy):
            got = halo.gather(1, field)
        assert np.array_equal(got, clean)
        assert policy.log.count("detection", "halo_checksum_mismatch") == 1
        assert policy.log.count("recovery", "halo_refetch") == 1
        assert not sched.pending()

    def test_persistent_corruption_raises_after_budget(self):
        halo = self._halo()
        field = np.linspace(0.0, 1.0, halo.partition.footprint.num_nodes)
        policy = res.RecoveryPolicy(max_retries=2)
        # fires on the initial receive and on every retry
        sched = res.FaultSchedule([res.DropMessage("halo.payload", at=tuple(range(8)))])
        with res.fault_injection(sched, policy=policy):
            with pytest.raises(res.HaloCorruptionError):
                halo.gather(1, field)

    def _spmv(self):
        """A 2-rank row-partitioned Jacobian and a vector to apply it to."""
        from repro.app.config import VelocityConfig
        from repro.app.velocity_solver import StokesVelocityProblem
        from repro.fem.distributed import DistributedStokesAssembly
        from repro.mesh.extrude import extrude_footprint
        from repro.mesh.geometry import IceGeometry

        geo = IceGeometry(
            lx=3.0e5, ly=2.0e5, center=(1.5e5, 1.0e5), radius=2.0e6, h_max=2000.0,
            bed_amplitude=0.0, min_thickness=10.0, secondary_dome=False,
        )
        fp = quad_footprint(4, 3, geo.lx, geo.ly)
        mesh = extrude_footprint(fp, geo, 2)
        plan = StokesVelocityProblem(mesh, geo, VelocityConfig()).plan
        spmd = DistributedStokesAssembly(plan, partition_footprint(fp, 2), mesh.levels, mesh.nlayers)
        rng = np.random.default_rng(3)
        nc, k = plan.elem_dofs.shape
        local_j = rng.normal(size=(nc, k, k))
        A = spmd.assemble_jacobian(local_j[spmd.cell_order])
        return A, rng.normal(size=plan.num_dofs)

    @pytest.mark.parametrize("path", ["gather", "spmv"])
    def test_refetch_re_posts_until_clean(self, path):
        """Both ghost refreshes -- the nodal gather and the SpMV ghost
        columns -- re-post a corrupted receive until it verifies."""
        if path == "gather":
            halo = self._halo()
            field = np.linspace(0.0, 1.0, halo.partition.footprint.num_nodes)
            receive = lambda: halo.gather(1, field)  # noqa: E731
        else:
            A, x = self._spmv()
            receive = lambda: A.matvec(x)  # noqa: E731
        clean = receive()
        policy = res.RecoveryPolicy()
        # corrupt the first message and its first retransmission
        sched = res.FaultSchedule([res.BitFlip("halo.payload", at=(0, 1))])
        with res.fault_injection(sched, policy=policy):
            got = receive()
        assert np.array_equal(got, clean)
        assert policy.log.count("detection", "halo_checksum_mismatch") == 2
        assert policy.log.count("recovery", "halo_refetch") == 1

    def test_gather_unaffected_when_disarmed(self):
        halo = self._halo()
        field = np.linspace(0.0, 1.0, halo.partition.footprint.num_nodes)
        before = halo.meter.total_bytes
        # part 1 ghosts the interface nodes (part 0 owns them by the
        # min-rank rule), so its gather meters received bytes
        out = halo.gather(1, field)
        assert np.array_equal(out, field[halo.local_nodes(1)])
        assert halo.meter.total_bytes > before  # normal metering still runs


class TestLaunchSites:
    def test_kokkos_launch_retry(self):
        from repro.kokkos import RangePolicy, parallel_for

        out = np.zeros(4)

        def functor(i):  # i is a slice on the vectorized host space
            out[i] += 1.0

        policy = res.RecoveryPolicy()
        sched = res.FaultSchedule([res.LaunchFail("kernel.launch", at=(0,))])
        with res.fault_injection(sched, policy=policy):
            parallel_for("resilience.test", RangePolicy(0, 4), functor)
        assert np.array_equal(out, np.ones(4))  # retried launch ran exactly once
        assert policy.log.count("detection", "launch_failure") == 1
        assert policy.log.count("recovery", "launch_retry") == 1

    def test_kokkos_launch_failure_exhausts_budget(self):
        from repro.kokkos import RangePolicy, parallel_for

        policy = res.RecoveryPolicy(max_retries=1)
        sched = res.FaultSchedule([res.LaunchFail("kernel.launch", at=(0, 1, 2, 3))])
        with res.fault_injection(sched, policy=policy):
            with pytest.raises(res.KernelLaunchError):
                parallel_for("resilience.test", RangePolicy(0, 4), lambda i: None)

    def test_gpusim_launch_retry(self):
        from repro.gpusim import A100, GPUSimulator, ProblemSize

        sim = GPUSimulator(A100)
        policy = res.RecoveryPolicy()
        sched = res.FaultSchedule([res.LaunchFail("gpusim.launch", at=(0,))])
        with res.fault_injection(sched, policy=policy):
            profile = sim.run("optimized-residual", ProblemSize(num_cells=1000))
        assert profile.time_s > 0.0
        assert policy.log.count("recovery", "launch_retry") == 1
