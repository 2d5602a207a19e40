"""Unit tests for the autotuner: space, prior, cache, trial queue.

The measured-trial loop over real solves lives in
``tests/integration/test_tuned_solve.py``; everything here runs without
a single Newton step.
"""

import dataclasses
import json
from types import SimpleNamespace

from repro.app.config import VelocityConfig
from repro.core.launch import TABLE2_LAUNCH_CONFIGS
from repro.gpusim.specs import MI250X_GCD, default_tuning_spec
from repro.kokkos.policy import LaunchBounds
from repro.observability import get_metrics
from repro.tune import (
    DEFAULT_SPACE,
    SCHEMA_VERSION,
    AutoTuner,
    GpusimPrior,
    ProblemModel,
    TuneCache,
    TuneCandidate,
    TuneRecord,
    TrialResult,
    cache_key,
    candidate_from_config,
)

#: small synthetic mesh stats, enough for the byte model to price
MODEL = ProblemModel(num_dofs=600, num_cells=240, nnz=14_000, dofs_per_elem=24)


def _candidate(**overrides) -> TuneCandidate:
    base = dict(
        kernel_impl="optimized",
        launch_bounds=LaunchBounds(128, 2),
        preconditioner="mdsc",
        operator_mode="assembled",
    )
    base.update(overrides)
    return TuneCandidate(**base)


class TestSpace:
    def test_enumeration_is_deterministic(self):
        spec = default_tuning_spec()
        first = DEFAULT_SPACE.enumerate(spec)
        second = DEFAULT_SPACE.enumerate(spec)
        assert first == second
        # 10 launchable (kernel_impl, LaunchBounds) pairs x 3
        # preconditioners x 2 operator modes
        assert len(DEFAULT_SPACE.enumerate(MI250X_GCD)) == 60
        assert len({c.solver_axes for c in first}) == 6

    def test_mdsc_amg_never_pairs_with_matrix_free(self):
        space = dataclasses.replace(
            DEFAULT_SPACE, preconditioners=("mdsc", "mdsc-amg")
        )
        cands = space.enumerate(MI250X_GCD)
        assert any(c.preconditioner == "mdsc-amg" for c in cands)
        assert not any(
            c.preconditioner == "mdsc-amg" and c.operator_mode == "matrix-free"
            for c in cands
        )

    def test_unlaunchable_bounds_filtered_by_spec(self):
        low = dataclasses.replace(MI250X_GCD, max_threads_per_cu=512)
        cands = DEFAULT_SPACE.enumerate(low)
        assert cands, "some configs must survive even on a small CU"
        for c in cands:
            for mode in ("jacobian", "residual"):
                assert c.effective_launch_bounds(mode).max_threads <= 512
        # the 1024-thread Table II column and the implicit residual
        # default (1024) are both gone
        assert not any(
            c.launch_bounds.max_threads > 512 and c.launch_bounds.explicit
            for c in cands
        )

    def test_candidate_dict_round_trip(self):
        c = _candidate(launch_bounds=TABLE2_LAUNCH_CONFIGS[0])  # implicit default
        assert TuneCandidate.from_dict(json.loads(json.dumps(c.to_dict()))) == c

    def test_apply_to_preserves_untuned_fields(self):
        cfg = VelocityConfig(newton_tol=1.0e-9, gmres_restart=100, nparts=2, tuned="auto")
        out = _candidate(preconditioner="vline").apply_to(cfg)
        assert out.preconditioner == "vline"
        assert out.gmres_restart == 100
        assert out.newton_tol == 1.0e-9
        assert out.nparts == 2
        assert out.tuned == "auto"

    def test_candidate_from_config_round_trips(self):
        # the default trial measures exactly what the untuned solve runs
        for mode in ("assembled", "matrix-free"):
            cfg = VelocityConfig(operator_mode=mode, preconditioner="vline")
            assert candidate_from_config(cfg).apply_to(cfg) == cfg


class TestPrior:
    def test_rank_is_deterministic_and_complete(self):
        prior = GpusimPrior(MI250X_GCD, MODEL)
        cands = DEFAULT_SPACE.enumerate(MI250X_GCD)[:40]
        a = [s.candidate for s in prior.rank(cands)]
        b = [s.candidate for s in GpusimPrior(MI250X_GCD, MODEL).rank(cands)]
        assert a == b
        assert sorted(map(id, a)) == sorted(map(id, cands))

    def test_stronger_preconditioner_ranks_cheaper(self):
        prior = GpusimPrior(MI250X_GCD, MODEL)
        mdsc = prior.score(_candidate(preconditioner="mdsc"))
        jacobi = prior.score(_candidate(preconditioner="jacobi"))
        assert mdsc.solver_bytes_per_step < jacobi.solver_bytes_per_step
        assert mdsc.est_iterations_per_step < jacobi.est_iterations_per_step

    def test_kernel_profiles_memoized(self):
        prior = GpusimPrior(MI250X_GCD, MODEL)
        c = _candidate()
        assert prior.kernel_profile(c, "jacobian") is prior.kernel_profile(c, "jacobian")


class TestCache:
    def _record(self) -> TuneRecord:
        return TuneRecord(
            candidate=_candidate(),
            cost_bytes=1.5e9,
            gmres_iterations=420,
            trials=5,
            default_cost_bytes=2.0e9,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "tuned.json"
        cache = TuneCache(path)
        key = cache_key("antarctica_res400km_nz4_optimized", "MI250X-GCD")
        cache.put(key, self._record())
        cache.save()

        reloaded = TuneCache(path)
        rec = reloaded.get(key)
        assert rec == self._record()
        assert get_metrics().value("tune.cache.hits") >= 1

    def test_miss_counts(self, tmp_path):
        cache = TuneCache(tmp_path / "tuned.json")
        before = get_metrics().value("tune.cache.misses")
        assert cache.get("nope|A100") is None
        assert get_metrics().value("tune.cache.misses") == before + 1

    def test_stale_schema_version_ignored(self, tmp_path):
        path = tmp_path / "tuned.json"
        cache = TuneCache(path)
        key = cache_key("mesh", "MI250X-GCD")
        cache.put(key, self._record())
        cache.save()
        doc = json.loads(path.read_text())
        doc["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))

        before = get_metrics().value("tune.cache.stale")
        stale = TuneCache(path)
        assert stale.get(key) is None
        assert get_metrics().value("tune.cache.stale") > before

    def test_stale_entry_version_ignored(self, tmp_path):
        path = tmp_path / "tuned.json"
        cache = TuneCache(path)
        cache.put("old|GPU", self._record())
        cache.put("new|GPU", self._record())
        cache.save()
        doc = json.loads(path.read_text())
        doc["entries"]["old|GPU"]["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))

        reloaded = TuneCache(path)
        assert reloaded.get("old|GPU") is None
        assert reloaded.get("new|GPU") is not None

    def test_corrupt_cache_never_crashes(self, tmp_path):
        path = tmp_path / "tuned.json"
        for garbage in ("{not json", '["wrong", "shape"]', '{"entries": 7}'):
            path.write_text(garbage)
            before = get_metrics().value("tune.cache.invalid")
            cache = TuneCache(path)  # must not raise
            assert len(cache) == 0
            assert get_metrics().value("tune.cache.invalid") == before + 1

    def test_corrupt_entry_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "tuned.json"
        cache = TuneCache(path)
        cache.put("good|GPU", self._record())
        cache.save()
        doc = json.loads(path.read_text())
        doc["entries"]["bad|GPU"] = {"schema_version": SCHEMA_VERSION, "config": {}}
        path.write_text(json.dumps(doc))

        before = get_metrics().value("tune.cache.invalid")
        reloaded = TuneCache(path)
        assert reloaded.get("good|GPU") is not None
        assert reloaded.get("bad|GPU") is None
        assert get_metrics().value("tune.cache.invalid") == before + 1

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "tuned.json"
        cache = TuneCache(path)
        cache.put("k|GPU", self._record())
        cache.save()
        assert not path.with_name(path.name + ".tmp").exists()
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION


class TestTrialQueue:
    """Queue construction is pure given (space, prior, seed) -- no solves."""

    def _tuner(self, seed: int, tmp_path, budget: int = 5) -> AutoTuner:
        return AutoTuner(
            problem_factory=None,  # queue construction never builds a problem
            base_config=VelocityConfig(),
            mesh_key="unit",
            spec=MI250X_GCD,
            cache=TuneCache(tmp_path / f"c{seed}.json"),
            budget=budget,
            seed=seed,
        )

    def _queue(self, seed: int, tmp_path, budget: int = 5):
        tuner = self._tuner(seed, tmp_path, budget)
        prior = GpusimPrior(MI250X_GCD, MODEL)
        cands = tuner._candidates()
        axes = tuner._best_kernel_axes(cands, prior)
        return tuner._trial_queue(cands, prior, axes), cands

    def test_same_seed_same_queue(self, tmp_path):
        q1, _ = self._queue(7, tmp_path)
        q2, _ = self._queue(7, tmp_path)
        assert [c.describe() for c in q1] == [c.describe() for c in q2]

    def test_default_config_always_first(self, tmp_path):
        queue, _ = self._queue(0, tmp_path)
        assert queue[0] == candidate_from_config(VelocityConfig())
        assert len(queue) == 5
        # distinct solver axes: no wasted trial measures the same
        # Newton--Krylov trajectory twice
        axes = [c.solver_axes for c in queue]
        assert len(set(axes)) == len(axes)
        # a budget past the six measurable configurations stops at six
        queue, _ = self._queue(0, tmp_path, budget=8)
        assert len({c.solver_axes for c in queue}) == len(queue) == 6

    def test_exact_tie_keeps_the_earlier_trial(self, tmp_path):
        # regression: ties were broken by describe() string order, so an
        # equal-cost "jacobi" displaced the hand-picked "mdsc" default
        tuner = self._tuner(0, tmp_path, budget=3)
        shape = SimpleNamespace(num_dofs=600, num_elems=240, nnz=14_000, dofs_per_elem=24)
        tuner.problem_factory = lambda cfg: SimpleNamespace(dofmap=shape, mesh=shape, plan=shape)
        tuner._run_trial = lambda cand, prior: TrialResult(
            candidate=cand, gmres_iterations=60, gmres_matvecs=68, matvec_bytes=1.0e8,
            stream_bytes=1.0e8, kernel_bytes=1.0e9, eval_sweeps={}, newton_converged=True,
            mean_velocity=12.6, wall_seconds=0.1,
        )
        report = tuner.tune()
        assert len(report.trials) == 3
        assert report.record.candidate == report.trials[0].candidate

    def test_spmd_base_config_drops_matrix_free(self, tmp_path):
        tuner = AutoTuner(
            problem_factory=None,
            base_config=VelocityConfig(nparts=4),
            mesh_key="unit-spmd",
            spec=MI250X_GCD,
            cache=TuneCache(tmp_path / "spmd.json"),
        )
        assert all(c.operator_mode == "assembled" for c in tuner._candidates())
