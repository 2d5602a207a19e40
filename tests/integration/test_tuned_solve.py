"""Acceptance tests for the online autotuner (ISSUE: ROADMAP item 5).

The contract, measured on the coarse Antarctica *and* Greenland:

* the autotuned configuration's deterministic cost (modeled HBM bytes)
  is never worse than the hand-picked default, within a bounded trial
  budget -- guaranteed structurally because the default is always the
  first trial, and verified here against the persisted record;
* a second solve of the same (mesh, GPU) pair reuses the persisted
  winner with **zero** additional trials (asserted via the
  ``tune.trials`` counter) and produces the identical configuration;
* the whole search is deterministic: same seed + same mesh => the same
  trial sequence and the same winner.
"""

import json

import pytest

from repro.app.antarctica import AntarcticaTest
from repro.app.config import AntarcticaConfig, VelocityConfig
from repro.app.velocity_solver import StokesVelocityProblem
from repro.gpusim.specs import MI250X_GCD
from repro.mesh import greenland_geometry
from repro.mesh.extrude import extrude_footprint
from repro.mesh.planar import masked_quad_footprint
from repro.observability import get_metrics
from repro.tune import (
    SCHEMA_VERSION,
    AutoTuner,
    GpusimPrior,
    ProblemModel,
    TuneCache,
    cache_key,
    candidate_from_config,
)
from repro.tune.cache import CACHE_ENV

COARSE = dict(resolution_km=400.0, num_layers=4)


@pytest.fixture(scope="module")
def antarctica_mesh():
    test = AntarcticaTest.build(AntarcticaConfig(**COARSE))
    return test.geometry, test.mesh


@pytest.fixture(scope="module")
def greenland_mesh():
    geo = greenland_geometry()
    fp = masked_quad_footprint(6, 10, geo.lx, geo.ly, geo.mask)
    return geo, extrude_footprint(fp, geo, 4)


def _tune(geometry, mesh, tmp_path, tag: str, seed: int = 0, budget: int = 4):
    tuner = AutoTuner(
        lambda c: StokesVelocityProblem(mesh, geometry, c),
        VelocityConfig(),
        mesh_key=f"tuned-solve-{tag}",
        spec=MI250X_GCD,
        cache=TuneCache(tmp_path / f"{tag}.json"),
        budget=budget,
        seed=seed,
    )
    return tuner.tune()


class TestTunedBeatsDefault:
    @pytest.mark.parametrize("sheet", ["antarctica", "greenland"])
    def test_autotuned_cost_at_most_default(self, sheet, request, tmp_path):
        geometry, mesh = request.getfixturevalue(f"{sheet}_mesh")
        report = _tune(geometry, mesh, tmp_path, sheet)
        rec = report.record
        # bounded budget, default measured first, winner never worse
        assert len(report.trials) <= 4
        assert (
            report.trials[0].candidate.solver_axes
            == candidate_from_config(VelocityConfig()).solver_axes
        )
        assert rec.cost_bytes <= rec.default_cost_bytes
        assert rec.cost_bytes > 0.0
        # the winning trial solved the same physics as the default
        winner_trials = [t for t in report.trials if t.candidate == rec.candidate]
        assert winner_trials and winner_trials[0].valid


class TestPriorMatchesMeasurement:
    def test_preconditioner_ordering_matches_measured_iterations(self, antarctica_mesh):
        """``ITERATION_FACTOR`` orders mdsc/vline/jacobi the way the
        400 km / 4-layer solves do (58 / 86 / 976 iterations)."""
        geometry, mesh = antarctica_mesh
        # est_iterations_per_step does not depend on the mesh numbers
        prior = GpusimPrior(MI250X_GCD, ProblemModel(1, mesh.num_elems, 1, 1))
        measured, modeled = {}, {}
        for pc in ("mdsc", "vline", "jacobi"):
            cfg = VelocityConfig(preconditioner=pc)
            newton = StokesVelocityProblem(mesh, geometry, cfg).solve().newton
            measured[pc] = sum(newton.linear_iterations) / newton.iterations
            modeled[pc] = prior.score(candidate_from_config(cfg)).est_iterations_per_step
        assert sorted(measured, key=measured.get) == sorted(modeled, key=modeled.get)
        # and the estimates are the right size, not just the right order
        for pc in measured:
            assert 0.5 < modeled[pc] / measured[pc] < 2.0


class TestDeterminism:
    def test_same_seed_same_sequence_and_winner(self, antarctica_mesh, tmp_path):
        geometry, mesh = antarctica_mesh
        a = _tune(geometry, mesh, tmp_path, "det-a", seed=3, budget=3)
        b = _tune(geometry, mesh, tmp_path, "det-b", seed=3, budget=3)
        assert a.trial_sequence == b.trial_sequence
        assert a.record.candidate == b.record.candidate
        assert a.record.cost_bytes == b.record.cost_bytes
        assert [t.gmres_iterations for t in a.trials] == [
            t.gmres_iterations for t in b.trials
        ]


class TestPersistedReuse:
    def test_second_build_hits_cache_with_zero_trials(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache.json"))
        monkeypatch.setenv("REPRO_TUNE_GPU", "MI250X-GCD")
        cfg = AntarcticaConfig(
            **COARSE, velocity=VelocityConfig(tuned="auto")
        )
        metrics = get_metrics()

        before = metrics.value("tune.trials")
        first = AntarcticaTest.build(cfg)
        spent = metrics.value("tune.trials") - before
        assert spent >= 2, "a cold cache must run measured trials"

        before = metrics.value("tune.trials")
        second = AntarcticaTest.build(cfg)
        assert metrics.value("tune.trials") - before == 0, (
            "a warm cache must resolve the config with zero trials"
        )
        # identical resolved configuration both times
        assert second.problem.config == first.problem.config
        assert first.problem.config.tuned == "auto"

        # the record is keyed by (mesh key, GPU)
        cache = TuneCache(tmp_path / "cache.json")
        assert cache.get(cache_key(cfg.key, "MI250X-GCD")) is not None

    def test_schema_1_cache_is_retuned(self, tmp_path, monkeypatch):
        """A cache written before the orth/restart axes went is stale:
        ignored on load, searched again, overwritten -- never a crash."""
        path = tmp_path / "cache.json"
        monkeypatch.setenv(CACHE_ENV, str(path))
        monkeypatch.setenv("REPRO_TUNE_GPU", "MI250X-GCD")
        cfg = AntarcticaConfig(**COARSE, velocity=VelocityConfig(tuned="auto"))
        key = cache_key(cfg.key, "MI250X-GCD")
        config = dict(
            candidate_from_config(cfg.velocity).to_dict(),
            preconditioner="jacobi", gmres_orth="fused", gmres_restart=100,
        )
        entry = {
            "schema_version": 1, "config": config, "cost_bytes": 1.0,
            "gmres_iterations": 1, "trials": 5, "default_cost_bytes": 2.0,
        }
        path.write_text(json.dumps({"schema_version": 1, "entries": {key: entry}}))

        metrics = get_metrics()
        stale, trials = metrics.value("tune.cache.stale"), metrics.value("tune.trials")
        test = AntarcticaTest.build(cfg)
        assert metrics.value("tune.cache.stale") == stale + 1
        assert metrics.value("tune.trials") - trials >= 2
        assert test.problem.config.preconditioner != "jacobi"
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc["entries"][key]["config"]) == {
            "kernel_impl", "launch_bounds", "preconditioner", "operator_mode"
        }

    def test_tuned_solve_matches_reference(self, tmp_path, monkeypatch):
        """A tuned solve still passes the stored regression check."""
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache.json"))
        monkeypatch.setenv("REPRO_TUNE_GPU", "MI250X-GCD")
        test = AntarcticaTest.build(
            AntarcticaConfig(**COARSE, velocity=VelocityConfig(tuned="auto"))
        )
        sol = test.run()
        passed, ref = test.check(sol)
        assert passed
        assert sol.diagnostics["tuned"] == "auto"
