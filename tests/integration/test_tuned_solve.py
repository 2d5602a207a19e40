"""Acceptance tests for the online autotuner.

The contract, measured on the coarse Antarctica *and* Greenland:

* one search is two independent decisions: the kernel axes by the GPU
  model, then one measured trial per solver configuration the
  preconditioner table marks worth one -- *every* trial, the hand-picked
  default included, priced at the same kernel axes, so the winner is the
  trial that streamed the fewest solver bytes and nothing else;
* no trial is a Jacobi solve (the table's flags, and the measured
  iteration counts that justify them);
* a second solve of the same (mesh, GPU) pair reuses the persisted
  winner with **zero** additional trials (asserted via the
  ``tune.trials`` counter) and produces the identical configuration;
* the search is deterministic by structure: no seed, no ranking -- two
  searches on one mesh run the same trials and pick the same winner.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.app.antarctica import AntarcticaTest
from repro.app.config import PRECONDITIONER_TABLE, AntarcticaConfig, VelocityConfig
from repro.app.velocity_solver import StokesVelocityProblem
from repro.gpusim.specs import MI250X_GCD
from repro.mesh import greenland_geometry
from repro.mesh.extrude import extrude_footprint
from repro.mesh.planar import masked_quad_footprint
from repro.observability import get_metrics
from repro.tune import SCHEMA_VERSION, AutoTuner, TuneCache, cache_key
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


def _tune(geometry, mesh, tmp_path, tag: str, base: VelocityConfig | None = None):
    tuner = AutoTuner(
        lambda c: StokesVelocityProblem(mesh, geometry, c),
        base if base is not None else VelocityConfig(),
        mesh_key=f"tuned-solve-{tag}",
        spec=MI250X_GCD,
        cache=TuneCache(tmp_path / f"{tag}.json"),
    )
    return tuner.tune()


def _solver_axes(trial) -> tuple[str, str]:
    return trial.candidate.preconditioner, trial.candidate.operator_mode


class TestTunedBeatsDefault:
    @pytest.mark.parametrize("sheet", ["antarctica", "greenland"])
    def test_autotuned_cost_at_most_default(self, sheet, request, tmp_path):
        geometry, mesh = request.getfixturevalue(f"{sheet}_mesh")
        report = _tune(geometry, mesh, tmp_path, sheet)
        rec = report.record
        # four trials, default measured first, winner never worse
        assert len(report.trials) == 4
        default = VelocityConfig()
        assert _solver_axes(report.trials[0]) == (default.preconditioner, default.operator_mode)
        assert rec.cost_bytes <= rec.default_cost_bytes == report.trials[0].cost_bytes
        assert rec.cost_bytes > 0.0
        # the winning trial solved the same physics as the default
        winner_trials = [t for t in report.trials if t.candidate == rec.candidate]
        assert winner_trials and winner_trials[0].valid


class TestLikeWithLike:
    """The finding this search was rebuilt around: the default trial was
    priced at another LaunchBounds than its rivals, so ``matrix-free``
    "won" through the kernel axis alone."""

    @pytest.mark.parametrize("base_mode", ["assembled", "matrix-free"])
    def test_winner_is_fewest_solver_bytes_and_assembled(
        self, base_mode, antarctica_mesh, tmp_path
    ):
        geometry, mesh = antarctica_mesh
        report = _tune(
            geometry, mesh, tmp_path, base_mode, base=VelocityConfig(operator_mode=base_mode)
        )
        # every trial, default included, at one kernel configuration ...
        kernel = {(t.candidate.kernel_impl, t.candidate.launch_bounds) for t in report.trials}
        assert len(kernel) == 1
        # ... so the verdict is the measured solver bytes and nothing else
        assert all(t.valid for t in report.trials)
        winner = min(report.trials, key=lambda t: t.solver_bytes)
        assert report.record.candidate == winner.candidate
        assert _solver_axes(winner) == ("mdsc", "assembled")
        # the model's kernel-axis saving is reported on its own
        assert report.trials[0].kernel_bytes < report.default_kernel_bytes

    @pytest.mark.parametrize("nparts", [1, 2])
    def test_no_trial_is_a_jacobi_solve(self, nparts, antarctica_mesh, tmp_path):
        geometry, mesh = antarctica_mesh
        report = _tune(
            geometry, mesh, tmp_path, f"np{nparts}", base=VelocityConfig(nparts=nparts)
        )
        assert len(report.trials) == (4 if nparts == 1 else 2)
        for t in report.trials:
            assert t.gmres_iterations <= 2 * report.trials[0].gmres_iterations


class TestTableMatchesMeasurement:
    def test_flags_match_measured_solves(self, antarctica_mesh):
        """The evidence behind ``PRECONDITIONER_TABLE``'s flag: the
        400 km / 4-layer solves run 58 / 86 / 976 GMRES iterations under
        mdsc / vline / jacobi."""
        geometry, mesh = antarctica_mesh
        per_step = {}
        for pc in ("mdsc", "vline", "jacobi"):
            newton = StokesVelocityProblem(
                mesh, geometry, VelocityConfig(preconditioner=pc)
            ).solve().newton
            per_step[pc] = sum(newton.linear_iterations) / newton.iterations
        assert per_step["mdsc"] <= per_step["vline"] < per_step["jacobi"]
        assert per_step["jacobi"] > 10 * per_step["mdsc"]
        # which is what the flag says: the two cheap ones earn a trial
        assert [p.name for p in PRECONDITIONER_TABLE if p.production] == ["mdsc", "vline"]


class TestDeterminism:
    def test_two_searches_same_trials_and_winner(self, antarctica_mesh, tmp_path):
        geometry, mesh = antarctica_mesh
        a = _tune(geometry, mesh, tmp_path, "det-a")
        b = _tune(geometry, mesh, tmp_path, "det-b")
        assert [t.candidate for t in a.trials] == [t.candidate for t in b.trials]
        assert a.record.candidate == b.record.candidate
        assert a.record.cost_bytes == b.record.cost_bytes
        for name in ("gmres_iterations", "gmres_matvecs", "matvec_bytes", "stream_bytes",
                     "kernel_bytes", "eval_sweeps"):
            assert [getattr(t, name) for t in a.trials] == [getattr(t, name) for t in b.trials]


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
        assert spent == 4, "a cold cache runs one trial per solver configuration"

        before = metrics.value("tune.trials")
        second = AntarcticaTest.build(cfg)
        assert metrics.value("tune.trials") - before == 0, (
            "a warm cache must resolve the config with zero trials"
        )
        # identical resolved configuration both times: the assembled
        # default, whichever operator mode the environment default names
        assert second.problem.config == first.problem.config
        assert first.problem.config.tuned == "auto"
        assert first.problem.config.preconditioner == "mdsc"
        assert first.problem.config.operator_mode == "assembled"
        # and the tuned solve is bitwise the hand-picked assembled one
        ref = AntarcticaTest.build(
            AntarcticaConfig(**COARSE, velocity=VelocityConfig(operator_mode="assembled"))
        )
        assert np.array_equal(first.run().u, ref.run().u)

        # the record is keyed by (mesh key, GPU)
        cache = TuneCache(tmp_path / "cache.json")
        assert cache.get(cache_key(cfg.key, "MI250X-GCD")) is not None

    @pytest.mark.parametrize("version", [1, 2])
    def test_stale_schema_cache_is_retuned(self, version, tmp_path, monkeypatch):
        """A cache written by an older search is stale -- v1 carried the
        orth/restart axes, every v2 winner was chosen with the default
        priced at another LaunchBounds than its rivals and most name
        ``matrix-free``: ignored on load, searched again, overwritten --
        never a crash."""
        path = tmp_path / "cache.json"
        monkeypatch.setenv(CACHE_ENV, str(path))
        monkeypatch.setenv("REPRO_TUNE_GPU", "MI250X-GCD")
        cfg = AntarcticaConfig(**COARSE, velocity=VelocityConfig(tuned="auto"))
        key = cache_key(cfg.key, "MI250X-GCD")
        config = {
            "kernel_impl": "optimized",
            "launch_bounds": {"max_threads": 256, "min_blocks": 2, "explicit": True},
            "preconditioner": "mdsc", "operator_mode": "matrix-free",
        }
        if version == 1:
            config.update(preconditioner="jacobi", gmres_orth="fused", gmres_restart=100)
        entry = {
            "schema_version": version, "config": config, "cost_bytes": 1.0,
            "gmres_iterations": 1, "trials": 5, "default_cost_bytes": 2.0,
        }
        path.write_text(json.dumps({"schema_version": version, "entries": {key: entry}}))

        metrics = get_metrics()
        stale, trials = metrics.value("tune.cache.stale"), metrics.value("tune.trials")
        test = AntarcticaTest.build(cfg)
        assert metrics.value("tune.cache.stale") == stale + 1
        assert metrics.value("tune.trials") - trials == 4
        assert test.problem.config.preconditioner == "mdsc"
        assert test.problem.config.operator_mode == "assembled"
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["entries"][key]["config"]["operator_mode"] == "assembled"
        assert set(doc["entries"][key]["config"]) == {
            "kernel_impl", "launch_bounds", "preconditioner", "operator_mode"
        }

    def test_cli_greenland_key_is_the_key_a_tuned_build_looks_up(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro tune --mesh greenland`` and ``AntarcticaTest.build``
        go through one builder, so the CLI warms the build's entry."""
        path = tmp_path / "cache.json"
        args = ["tune", "--mesh", "greenland", "--gpu", "MI250X-GCD", "--cache", str(path)]
        assert main(args) == 0
        assert "winner: " in capsys.readouterr().out
        cfg = AntarcticaConfig(
            family="greenland", resolution_km=350.0, num_layers=4,
            velocity=VelocityConfig(tuned="auto"),
        )
        assert TuneCache(path).keys() == [cache_key(cfg.key, "MI250X-GCD")]

        monkeypatch.setenv(CACHE_ENV, str(path))
        monkeypatch.setenv("REPRO_TUNE_GPU", "MI250X-GCD")
        metrics = get_metrics()
        trials, hits = metrics.value("tune.trials"), metrics.value("tune.cache.hits")
        AntarcticaTest.build(cfg)
        assert metrics.value("tune.trials") == trials
        assert metrics.value("tune.cache.hits") == hits + 1
        # and the CLI itself now reports the hit instead of searching
        assert main(args) == 0
        assert "cache hit" in capsys.readouterr().out
        assert metrics.value("tune.trials") == trials

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
