"""Acceptance tests for the online autotuner.

The contract, measured on the coarse Antarctica *and* Greenland:

* one search is two independent decisions: the kernel axes by the GPU
  model, then one measured trial per solver configuration the
  preconditioner table marks worth one -- *every* trial, the hand-picked
  default included, priced at the same kernel axes, so the winner is the
  trial that streamed the fewest solver bytes and nothing else;
* no trial is a Jacobi solve (the table's flags, and the measured
  iteration counts that justify them);
* the search is deterministic by structure: no seed, no ranking -- two
  searches on one mesh run the same trials and pick the same winner;
* ``python -m repro tune`` is a report: it prints the winner and writes
  nothing.
"""

import os

import pytest

from repro.__main__ import main
from repro.app.antarctica import AntarcticaTest
from repro.app.config import PRECONDITIONER_TABLE, AntarcticaConfig, VelocityConfig
from repro.app.velocity_solver import StokesVelocityProblem
from repro.gpusim.specs import MI250X_GCD
from repro.mesh import greenland_geometry
from repro.mesh.extrude import extrude_footprint
from repro.mesh.planar import masked_quad_footprint
from repro.tune import AutoTuner

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


def _tune(geometry, mesh, tag: str, base: VelocityConfig | None = None):
    tuner = AutoTuner(
        lambda c: StokesVelocityProblem(mesh, geometry, c),
        base if base is not None else VelocityConfig(),
        mesh_key=f"tuned-solve-{tag}",
        spec=MI250X_GCD,
    )
    return tuner.tune()


def _solver_axes(trial) -> tuple[str, str]:
    return trial.candidate.preconditioner, trial.candidate.operator_mode


class TestTunedBeatsDefault:
    @pytest.mark.parametrize("sheet", ["antarctica", "greenland"])
    def test_autotuned_cost_at_most_default(self, sheet, request):
        geometry, mesh = request.getfixturevalue(f"{sheet}_mesh")
        report = _tune(geometry, mesh, sheet)
        winner = report.winner
        # four trials, default measured first, winner never worse
        assert len(report.trials) == 4
        default = VelocityConfig()
        assert _solver_axes(report.trials[0]) == (default.preconditioner, default.operator_mode)
        assert 0.0 < winner.cost_bytes <= report.trials[0].cost_bytes
        # the winning trial solved the same physics as the default
        assert winner in report.trials and winner.valid


class TestLikeWithLike:
    """The finding this search was rebuilt around: the default trial was
    priced at another LaunchBounds than its rivals, so ``matrix-free``
    "won" through the kernel axis alone."""

    @pytest.mark.parametrize("base_mode", ["assembled", "matrix-free"])
    def test_winner_is_fewest_solver_bytes_and_assembled(
        self, base_mode, antarctica_mesh
    ):
        geometry, mesh = antarctica_mesh
        report = _tune(geometry, mesh, base_mode, base=VelocityConfig(operator_mode=base_mode))
        # every trial, default included, at one kernel configuration ...
        kernel = {(t.candidate.kernel_impl, t.candidate.launch_bounds) for t in report.trials}
        assert len(kernel) == 1
        # ... so the verdict is the measured solver bytes and nothing else
        assert all(t.valid for t in report.trials)
        winner = min(report.trials, key=lambda t: t.solver_bytes)
        assert report.winner is winner
        assert _solver_axes(winner) == ("mdsc", "assembled")
        # the model's kernel-axis saving is reported on its own
        assert report.trials[0].kernel_bytes < report.default_kernel_bytes

    @pytest.mark.parametrize("nparts", [1, 2])
    def test_no_trial_is_a_jacobi_solve(self, nparts, antarctica_mesh):
        geometry, mesh = antarctica_mesh
        report = _tune(geometry, mesh, f"np{nparts}", base=VelocityConfig(nparts=nparts))
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
    def test_two_searches_same_trials_and_winner(self, antarctica_mesh):
        geometry, mesh = antarctica_mesh
        a = _tune(geometry, mesh, "det-a")
        b = _tune(geometry, mesh, "det-b")
        assert [t.candidate for t in a.trials] == [t.candidate for t in b.trials]
        assert a.winner.candidate == b.winner.candidate
        assert a.winner.cost_bytes == b.winner.cost_bytes
        for name in ("gmres_iterations", "gmres_matvecs", "matvec_bytes", "stream_bytes",
                     "kernel_bytes", "eval_sweeps"):
            assert [getattr(t, name) for t in a.trials] == [getattr(t, name) for t in b.trials]


class TestReport:
    @pytest.mark.parametrize(
        "flags", [["--resolution-km", "400", "--layers", "4"], ["--mesh", "greenland"]]
    )
    def test_repro_tune_writes_nothing(self, flags, tmp_path, monkeypatch, capsys):
        """The CLI prints the default as the winner and leaves no file --
        in the working directory or under ``~/.cache``."""
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert main(["tune", *flags]) == 0
        out = capsys.readouterr().out
        assert "winner: optimized/lb=256,2/mdsc/assembled\n" in out
        assert os.listdir(tmp_path) == []
