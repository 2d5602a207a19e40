"""Tests for the calibration tools (tools/calibrate.py, tools/search_params.py)
and the golden regenerator's measuring mode (tools/regen_goldens.py)."""

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import calibrate  # noqa: E402
import regen_goldens  # noqa: E402
import search_params  # noqa: E402


class TestCalibrate:
    def test_table3_prints_speedups(self, capsys):
        calibrate.table3()
        out = capsys.readouterr().out
        assert "Table III" in out
        assert out.count("speedup=") == 4  # 2 GPUs x 2 modes

    def test_table4_prints_efficiencies(self, capsys):
        calibrate.table4()
        out = capsys.readouterr().out
        assert "e_time" in out and "e_DM" in out
        assert out.count("paper") >= 4

    def test_table2_prints_launch_sweep(self, capsys):
        calibrate.table2()
        out = capsys.readouterr().out
        assert "LaunchBounds" in out
        assert "vgpr=" in out

    @pytest.mark.parametrize("table", ["2", "3", "4"])
    def test_main_single_table(self, table, capsys):
        assert calibrate.main(["--table", table]) == 0
        out = capsys.readouterr().out
        assert f"Table {'II' * (table == '2') or 'III' * (table == '3') or 'IV'}" in out

    def test_main_rejects_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            calibrate.main(["--table", "5"])
        assert exc.value.code == 2


class TestSearchParams:
    def test_evaluate_default_specs_finite(self):
        from repro.gpusim.specs import A100, MI250X_GCD

        err, out = search_params.evaluate(A100, MI250X_GCD)
        assert math.isfinite(err) and err >= 0.0
        assert all(math.isfinite(v) for v in out.values())
        # the shipped specs ARE the search winner: nothing should be
        # hitting the bad-point penalty
        assert err < search_params.BAD_POINT_PENALTY

    def test_targets_are_the_values_paper_py_quotes(self):
        from repro.perf import paper

        t = search_params.TARGETS
        assert len(t) == 16  # 4 speedups, 2 Table II ratios, 5 Table IV rows x 2 GPUs
        assert t["M_residual_speedup"] == (paper.PAPER_SPEEDUPS[("residual", "MI250X-GCD")], 3.0)
        assert t["t2_jacobian"] == (paper.PAPER_BEST_SPEEDUP["jacobian"], 2.0)
        a100, mi = paper.PAPER_EFFICIENCIES[("optimized", "e_time", "residual")]
        assert (t["A_residual_et_o"], t["M_residual_et_o"]) == ((a100, 1.0), (mi, 1.0))
        assert "A_residual_edm_o" not in t  # a Table IV row the search does not fit

    def test_score_penalizes_degenerate_ratios(self):
        """A zero/negative/non-finite metric is penalized, not a ValueError."""
        clean = {k: t for k, (t, _w) in search_params.TARGETS.items()}
        assert search_params.score(clean) == 0.0  # log(t/t) == 0 everywhere
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            poisoned = dict(clean, A_jacobian_speedup=bad)
            err = search_params.score(poisoned)
            # weight of A_jacobian_speedup is 3.0
            assert err == 3.0 * search_params.BAD_POINT_PENALTY

    def test_score_missing_metric_raises_keyerror(self):
        clean = {k: t for k, (t, _w) in search_params.TARGETS.items()}
        del clean["t2_residual"]
        with pytest.raises(KeyError):
            search_params.score(clean)

    def test_build_grids_quick_collapses(self):
        grid_a, grid_m = search_params.build_grids(quick=True)
        assert all(len(v) == 1 for v in grid_a.values())
        assert all(len(v) == 1 for v in grid_m.values())
        full_a, full_m = search_params.build_grids()
        assert all(len(v) > 1 for v in full_a.values())
        assert set(full_a) == set(grid_a) and set(full_m) == set(grid_m)

    def test_search_limit_stops_early(self):
        grid_a, grid_m = search_params.build_grids()
        calls = []

        def fake_evaluate(a100, mi):
            calls.append((a100, mi))
            return float(len(calls)), {"metric": 1.0}

        orig = search_params.evaluate
        search_params.evaluate = fake_evaluate
        try:
            best = search_params.search(grid_a, grid_m, limit=3, progress=lambda *_: None)
        finally:
            search_params.evaluate = orig
        assert len(calls) == 3
        assert best[0] == 1.0  # first (lowest) fake error wins

    def test_main_quick_mode(self, capsys):
        assert search_params.main(["--quick"]) == 0
        out = capsys.readouterr().out
        assert "1 combos" in out
        assert "best err" in out
        assert "A100:" in out and "MI:" in out

    def test_main_rejects_nonpositive_limit(self):
        with pytest.raises(SystemExit) as exc:
            search_params.main(["--quick", "--limit", "0"])
        assert exc.value.code == 2


class TestRegenGoldensDryRun:
    """``--dry-run`` measures against the stored goldens and writes nothing."""

    @pytest.fixture
    def golden_copy(self, tmp_path, monkeypatch):
        path = tmp_path / "table3.npz"
        shutil.copy(regen_goldens.GOLDEN_DIR / "table3.npz", path)
        monkeypatch.setattr(regen_goldens, "GOLDEN_DIR", tmp_path)
        return path

    def test_clean_tree_reports_no_drift(self, golden_copy, capsys):
        before = golden_copy.read_bytes()
        assert regen_goldens.main(["--dry-run", "--only", "table3"]) == 0
        assert "drift" not in capsys.readouterr().out
        assert golden_copy.read_bytes() == before

    def test_a_planted_drift_fails_and_nothing_is_written(self, golden_copy, capsys):
        with np.load(golden_copy) as f:
            fields = dict(f)
        fields["speedup"] = fields["speedup"] * (1.0 + 1.0e-9)  # the test holds it to 1e-12
        np.savez_compressed(golden_copy, **fields)
        before = golden_copy.read_bytes()
        assert regen_goldens.main(["--dry-run", "--only", "table3"]) == 1
        out = capsys.readouterr().out
        assert "table3.npz:speedup: max |drift|" in out and "PAST ITS TEST'S TOLERANCE" in out
        assert out.count("PAST") == 1 and "wrote" not in out
        assert golden_copy.read_bytes() == before

    def test_drift_inside_the_tolerance_is_reported_not_failed(self, golden_copy, capsys):
        with np.load(golden_copy) as f:
            fields = dict(f)
        fields["speedup"] = fields["speedup"] * (1.0 + 4.0e-16)
        np.savez_compressed(golden_copy, **fields)
        assert regen_goldens.main(["--dry-run", "--only", "table3"]) == 0
        assert "table3.npz:speedup: max |drift|" in capsys.readouterr().out
