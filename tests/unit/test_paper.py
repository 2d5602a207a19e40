"""The paper's experiment has one definition (``repro.perf.paper``) and the
stored artifacts under ``benchmarks/results/`` are a checked function of it."""

import csv
from dataclasses import replace
from pathlib import Path

import pytest

from repro.gpusim import MI250X_GCD
from repro.perf import paper, performance_portability, theoretical_minimum

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@pytest.fixture(scope="module")
def profiles():
    return paper.paper_profiles()


def _stored(name):
    with open(RESULTS / name, newline="") as f:
        return list(csv.reader(f))


def _as_csv(table):
    return [list(table.headers)] + [[str(c) for c in row] for row in table.rows]


class TestStoredArtifacts:
    """What the paper benches write is what ``paper`` builds today."""

    def test_table2(self):
        assert _stored("table2_launchbounds.csv") == _as_csv(paper.table2())

    def test_table3(self, profiles):
        assert _stored("table3_speedups.csv") == _as_csv(paper.table3(profiles))

    def test_table4(self, profiles):
        assert _stored("table4_portability.csv") == _as_csv(paper.table4(profiles))

    @pytest.mark.parametrize("mode", paper.MODES)
    def test_fig5(self, profiles, mode):
        assert _stored(f"fig5_time_model_{mode}.csv") == _as_csv(paper.fig5_points(profiles, mode))

    def test_table4_and_fig5_report_one_e_time_per_profile(self):
        """The stored files themselves agree (the MI250X optimized Jacobian
        once read 51% in Table IV and 53% in Fig. 5)."""
        table4 = {
            (impl, metric, mode): dict(zip(paper.GPU_NAMES, cells))
            for impl, metric, mode, *cells in _stored("table4_portability.csv")[1:]
        }
        for mode in paper.MODES:
            for label, _, _, e_time, e_dm in _stored(f"fig5_time_model_{mode}.csv")[2:]:
                impl, gpu = label.split("@")
                assert table4[(impl, "e_time", mode)][gpu] == e_time, (mode, label)
                assert table4[(impl, "e_DM", mode)][gpu] == e_dm, (mode, label)


class TestProfiles:
    def test_eight_profiles_tuned_only_where_the_paper_tunes(self, profiles):
        assert len(profiles) == 8
        for (impl, mode, gpu), p in profiles.items():
            assert (p.variant_key, p.gpu) == (f"{impl}-{mode}", gpu)
            tuned = impl == "optimized" and gpu == MI250X_GCD.name
            assert p.launch_bounds == (str(paper.AMD_TUNED) if tuned else "default")

    def test_tuned_bound_is_a_best_table2_column(self):
        for mode in paper.MODES:
            sweep = paper.launchbounds_sweep(mode)
            assert sweep[str(paper.AMD_TUNED)].time_s == min(p.time_s for p in sweep.values())


class TestSweep:
    def test_exact_paper_vgprs(self):
        for mode, columns in paper.PAPER_VGPRS.items():
            sweep = paper.launchbounds_sweep(mode)
            assert tuple((p.arch_vgprs, p.accum_vgprs) for p in sweep.values()) == columns

    def test_unlaunchable_column_is_flagged_not_timed(self):
        spec = replace(MI250X_GCD, name="MI250X-768", max_threads_per_cu=768)
        sweep = paper.launchbounds_sweep("jacobian", spec)
        assert sweep["1024,2"] is None
        assert all(p is not None for key, p in sweep.items() if key != "1024,2")

    def test_unlaunchable_default_names_the_spec(self):
        """A spec too small for the *default* bounds (1024 threads for the
        Residual) has no baseline to normalize against: say which machine
        model is at fault instead of a bare ``KeyError``/``AttributeError``."""
        spec = replace(MI250X_GCD, name="MI250X-LOWTPB", max_threads_per_cu=512)
        with pytest.raises(ValueError, match="MI250X-LOWTPB.*max_threads_per_cu=512"):
            paper.launchbounds_sweep("residual", spec)


class TestEfficiencies:
    def test_definition(self, profiles):
        """e_time prices the application wall at the profile's own GPU's peak."""
        for (impl, mode, gpu), p in profiles.items():
            wall = theoretical_minimum(f"optimized-{mode}", p.problem.num_cells)
            spec = {s.name: s for s in paper.PAPER_GPUS}[gpu]
            e = paper.efficiencies(p)
            assert e.e_time == min(1.0, wall.min_time_s(spec.hbm_bytes_per_s) / p.time_s)
            assert e.e_DM == min(1.0, wall.total_bytes / p.hbm_bytes)
            assert 0.0 < e.e_time <= 1.0 and 0.0 < e.e_DM <= 1.0

    def test_phi_is_the_harmonic_mean_per_efficiency(self, profiles):
        row = [profiles[("baseline", "jacobian", gpu)] for gpu in paper.GPU_NAMES]
        effs, phi = paper.portability(row)
        assert effs == [paper.efficiencies(p) for p in row]
        assert phi.e_time == performance_portability([e.e_time for e in effs])
        assert phi.e_DM == pytest.approx(2 / sum(1 / e.e_DM for e in effs))

    def test_table4_values_are_keyed_like_the_paper_table(self, profiles):
        values = paper.table4_values(profiles)
        assert set(values) == set(paper.PAPER_EFFICIENCIES)
        assert all(len(v) == len(paper.GPU_NAMES) + 1 for v in values.values())

    def test_speedups_are_keyed_like_the_paper_table(self, profiles):
        ours = paper.speedups(profiles)
        assert set(ours) == set(paper.PAPER_SPEEDUPS)
        assert all(s > 1.5 for s in ours.values())
