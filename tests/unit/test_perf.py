"""Tests for the performance models (roofline, time model, Phi)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import A100, MI250X_GCD, GPUSimulator, ProblemSize
from repro.perf import (
    theoretical_minimum,
    RooflinePoint,
    RooflineModel,
    performance_portability,
    efficiency_time,
    efficiency_data_movement,
    paper,
    format_table,
    ascii_scatter,
    write_csv,
)


class TestTheoretical:
    def test_implementation_independent(self):
        """The application bound is a property of the kernel, not the code."""
        b = theoretical_minimum("baseline-jacobian", 1000)
        o = theoretical_minimum("optimized-jacobian", 1000)
        assert b.total_bytes == o.total_bytes

    def test_jacobian_moves_17x_residual(self):
        """SFad<16> multiplies every array by 17 doubles (paper: ~16x)."""
        j = theoretical_minimum("optimized-jacobian", 1000)
        r = theoretical_minimum("optimized-residual", 1000)
        assert j.total_bytes / r.total_bytes == pytest.approx(17.0)

    def test_scales_with_cells(self):
        a = theoretical_minimum("optimized-residual", 1000)
        b = theoretical_minimum("optimized-residual", 3000)
        assert b.total_bytes == 3 * a.total_bytes

    def test_residual_inventory(self):
        """Residual kernel minimum: known slot counts x 8 bytes."""
        t = theoretical_minimum("optimized-residual", 1)
        # reads: Ugrad 6x8 + mu 8 + force 16 + wBF 64 + wGradBF 192 = 328
        assert t.read_bytes == 328 * 8
        # writes: Residual 8 nodes x 2 comps
        assert t.write_bytes == 16 * 8
        assert set(t.per_view_bytes) == {"Ugrad", "muLandIce", "force", "wBF", "wGradBF", "Residual"}

    def test_min_time(self):
        t = theoretical_minimum("optimized-residual", 256_000)
        assert t.min_time_s(1.0e12) == pytest.approx(t.total_bytes / 1.0e12)
        with pytest.raises(ValueError):
            t.min_time_s(0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            theoretical_minimum("optimized-residual", 0)


class TestRoofline:
    def test_ridge_point(self):
        m = RooflineModel(A100)
        assert m.ridge_point == pytest.approx(9.7e12 / 1.55e12)

    def test_attainable_min_of_ceilings(self):
        m = RooflineModel(A100)
        low = float(m.attainable_gflops(0.1))
        high = float(m.attainable_gflops(1000.0))
        assert low == pytest.approx(0.1 * 1.55e12 / 1e9)
        assert high == pytest.approx(9.7e12 / 1e9)

    def test_fraction_of_roofline_bounds(self):
        m = RooflineModel(A100)
        sim = GPUSimulator(A100)
        for key in ("baseline-jacobian", "optimized-jacobian"):
            pt = RooflineModel.point_from_profile(sim.run(key))
            frac = m.fraction_of_roofline(pt)
            assert 0.0 < frac <= 1.0

    def test_kernels_memory_bound(self):
        """Paper: these kernels sit left of the ridge on both GPUs."""
        for spec in (A100, MI250X_GCD):
            m = RooflineModel(spec)
            sim = GPUSimulator(spec)
            for key in ("baseline-jacobian", "optimized-jacobian", "baseline-residual", "optimized-residual"):
                pt = RooflineModel.point_from_profile(sim.run(key))
                assert m.is_memory_bound(pt), key

    def test_optimization_increases_ai(self):
        """Reducing data movement raises arithmetic intensity (Fig. 3)."""
        sim = GPUSimulator(A100)
        b = sim.run("baseline-jacobian")
        o = sim.run("optimized-jacobian")
        assert o.arithmetic_intensity > b.arithmetic_intensity

    def test_ceiling_series_monotone(self):
        ai, gf = RooflineModel(MI250X_GCD).ceiling_series()
        assert np.all(np.diff(gf) >= 0)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            RooflinePoint("x", -1.0, 5.0)


class TestTimeModel:
    def _model(self, mode="jacobian"):
        return paper.fig5_model(paper.paper_profiles(), mode)

    def test_points_respect_bounds(self):
        m = self._model()
        m.validate()  # raises if any point beats a bound

    def test_achievable_corner(self):
        m = self._model()
        b, t = m.achievable_point
        assert b == m.application_wall_bytes
        assert t == pytest.approx(b / A100.hbm_bytes_per_s)

    def test_optimized_closer_to_wall(self):
        """Fig. 5: optimization moves points toward the application bound."""
        profiles = paper.paper_profiles()
        for mode in paper.MODES:
            for gpu in paper.GPU_NAMES:
                bp, op = (profiles[(impl, mode, gpu)] for impl in paper.IMPLS)
                assert op.hbm_bytes <= bp.hbm_bytes
                assert op.time_s < bp.time_s
                assert paper.efficiencies(op).e_DM >= paper.efficiencies(bp).e_DM
                assert paper.efficiencies(op).e_time > paper.efficiencies(bp).e_time

    def test_efficiencies_in_unit_interval(self):
        for p in paper.paper_profiles().values():
            assert all(0.0 < e <= 1.0 for e in paper.efficiencies(p))

    def test_series_brackets_points(self):
        m = self._model()
        xs, ts, wall = m.series()
        assert xs.min() <= wall <= xs.max()
        assert np.all(np.diff(ts) > 0)

    def test_invalid_point(self):
        from repro.perf.time_model import TimeOrientedPoint

        with pytest.raises(ValueError):
            TimeOrientedPoint("x", "A100", -1.0, 1.0)


class TestPortability:
    def test_harmonic_mean(self):
        assert performance_portability([0.5, 0.5]) == pytest.approx(0.5)
        assert performance_portability([1.0, 0.5]) == pytest.approx(2 / 3)

    def test_unsupported_platform_zeroes(self):
        assert performance_portability([0.9, None]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_portability([])
        with pytest.raises(ValueError):
            performance_portability([0.5, -0.1])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_phi_bounded_by_min_max(self, effs):
        phi = performance_portability(effs)
        assert min(effs) - 1e-12 <= phi <= max(effs) + 1e-12

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_phi_of_identical_is_identity(self, e):
        assert performance_portability([e, e, e]) == pytest.approx(e)

    def test_efficiency_helpers(self):
        assert efficiency_time(1.0, 2.0) == 0.5
        assert efficiency_data_movement(3.0, 6.0) == 0.5
        with pytest.raises(ValueError):
            efficiency_time(0.0, 1.0)
        with pytest.raises(ValueError):
            efficiency_data_movement(1.0, 0.0)


class TestReport:
    def test_format_table(self):
        s = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0e-7]], title="T")
        assert "T" in s and "bb" in s and "3.00e-07" in s

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_ascii_scatter_renders(self):
        s = ascii_scatter(
            [(1.0, 1.0, "B"), (10.0, 0.1, "O")],
            lines=[(0.1, 0.01, 100.0, 10.0, ".")],
            xlabel="GB",
            ylabel="ms",
        )
        assert "B" in s and "O" in s and "GB" in s

    def test_ascii_scatter_empty(self):
        with pytest.raises(ValueError):
            ascii_scatter([])

    def test_write_csv(self, tmp_path):
        p = write_csv(tmp_path / "sub" / "t.csv", ["a", "b"], [[1, 2], [3, 4]])
        assert p.exists()
        assert p.read_text().splitlines()[0] == "a,b"
