"""Tests for the GPU performance simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.launch import TABLE2_LAUNCH_CONFIGS, default_launch_bounds
from repro.core.variants import get_variant
from repro.gpusim import (
    A100,
    MI250X_GCD,
    ALL_GPUS,
    GPUSimulator,
    ProblemSize,
    ANTARCTICA_16KM,
    record_kernel_trace,
    stack_distances,
    LruCache,
    measure_data_movement,
    allocate_registers,
    compute_occupancy,
    achieved_bandwidth_fraction,
)
from repro.gpusim.memtrace import smooth_hit_fraction
from repro.kokkos.policy import LaunchBounds
from repro.perf.theoretical import theoretical_minimum


class TestSpecs:
    def test_paper_hardware_numbers(self):
        assert A100.num_cus == 108
        assert A100.l2_bytes == 40 * 1024 * 1024
        assert MI250X_GCD.num_cus == 110
        assert MI250X_GCD.l2_bytes == 8 * 1024 * 1024
        # MI250X GCD: >2x FP64 peak, comparable BW (Section IV-A)
        assert MI250X_GCD.fp64_flops > 2 * A100.fp64_flops
        assert abs(MI250X_GCD.hbm_bytes_per_s / A100.hbm_bytes_per_s - 1.0) < 0.1

    def test_derived_quantities(self):
        assert A100.lines_per_access == 2  # 32 lanes x 8B / 128B
        assert MI250X_GCD.lines_per_access == 8  # 64 lanes x 8B / 64B
        assert A100.max_warps_per_cu == 64
        assert MI250X_GCD.max_warps_per_cu == 32


class TestTrace:
    def test_trace_cached(self):
        a = record_kernel_trace("optimized-residual")
        b = record_kernel_trace("optimized-residual")
        assert a is b

    def test_baseline_has_more_accesses(self):
        b = record_kernel_trace("baseline-jacobian")
        o = record_kernel_trace("optimized-jacobian")
        assert len(b.slot_trace) > len(o.slot_trace)

    def test_jacobian_meshfields_are_fad(self):
        p = record_kernel_trace("optimized-jacobian")
        assert p.view_meta["wGradBF"][1] == 17
        assert p.view_meta["Ugrad"][1] == 17
        pr = record_kernel_trace("optimized-residual")
        assert pr.view_meta["wGradBF"][1] == 1

    def test_unique_written_slots_residual_only(self):
        p = record_kernel_trace("optimized-residual")
        assert {s.view for s in p.unique_written_slots()} == {"Residual"}
        # 8 nodes x 2 comps x 1 component
        assert len(p.unique_written_slots()) == 16

    def test_instruction_estimate_ordering(self):
        p = record_kernel_trace("baseline-residual")
        rt = p.instructions(compile_time_bounds=False, branch_in_kernel=True)
        ct = p.instructions(compile_time_bounds=True, branch_in_kernel=False)
        assert rt > ct


class TestCacheModels:
    def test_stack_distance_basic(self):
        d = stack_distances(["a", "b", "a", "c", "b", "a"])
        assert list(d) == [-1, -1, 1, -1, 2, 2]

    def test_lru_cache_basic(self):
        c = LruCache(2)
        assert not c.access("a")
        assert not c.access("b")
        assert c.access("a")
        assert not c.access("c")  # evicts b
        assert not c.access("b")

    def test_lru_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=300), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_stack_distance_equals_lru_property(self, keys, cap):
        """LRU hit <=> stack distance < capacity (the classic theorem)."""
        d = stack_distances(keys)
        c = LruCache(cap)
        for k, dist in zip(keys, d):
            hit = c.access(k)
            assert hit == (0 <= dist < cap)

    def test_smooth_hit_fraction_shape(self):
        cap = 1000.0
        assert smooth_hit_fraction(0.0, cap) == 1.0
        assert smooth_hit_fraction(400.0, cap) == 1.0
        assert smooth_hit_fraction(5000.0, cap) == 0.0
        mid = smooth_hit_fraction(1000.0, cap)
        assert 0.0 < mid < 1.0
        # monotone decreasing
        xs = np.linspace(0, 3000, 50)
        fr = [smooth_hit_fraction(x, cap) for x in xs]
        assert all(a >= b for a, b in zip(fr, fr[1:]))


class TestDataMovement:
    def _dm(self, variant, spec, ncells=256_000, bounds=None):
        v = get_variant(variant)
        program = record_kernel_trace(variant)
        alloc = allocate_registers(spec, v, bounds or default_launch_bounds(v.mode))
        occ = compute_occupancy(spec, alloc, ncells)
        return measure_data_movement(program, spec, occ, ncells)

    @pytest.mark.parametrize("spec", [A100, MI250X_GCD], ids=lambda s: s.name)
    @pytest.mark.parametrize("mode", ["jacobian", "residual"])
    def test_measured_at_least_theoretical(self, spec, mode):
        th = theoretical_minimum(f"optimized-{mode}", 256_000)
        for impl in ("baseline", "optimized"):
            dm = self._dm(f"{impl}-{mode}", spec)
            assert dm.total_bytes >= th.total_bytes * 0.999

    @pytest.mark.parametrize("spec", [A100, MI250X_GCD], ids=lambda s: s.name)
    def test_optimized_moves_less_than_baseline(self, spec):
        """Cache-model traffic: optimized <= baseline, strictly for Jacobian.

        On the MI250X the optimized kernels are run at the paper's tuned
        LaunchBounds (Table III quotes the tuned times); the default
        bounds force the tight register allocation whose scratch spill is
        accounted separately in the timing model, not here.
        """
        tuned = LaunchBounds(128, 2) if spec.vendor == "amd" else None
        for mode in ("jacobian", "residual"):
            b = self._dm(f"baseline-{mode}", spec)
            o = self._dm(f"optimized-{mode}", spec, bounds=tuned)
            assert o.total_bytes <= b.total_bytes * (1 + 1e-12)
        bj = self._dm("baseline-jacobian", spec)
        oj = self._dm("optimized-jacobian", spec, bounds=tuned)
        assert oj.total_bytes < bj.total_bytes

    def test_traffic_scales_linearly_with_cells(self):
        a = self._dm("optimized-residual", A100, ncells=64_000)
        b = self._dm("optimized-residual", A100, ncells=128_000)
        assert b.total_bytes == pytest.approx(2 * a.total_bytes, rel=1e-6)

    def test_rmw_fraction_baseline_high_optimized_zero(self):
        b = self._dm("baseline-residual", A100)
        o = self._dm("optimized-residual", A100)
        assert b.rmw_fraction > 0.5
        assert o.rmw_fraction == 0.0

    def test_rocprof_formula_close_to_total(self):
        dm = self._dm("baseline-jacobian", MI250X_GCD)
        assert dm.rocprof_formula_bytes() == pytest.approx(dm.total_bytes, rel=0.01)

    @pytest.mark.parametrize("spec", [A100, MI250X_GCD], ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "variant",
        ["baseline-jacobian", "optimized-jacobian", "baseline-residual", "optimized-residual"],
    )
    def test_rocprof_formula_reconciles_exactly(self, spec, variant):
        """Requests round up per warp and bytes are 64 B per request, so
        the appendix TCC_EA formula reproduces the modeled bytes exactly
        (truncating ``int(total/64)`` used to lose up to 126 B)."""
        dm = self._dm(variant, spec, ncells=100_003)  # non-round warp count
        assert dm.rocprof_formula_bytes() == dm.total_bytes
        assert dm.read_requests % dm.num_warps == 0
        assert dm.write_requests % dm.num_warps == 0
        assert 64.0 * dm.read_requests >= dm.per_warp_read_bytes * dm.num_warps
        assert 64.0 * dm.write_requests >= dm.per_warp_write_bytes * dm.num_warps

    def test_invalid_cells(self):
        with pytest.raises(ValueError):
            self._dm("optimized-residual", A100, ncells=0)


class TestRegisters:
    """The CDNA2 allocator must reproduce all ten Table II cells."""

    TABLE2_JAC = {  # bounds str -> (arch, accum)
        "default": (128, 0),
        "128,2": (128, 128),
        "128,4": (128, 0),
        "256,2": (128, 128),
        "1024,2": (128, 0),
    }
    TABLE2_RES = {
        "default": (84, 4),
        "128,2": (128, 0),
        "128,4": (84, 4),
        "256,2": (128, 0),
        "1024,2": (84, 4),
    }

    @pytest.mark.parametrize("mode,table", [("jacobian", TABLE2_JAC), ("residual", TABLE2_RES)])
    def test_table2_vgprs(self, mode, table):
        v = get_variant(f"optimized-{mode}")
        for lb in TABLE2_LAUNCH_CONFIGS:
            eff = lb if lb.explicit else default_launch_bounds(mode)
            alloc = allocate_registers(MI250X_GCD, v, eff)
            assert (alloc.arch_vgprs, alloc.accum_vgprs) == table[str(lb)], str(lb)

    def test_jacobian_tight_spills_to_scratch(self):
        v = get_variant("optimized-jacobian")
        alloc = allocate_registers(MI250X_GCD, v, default_launch_bounds("jacobian"))
        assert alloc.scratch_bytes > 0
        alloc2 = allocate_registers(MI250X_GCD, v, LaunchBounds(128, 2))
        assert alloc2.scratch_bytes == 0

    def test_nvidia_ignores_min_blocks(self):
        v = get_variant("optimized-jacobian")
        a = allocate_registers(A100, v, LaunchBounds(128, 1))
        b = allocate_registers(A100, v, LaunchBounds(128, 4))
        assert a.arch_vgprs == b.arch_vgprs == v.cuda_regs
        assert a.max_warps_per_cu == b.max_warps_per_cu

    def test_nvidia_default_block_128(self):
        v = get_variant("optimized-residual")
        alloc = allocate_registers(A100, v, default_launch_bounds("residual"))
        assert alloc.threads_per_block == 128  # paper: CUDA default block


class TestOccupancyAndBandwidth:
    def test_occupancy_fraction_bounds(self):
        for spec in ALL_GPUS.values():
            for key in ("baseline-residual", "optimized-jacobian"):
                v = get_variant(key)
                alloc = allocate_registers(spec, v, default_launch_bounds(v.mode))
                occ = compute_occupancy(spec, alloc, 256_000)
                assert 0.0 < occ.fraction <= 1.0
                assert 0.0 < occ.tail_efficiency <= 1.0

    def test_tail_efficiency_exact_fit(self):
        v = get_variant("optimized-residual")
        alloc = allocate_registers(A100, v, LaunchBounds(128, 1))
        occ_small = compute_occupancy(A100, alloc, 128)  # one block
        assert occ_small.num_blocks == 1

    def test_bandwidth_monotone_in_occupancy(self):
        fr = [achieved_bandwidth_fraction(A100, o) for o in (0.05, 0.2, 0.5, 1.0)]
        assert all(a < b for a, b in zip(fr, fr[1:]))
        assert fr[-1] <= A100.bw_max_fraction

    def test_rmw_penalty_reduces_bandwidth(self):
        a = achieved_bandwidth_fraction(A100, 0.5, rmw_fraction=0.0)
        b = achieved_bandwidth_fraction(A100, 0.5, rmw_fraction=0.9)
        assert b < a

    def test_bandwidth_input_validation(self):
        with pytest.raises(ValueError):
            achieved_bandwidth_fraction(A100, 1.5)
        with pytest.raises(ValueError):
            achieved_bandwidth_fraction(A100, 0.5, rmw_fraction=2.0)


class TestOccupancyValidation:
    def _alloc(self, tpb):
        from repro.gpusim.registers import Allocation

        return Allocation(
            arch_vgprs=128,
            accum_vgprs=0,
            scratch_bytes=0,
            issue_penalty=1.0,
            profile="tight",
            threads_per_block=tpb,
            max_warps_per_cu=32.0,
        )

    @pytest.mark.parametrize("spec", [A100, MI250X_GCD], ids=lambda s: s.name)
    def test_oversized_block_rejected(self, spec):
        """threads_per_block beyond the CU limit is unlaunchable on real
        hardware; it used to be silently clamped and simulated anyway."""
        with pytest.raises(ValueError, match="cannot run on real hardware"):
            compute_occupancy(spec, self._alloc(spec.max_threads_per_cu + 1), 256_000)

    @pytest.mark.parametrize("spec", [A100, MI250X_GCD], ids=lambda s: s.name)
    def test_limit_block_accepted(self, spec):
        occ = compute_occupancy(spec, self._alloc(spec.max_threads_per_cu), 256_000)
        assert occ.threads_per_block == spec.max_threads_per_cu


class TestKernelProfilePeakBandwidth:
    def test_peak_bandwidth_is_required(self):
        import dataclasses

        from repro.gpusim.simulator import KernelProfile

        p = GPUSimulator(A100).run("optimized-residual")
        assert p.peak_bandwidth == A100.hbm_bytes_per_s
        kwargs = {
            f.name: getattr(p, f.name)
            for f in dataclasses.fields(p)
            if f.name != "peak_bandwidth"
        }
        with pytest.raises(TypeError):
            KernelProfile(**kwargs)

    def test_zero_peak_bandwidth_rejected(self):
        import dataclasses

        p = GPUSimulator(A100).run("optimized-residual")
        with pytest.raises(ValueError, match="peak_bandwidth"):
            dataclasses.replace(p, peak_bandwidth=0.0)

    def test_bandwidth_fraction_well_defined(self):
        p = GPUSimulator(MI250X_GCD).run("baseline-jacobian")
        assert p.bandwidth_fraction_of_peak == pytest.approx(
            (p.hbm_bytes / p.time_s) / MI250X_GCD.hbm_bytes_per_s
        )
        assert 0.0 < p.bandwidth_fraction_of_peak <= 1.0


class TestSimulator:
    @pytest.mark.parametrize("spec", [A100, MI250X_GCD], ids=lambda s: s.name)
    def test_optimized_faster_than_baseline(self, spec):
        sim = GPUSimulator(spec)
        for mode in ("jacobian", "residual"):
            b = sim.run(f"baseline-{mode}")
            o = sim.run(f"optimized-{mode}")
            assert 1.5 < b.time_s / o.time_s < 6.0

    def test_jacobian_slower_than_residual(self):
        sim = GPUSimulator(A100)
        j = sim.run("optimized-jacobian")
        r = sim.run("optimized-residual")
        assert j.time_s > 5 * r.time_s

    def test_profile_fields_consistent(self):
        sim = GPUSimulator(A100)
        p = sim.run("optimized-jacobian")
        assert p.arithmetic_intensity == pytest.approx(p.flops / p.hbm_bytes)
        assert p.gflops_per_s == pytest.approx(p.flops / p.time_s / 1e9)
        assert 0 < p.bandwidth_fraction_of_peak <= 1.0

    def test_determinism(self):
        sim = GPUSimulator(MI250X_GCD)
        a = sim.run("baseline-jacobian")
        b = sim.run("baseline-jacobian")
        assert a.time_s == b.time_s
        assert a.hbm_bytes == b.hbm_bytes

    def test_problem_size_validation(self):
        with pytest.raises(ValueError):
            ProblemSize(0)
        assert ANTARCTICA_16KM.num_cells == 256_000

    def test_time_respects_architectural_bound(self):
        """No kernel may run faster than its bytes at peak bandwidth."""
        for spec in ALL_GPUS.values():
            sim = GPUSimulator(spec)
            for key in ("baseline-jacobian", "optimized-jacobian", "optimized-residual"):
                p = sim.run(key)
                assert p.time_s >= p.hbm_bytes / spec.hbm_bytes_per_s * 0.999
