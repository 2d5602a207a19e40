"""Tests for the StokesFOResid kernel variants (the paper's Fig. 2)."""

import numpy as np
import pytest

from repro.core import (
    StokesFOResidBaseline,
    StokesFOResidOptimized,
    make_stokes_fields,
    run_kernel,
    local_residual_blocks,
    local_jacobian_blocks,
    get_variant,
    variant_names,
    TABLE2_LAUNCH_CONFIGS,
    default_launch_bounds,
    JACOBIAN_FAD_SIZE,
)
from repro.core.fields import TraceFields
from repro.core.lowering import StokesFOResidHostLowering
from repro.autodiff.sfad import SFad
from repro.kokkos.parallel import parallel_for
from repro.kokkos.policy import RangePolicy
from repro.kokkos.space import HostSerial, HostVector


def _fill_fields(fields, seed=0):
    """Populate kernel inputs with deterministic plausible data."""
    rng = np.random.default_rng(seed)
    nc, nq = fields.num_cells, fields.num_qps
    nn = fields.num_nodes

    def setv(view, arr):
        if view.scalar.is_fad:
            view.data.val[...] = arr
            # give inputs nonzero derivative content so the Jacobian path
            # is exercised end to end
            view.data.dx[...] = rng.normal(size=arr.shape + (view.scalar.fad_dim,)) * 0.01
        else:
            view.data[...] = arr

    setv(fields.Ugrad, rng.normal(size=(nc, nq, 2, 3)) * 1e-3)
    setv(fields.muLandIce, rng.uniform(1e3, 1e5, size=(nc, nq)))
    setv(fields.force, rng.normal(size=(nc, nq, 2)) * 10.0)
    fields.wBF.data[...] = rng.uniform(0.1, 1.0, size=(nc, nn, nq))
    fields.wGradBF.data[...] = rng.normal(size=(nc, nn, nq, 3)) * 1e-3
    return fields


class TestNumericEquivalence:
    @pytest.mark.parametrize("mode", ["residual", "jacobian"])
    def test_baseline_equals_optimized(self, mode):
        fb = _fill_fields(make_stokes_fields(6, mode=mode), seed=1)
        fo = _fill_fields(make_stokes_fields(6, mode=mode), seed=1)
        run_kernel(f"baseline-{mode}", fb)
        run_kernel(f"optimized-{mode}", fo)
        assert np.allclose(fb.Residual.values(), fo.Residual.values(), rtol=1e-12)
        if mode == "jacobian":
            assert np.allclose(fb.Residual.data.dx, fo.Residual.data.dx, rtol=1e-12)

    @pytest.mark.parametrize("variant", ["baseline-residual", "optimized-residual"])
    def test_vectorized_equals_serial(self, variant):
        fv = _fill_fields(make_stokes_fields(4), seed=2)
        fs = _fill_fields(make_stokes_fields(4), seed=2)
        run_kernel(variant, fv)
        run_kernel(variant, fs, space=HostSerial())
        assert np.allclose(fv.Residual.values(), fs.Residual.values(), rtol=1e-12)

    def test_residual_formula_manual_check(self):
        """One cell, one qp worth of contributions checked by hand."""
        f = make_stokes_fields(1, num_nodes=8, num_qps=8)
        _fill_fields(f, seed=3)
        run_kernel("optimized-residual", f)
        ug = f.Ugrad.data
        mu = f.muLandIce.data
        frc = f.force.data
        expected = np.zeros((8, 2))
        for qp in range(8):
            m = mu[0, qp]
            s00 = 2 * m * (2 * ug[0, qp, 0, 0] + ug[0, qp, 1, 1])
            s11 = 2 * m * (2 * ug[0, qp, 1, 1] + ug[0, qp, 0, 0])
            s01 = m * (ug[0, qp, 1, 0] + ug[0, qp, 0, 1])
            s02 = m * ug[0, qp, 0, 2]
            s12 = m * ug[0, qp, 1, 2]
            for n in range(8):
                g = f.wGradBF.data[0, n, qp]
                w = f.wBF.data[0, n, qp]
                expected[n, 0] += s00 * g[0] + s01 * g[1] + s02 * g[2] + frc[0, qp, 0] * w
                expected[n, 1] += s01 * g[0] + s11 * g[1] + s12 * g[2] + frc[0, qp, 1] * w
        assert np.allclose(f.Residual.values()[0], expected, rtol=1e-12)

    def test_side_set_branch_changes_result(self):
        f1 = _fill_fields(make_stokes_fields(2), seed=4)
        f2 = _fill_fields(make_stokes_fields(2), seed=4)
        StokesFOResidBaseline(f1, side_set_equations=False)(slice(None))
        StokesFOResidBaseline(f2, side_set_equations=True)(slice(None))
        assert not np.allclose(f1.Residual.values(), f2.Residual.values())

    def test_mode_type_mismatch_rejected(self):
        f = make_stokes_fields(2, mode="residual")
        with pytest.raises(ValueError):
            run_kernel("baseline-jacobian", f)
        fj = make_stokes_fields(2, mode="jacobian")
        with pytest.raises(ValueError):
            run_kernel("baseline-residual", fj)


class TestLocalBlocks:
    def test_residual_block_layout(self):
        f = _fill_fields(make_stokes_fields(3), seed=5)
        run_kernel("optimized-residual", f)
        blocks = local_residual_blocks(f)
        assert blocks.shape == (3, 16)
        # node-major layout: block[:, 2*n + c] == Residual[:, n, c]
        assert np.allclose(blocks[:, 2 * 3 + 1], f.Residual.values()[:, 3, 1])

    def test_jacobian_blocks_shape(self):
        f = _fill_fields(make_stokes_fields(3, mode="jacobian"), seed=6)
        run_kernel("optimized-jacobian", f)
        jac = local_jacobian_blocks(f)
        assert jac.shape == (3, 16, 16)

    def test_jacobian_blocks_require_fad(self):
        f = make_stokes_fields(2, mode="residual")
        with pytest.raises(ValueError):
            local_jacobian_blocks(f)


class TestVariantsRegistry:
    def test_variant_registry(self):
        names = variant_names()
        # the paper's 2x2 evaluation matrix plus the fusion-only ablation
        for key in (
            "baseline-jacobian",
            "baseline-residual",
            "optimized-jacobian",
            "optimized-residual",
            "fused-jacobian",
            "fused-residual",
            "viscosity-residual",
            "viscosity-jacobian",
        ):
            assert key in names
        assert len(names) == 8

    def test_fused_only_matches_numerics(self):
        for mode in ("residual", "jacobian"):
            fb = _fill_fields(make_stokes_fields(4, mode=mode), seed=8)
            ff = _fill_fields(make_stokes_fields(4, mode=mode), seed=8)
            run_kernel(f"optimized-{mode}", fb)
            run_kernel(f"fused-{mode}", ff)
            assert np.allclose(fb.Residual.values(), ff.Residual.values(), rtol=1e-12)

    def test_metadata_flags(self):
        b = get_variant("baseline-jacobian")
        o = get_variant("optimized-jacobian")
        assert not b.fused and o.fused
        assert not b.local_accum and o.local_accum
        assert b.branch_in_kernel and not o.branch_in_kernel
        assert not b.compile_time_bounds and o.compile_time_bounds
        assert b.fad_dim == 16 and get_variant("baseline-residual").fad_dim == 0

    def test_register_profiles(self):
        o = get_variant("optimized-jacobian")
        assert o.profile_relaxed.total_vgprs == 256
        assert o.profile_tight.scratch_bytes > 0
        r = get_variant("optimized-residual")
        assert r.profile_relaxed.arch_vgprs == 128
        assert r.profile_tight.arch_vgprs == 84 and r.profile_tight.accum_vgprs == 4

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            get_variant("hyperoptimized-hessian")

    def test_table2_configs(self):
        assert len(TABLE2_LAUNCH_CONFIGS) == 5
        assert str(TABLE2_LAUNCH_CONFIGS[0]) == "default"
        assert str(TABLE2_LAUNCH_CONFIGS[1]) == "128,2"

    def test_default_launch_bounds(self):
        assert default_launch_bounds("jacobian").max_threads == 256
        assert default_launch_bounds("residual").max_threads == 1024
        with pytest.raises(ValueError):
            default_launch_bounds("gradient")


class TestTraceMode:
    """The same kernel body must yield sensible per-thread traces."""

    def _trace(self, variant_key, mode):
        fields = make_stokes_fields(16, mode=mode)
        tf = TraceFields(fields)
        v = get_variant(variant_key)
        v.make_functor(tf)(0)
        return tf.ctx

    def test_baseline_residual_counts(self):
        ctx = self._trace("baseline-residual", "residual")
        writes = [a for a in ctx.accesses if a.write]
        reads = [a for a in ctx.accesses if not a.write]
        # init: 16 writes; qp loop: 8*8*2 RMW writes; force loop: 8*8*2 writes
        assert len(writes) == 16 + 128 + 128
        # qp loop reads: 8*(7 + 8*(3+2)) ; force loop: 8*(2 + 8*(1+2))
        assert len([r for r in reads if r.view == "Residual"]) == 256

    def test_optimized_writes_residual_once(self):
        ctx = self._trace("optimized-residual", "residual")
        res_writes = [a for a in ctx.accesses if a.write and a.view == "Residual"]
        res_reads = [a for a in ctx.accesses if not a.write and a.view == "Residual"]
        assert len(res_writes) == 16
        assert len(res_reads) == 0

    def test_jacobian_trace_has_fad_components(self):
        ctx = self._trace("optimized-jacobian", "jacobian")
        ug = [a for a in ctx.accesses if a.view == "Ugrad"]
        assert all(a.components == JACOBIAN_FAD_SIZE + 1 for a in ug)
        # the basis views carry MeshScalarT, which is the Fad type in the
        # Jacobian evaluation (this is why the Jacobian moves ~17x the data)
        wg = [a for a in ctx.accesses if a.view == "wGradBF"]
        assert all(a.components == JACOBIAN_FAD_SIZE + 1 for a in wg)
        ctx_r = self._trace("optimized-residual", "residual")
        wr = [a for a in ctx_r.accesses if a.view == "wGradBF"]
        assert all(a.components == 1 for a in wr)

    def test_optimized_fewer_accesses_than_baseline(self):
        nb = len(self._trace("baseline-jacobian", "jacobian").accesses)
        no = len(self._trace("optimized-jacobian", "jacobian").accesses)
        assert no < nb

    def test_flops_comparable_between_variants(self):
        fb = self._trace("baseline-residual", "residual").flops
        fo = self._trace("optimized-residual", "residual").flops
        # same math modulo the removed re-initialization; within 20%
        assert abs(fb - fo) / fb < 0.2


class TestHostLowering:
    """The optimized variant's HostVector launch (batched GEMMs per cell,
    walked in 128-cell chunks) against the listing it lowers."""

    def test_dispatch_follows_the_execution_space(self):
        f = make_stokes_fields(2)
        for mode in ("residual", "jacobian"):
            v = get_variant(f"optimized-{mode}")
            assert isinstance(v.make_functor(f, HostVector()), StokesFOResidHostLowering)
            # the device program: what gpusim traces and HostSerial replays
            assert type(v.make_functor(f)) is StokesFOResidOptimized
            assert type(v.make_functor(f, HostSerial())) is StokesFOResidOptimized
        for key in ("baseline-jacobian", "fused-jacobian"):
            v = get_variant(key)
            assert type(v.make_functor(f, HostVector())) is v.functor_cls

    @pytest.mark.parametrize("nn,nq", [(8, 8), (6, 6)])
    @pytest.mark.parametrize("mode", ["residual", "jacobian"])
    def test_matches_listing_serial(self, mode, nn, nq):
        def make():
            return _fill_fields(make_stokes_fields(131, nn, nq, mode=mode), seed=12)

        fv, fs = make(), make()
        run_kernel(f"optimized-{mode}", fv)
        run_kernel(f"optimized-{mode}", fs, space=HostSerial())
        parts = [(fv.Residual.values(), fs.Residual.values())]
        if mode == "jacobian":
            parts.append((fv.Residual.data.dx, fs.Residual.data.dx))
        for got, ref in parts:
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("mode", ["residual", "jacobian"])
    def test_cell_blocks_do_not_depend_on_the_launch(self, mode):
        """Alone, in a range of 7, across a chunk boundary (129, 257) or
        in the full range: the same bits, for hexahedra and prisms, and in
        Jacobian mode through the qp-seeded path's expansion product too.
        SPMD == serial, degraded-rank and resume equality rest on this."""
        from repro.verify.oracles.kernels import _qp_seeded_pair

        num_cells = 300
        variant = get_variant(f"optimized-{mode}")
        makers = {}
        for nn, nq in ((8, 8), (6, 6)):
            makers[mode, nn] = lambda nn=nn, nq=nq: _fill_fields(
                make_stokes_fields(num_cells, nn, nq, mode=mode), seed=13
            )
            if mode == "jacobian":
                makers["qp-seeded", nn] = lambda nn=nn, nq=nq: _qp_seeded_pair(
                    nn, nq, num_cells, seed=13
                )[0]

        for form, make in makers.items():

            def launch(begin, end):
                f = make()
                parallel_for("t", RangePolicy(begin, end), variant.make_functor(f, HostVector()))
                return f.Residual.data

            full = launch(0, num_cells)
            for cell in (0, 127, 128, 256):
                ranges = [(cell, cell + 1), (0, 129), (0, 257)]
                ranges.append((max(0, cell - 3), max(0, cell - 3) + 7))
                for begin, end in ranges:
                    if not begin <= cell < end:
                        continue
                    part = launch(begin, end)
                    if mode == "jacobian":
                        assert np.array_equal(part.val[cell], full.val[cell]), (form, cell, begin, end)
                        assert np.array_equal(part.dx[cell], full.dx[cell]), (form, cell, begin, end)
                        assert np.any(full.dx[cell] != 0.0)
                    else:
                        assert np.array_equal(part[cell], full[cell]), (form, cell, begin, end)

    def test_jacobian_launch_returns_the_residual_launch_values(self):
        """The value product is the same call in both modes (what keeps
        ``fused-assembly-vs-separate`` bitwise)."""
        fj = _fill_fields(make_stokes_fields(140, mode="jacobian"), seed=14)
        fr = make_stokes_fields(140, mode="residual")
        for name in ("Ugrad", "muLandIce", "force"):
            getattr(fr, name).data[...] = getattr(fj, name).data.val
        fr.wBF.data[...] = fj.wBF.data
        fr.wGradBF.data[...] = fj.wGradBF.data
        run_kernel("optimized-jacobian", fj)
        run_kernel("optimized-residual", fr)
        assert np.array_equal(fj.Residual.values(), fr.Residual.values())
