"""Tests for viscosity, evaluator DAG, and Fad-aware interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import SFad
from repro.constants import GLEN_A_DEFAULT, RHO_G_KPA
from repro.physics import (
    effective_strain_rate_squared,
    glen_viscosity,
    flow_factor_arrhenius,
    FieldManager,
    Workset,
    GatherSolution,
    DOFVecGradInterpolation,
    ViscosityFOEvaluator,
    BodyForceEvaluator,
    StokesFOResidEvaluator,
    BasalFrictionResidEvaluator,
    ScatterResidual,
    build_stokes_field_manager,
)
from repro.autodiff.sfad import is_fad
from repro.core import lowering
from repro.core.lowering import expand_qp_seed, qp_seed_operand
from repro.physics.evaluators import (
    _interp_grad_values,
    _interp_value,
    _nodal_fad,
    basal_jacobian_block,
)
from repro.physics.viscosity import glen_prefactor


class TestViscosity:
    def test_positive(self):
        rng = np.random.default_rng(0)
        comps = rng.normal(size=(6, 30)) * 1e-3
        mu = glen_viscosity(effective_strain_rate_squared(*comps))
        assert np.all(mu > 0)

    def test_shear_thinning(self):
        """Higher strain rate -> lower viscosity (n=3 shear thinning)."""
        mu_slow = glen_viscosity(np.array([1e-8]))
        mu_fast = glen_viscosity(np.array([1e-2]))
        assert mu_fast < mu_slow

    def test_strain_rate_invariant_nonnegative(self):
        rng = np.random.default_rng(1)
        comps = rng.normal(size=(6, 200))
        assert np.all(effective_strain_rate_squared(*comps) >= 0.0)

    @given(st.floats(min_value=-1e-2, max_value=1e-2), st.floats(min_value=-1e-2, max_value=1e-2))
    @settings(max_examples=40, deadline=None)
    def test_invariant_nonnegative_property(self, a, b):
        val = effective_strain_rate_squared(a, b, 0.0, -b, a, 0.0)
        assert val >= 0.0

    def test_fad_propagates(self):
        x = SFad(1).independent(np.array([1e-3]), 0)
        eps_sq = effective_strain_rate_squared(x, 0.0, 0.0, 0.0, 0.0, 0.0)
        mu = glen_viscosity(eps_sq)
        # d mu / d ux < 0 at positive ux (shear thinning)
        assert mu.dx[0, 0] < 0.0

    def test_bad_flow_factor(self):
        with pytest.raises(ValueError):
            glen_viscosity(np.array([1.0]), flow_factor=-1.0)

    def test_arrhenius_monotone(self):
        t = np.array([230.0, 250.0, 263.15, 270.0])
        a = flow_factor_arrhenius(t)
        assert np.all(np.diff(a) > 0)  # warmer ice deforms faster
        assert np.isclose(a[2], GLEN_A_DEFAULT)
        with pytest.raises(ValueError):
            flow_factor_arrhenius(np.array([-5.0]))


class TestInterp:
    def test_interp_grad_plain_matches_einsum(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(3, 8, 2))
        g = rng.normal(size=(3, 8, 4, 3))
        out = _interp_grad_values(U, g)
        assert np.allclose(out, np.einsum("cnk,cnqd->cqkd", U, g))

    def test_interp_grad_fad_derivatives(self):
        """The qp seed chained through ``grad_bf``: the derivative of
        Ugrad(c,q,k,d) w.r.t. local dof (n,k') is delta_kk' * g(c,n,q,d)."""
        ws = _make_workset("jacobian", nc=2, nq=4, seed=3)
        nn, g = ws.num_nodes, ws.grad_bf
        GatherSolution().evaluate(ws)
        DOFVecGradInterpolation().evaluate(ws)
        out = _nodal_fad(ws.fields["Ugrad"], qp_seed_operand(ws.grad_bf))
        assert type(out) is SFad(2 * nn)
        for c in range(2):
            for q in range(4):
                for d in range(3):
                    assert np.allclose(out.dx[c, q, 0, d].reshape(nn, 2)[:, 0], g[c, :, q, d])
                    assert np.allclose(out.dx[c, q, 0, d].reshape(nn, 2)[:, 1], 0.0)

    @pytest.mark.parametrize("nn,nq", [(8, 8), (6, 6)])
    def test_seeded_grad_interp_equals_einsum_bitwise(self, nn, nq):
        """``DOFVecGradInterpolation`` seeds ``Ugrad`` at the qp; expanded
        through ``grad_bf`` it must be what contracting an identity-seeded
        ``U`` against ``grad_bf`` returns."""
        ws = _make_workset("jacobian", nc=7, nn=nn, nq=nq, seed=6)
        GatherSolution().evaluate(ws)
        assert not is_fad(ws.fields["U"])
        DOFVecGradInterpolation().evaluate(ws)
        got = ws.fields["Ugrad"]
        assert type(got) is SFad(6)
        assert np.array_equal(got.val, _interp_grad_values(ws.fields["U"], ws.grad_bf))
        identity = np.eye(2 * nn).reshape(nn, 2, 2 * nn)
        ref = np.einsum("cnkf,cnqd->cqkdf", np.broadcast_to(identity, (7, nn, 2, 2 * nn)), ws.grad_bf)
        seed = qp_seed_operand(ws.grad_bf)
        assert np.array_equal(_nodal_fad(got, seed).dx, ref)
        # the late form the lowering uses is the same numbers, (k'', m)-major
        late = expand_qp_seed(got.dx, seed)
        assert np.array_equal(late.swapaxes(-1, -2).reshape(ref.shape), ref)

    def test_identity_mark_cannot_go_stale(self):
        """Every Jacobian-mode ``Ugrad`` broadcasts one shared seed block:
        it is frozen, and anything derived from it owns its derivatives."""
        ws = _make_workset("jacobian", nc=3, seed=7)
        GatherSolution().evaluate(ws)
        DOFVecGradInterpolation().evaluate(ws)
        g = ws.fields["Ugrad"]
        assert g.dx.strides[:2] == (0, 0)  # nothing allocated per (cell, qp)
        with pytest.raises(ValueError):
            g.dx[0, 0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            g[0] = 0.0
        with pytest.raises(ValueError):
            lowering.QP_SEED[0, 0, 0] = 2.0
        scaled = 2.0 * g
        scaled.dx[0, 0, 0, 0, 0] = 5.0  # a derived array is its own storage
        assert np.array_equal(g.dx[0, 0].reshape(6, 6), np.eye(6))

    def test_interp_value(self):
        rng = np.random.default_rng(4)
        U = rng.normal(size=(2, 4, 2))
        bf = rng.normal(size=(3, 4))  # (nq, nn)
        out = _interp_value(U, bf)
        assert np.allclose(out, np.einsum("cnk,qn->cqk", U, bf))


def _make_workset(mode="residual", nc=5, nn=8, nq=8, seed=0, with_basal=False):
    rng = np.random.default_rng(seed)
    ws = Workset(
        mode=mode,
        solution_local=rng.normal(size=(nc, nn, 2)) * 10.0,
        w_bf=rng.uniform(0.5, 1.0, size=(nc, nn, nq)),
        w_grad_bf=rng.normal(size=(nc, nn, nq, 3)) * 1e-3,
        grad_bf=rng.normal(size=(nc, nn, nq, 3)) * 1e-3,
        glen_prefactor_qp=np.full((nc, nq), glen_prefactor(GLEN_A_DEFAULT)),
        force_qp=RHO_G_KPA * rng.normal(size=(nc, nq, 2)) * 1e-3,
    )
    if with_basal:
        nnf, nqf = 4, 4
        ws.basal_cells = np.array([0, 2]) if nc > 2 else np.array([0])
        nb = len(ws.basal_cells)
        ws.basal_w_bf = rng.uniform(0.5, 1.0, size=(nb, nnf, nqf))
        ws.basal_beta_qp = rng.uniform(1.0, 10.0, size=(nb, nqf))
        ws.basal_bf = rng.uniform(0.0, 1.0, size=(nqf, nnf))
        ws.basal_block = basal_jacobian_block(ws.basal_beta_qp, ws.basal_w_bf, ws.basal_bf)
    return ws


class TestFieldManager:
    def test_toposort_orders_dependencies(self):
        fm = build_stokes_field_manager("optimized")
        names = [type(e).__name__ for e in fm.evaluators]
        assert names.index("GatherSolution") < names.index("DOFVecGradInterpolation")
        assert names.index("DOFVecGradInterpolation") < names.index("ViscosityFOEvaluator")
        assert names.index("StokesFOResidEvaluator") < names.index("ScatterResidual")

    def test_duplicate_provider_rejected(self):
        with pytest.raises(ValueError):
            FieldManager([GatherSolution(), GatherSolution()])

    def test_missing_field_detected(self):
        fm = FieldManager([DOFVecGradInterpolation()])
        ws = _make_workset()
        with pytest.raises(KeyError):
            fm.evaluate(ws)

    def test_residual_pipeline_runs(self):
        fm = build_stokes_field_manager("optimized")
        ws = fm.evaluate(_make_workset("residual"))
        assert ws.out_residual is not None
        assert ws.out_residual.shape == (5, 16)
        assert ws.out_jacobian is None
        assert np.all(np.isfinite(ws.out_residual))

    def test_jacobian_pipeline_runs(self):
        fm = build_stokes_field_manager("optimized")
        ws = fm.evaluate(_make_workset("jacobian"))
        assert ws.out_jacobian is not None
        assert ws.out_jacobian.shape == (5, 16, 16)
        assert np.all(np.isfinite(ws.out_jacobian))

    def test_jacobian_matches_finite_difference(self):
        """The SFad Jacobian equals the FD Jacobian of the residual pipeline."""
        fm = build_stokes_field_manager("optimized")
        ws = fm.evaluate(_make_workset("jacobian", nc=2, seed=5, with_basal=True))
        jac_ad = ws.out_jacobian

        base = _make_workset("residual", nc=2, seed=5, with_basal=True)
        u0 = base.solution_local.copy()
        eps = 1.0e-4

        def resid(u_local):
            w = _make_workset("residual", nc=2, seed=5, with_basal=True)
            w.solution_local = u_local
            return fm.evaluate(w).out_residual

        for j in range(16):
            du = np.zeros_like(u0)
            du.reshape(2, 16)[:, j] = eps
            fd = (resid(u0 + du) - resid(u0 - du)) / (2 * eps)
            assert np.allclose(jac_ad[:, :, j], fd, rtol=2e-4, atol=1e-7), f"dof {j}"

    def test_baseline_and_optimized_pipelines_agree(self):
        for mode in ("residual", "jacobian"):
            ws_b = build_stokes_field_manager("baseline").evaluate(_make_workset(mode, seed=7))
            ws_o = build_stokes_field_manager("optimized").evaluate(_make_workset(mode, seed=7))
            assert np.allclose(ws_b.out_residual, ws_o.out_residual, rtol=1e-12, atol=1e-12)
            if mode == "jacobian":
                assert np.allclose(ws_b.out_jacobian, ws_o.out_jacobian, rtol=1e-12, atol=1e-12)

    def test_basal_friction_adds_to_bottom_nodes_only(self):
        fm = build_stokes_field_manager("optimized")
        ws_nof = fm.evaluate(_make_workset("residual", seed=9, with_basal=False))
        ws_f = fm.evaluate(_make_workset("residual", seed=9, with_basal=True))
        diff = (ws_f.out_residual - ws_nof.out_residual).reshape(5, 8, 2)
        # only basal cells 0 and 2, nodes 0..3 changed
        assert np.allclose(diff[[1, 3, 4]], 0.0)
        assert np.any(diff[0, :4] != 0.0)
        assert np.allclose(diff[0, 4:], 0.0)

    def test_force_scales_with_surface_gradient(self):
        fm = build_stokes_field_manager("optimized")
        ws = _make_workset("residual", seed=11)
        ws.force_qp = np.zeros_like(ws.force_qp)
        r0 = fm.evaluate(ws).out_residual
        ws2 = _make_workset("residual", seed=11)
        ws2.force_qp = np.ones_like(ws2.force_qp) * RHO_G_KPA * 1e-3
        r1 = fm.evaluate(ws2).out_residual
        assert not np.allclose(r0, r1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            _make_workset("hessian")
        with pytest.raises(ValueError):
            StokesFOResidEvaluator(impl="superoptimized")
