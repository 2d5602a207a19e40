"""Integration tests for the fused residual+Jacobian evaluation.

The solve has one evaluate path: each Newton step calls
``residual_and_jacobian`` once and line-search trials call ``residual``.
The separate ``residual()``/``jacobian()`` sweeps survive as the
reference the fused sweep is held against -- bitwise, because the value
component of the Fad arithmetic *is* the double arithmetic -- and a full
solve performs exactly one jacobian-mode DAG sweep per accepted step
plus one residual-only sweep per line-search trial, with no initial
residual-only sweep.

Nothing here pins ``operator_mode``: the file runs under
``REPRO_OPERATOR_MODE=matrix-free`` too.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig

SMALL = AntarcticaConfig(resolution_km=400.0, num_layers=3)


def _problem(**velocity_kwargs):
    cfg = replace(SMALL, velocity=replace(VelocityConfig(), **velocity_kwargs))
    return AntarcticaTest.build(cfg)


def _state(p, seed):
    u = np.random.default_rng(seed).normal(size=p.dofmap.num_dofs) * 10.0
    u[p.bc_dofs] = 0.0
    return u


class TestFusedEvaluation:
    @pytest.mark.parametrize("impl", ["baseline", "optimized"])
    def test_fused_residual_matches_residual_mode(self, impl):
        p = _problem(kernel_impl=impl).problem
        u = _state(p, 3)
        f_fused, _ = p.residual_and_jacobian(u)
        assert np.array_equal(f_fused, p.residual(u))

    def test_fused_jacobian_matches_jacobian_mode(self):
        p = _problem().problem
        u = _state(p, 4)
        _, A_fused = p.residual_and_jacobian(u)
        A_plain = p.jacobian(u)
        assert type(A_fused) is type(A_plain)
        # the stored numbers: CSR data or matrix-free element blocks
        store = "local_jac" if hasattr(A_plain, "local_jac") else "data"
        assert np.array_equal(getattr(A_fused, store), getattr(A_plain, store))
        v = np.cos(np.arange(A_plain.shape[1], dtype=np.float64))
        assert np.array_equal(A_fused.matvec(v), A_plain.matvec(v))

    def test_zero_velocity_consistency(self):
        p = _problem().problem
        u0 = np.zeros(p.dofmap.num_dofs)
        f_fused, _ = p.residual_and_jacobian(u0)
        assert np.array_equal(f_fused, p.residual(u0))


class TestGeometryOperands:
    """What a sweep slices and only geometry can change -- the packed
    ``[wGradBF | wBF]`` GEMM operand, the ``grad_bf`` layout of the
    expansion -- is rebuilt in one place, ``_geometry_numeric_setup``,
    and shared read-only."""

    @pytest.mark.parametrize("operator_mode", ["assembled", "matrix-free"])
    def test_refresh_leaves_no_stale_operand(self, operator_mode):
        """G1, evaluate, G2 gives what a fresh problem taken straight to
        G2 gives: bitwise, vector and stored operator numbers."""
        Ma, Mb, f1 = self._refreshed_setups(operator_mode, "mdsc")
        assert np.array_equal(Ma.smoother.inv_blocks, Mb.smoother.inv_blocks)
        assert Ma.smoother.omega == Mb.smoother.omega
        assert np.array_equal(Ma.apply(f1), Mb.apply(f1))

    @pytest.mark.parametrize("operator_mode", ["assembled", "matrix-free"])
    def test_refresh_leaves_no_stale_default_preconditioner(self, operator_mode):
        """The same for the default, where the line smoother is the
        whole preconditioner."""
        Ma, Mb, f1 = self._refreshed_setups(operator_mode, "vline")
        assert np.array_equal(Ma.inv_blocks, Mb.inv_blocks)
        assert Ma.omega == Mb.omega
        assert np.array_equal(Ma.apply(f1), Mb.apply(f1))

    @staticmethod
    def _refreshed_setups(operator_mode, preconditioner):
        """``(stale set-up, fresh set-up, G1 residual)``: one problem
        refreshed G1 -> evaluate and set up -> G2, the other built and
        taken straight to G2, both set up on their G2 operators."""
        stale, fresh = (
            _problem(operator_mode=operator_mode, preconditioner=preconditioner).problem
            for _ in range(2)
        )
        h0, bed = stale.mesh.thickness2d.copy(), stale.mesh.bed2d.copy()
        u = _state(stale, 5)
        stale.refresh_geometry(0.9 * h0, bed + 0.9 * h0)
        f1, A1 = stale.residual_and_jacobian(u)
        stale._build_preconditioner(A1)
        symbolic = stale.mdsc_symbolic
        for p in (stale, fresh):
            p.refresh_geometry(0.8 * h0, bed + 0.8 * h0)
        (fa, Aa), (fb, Ab) = (p.residual_and_jacobian(u) for p in (stale, fresh))
        assert not np.array_equal(f1, fa)
        assert np.array_equal(fa, fb)
        store = "local_jac" if operator_mode == "matrix-free" else "data"
        assert np.array_equal(getattr(Aa, store), getattr(Ab, store))
        # the MDSC set-up's symbolic half is topology: kept by identity,
        # and the numeric refresh on it is a fresh problem's set-up
        Ma, Mb = stale._build_preconditioner(Aa), fresh._build_preconditioner(Ab)
        assert stale.mdsc_symbolic is symbolic and fresh.mdsc_symbolic is not symbolic
        return Ma, Mb, f1

    def test_a_write_through_a_workset_slice_raises(self):
        """The sliced arrays belong to a problem ``ArtifactCache`` hands to
        every request on its digest: an evaluator writing into an input
        must fail loudly, not corrupt the next sweep."""
        p = _problem().problem
        _, _, ws = next(p._worksets(_state(p, 6), "jacobian"))
        # ``grad_bf`` is also the lowering's qp-seed operand (laid out per pass)
        shared = ("w_bf", "w_grad_bf", "grad_bf", "glen_prefactor_qp", "force_qp",
                  "w_packed", "basal_bf")
        for name in shared:
            a = getattr(ws, name)
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        for a in (p.basal_beta_qp, p.basal_block, p.face_basis.w_bf, p.basis.w_bf, p.basis.w_grad_bf):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ws.fields["Ugrad"].dx[...] = 0.0

    @pytest.mark.parametrize("footprint,nn", [("quad", 8), ("voronoi", 6)])
    def test_only_the_residual_is_nodal_wide(self, footprint, nn):
        """After a Jacobian-mode sweep: nothing between the interpolation
        and the kernel carries more than the 6 qp derivative components;
        ``Residual`` is the one ``SFad(2 nn)`` field."""
        from repro.autodiff.sfad import is_fad

        p = AntarcticaTest.build(replace(SMALL, footprint=footprint)).problem
        _, _, ws = next(p._worksets(_state(p, 7), "jacobian"))
        widths = {k: f.num_derivs for k, f in ws.fields.items() if is_fad(f)}
        assert widths == {"Ugrad": 6, "mu": 6, "Residual": 2 * nn, "ResidualWithFriction": 2 * nn}
        assert ws.fields["ResidualWithFriction"] is ws.fields["Residual"]
        assert ws.out_jacobian.shape[1:] == (2 * nn, 2 * nn)


class TestSweepAccounting:
    def _check(self, test):
        sol = test.run()
        newton = sol.newton
        trials = sum(
            int(round(np.log2(1.0 / alpha))) + 1 for alpha in newton.step_lengths
        )
        sweeps = sol.diagnostics["eval_sweeps"]
        assert sweeps == {"jacobian": newton.iterations, "residual": trials}
        assert newton.num_jacobian_evals == newton.iterations
        assert newton.num_residual_evals == trials
        return sweeps

    def test_one_sweep_per_step_plus_trials(self):
        """Jacobian sweeps == accepted steps, residual sweeps ==
        line-search trials: the initial evaluation is the step-0
        jacobian sweep, never a residual-only one."""
        test = _problem()
        sweeps = self._check(test)
        # the plan built exactly one operator per jacobian sweep
        plan = test.problem.plan
        assert plan.num_matrix_fills + plan.num_operator_wraps == sweeps["jacobian"]

    def test_one_sweep_per_step_plus_trials_spmd(self):
        self._check(_problem(nparts=2))

    def test_fused_and_unfused_solutions_match(self):
        """A solve whose per-step evaluation runs the two separate
        sweeps lands on the bitwise-identical solution (and pays one
        residual-mode sweep per step for it)."""
        fused = _problem().run()
        sep = _problem()
        p = sep.problem
        p.residual_and_jacobian = lambda u: (p.residual(u), p.jacobian(u))
        unfused = sep.run()
        assert np.array_equal(unfused.u, fused.u)
        assert unfused.newton.linear_iterations == fused.newton.linear_iterations
        extra = unfused.diagnostics["eval_sweeps"]["residual"] - fused.diagnostics["eval_sweeps"]["residual"]
        assert extra == fused.newton.iterations


class TestPhaseDiagnostics:
    def test_phase_breakdown_present_and_sane(self):
        sol = _problem().run()
        d = sol.diagnostics
        assert "fused_assembly" not in d
        assert set(d["phase_seconds"]) == {"evaluate", "scatter", "preconditioner", "gmres"}
        assert all(v >= 0.0 for v in d["phase_seconds"].values())
        assert sum(d["phase_seconds"].values()) <= d["solve_seconds"] * 1.05
        assert d["newton_steps_per_s"] > 0.0

    def test_invalid_config_rejected(self):
        # fusion is how the solve evaluates, not a setting
        with pytest.raises(TypeError):
            VelocityConfig(fused_assembly=True)
