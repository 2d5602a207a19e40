"""Integration tests: the full Antarctica velocity solve (Section III-B).

These exercise the entire stack end to end: synthetic geometry ->
masked quad footprint -> 3-D extrusion -> evaluator DAG with the paper's
kernels (SFad Jacobian) -> Newton + GMRES + MDSC preconditioning ->
mean-solution regression at relative tolerance 1e-5.
"""

import numpy as np
import pytest

from repro.app import (
    AntarcticaConfig,
    AntarcticaTest,
    VelocityConfig,
    run_antarctica_test,
)

# coarse configuration: fast enough for CI, still runs 8 Newton steps
COARSE = AntarcticaConfig(resolution_km=300.0, num_layers=5)


@pytest.fixture(scope="module")
def coarse_solution():
    test = AntarcticaTest.build(COARSE)
    sol = test.run()
    return test, sol


class TestAntarcticaSolve:
    def test_mesh_structure(self, coarse_solution):
        test, _ = coarse_solution
        assert test.mesh.elem_type == "hex8"
        assert test.mesh.nlayers == 5
        assert test.mesh.num_elems == test.mesh.footprint.num_elems * 5

    def test_newton_ran_eight_steps(self, coarse_solution):
        _, sol = coarse_solution
        assert sol.newton.iterations == 8

    def test_residual_reduced_many_orders(self, coarse_solution):
        _, sol = coarse_solution
        norms = sol.newton.residual_norms
        assert norms[-1] < 1.0e-4 * norms[0]

    def test_all_linear_solves_converged(self, coarse_solution):
        _, sol = coarse_solution
        # linear iteration counts recorded per step, all under budget
        assert len(sol.newton.linear_iterations) == 8
        assert set(sol.newton.linear_flags) == {"converged"}

    def test_velocities_physical(self, coarse_solution):
        """Ice flows outward at glaciologically plausible speeds."""
        test, sol = coarse_solution
        assert 1.0 < sol.mean_velocity < 1000.0
        assert sol.max_velocity < 1.0e4
        # surface flows faster than the column average (shear profile)
        assert sol.surface_mean_velocity > sol.mean_velocity

    def test_flow_points_downslope(self, coarse_solution):
        """Depth-averaged flow correlates with the outward radial direction."""
        test, sol = coarse_solution
        mesh = test.mesh
        u = test.problem.dofmap.nodal_view(sol.u)
        surf = mesh.surface_nodes()
        xy = mesh.coords[surf, :2]
        cx, cy = test.geometry.center
        rad = xy - np.array([cx, cy])
        rn = np.linalg.norm(rad, axis=1)
        speeds = np.linalg.norm(u[surf], axis=1)
        # fast ice flows radially outward from the main dome; slow nodes
        # near the secondary (western) dome drain toward its own margin
        keep = (rn > 1.0e5) & (speeds > 5.0)
        assert keep.sum() > 20
        cosang = np.sum(u[surf][keep] * rad[keep], axis=1) / (rn[keep] * speeds[keep])
        assert np.mean(cosang > 0.0) > 0.9

    def test_lateral_dirichlet_enforced(self, coarse_solution):
        test, sol = coarse_solution
        assert np.allclose(sol.u[test.problem.bc_dofs], 0.0, atol=1e-12)

    def test_regression_against_reference(self, coarse_solution):
        test, sol = coarse_solution
        passed, ref = test.check(sol)
        assert ref is not None, "reference value missing for the coarse config"
        assert passed

    def test_run_helper_passes(self):
        sol = run_antarctica_test(COARSE)
        assert sol.diagnostics["regression_passed"]


class TestKernelImplEquivalence:
    """Paper invariant: the optimizations do not change the physics."""

    def test_baseline_matches_optimized_solution(self):
        sols = {}
        for impl in ("baseline", "optimized"):
            cfg = AntarcticaConfig(
                resolution_km=300.0, num_layers=5, velocity=VelocityConfig(kernel_impl=impl)
            )
            sols[impl] = AntarcticaTest.build(cfg).run()
        rel = abs(sols["baseline"].mean_velocity - sols["optimized"].mean_velocity) / abs(
            sols["optimized"].mean_velocity
        )
        assert rel < 1.0e-10

    def test_baseline_reference_stored(self):
        cfg = AntarcticaConfig(
            resolution_km=300.0, num_layers=5, velocity=VelocityConfig(kernel_impl="baseline")
        )
        test = AntarcticaTest.build(cfg)
        assert test.reference_value() is not None


class TestJacobianConsistency:
    """The assembled SFad Jacobian matches finite differences of F."""

    def test_jacobian_vs_fd_on_random_directions(self):
        test = AntarcticaTest.build(AntarcticaConfig(resolution_km=400.0, num_layers=3))
        p = test.problem
        rng = np.random.default_rng(0)
        u = rng.normal(size=p.dofmap.num_dofs) * 10.0
        u[p.bc_dofs] = 0.0
        F = p.residual(u)
        A = p.jacobian(u)
        for _ in range(3):
            v = rng.normal(size=len(u))
            eps = 1.0e-6 * max(1.0, np.linalg.norm(u)) / np.linalg.norm(v)
            fd = (p.residual(u + eps * v) - p.residual(u - eps * v)) / (2 * eps)
            ad = A.matvec(v)
            denom = np.linalg.norm(fd) + 1e-30
            assert np.linalg.norm(ad - fd) / denom < 2.0e-5


#: the three solve paths of the pinned-count tests
_SOLVE_PATHS = pytest.mark.parametrize(
    "velocity",
    [dict(operator_mode="assembled"), dict(operator_mode="matrix-free"), dict(nparts=4)],
    ids=["assembled", "matrix-free", "nparts4"],
)


class TestPreconditionerOptions:
    def test_vline_and_mdsc_give_same_solution(self):
        base = None
        for precond in ("mdsc", "vline"):
            cfg = AntarcticaConfig(
                resolution_km=350.0,
                num_layers=4,
                velocity=VelocityConfig(preconditioner=precond),
            )
            sol = AntarcticaTest.build(cfg).run()
            if base is None:
                base = sol.mean_velocity
            else:
                assert sol.mean_velocity == pytest.approx(base, rel=1e-6)

    @_SOLVE_PATHS
    def test_mdsc_iterations_flat_along_newton(self, velocity):
        """With the line smoother damped inside its stability limit the
        GMRES count per Newton step does not grow along the trajectory
        (a fixed omega = 0.9 went 10 -> 24 on this mesh as lambda_max
        crossed 2 / 0.9).  The counts are pinned: a change to the sweep
        that moves derivatives in roundoff only must not move them."""
        sol = self._pinned_solve(preconditioner="mdsc", **velocity)
        assert max(sol.newton.linear_iterations) <= 9
        assert sol.newton.linear_iterations == [7, 7, 7, 7, 7, 7, 8, 8]

    @_SOLVE_PATHS
    def test_default_iterations_flat_along_newton(self, velocity):
        """The same pin on the default, line relaxation alone: flat at
        10-11 along the trajectory where MDSC's coarse solve holds 7-8."""
        sol = self._pinned_solve(**velocity)
        assert sol.diagnostics["preconditioner"] == "vline"
        assert max(sol.newton.linear_iterations) <= 12
        assert sol.newton.linear_iterations == [10, 10, 11, 11, 11, 11, 11, 11]

    @staticmethod
    def _pinned_solve(**velocity):
        """The 400 km / 4 eight-step solve: every linear solve converged,
        13 residual and 8 Jacobian sweeps."""
        cfg = AntarcticaConfig(
            resolution_km=400.0, num_layers=4, velocity=VelocityConfig(**velocity)
        )
        sol = AntarcticaTest.build(cfg).run()
        assert sol.newton.linear_flags == ["converged"] * 8
        assert sol.diagnostics["eval_sweeps"] == {"residual": 13, "jacobian": 8}
        return sol

    @pytest.mark.parametrize("operator_mode", ["assembled", "matrix-free"])
    def test_only_mdsc_builds_the_coarse_index(self, operator_mode):
        """The line smoother reads the column blocks alone; the coarse
        index of the collapse (about 4/5 of the map's build) is MDSC's."""
        maps = {}
        for precond in ("vline", "mdsc"):
            velocity = VelocityConfig(
                preconditioner=precond, operator_mode=operator_mode, newton_steps=2
            )
            cfg = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=velocity)
            test = AntarcticaTest.build(cfg)
            test.run()
            maps[precond] = test.problem.mdsc_symbolic
        assert maps["vline"].num_coarse == 0 and not hasattr(maps["vline"], "coarse_dst")
        assert maps["mdsc"].num_coarse > 0 and hasattr(maps["mdsc"], "coarse_dst")
        assert np.array_equal(maps["vline"].block_dst, maps["mdsc"].block_dst)

    @pytest.mark.parametrize(
        "velocity",
        [dict(operator_mode="assembled"), dict(operator_mode="matrix-free"), dict(nparts=2)],
        ids=["assembled", "matrix-free", "nparts2"],
    )
    def test_mdsc_symbolic_half_is_built_once(self, velocity, monkeypatch):
        """One ``ColumnCollapseMap`` per problem, built by the first
        set-up (which sorts MDSC's coarse pattern); every later set-up of
        the solve is numeric only -- it sorts nothing and assembles
        nothing from COO triplets."""
        from repro.fem.sparse import ColumnCollapseMap, CsrMatrix

        calls = {"maps": 0, "sorts": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ColumnCollapseMap, "__init__", counting(ColumnCollapseMap.__init__, "maps"))
        monkeypatch.setattr(np, "lexsort", counting(np.lexsort, "sorts"))
        monkeypatch.setattr(np, "unique", counting(np.unique, "sorts"))
        from_coo = CsrMatrix.__dict__["from_coo"].__func__
        monkeypatch.setattr(CsrMatrix, "from_coo", classmethod(counting(from_coo, "sorts")))

        cfg = AntarcticaConfig(
            resolution_km=400.0,
            num_layers=4,
            velocity=VelocityConfig(preconditioner="mdsc", **velocity),
        )
        test = AntarcticaTest.build(cfg)
        assert calls["maps"] == 0  # built on the first set-up that needs it
        build, sorts_per_setup = test.problem._build_preconditioner, []

        def setup(A, kind=None):
            before = calls["sorts"]
            M = build(A, kind=kind)
            sorts_per_setup.append(calls["sorts"] - before)
            return M

        monkeypatch.setattr(test.problem, "_build_preconditioner", setup)
        test.run()
        assert calls["maps"] == 1
        assert sorts_per_setup[0] >= 1 and sorts_per_setup[1:] == [0] * 7

    def test_other_line_smoothed_rungs_converge_every_solve(self):
        """Line relaxation alone converges every linear solve (no
        stagnation, so nothing to escalate); at omega = 0.9 it took 213
        iterations here."""
        cfg = AntarcticaConfig(
            resolution_km=400.0,
            num_layers=4,
            velocity=VelocityConfig(preconditioner="vline"),
        )
        newton = AntarcticaTest.build(cfg).run().newton
        assert newton.linear_flags == ["converged"] * 8
        assert sum(newton.linear_iterations) <= 100

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            VelocityConfig(preconditioner="ilu7")
        with pytest.raises(ValueError):
            VelocityConfig(kernel_impl="fastest")
        with pytest.raises(ValueError):
            AntarcticaConfig(resolution_km=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="resolution_km must be finite"):
                AntarcticaConfig(resolution_km=value)
