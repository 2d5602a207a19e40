"""Integration tests for MALI's production meshing path: Voronoi + prisms.

The paper's test uses quadrilateral footprints (hexahedra); MALI in
general extrudes the triangulation dual to an MPAS Voronoi mesh into
prismatic (wedge) elements.  These tests run the identical solver stack
on that path: SFad(12) Jacobians (6 nodes x 2 dofs), wedge basis data,
triangular basal faces.
"""

import numpy as np
import pytest

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig

CFG = AntarcticaConfig(resolution_km=320.0, num_layers=5, footprint="voronoi")


@pytest.fixture(scope="module")
def prism_solution():
    test = AntarcticaTest.build(CFG)
    sol = test.run()
    return test, sol


class TestPrismPipeline:
    def test_mesh_is_wedges(self, prism_solution):
        test, _ = prism_solution
        assert test.mesh.elem_type == "wedge6"
        assert test.mesh.nodes_per_elem == 6
        assert test.mesh.footprint.elem_type == "tri3"

    def test_solve_converges(self, prism_solution):
        _, sol = prism_solution
        norms = sol.newton.residual_norms
        assert norms[-1] < 1.0e-4 * norms[0]
        assert set(sol.newton.linear_flags) == {"converged"}

    def test_velocities_physical(self, prism_solution):
        _, sol = prism_solution
        assert 1.0 < sol.mean_velocity < 2000.0
        assert sol.surface_mean_velocity > sol.mean_velocity

    def test_regression_reference(self, prism_solution):
        test, sol = prism_solution
        passed, ref = test.check(sol)
        assert ref is not None
        assert passed

    def test_jacobian_is_sfad12(self, prism_solution):
        """Wedges carry 12 derivative components, not the hex 16."""
        test, _ = prism_solution
        p = test.problem
        u = np.zeros(p.dofmap.num_dofs)
        for _, _, ws in p._worksets(u, "jacobian"):
            assert ws.fad_size == 12
            assert ws.out_jacobian.shape[1:] == (12, 12)
            break

    def test_jacobian_matches_fd_on_wedges(self, prism_solution):
        test, _ = prism_solution
        p = test.problem
        rng = np.random.default_rng(1)
        u = rng.normal(size=p.dofmap.num_dofs) * 5.0
        u[p.bc_dofs] = 0.0
        A = p.jacobian(u)
        v = rng.normal(size=len(u))
        eps = 1.0e-6 / np.linalg.norm(v) * max(1.0, np.linalg.norm(u))
        fd = (p.residual(u + eps * v) - p.residual(u - eps * v)) / (2 * eps)
        ad = A.matvec(v)
        assert np.linalg.norm(ad - fd) / (np.linalg.norm(fd) + 1e-30) < 2.0e-5

    def test_baseline_matches_optimized_on_prisms(self):
        sols = {}
        for impl in ("baseline", "optimized"):
            cfg = AntarcticaConfig(
                resolution_km=320.0,
                num_layers=5,
                footprint="voronoi",
                velocity=VelocityConfig(kernel_impl=impl, newton_steps=4),
            )
            sols[impl] = AntarcticaTest.build(cfg).run()
        rel = abs(sols["baseline"].mean_velocity - sols["optimized"].mean_velocity)
        # kernel sums re-associate, and GMRES amplifies the last-bit noise
        # slightly over four Newton steps
        assert rel / abs(sols["optimized"].mean_velocity) < 1.0e-8
