"""SPMD distributed velocity solve == serial solve, bit for bit.

The distributed path (``VelocityConfig(nparts=N)``) runs the full
Newton/GMRES velocity solve over a real RCB partition: rank-restricted
evaluator sweeps, owner-ordered residual/Jacobian exchanges,
row-partitioned SpMV with metered ghost refresh, and column-blocked
partitioned dot products.  Every one of those pieces is constructed to
reproduce the serial arithmetic bitwise (the E3SM BFB contract), so the
end-to-end check here is *exact equality* -- strictly stronger than the
rtol 1e-12 acceptance bar.  A second problem (Greenland) guards against
the path being specialized to the Antarctica footprint.
"""

import numpy as np
import pytest

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.app.velocity_solver import StokesVelocityProblem
from repro.fem.distributed import DistributedMatrix
from repro.mesh import greenland_geometry
from repro.mesh.extrude import extrude_footprint
from repro.mesh.planar import masked_quad_footprint

NPARTS = 4


def _antarctica(nparts):
    # SPMD solves always assemble (the row-partitioned matrix is the
    # halo-exchange unit), so the serial side of every bitwise
    # comparison must share the assembled operator path -- pinned here
    # against the REPRO_OPERATOR_MODE environment override
    cfg = AntarcticaConfig(
        resolution_km=350.0,
        num_layers=4,
        velocity=VelocityConfig(nparts=nparts, operator_mode="assembled"),
    )
    return AntarcticaTest.build(cfg).problem


@pytest.fixture(scope="module")
def antarctica_pair():
    serial = _antarctica(1)
    spmd = _antarctica(NPARTS)
    return serial, spmd


class TestSpmdOperatorsBitwise:
    """Operator-level BFB: each distributed piece equals its serial twin."""

    def _state(self, problem):
        rng = np.random.default_rng(42)
        u = rng.normal(size=problem.dofmap.num_dofs) * 10.0
        u[problem.bc_dofs] = 0.0
        return u

    def test_residual_bitwise(self, antarctica_pair):
        serial, spmd = antarctica_pair
        u = self._state(serial)
        assert np.array_equal(serial.residual(u), spmd.residual(u))

    def test_jacobian_bitwise(self, antarctica_pair):
        serial, spmd = antarctica_pair
        u = self._state(serial)
        As = serial.jacobian(u)
        Ap = spmd.jacobian(u)
        assert isinstance(Ap, DistributedMatrix)
        Ag = Ap.gather_global()
        assert np.array_equal(As.indptr, Ag.indptr)
        assert np.array_equal(As.indices, Ag.indices)
        assert np.array_equal(As.data, Ag.data)
        # the step-boundary health check sees every rank's rows
        assert Ap.isfinite()
        Ap.data_parts[-1][0] = np.inf
        assert not Ap.isfinite()

    def test_spmv_bitwise(self, antarctica_pair):
        serial, spmd = antarctica_pair
        u = self._state(serial)
        As, Ap = serial.jacobian(u), spmd.jacobian(u)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.normal(size=len(u))
            assert np.array_equal(As.matvec(v), Ap.matvec(v))

    def test_fused_matches_split(self, antarctica_pair):
        _, spmd = antarctica_pair
        u = self._state(spmd)
        f, A = spmd.residual_and_jacobian(u)
        assert np.array_equal(f, spmd.residual(u))
        assert np.array_equal(A.gather_global().data, spmd.jacobian(u).gather_global().data)

    def test_rank_partition_structure(self, antarctica_pair):
        _, spmd = antarctica_pair
        a = spmd.spmd
        elems = np.concatenate([a.owned_elems(p) for p in range(NPARTS)])
        assert len(elems) == spmd.mesh.num_elems
        assert len(np.unique(elems)) == spmd.mesh.num_elems
        dofs = np.concatenate([a.owned_dofs(p) for p in range(NPARTS)])
        assert len(dofs) == spmd.dofmap.num_dofs
        assert len(np.unique(dofs)) == spmd.dofmap.num_dofs


class TestSpmdSolveMatchesSerial:
    @pytest.fixture(scope="class")
    def solutions(self, antarctica_pair):
        serial, spmd = antarctica_pair
        return serial.solve(), spmd.solve()

    def test_velocities_exact(self, solutions):
        sol_s, sol_p = solutions
        # the acceptance bar is rtol 1e-12; the BFB construction gives
        # exact equality, which we assert so regressions are loud
        scale = np.abs(sol_s.u).max()
        assert np.allclose(sol_p.u, sol_s.u, rtol=1.0e-12, atol=1.0e-12 * scale)
        assert np.array_equal(sol_p.u, sol_s.u)

    def test_newton_trajectory_identical(self, solutions):
        sol_s, sol_p = solutions
        assert sol_p.newton.residual_norms == sol_s.newton.residual_norms
        assert sol_p.newton.linear_iterations == sol_s.newton.linear_iterations
        assert sol_p.newton.step_lengths == sol_s.newton.step_lengths

    def test_spmd_diagnostics_present(self, solutions):
        _, sol_p = solutions
        d = sol_p.diagnostics["spmd"]
        assert d["nparts"] == NPARTS
        assert d["elem_imbalance"] >= 1.0
        assert len(d["halo"]["ghost_nodes"]) == NPARTS
        assert d["measured_vs_analytic_ghost_ratio"] > 0.0
        traffic = d["traffic"]
        for channel in ("vector_gather", "vector_scatter", "matrix_export", "allreduce"):
            assert traffic["channel_bytes"].get(channel, 0) > 0, channel
        assert traffic["total_bytes"] > 0
        assert len(traffic["sent_bytes_per_rank"]) == NPARTS

    def test_serial_solution_has_no_spmd_block(self, solutions):
        sol_s, _ = solutions
        assert "spmd" not in sol_s.diagnostics


class TestCheckpointResume:
    """Every accepted Newton step of a plain ``solve()`` is snapshotted,
    and a solve resumed from one finishes bitwise where the
    uninterrupted solve did."""

    @pytest.mark.parametrize("nparts", [1, 2])
    def test_resume_from_step_two_is_bitwise(self, nparts):
        problem = _antarctica(nparts)
        captured = []
        full = problem.solve(checkpoint_cb=captured.append)
        assert full.newton.checkpoint.step == full.newton.iterations
        assert [c.step for c in captured] == list(range(1, full.newton.iterations + 1))
        resumed = problem.solve(resume_from=captured[1])
        assert captured[1].step == 2
        assert np.array_equal(resumed.u, full.u)
        assert resumed.newton.residual_norms == full.newton.residual_norms
        assert resumed.newton.linear_iterations == full.newton.linear_iterations
        assert resumed.newton.step_lengths == full.newton.step_lengths


class TestSpmdGreenland:
    """The SPMD path is not specialized to the Antarctica footprint."""

    def test_greenland_solve_exact(self):
        geo = greenland_geometry()
        fp = masked_quad_footprint(9, 15, geo.lx, geo.ly, geo.mask)
        mesh = extrude_footprint(fp, geo, 5)
        # assembled on both sides: the SPMD path has no matrix-free mode
        sol_s = StokesVelocityProblem(
            mesh, geo, VelocityConfig(operator_mode="assembled")
        ).solve()
        sol_p = StokesVelocityProblem(
            mesh, geo, VelocityConfig(nparts=4, operator_mode="assembled")
        ).solve()
        assert np.array_equal(sol_p.u, sol_s.u)
        assert sol_p.newton.residual_norms == sol_s.newton.residual_norms
        assert sol_p.diagnostics["spmd"]["nparts"] == 4


class TestSpmdConfig:
    def test_nparts_validation(self):
        with pytest.raises(ValueError):
            VelocityConfig(nparts=0)
        assert VelocityConfig(nparts=1).nparts == 1
