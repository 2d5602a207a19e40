"""Degenerate SPMD decompositions must work without caller special-casing.

Three shapes a robust decomposition layer must survive, all of which
show up in practice (tiny meshes, aggressive masks, failed-rank
redistribution leaving a rank with nothing):

* ``nparts == 1`` -- the whole SPMD machinery collapsing to serial;
* a partition with **zero interior neighbors** -- two disconnected ice
  islands split exactly along the disconnect, so no rank exchanges
  anything;
* an **empty-owned-rows part** -- a rank that owns elements but no
  nodes (every node of its elements is shared with, and owned by, a
  lower rank), so its matrix-row block is empty.

``HaloExchange`` and ``DistributedMatrix.matvec`` (plus the residual /
Jacobian exchanges) must handle all three identically to the generic
case: bitwise-equal to serial assembly, no special-casing by callers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import resilience as res
from repro.app.config import VelocityConfig
from repro.app.velocity_solver import StokesVelocityProblem
from repro.fem.distributed import DistributedStokesAssembly
from repro.mesh.extrude import extrude_footprint
from repro.mesh.geometry import IceGeometry
from repro.mesh.partition import HaloExchange, Partition, partition_footprint
from repro.mesh.planar import masked_quad_footprint, quad_footprint

#: fully-iced slab: the huge dome radius keeps thickness near h_max over
#: the whole (small) domain, so any footprint meshes without masking
GEO = IceGeometry(
    lx=3.0e5,
    ly=2.0e5,
    center=(1.5e5, 1.0e5),
    radius=2.0e6,
    h_max=2000.0,
    bed_amplitude=0.0,
    min_thickness=10.0,
    secondary_dome=False,
)


@pytest.fixture(autouse=True)
def _plane_disarmed():
    res.fault_plane().disarm()
    yield
    res.fault_plane().disarm()


def _problem(fp, nlayers=2):
    mesh = extrude_footprint(fp, GEO, nlayers)
    return StokesVelocityProblem(mesh, GEO, VelocityConfig())


def _partition(fp, elem_part):
    """Hand-built Partition with the standard min-adjacent-rank node rule."""
    elem_part = np.asarray(elem_part, dtype=np.int64)
    nparts = int(elem_part.max()) + 1
    node_part = np.full(fp.num_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    for k in range(fp.nodes_per_elem):
        np.minimum.at(node_part, fp.elems[:, k], elem_part)
    return Partition(fp, nparts, elem_part, node_part)


def _assert_assembly_matches_serial(problem, partition):
    """Distributed residual/Jacobian/SpMV over ``partition`` == serial, bitwise."""
    plan, mesh = problem.plan, problem.mesh
    spmd = DistributedStokesAssembly(plan, partition, mesh.levels, mesh.nlayers)
    rng = np.random.default_rng(7)
    nc, k = plan.elem_dofs.shape
    local_r = rng.normal(size=(nc, k))
    local_j = rng.normal(size=(nc, k, k))

    # rank sweeps write one block array in owner order
    f = spmd.assemble_residual(local_r[spmd.cell_order])
    assert np.array_equal(f, plan.assemble_vector(local_r))

    A = spmd.assemble_jacobian(local_j[spmd.cell_order])
    x = rng.normal(size=plan.num_dofs)
    assert np.array_equal(A.matvec(x), plan.assemble_matrix(local_j).matvec(x))
    # the distributed operator prices a product as the serial SpMV
    assert A.nnz == plan.nnz
    G = A.gather_global()
    assert (A.bytes_per_matvec, A.flops_per_matvec) == (G.bytes_per_matvec, G.flops_per_matvec)
    assert A.operator_mode == G.operator_mode == "assembled"
    return spmd


class TestSinglePart:
    """nparts=1: every exchange is a self-exchange, nothing is ghosted."""

    def test_halo_exchange_is_identity(self):
        fp = quad_footprint(4, 3, GEO.lx, GEO.ly)
        halo = HaloExchange(partition_footprint(fp, 1))
        assert halo.neighbors(0) == []
        assert len(halo.ghost_nodes(0)) == 0
        field = np.linspace(0.0, 1.0, fp.num_nodes)
        assert np.array_equal(halo.gather(0, field), field)
        contrib = np.linspace(2.0, 3.0, fp.num_nodes)
        assert np.array_equal(halo.scatter_add([contrib]), contrib)

    def test_assembly_matches_serial(self):
        fp = quad_footprint(4, 3, GEO.lx, GEO.ly)
        problem = _problem(fp)
        spmd = _assert_assembly_matches_serial(problem, partition_footprint(fp, 1))
        assert len(spmd.owned_dofs(0)) == problem.plan.num_dofs

    def test_armed_gather_with_no_neighbors(self):
        # the checksum-verified path must no-op cleanly with zero
        # neighbor messages (nothing to corrupt, nothing to verify)
        fp = quad_footprint(4, 3, GEO.lx, GEO.ly)
        halo = HaloExchange(partition_footprint(fp, 1))
        field = np.linspace(0.0, 1.0, fp.num_nodes)
        sched = res.FaultSchedule([res.BitFlip("halo.payload", at=(0,))])
        with res.fault_injection(sched):
            out = halo.gather(0, field)
        assert np.array_equal(out, field)
        assert sched.fired_count() == 0  # no message ever existed


class TestZeroNeighborPartition:
    """Two disconnected islands, split along the disconnect: no rank
    exchanges anything, yet every exchange entry point still works."""

    def _islands(self):
        fp = masked_quad_footprint(
            6, 2, GEO.lx, GEO.ly,
            lambda x, y: (x < GEO.lx / 3.0) | (x > 2.0 * GEO.lx / 3.0),
        )
        part = _partition(fp, np.where(fp.elem_centers()[:, 0] < GEO.lx / 2.0, 0, 1))
        return fp, part

    def test_partition_has_no_interior_neighbors(self):
        fp, part = self._islands()
        halo = HaloExchange(part)
        for p in range(part.nparts):
            assert halo.neighbors(p) == []
            assert len(halo.ghost_nodes(p)) == 0

    def test_gather_and_scatter_work_without_messages(self):
        fp, part = self._islands()
        halo = HaloExchange(part)
        field = np.linspace(0.0, 1.0, fp.num_nodes)
        total = np.zeros(fp.num_nodes)
        for p in range(part.nparts):
            local = halo.gather(p, field)
            assert np.array_equal(local, field[halo.local_nodes(p)])
            total[halo.local_nodes(p)] += 1.0
        assert np.array_equal(total, np.ones(fp.num_nodes))  # disjoint cover
        contribs = [np.ones(len(halo.local_nodes(p))) for p in range(part.nparts)]
        assert np.array_equal(halo.scatter_add(contribs), np.ones(fp.num_nodes))

    def test_assembly_matches_serial(self):
        fp, part = self._islands()
        spmd = _assert_assembly_matches_serial(_problem(fp), part)
        # sanity: the decomposition really is communication-free
        for p in range(part.nparts):
            assert spmd._refresh_plan.inbox[p] == []
            assert spmd._spmv_plan.inbox[p] == []


class TestEmptyOwnedRowsPart:
    """A 3-quad strip split [0, 1, 0]: rank 1 owns the middle element
    but every one of its nodes borders a rank-0 element, so rank 1 owns
    zero nodes -- an empty matrix-row block."""

    def _strip(self):
        fp = quad_footprint(3, 1, GEO.lx, GEO.ly)
        return fp, _partition(fp, [0, 1, 0])

    def test_part_owns_elements_but_no_rows(self):
        fp, part = self._strip()
        assert len(part.owned_elems(1)) == 1
        assert len(part.owned_nodes(1)) == 0
        halo = HaloExchange(part)
        # rank 1's whole local set is ghosts of rank 0
        assert halo.neighbors(1) == [0]
        assert np.array_equal(halo.ghost_nodes(1), halo.local_nodes(1))

    def test_gather_and_scatter_with_all_ghost_part(self):
        fp, part = self._strip()
        halo = HaloExchange(part)
        field = np.linspace(0.0, 1.0, fp.num_nodes)
        for p in range(2):
            assert np.array_equal(halo.gather(p, field), field[halo.local_nodes(p)])
        contribs = [
            np.ones(len(halo.local_nodes(0))),
            np.ones(len(halo.local_nodes(1))),
        ]
        out = halo.scatter_add(contribs)
        counts = np.zeros(fp.num_nodes)
        for p in range(2):
            counts[halo.local_nodes(p)] += 1.0
        assert np.array_equal(out, counts)  # overlap adds, exactly once per part

    def test_assembly_matches_serial(self):
        fp, part = self._strip()
        problem = _problem(fp)
        spmd = _assert_assembly_matches_serial(problem, part)
        assert len(spmd.owned_dofs(1)) == 0  # the degenerate row block
        assert len(spmd.owned_dofs(0)) == problem.plan.num_dofs

    def test_armed_gather_verifies_all_ghost_payload(self):
        # the checksum path must also work when the payload is the whole
        # local set: corrupt it, detect it, refetch it
        fp, part = self._strip()
        halo = HaloExchange(part)
        field = np.linspace(0.0, 1.0, fp.num_nodes)
        clean = halo.gather(1, field)
        policy = res.RecoveryPolicy()
        sched = res.FaultSchedule([res.DropMessage("halo.payload", at=(0,))])
        with res.fault_injection(sched, policy=policy):
            got = halo.gather(1, field)
        assert np.array_equal(got, clean)
        assert policy.log.count("recovery", "halo_refetch") == 1
