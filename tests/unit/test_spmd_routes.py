"""The SPMD exchange routes against the per-(owner, source) construction.

``DistributedStokesAssembly`` builds its routes from stable sorts by
owner and counts export values with one ``np.unique`` over the ghost
entries; each owner's residual or Jacobian stream is one gather out of
the owner-ordered block array.  The oracle here is the construction it
replaced, kept test-local: per owner, the entries found by a full pass
over the stream, split per source rank, each source's values placed at
their ascending global-entry positions.  For random rank blocks every
owner's stream must be that interleave exactly, every route and CSR
structure array equal, every protocol byte count equal -- and the
assembled residual, Jacobian and SpMV equal to the serial plan's,
bitwise.

The solve-level half: SPMD == serial with the fault plane armed under
the reference chaos schedule (a dead rank's cells swept by a survivor),
and the ``sweep.output`` fault landing on the block the executor wrote.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observability as obs
from repro import resilience as res
from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.fem.distributed import DistributedStokesAssembly
from repro.mesh.partition import ExchangePlan, TrafficMeter, partition_footprint
from repro.mesh.planar import masked_quad_footprint, quad_footprint
from tests.unit.test_degenerate_spmd import GEO, _partition, _problem

_FP64 = 8


def _reference_routes(plan, partition, levels, nlayers) -> dict:
    """Per-rank routes as a full pass per owner and ``np.unique`` per
    (owner, source) pair builds them."""
    fp, nparts = partition.footprint, partition.nparts
    nc, k = plan.elem_dofs.shape
    n = plan.num_dofs
    ndof = n // (fp.num_nodes * levels)
    node_owner = np.where(partition.node_part < nparts, partition.node_part, 0)
    elem_owner = np.repeat(partition.elem_part, nlayers)
    dof_owner = np.repeat(node_owner, levels * ndof)

    ref = {key: [] for key in (
        "owned_elems", "owned_dofs", "res_groups", "res_rows", "res_export", "jac_groups",
        "jac_slots", "jac_export", "gslots", "indptr", "indices", "colmap", "spmv_ghost",
        "gather_ghost",
    )}
    elem_local_pos = np.empty(nc, dtype=np.int64)
    dof_local_row = np.empty(n, dtype=np.int64)
    for p in range(nparts):
        e2d = partition.owned_elems(p)
        e3d = (e2d[:, None] * nlayers + np.arange(nlayers)[None, :]).ravel()
        elem_local_pos[e3d] = np.arange(len(e3d))
        dofs = np.flatnonzero(dof_owner == p)
        dof_local_row[dofs] = np.arange(len(dofs))
        ref["owned_elems"].append(e3d)
        ref["owned_dofs"].append(dofs)

    def routes(entry_owner, width, key_of):
        """``(groups, export)`` per owner; an entry is ``elem * width + i``."""
        entry_src = np.repeat(elem_owner, width)
        out = []
        for p in range(nparts):
            ent = np.flatnonzero(entry_owner == p)
            src = entry_src[ent]
            srcpos = elem_local_pos[ent // width] * width + ent % width
            groups, export = {}, {}
            for q in np.unique(src):
                sel = np.flatnonzero(src == q)
                groups[int(q)] = (sel, srcpos[sel])
                if q != p:
                    export[int(q)] = len(np.unique(key_of(ent[sel]))) * _FP64
            out.append((ent, groups, export))
        return out

    ent_dof = plan.elem_dofs.ravel()
    for ent, groups, export in routes(dof_owner[ent_dof], k, lambda e: ent_dof[e]):
        ref["res_rows"].append(dof_local_row[ent_dof[ent]])
        ref["res_groups"].append(groups)
        ref["res_export"].append(export)

    slot_rows = np.repeat(np.arange(n), np.diff(plan.indptr))
    slot_owner = dof_owner[slot_rows]
    slot_local = np.empty(plan.nnz, dtype=np.int64)
    for p in range(nparts):
        gslots = np.flatnonzero(slot_owner == p)
        slot_local[gslots] = np.arange(len(gslots))
        gcols = plan.indices[gslots]
        colmap = np.unique(gcols)
        indptr = np.zeros(len(ref["owned_dofs"][p]) + 1, dtype=np.int64)
        np.add.at(indptr, dof_local_row[slot_rows[gslots]] + 1, 1)
        ghost_cols = colmap[dof_owner[colmap] != p]
        owners, counts = np.unique(dof_owner[ghost_cols], return_counts=True)
        ref["gslots"].append(gslots)
        ref["indptr"].append(np.cumsum(indptr))
        ref["indices"].append(np.searchsorted(colmap, gcols))
        ref["colmap"].append(colmap)
        ref["spmv_ghost"].append({int(q): int(c) for q, c in zip(owners, counts)})

    jac_owner = dof_owner[np.repeat(plan.elem_dofs, k, axis=1).ravel()]
    for ent, groups, export in routes(jac_owner, k * k, lambda e: plan.scatter[e]):
        ref["jac_slots"].append(slot_local[plan.scatter[ent]])
        ref["jac_groups"].append(groups)
        ref["jac_export"].append(export)

    for p in range(nparts):
        local_dofs = np.unique(plan.elem_dofs[ref["owned_elems"][p]])
        ghosts = local_dofs[dof_owner[local_dofs] != p]
        owners, counts = np.unique(dof_owner[ghosts], return_counts=True)
        ref["gather_ghost"].append({int(q): int(c) for q, c in zip(owners, counts)})
    return ref


def _stream(groups, length, rank_blocks) -> np.ndarray:
    """One owner's entry stream interleaved from its sources' blocks."""
    stream = np.empty(length)
    for q, (sel, srcpos) in groups.items():
        stream[sel] = rank_blocks[q].ravel()[srcpos]
    return stream


def _check_routes(plan, partition, levels, nlayers) -> DistributedStokesAssembly:
    spmd = DistributedStokesAssembly(plan, partition, levels, nlayers)
    ref = _reference_routes(plan, partition, levels, nlayers)
    nc, k = plan.elem_dofs.shape
    rng = np.random.default_rng(partition.nparts)
    local_r = rng.normal(size=(nc, k))
    local_j = rng.normal(size=(nc, k, k))
    rank_r = [local_r[e] for e in ref["owned_elems"]]
    rank_j = [local_j[e] for e in ref["owned_elems"]]
    # the owner order is the rank blocks laid end to end
    owner_r, owner_j = local_r[spmd.cell_order], local_j[spmd.cell_order]
    assert np.array_equal(owner_r, np.concatenate(rank_r))

    for p in range(partition.nparts):
        assert np.array_equal(spmd.owned_elems(p), ref["owned_elems"][p])
        assert np.array_equal(spmd.owned_dofs(p), ref["owned_dofs"][p])
        res = owner_r.ravel()[spmd._res_pos[p]]
        assert np.array_equal(res, _stream(ref["res_groups"][p], len(res), rank_r))
        jac = owner_j.reshape(-1, k)[spmd._res_pos[p]].ravel()
        assert np.array_equal(jac, _stream(ref["jac_groups"][p], len(jac), rank_j))
        assert np.array_equal(spmd._res_rows[p], ref["res_rows"][p])
        assert np.array_equal(spmd._jac_slots[p], ref["jac_slots"][p])
        for name in ("gslots", "indptr", "indices", "colmap"):
            assert np.array_equal(getattr(spmd, f"_{name}")[p], ref[name][p]), name
        # protocol bytes: exports, ghost refresh, SpMV ghost columns
        assert dict(spmd._res_plan.inbox[p]) == ref["res_export"][p]
        assert dict(spmd._jac_plan.inbox[p]) == ref["jac_export"][p]
        for plan_, counts in ((spmd._refresh_plan, ref["gather_ghost"]),
                              (spmd._spmv_plan, ref["spmv_ghost"])):
            assert dict(plan_.inbox[p]) == {q: c * _FP64 for q, c in counts[p].items()}

    serial = plan.assemble_matrix(local_j)
    assert np.array_equal(spmd.assemble_residual(owner_r), plan.assemble_vector(local_r))
    A = spmd.assemble_jacobian(owner_j)
    assert np.array_equal(A.gather_global().data, serial.data)
    x = rng.normal(size=plan.num_dofs)
    assert np.array_equal(A.matvec(x), serial.matvec(x))
    return spmd


def test_exchange_plan_meters_like_one_record_per_message():
    """Per rank, per channel and every ``halo.*`` counter: one
    ``record_plan`` is the per-message ``record`` loop it replaced."""
    messages = [(1, 0, 64), (2, 0, 8), (0, 1, 16), (3, 2, 0)]
    plan = ExchangePlan("vector_gather", 4, messages)
    seen = []
    for per_message in (True, False):
        obs.get_metrics().reset()
        meter = TrafficMeter(4)
        for _ in range(3):
            if per_message:
                for src, dst, nbytes in messages:
                    meter.record("vector_gather", src, dst, nbytes)
            else:
                meter.record_plan(plan)
        counters = obs.get_metrics().snapshot()["counters"]
        seen.append((meter.summary(), {k: v for k, v in counters.items() if k.startswith("halo.")}))
    assert seen[0] == seen[1]
    assert plan.inbox[0] == [(1, 64), (2, 8)] and plan.inbox[3] == []


MESHES = {
    "antarctica-400km-4": AntarcticaConfig(resolution_km=400.0, num_layers=4),
    "antarctica-200km-10": AntarcticaConfig(resolution_km=200.0, num_layers=10),
    "greenland-300km-5": AntarcticaConfig(resolution_km=300.0, num_layers=5, family="greenland"),
    "voronoi-wedge6": AntarcticaConfig(resolution_km=320.0, num_layers=5, footprint="voronoi"),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def built(request):
    return AntarcticaTest.build(MESHES[request.param])


@pytest.mark.parametrize("nparts", [2, 4, 7])
def test_routes_match_the_per_source_construction(built, nparts):
    mesh, plan = built.mesh, built.problem.plan
    _check_routes(plan, partition_footprint(mesh.footprint, nparts), mesh.levels, mesh.nlayers)


@pytest.mark.parametrize("case", ["single-part", "islands", "empty-rows"])
def test_routes_on_degenerate_partitions(case):
    if case == "single-part":
        fp = quad_footprint(4, 3, GEO.lx, GEO.ly)
        part = partition_footprint(fp, 1)
    elif case == "islands":
        fp = masked_quad_footprint(
            6, 2, GEO.lx, GEO.ly,
            lambda x, y: (x < GEO.lx / 3.0) | (x > 2.0 * GEO.lx / 3.0),
        )
        part = _partition(fp, np.where(fp.elem_centers()[:, 0] < GEO.lx / 2.0, 0, 1))
    else:
        fp = quad_footprint(3, 1, GEO.lx, GEO.ly)
        part = _partition(fp, [0, 1, 0])
    problem = _problem(fp)
    _check_routes(problem.plan, part, problem.mesh.levels, problem.mesh.nlayers)


def test_operands_are_owner_ordered_views():
    """An SPMD problem keeps one owner-ordered copy of each cell operand,
    equal to the serial problem's rows; a rank's operands are views."""
    cfg = MESHES["antarctica-400km-4"]
    serial = AntarcticaTest.build(cfg).problem
    spmd = AntarcticaTest.build(
        AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=VelocityConfig(nparts=4))
    ).problem
    order = spmd.spmd.cell_order
    for name in ("_w_packed", "glen_prefactor_qp", "force_qp", "_basal_row"):
        assert np.array_equal(getattr(spmd, name), getattr(serial, name)[order]), name
    assert np.array_equal(spmd.basis.grad_bf, serial.basis.grad_bf[order])
    assert spmd.bc_diag_scale == serial.bc_diag_scale
    u = np.random.default_rng(0).normal(size=serial.dofmap.num_dofs)
    span = spmd.spmd.cell_spans[2]
    _, _, ws = next(spmd._worksets(u, "jacobian", span))
    # ``grad_bf`` is the one copy of the basis gradient: the lowering
    # lays its qp-seed operand out per pass
    for a, owner in ((ws.w_packed, spmd._w_packed), (ws.grad_bf, spmd.basis.grad_bf),
                     (ws.force_qp, spmd.force_qp)):
        assert np.shares_memory(a, owner)


CHAOS = AntarcticaConfig(resolution_km=350.0, num_layers=4, velocity=VelocityConfig(nparts=4))


def test_armed_spmd_solve_equals_serial():
    """Reference schedule armed (bit flip, drop, duplicate, NaN sweep,
    rank 1 killed and redistributed): the SPMD solve is the serial one."""
    # assembled on both sides: the SPMD path has no matrix-free mode
    serial = AntarcticaTest.build(AntarcticaConfig(
        resolution_km=350.0, num_layers=4, velocity=VelocityConfig(operator_mode="assembled")
    )).problem.solve()
    problem = AntarcticaTest.build(CHAOS).problem
    policy = res.RecoveryPolicy()
    with res.fault_injection(res.reference_schedule(nparts=4), policy=policy) as plane:
        chaos = problem.solve(resilience=policy)
        assert not plane.schedule.pending()
    assert chaos.diagnostics["resilience"]["dead_ranks"] == [1]
    assert np.array_equal(chaos.u, serial.u)


def test_sweep_output_fault_lands_on_the_executors_block():
    """Rank 1 dies at its first sweep; its cells' block, swept by the
    survivor (rank 0), is the next ``sweep.output`` payload: only rank
    1's rows of the owner-ordered array are poisoned, and the injection
    is logged against the executor."""
    problem = AntarcticaTest.build(CHAOS).problem
    u = np.zeros(problem.dofmap.num_dofs)
    clean, _ = problem._sweep_blocks(u, "residual")
    sched = res.FaultSchedule([
        res.RankKill("spmd.rank", at=(0,), rank=1),
        res.NaNPoison("sweep.output", at=(1,), fraction=0.05),
    ])
    policy = res.RecoveryPolicy()
    with res.fault_injection(sched, policy=policy) as plane:
        problem._dead_ranks = set()
        poisoned, _ = problem._sweep_blocks(u, "residual")
        events = [e for e in plane.log.events if e["kind"] == "nan_poison"]
    span = problem.spmd.cell_spans[1]
    bad_rows = np.flatnonzero(np.isnan(poisoned).any(axis=1))
    assert len(bad_rows) and span.start <= bad_rows.min() and bad_rows.max() < span.stop
    keep = np.ones(len(clean), dtype=bool)
    keep[span] = False
    assert np.array_equal(poisoned[keep], clean[keep])
    assert [e["rank"] for e in events] == [0]
