"""What a solve holds: only what its next step reads.

Each test pins one release or one shared buffer in deterministic units
(reachability, shared memory, traced bytes), not in RSS.
"""

import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.fem.sparse import CsrMatrix
from repro.solvers.gmres import gmres

gmres_module = importlib.import_module("repro.solvers.gmres")


def _problem(**velocity):
    cfg = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=VelocityConfig(**velocity))
    return AntarcticaTest.build(cfg).problem


@pytest.mark.parametrize("operator_mode", ["assembled", "matrix-free"])
def test_step_k_operator_and_preconditioner_are_gone_before_the_next_sweep(
    operator_mode, monkeypatch
):
    """A preconditioner holds its operator (``M.A``): unless Newton drops
    both after the linear solve, step k's pair is alive while step k+1
    sweeps and assembles its own."""
    problem = _problem(operator_mode=operator_mode)
    sweep, precondition = problem.residual_and_jacobian, problem._preconditioner
    held: list[weakref.ref] = []  # step k's operator storage and preconditioner
    alive_at_sweep = []

    def tracked_sweep(u):
        alive_at_sweep.append([ref() is not None for ref in held])
        f, J = sweep(u)
        held[:] = [weakref.ref(J.data if operator_mode == "assembled" else J.local_jac)]
        return f, J

    def tracked_preconditioner(J):
        M = precondition(J)
        held.append(weakref.ref(M))
        return M

    monkeypatch.setattr(problem, "residual_and_jacobian", tracked_sweep)
    monkeypatch.setattr(problem, "_preconditioner", tracked_preconditioner)
    sol = problem.solve()
    assert sol.newton.iterations == 8 and len(alive_at_sweep) == 8
    assert alive_at_sweep[0] == []
    assert alive_at_sweep[1:] == [[False, False]] * 7


def test_an_assembled_jacobian_shares_the_plan_structure_with_scipy():
    """The plan's int32 CSR structure is the SpMV handle's: no per-step copy."""
    problem = _problem(operator_mode="assembled")
    plan = problem.plan
    J = problem.jacobian(np.zeros(problem.dofmap.num_dofs))
    J.matvec(np.ones(J.shape[1]))
    assert plan.indices.dtype == plan.indptr.dtype == np.int32
    assert J.indices is plan.indices and J.indptr is plan.indptr
    for name in ("indices", "indptr"):
        assert np.shares_memory(getattr(J._spmv, name), getattr(plan, name)), name
    assert np.shares_memory(J._spmv.data, J.data)


@pytest.mark.parametrize("impl", ["optimized", "baseline"])
def test_a_jacobian_sweep_fills_its_block_array_in_place(impl):
    """Each workset's ``SFad`` residual derivatives are the rows of the
    sweep's block array: no per-workset copy, the same bits as a workset
    that allocates its own (the listing accumulates into zeroed rows)."""
    problem = _problem(operator_mode="assembled", kernel_impl=impl)
    u = np.random.default_rng(3).normal(size=problem.dofmap.num_dofs)
    nc, k = problem.plan.elem_dofs.shape
    blocks = np.full((nc, k, k), np.nan)
    for a, b, ws in problem._worksets(u, "jacobian", blocks=blocks):
        assert np.shares_memory(ws.fields["Residual"].dx, blocks)
        assert np.shares_memory(ws.out_jacobian, blocks[a:b])
    for a, b, ws in problem._worksets(u, "jacobian"):
        assert np.array_equal(blocks[a:b], ws.out_jacobian)
    assert np.array_equal(problem._sweep_blocks(u, "jacobian")[1], blocks)


def _clustered(n, distinct):
    """A diagonal operator with ``distinct`` eigenvalues: GMRES converges
    in exactly that many iterations."""
    values = 1.0 + np.arange(n) % distinct
    return CsrMatrix.from_coo(np.arange(n), np.arange(n), values, (n, n))


def test_krylov_storage_follows_the_depth_run():
    """Newton's GMRES runs ``restart=300`` and converges 8-9 deep: the
    storage allocated is rows for that depth, not ``2 restart + 1``."""
    n = 20_000
    A, b = _clustered(n, 8), np.ones(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = gmres(A, b, tol=1e-10, restart=300, maxiter=900)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged and res.iterations == 8
    # V and Z at their first 16 rows plus a few work vectors; storage
    # sized to ``restart`` would be 2 restart + 1 = 601 rows
    rows = peak / (8 * n)
    assert rows <= 48, rows


def test_a_cycle_past_the_first_rows_grows_bitwise(monkeypatch):
    """A cycle deeper than the first allocation carries its rows over:
    the same iterates as storage sized to ``restart`` up front."""
    A, b = _clustered(400, 40), np.linspace(1.0, 2.0, 400)
    grown = gmres(A, b, tol=1e-12, restart=60, maxiter=200)
    monkeypatch.setattr(gmres_module, "_FIRST_ROWS", 61)
    upfront = gmres(A, b, tol=1e-12, restart=60, maxiter=200)
    assert grown.iterations == upfront.iterations > 32  # grown twice: 16 -> 32 -> 60
    assert np.array_equal(grown.x, upfront.x)
    assert grown.residual_norms == upfront.residual_norms
