"""The lateral Dirichlet condition has one home.

``StokesVelocityProblem._impose_dirichlet`` writes the row replacement
(row ``i`` becomes ``s * e_i``) into the Jacobian's element blocks
before any operator is built; the CSR fill, each SPMD rank's fill, the
matrix-free apply, the column blocks and the MDSC collapse carry no
boundary mask of their own.  One parametrized test holds every operator
to ``apply_dirichlet`` -- the row replacement on an assembled matrix,
kept as the reference -- applied to the plan's COO->CSR fill of the raw
sweep blocks (it sums duplicates in element order, as every operator
does; ``CsrMatrix.from_coo``'s ``reduceat`` sums them in another), with
two planted cases: a skipped impose step must be caught, and a NaN in a
Dirichlet row of the raw blocks is replaced away in every operator mode
alike.
"""

import numpy as np
import pytest

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.app.velocity_solver import StokesVelocityProblem
from repro.fem.assembly import apply_dirichlet

MODES = {
    "assembled": VelocityConfig(operator_mode="assembled"),
    "matrix-free": VelocityConfig(operator_mode="matrix-free"),
    "nparts=4": VelocityConfig(nparts=4),
}
PLANTS = ("none", "nan-row", "skip-impose")


@pytest.fixture(scope="module")
def problems():
    return {
        mode: AntarcticaTest.build(
            AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=velocity)
        ).problem
        for mode, velocity in MODES.items()
    }


def _storage_cells(problem):
    """Global cell id of each row of the problem's block arrays."""
    n = problem.mesh.num_elems
    return np.arange(n) if problem.spmd is None else problem.spmd.cell_order


def _row_slots(indptr, rows):
    """CSR ``data`` slots of ``rows``, row after row."""
    start, count = indptr[rows], np.diff(indptr)[rows]
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _divergences(problem, u):
    """The names of the operator checks the problem's Jacobian at ``u`` fails."""
    n, s, bc = problem.dofmap.num_dofs, problem.bc_diag_scale, problem.bc_dofs
    plan = problem.plan
    raw = problem._sweep_blocks(u, "jacobian")[1]
    in_global_order = np.empty_like(raw)
    in_global_order[_storage_cells(problem)] = raw
    ref, _ = apply_dirichlet(plan.assemble_matrix(in_global_order), np.zeros(n), bc, diag_scale=s)

    J = problem.jacobian(u)
    A = J if problem.spmd is None else J.gather_global()
    # the plan sums element blocks in element order, like its fill of ``ref``
    data = plan.assemble_matrix(J.local_jac).data if problem.matrix_free else A.data
    x = np.random.default_rng(11).normal(size=n)
    ours = plan.collapse_map(problem.mesh.levels, 2, problem.matrix_free)
    theirs = plan.collapse_map(problem.mesh.levels, 2, False)
    coarse, coarse_ref = ours.collapse(A).toarray(), theirs.collapse(ref).toarray()
    checks = {
        "isfinite": J.isfinite(),
        "data": _same_bits(data, ref.data),
        "matvec Dirichlet rows": np.array_equal(J.matvec(x)[bc], s * x[bc]),
        "diagonal": _same_bits(A.diagonal(), ref.diagonal()),
        "column_blocks": _same_bits(ours.column_blocks(A), theirs.column_blocks(ref)),
        "collapse": np.allclose(coarse, coarse_ref, rtol=0.0, atol=1e-12 * np.abs(coarse_ref).max()),
    }
    if problem.spmd is not None:
        for p, part in enumerate(J.data_parts):
            own = ref.data[_row_slots(ref.indptr, problem.spmd.owned_dofs(p))]
            checks[f"data_parts[{p}]"] = _same_bits(part, own)
    return [name for name, ok in checks.items() if not ok]


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("mode", MODES)
def test_rows_come_from_the_blocks(problems, mode, plant, monkeypatch):
    problem = problems[mode]
    u = np.random.default_rng(5).normal(size=problem.dofmap.num_dofs) * 10.0
    u[problem.bc_dofs] = 0.0
    if plant == "skip-impose":
        monkeypatch.setattr(StokesVelocityProblem, "_impose_dirichlet", lambda self, blocks: None)
    if plant == "nan-row":
        cell_dofs = problem.plan.elem_dofs[_storage_cells(problem)]
        c, i = np.argwhere(np.isin(cell_dofs, problem.bc_dofs))[0]
        sweep = problem._sweep_blocks

        def poisoned(u, mode):
            loc_r, loc_j = sweep(u, mode)
            loc_j[c, i, (i + 1) % loc_j.shape[-1]] = np.nan
            return loc_r, loc_j

        monkeypatch.setattr(problem, "_sweep_blocks", poisoned)
    found = _divergences(problem, u)
    if plant == "skip-impose":
        assert {"data", "matvec Dirichlet rows", "diagonal", "column_blocks"} <= set(found)
    else:
        assert found == []
