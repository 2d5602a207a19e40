"""Suite ``matvec``: the matrix-free operator against the assembled
matrix (``J @ v``, diagonal, line-smoother blocks, whole solves, byte
counters), the line smoother inside its stability limit, and the MDSC
symbolic map against an independent construction.
:func:`matfree_perturbed_divergences` is the suite's planted defect."""

from __future__ import annotations

import numpy as np

from repro.verify.compare import collect, first_divergence, mismatch, within
from repro.verify.fixtures import antarctica, greenland_mesh, seeded_state
from repro.verify.oracles import register

__all__ = ["matfree_perturbed_divergences", "smoother_contraction_divergences"]

_MATVEC_RTOL = 1.0e-12
_MATVEC_PROBES = 4  # random directions v per J @ v comparison


def _operator_pair(geometry: str = "antarctica"):
    """Assembled and matrix-free problems on one fixture mesh: the
    assembled one as the fixture builds it, its matrix-free twin on the
    same mesh and geometry."""
    from dataclasses import replace

    from repro.app import StokesVelocityProblem, VelocityConfig

    if geometry == "antarctica":
        t = antarctica(operator_mode="assembled")
        mesh, geo, pa = t.mesh, t.geometry, t.problem
    else:
        mesh, geo = greenland_mesh()
        pa = StokesVelocityProblem(mesh, geo, VelocityConfig(operator_mode="assembled"))
    return pa, StokesVelocityProblem(mesh, geo, replace(pa.config, operator_mode="matrix-free"))


def _jacobians(seed: int):
    """The antarctica pair, a state seeded from ``seed``'s generator (which
    it returns, to draw on), and both operators at that state."""
    pa, pm = _operator_pair("antarctica")
    rng = np.random.default_rng(seed)
    u = seeded_state(pa, rng)
    return pa, rng, u, pa.jacobian(u), pm.jacobian(u)


for _geom in ("antarctica", "greenland"):

    @register(
        f"matrix-free-vs-assembled-jv-{_geom}",
        f"element-block J@v equals assembled CSR J@v on the {_geom} fixture",
    )
    def _oracle_matfree_jv(geom=_geom):
        """Matrix-free vs assembled ``J @ v`` at a seeded state, plus diagonals."""
        pa, pm = _operator_pair(geom)
        rng = np.random.default_rng(7)
        u = seeded_state(pa, rng)
        A, B = pa.jacobian(u), pm.jacobian(u)
        divs = []
        for p in range(_MATVEC_PROBES):
            v = rng.normal(size=len(u))
            divs += collect([within(f"J@v (probe {p})", B.matvec(v), A.matvec(v), _MATVEC_RTOL)])
        divs += collect([within("diag(J)", B.diagonal(), A.diagonal(), _MATVEC_RTOL)])
        return divs, (
            f"{geom}: {A.shape[0]} dofs, 4 probes + diagonal @ rtol {_MATVEC_RTOL:g}"
        )


@register(
    "matrix-free-smoother-blocks",
    "matrix-free vertical-line blocks equal the CSR-extracted blocks",
)
def _oracle_matfree_blocks():
    pa, _, _, A, B = _jacobians(9)
    blk = pa.mesh.levels * 2
    ref = A.column_blocks(blk)
    divs = collect([within("column_blocks", B.column_blocks(blk), ref, _MATVEC_RTOL)])
    return divs, f"{ref.shape[0]} column blocks of {blk}x{blk} @ rtol {_MATVEC_RTOL:g}"


@register(
    "matrix-free-solve-vs-assembled",
    "end-to-end Newton solves agree across operator modes to the golden tolerance",
)
def _oracle_matfree_solve():
    pa, pm = _operator_pair("antarctica")
    sa, sm = pa.solve(), pm.solve()
    scale = max(1.0e-30, float(np.max(np.abs(sa.u))))
    divs = collect([
        first_divergence("u (matrix-free vs assembled)", sm.u, sa.u, rtol=1e-5, atol=1e-8 * scale)
    ])
    if sm.newton.iterations != sa.newton.iterations:
        divs.append(mismatch("newton.iterations", sm.newton.iterations, sa.newton.iterations))
    return divs, (
        f"mean |u| {sa.mean_velocity:.6f} vs {sm.mean_velocity:.6f} m/yr, "
        f"{sa.newton.iterations} Newton steps each"
    )


@register(
    "matvec-bytes-reconciliation",
    "GMRES byte accounting reconciles with the operator model in both operator modes",
)
def _oracle_matvec_bytes():
    from repro.gpusim.solver_bytes import element_apply_bytes, spmv_bytes
    from repro.solvers.gmres import gmres
    from repro.solvers.smoothers import JacobiSmoother

    pa, _, u, A, B = _jacobians(17)
    b = -pa.residual(u)
    # a deliberately weak preconditioner: enough matvecs for a
    # miscounted one to show
    ra = gmres(A, b, tol=1e-6, restart=200, maxiter=400, M=JacobiSmoother(A, iters=3))
    rm = gmres(B, b, tol=1e-6, restart=200, maxiter=400, M=JacobiSmoother(B, iters=3))
    # exact reconciliation: accumulated matvec bytes == count * model,
    # priced here from each operator's arrays, not its own protocol
    expect_a = ra.matvecs * spmv_bytes(A.shape[0], A.nnz, A.indices.itemsize)
    expect_m = rm.matvecs * element_apply_bytes(B.n, *B.elem_dofs.shape, B.elem_dofs.itemsize)
    divs = [
        mismatch(name, got, want)
        for name, got, want in (
            ("assembled.matvec_bytes", ra.matvec_bytes, expect_a),
            ("matrix-free.matvec_bytes", rm.matvec_bytes, expect_m),
        )
        if got != want
    ]
    return divs, (
        f"matvec bytes: assembled {ra.matvec_bytes:.3e} over {ra.matvecs} matvecs, "
        f"matrix-free {rm.matvec_bytes:.3e} over {rm.matvecs}, within budget 400"
    )


#: the derived damping must leave this much room below the stability
#: limit ``omega * lambda_max = 2`` (measured 1.24-1.30)
_CONTRACTION_BOUND = 1.5
#: the ten-step power estimate over ``scipy.sparse.linalg.eigs``
#: (measured 0.93-1.02 across meshes and Newton steps)
_ESTIMATE_BAND = (0.85, 1.1)


@register(
    "smoother-contraction",
    "the line smoother's derived damping sits inside the stability limit 2 / lambda_max(B^-1 A)",
)
def smoother_contraction_divergences(omega: float | None = None):
    """Is the vertical-line smoother inside its stability limit?

    On the converged-state Jacobian of the 600 km / 3-layer mesh -- the
    largest ``lambda_max(B^-1 A)`` of the meshes on record, 2.35 -- block
    Jacobi contracts only if ``omega * lambda_max < 2``.  The reference
    ``lambda_max`` comes from ARPACK, not from the smoother's own power
    iteration.  ``omega=None`` checks the derived damping (and the
    estimate behind it); a planted constant such as the former 0.9 is
    the negative control.
    """
    import scipy.sparse.linalg as spla

    from repro.solvers.smoothers import VerticalLineSmoother

    divs, detail = [], []
    for mode in ("assembled", "matrix-free"):
        problem = antarctica(600.0, operator_mode=mode).problem
        J = problem.jacobian(problem.solve().u)
        sm = VerticalLineSmoother(J, problem.mesh.levels * 2, omega=omega)
        n = J.shape[0]
        BinvA = spla.LinearOperator(
            (n, n), matvec=lambda v, J=J, sm=sm: sm._block_solve(J.matvec(v)), dtype=np.float64
        )
        lam_ref = float(
            abs(spla.eigs(BinvA, k=1, which="LM", v0=np.ones(n), return_eigenvectors=False)[0])
        )
        if not sm.omega * lam_ref < _CONTRACTION_BOUND:
            divs.append(
                mismatch(f"{mode}: omega * lambda_max", sm.omega * lam_ref, _CONTRACTION_BOUND)
            )
        if sm.lambda_max is not None:
            ratio = sm.lambda_max / lam_ref
            lo, hi = _ESTIMATE_BAND
            if not lo <= ratio <= hi:
                divs.append(
                    mismatch(f"{mode}: estimate / lambda_max", ratio, lo if ratio < lo else hi)
                )
        detail.append(f"{mode} lambda_max {lam_ref:.3f}, omega {sm.omega:.3f}")
    return divs, (
        f"{'; '.join(detail)}; omega * lambda_max < {_CONTRACTION_BOUND}, "
        f"estimate within {_ESTIMATE_BAND[0]}-{_ESTIMATE_BAND[1]}x"
    )


@register(
    "mdsc-symbolic-vs-direct",
    "MDSC numeric refresh through the problem's symbolic map equals an independent construction",
)
def _oracle_mdsc_symbolic():
    """On the converged-state Jacobian of the 600 km / 3-layer problem, for
    CSR, matrix-free and gathered SPMD operators: blocks bitwise the
    dense diagonal blocks, ``P^T A P`` against the dense triple product,
    one V-cycle bitwise the direct constructor's (which builds its own map)."""
    from repro.solvers.multigrid import ColumnCollapseMdsc, MatrixFreeColumnCollapseMdsc

    divs = []
    for mode, nparts in (("assembled", 1), ("matrix-free", 1), ("assembled", 2)):
        problem = antarctica(600.0, operator_mode=mode, nparts=nparts).problem
        J = problem.jacobian(problem.solve().u)
        A = J.gather_global() if nparts > 1 else J
        levels, n, blk = problem.mesh.levels, A.shape[0], 2 * problem.mesh.levels
        shared = problem.plan.collapse_map(levels, 2, problem.matrix_free)
        # element order == CSR slot order, so the plan's fill is the dense reference
        fill = problem.plan.assemble_matrix(A.local_jac) if problem.matrix_free else A
        dense = fill.toarray()
        ref_blocks = np.stack([dense[i : i + blk, i : i + blk] for i in range(0, n, blk)])
        P = np.zeros((n, n // levels))
        P[np.arange(n), np.arange(n) // blk * 2 + np.arange(n) % 2] = 1.0
        ref_coarse = P.T @ dense @ P
        cls = MatrixFreeColumnCollapseMdsc if problem.matrix_free else ColumnCollapseMdsc
        kw = dict(num_columns=n // blk, levels=levels)
        r = np.random.default_rng(31).standard_normal(n)
        checks = (
            ("column blocks", shared.column_blocks(A), ref_blocks, 0.0),
            ("collapsed operator", shared.collapse(A).toarray(), ref_coarse, 1.0e-12),
            ("V-cycle", cls(A, symbolic=shared, **kw).apply(r), cls(A, **kw).apply(r), 0.0),
        )
        divs += collect(
            within(f"{mode}/nparts={nparts}: {name}", got, want, rtol)
            for name, got, want, rtol in checks
        )
    return divs, (
        f"{n} dofs: {n // blk} blocks of {blk}x{blk} bitwise, {n // levels} coarse dofs "
        "@ rtol 1e-12, V-cycle bitwise, for CSR / element / gathered operators"
    )


def matfree_perturbed_divergences(rel: float = 1.0e-4):
    """Divergences of a deliberately perturbed matrix-free operator.

    Scales one element-block entry by ``1 + rel`` -- the planted defect
    proving the matvec oracle *detects* a wrong matrix-free apply (the
    suite's negative control, mirroring
    :func:`repro.verify.oracles.kernels.perturbed_divergences`).
    """
    pa, rng, u, A, B = _jacobians(23)
    # poison one interior (non-Dirichlet-row) block entry
    is_bc = np.zeros(B.n, dtype=bool)
    is_bc[pa.bc_dofs] = True
    cells, ii = np.nonzero(~is_bc[B.elem_dofs])
    c, i = int(cells[0]), int(ii[0])
    B.local_jac[c, i, i] *= 1.0 + rel
    v = rng.normal(size=len(u))
    return collect([within("perturbed J@v", B.matvec(v), A.matvec(v), _MATVEC_RTOL)])


@register(
    "matvec-detects-perturbed-operator",
    "the matvec oracle flags a planted wrong element block (detection selftest)",
)
def _oracle_matfree_detection():
    divs = matfree_perturbed_divergences()
    if not divs:
        return [mismatch("perturbed-operator-not-detected", 0.0, 1.0)], (
            "planted 1e-4 block perturbation was NOT detected"
        )
    return [], (
        f"planted 1e-4 block perturbation detected "
        f"(max |diff| {divs[0].max_abs_err:.3e} over {divs[0].num_bad} entries)"
    )
