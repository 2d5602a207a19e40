"""Matrix-dependent semicoarsening AMG for extruded meshes (MDSC-AMG).

Follows the structure of Tuminaro, Perego, Tezaur, Salinger & Price
(SISC 2016), the preconditioner MALI uses: because ice sheets are thin,
the extruded mesh is extremely anisotropic, so the hierarchy first
coarsens only in the *vertical* direction (semicoarsening) with
vertical-line smoothing, and once columns are collapsed to a single
layer it switches to standard horizontal aggregation AMG.

* Vertical levels: piecewise-constant aggregation of adjacent layers
  within each column; Galerkin coarse operators; vertical-line smoother.
* Horizontal levels: greedy strength-based aggregation on the collapsed
  2-D operator; damped-Jacobi smoothing; direct coarse solve.

Applied as one V-cycle per preconditioner application inside GMRES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.matfree import OperatorModeError
from repro.fem.sparse import CsrMatrix, column_aggregates
from repro.observability import get_tracer
from repro.solvers.smoothers import JacobiSmoother, VerticalLineSmoother

__all__ = [
    "MgLevel",
    "SemicoarseningMultigrid",
    "ColumnCollapseMdsc",
    "MatrixFreeColumnCollapseMdsc",
    "build_mdsc_amg",
]


def _galerkin(A: CsrMatrix, P: CsrMatrix) -> CsrMatrix:
    """Coarse operator ``P^T A P`` (scipy sparse kernels as the backend)."""
    As, Ps = A.to_scipy(), P.to_scipy()
    return CsrMatrix.from_scipy((Ps.T @ As @ Ps).tocsr())


def _aggregation_prolongator(n_fine: int, agg: np.ndarray, n_coarse: int) -> CsrMatrix:
    """Piecewise-constant prolongator from an aggregate map."""
    if agg.shape != (n_fine,):
        raise ValueError("aggregate map must cover every fine dof")
    return CsrMatrix.from_coo(np.arange(n_fine), agg, np.ones(n_fine), (n_fine, n_coarse))


def vertical_aggregates(num_columns: int, levels: int, ndof: int) -> tuple[np.ndarray, int, int]:
    """Pair adjacent layers within each column.

    Dof numbering is column-major: dof = (col * levels + level) * ndof +
    comp.  Returns (aggregate map, coarse levels, coarse size).
    """
    coarse_levels = (levels + 1) // 2
    lev = np.arange(levels) // 2  # 0,0,1,1,2,...
    col = np.arange(num_columns)
    comp = np.arange(ndof)
    agg = (
        (col[:, None, None] * coarse_levels + lev[None, :, None]) * ndof + comp[None, None, :]
    ).ravel()
    return agg, coarse_levels, num_columns * coarse_levels * ndof


def horizontal_aggregates(A: CsrMatrix, ndof: int, theta: float = 0.02) -> tuple[np.ndarray, int]:
    """Greedy strength-based aggregation of the node graph of ``A``.

    Nodes (groups of ``ndof`` dofs) are aggregated with their strongly
    connected unaggregated neighbors; leftovers join a neighboring
    aggregate.  Returns a dof-level aggregate map and the coarse size.
    """
    n = A.shape[0]
    if n % ndof != 0:
        raise ValueError("matrix size not divisible by ndof")
    nn = n // ndof
    # node-level connection strength: max |a_ij| over the dof block
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    rb, cb = rows // ndof, A.indices // ndof
    absval = np.abs(A.data)
    diag = np.zeros(nn)
    np.maximum.at(diag, rb[rb == cb], absval[rb == cb])
    diag[diag == 0.0] = 1.0

    off = rb != cb
    strong = absval[off] >= theta * np.sqrt(diag[rb[off]] * diag[cb[off]])
    er, ec = rb[off][strong], cb[off][strong]
    # adjacency in CSR form
    order = np.argsort(er, kind="stable")
    er, ec = er[order], ec[order]
    nbr_ptr = np.zeros(nn + 1, dtype=np.int64)
    np.add.at(nbr_ptr, er + 1, 1)
    np.cumsum(nbr_ptr, out=nbr_ptr)

    agg_of = np.full(nn, -1, dtype=np.int64)
    next_agg = 0
    for v in range(nn):
        if agg_of[v] >= 0:
            continue
        nbrs = ec[nbr_ptr[v] : nbr_ptr[v + 1]]
        free = nbrs[agg_of[nbrs] < 0]
        if len(nbrs) and len(free) == 0:
            # every strong neighbor is already taken: a true straggler.
            # Seeding a new aggregate here would make it a singleton that
            # inflates the coarse operator; defer it to the attach pass.
            continue
        agg_of[v] = next_agg
        agg_of[free] = next_agg
        next_agg += 1
    # attach stragglers to a neighboring aggregate (only isolated nodes
    # -- no strong connections at all -- seed singletons above)
    for v in range(nn):
        if agg_of[v] < 0:
            agg_of[v] = agg_of[ec[nbr_ptr[v]]]

    dof_agg = (agg_of[:, None] * ndof + np.arange(ndof)[None, :]).ravel()
    return dof_agg, next_agg * ndof


class ColumnCollapseMdsc:
    """Two-level MDSC preconditioner: line smoothing + full vertical collapse.

    The production preconditioner for the ice Jacobian.  Semicoarsening
    is taken to its limit in one step -- the coarse space has one dof per
    (column, velocity component), i.e. the vertically-collapsed membrane
    problem -- with exact vertical-line relaxation as pre/post smoother.
    This mirrors the structure MDSC-AMG reaches after its vertical
    phase.  On the ice Jacobians it needs 7-8 GMRES iterations per
    Newton step at every mesh measured (600 km / 3 layers to 200 km /
    10), against 11-12 for the pairwise hierarchy of
    :func:`build_mdsc_amg`, for one sparse factorization of the
    membrane problem per set-up.  The line smoother's damping is
    derived from the operator (:class:`VerticalLineSmoother`).

    The set-up is split the way ``AssemblyPlan`` splits assembly: where
    the column blocks and the membrane operator's entries sit in the
    operator's values, the coarse pattern and the collapse index are a
    function of the mesh (``symbolic``, the problem's
    :class:`~repro.fem.sparse.ColumnCollapseMap`), and a set-up is the
    numeric half only -- two ``bincount``s, the batched inverse, the
    damping estimate, ``splu`` on the stored pattern.  Without
    ``symbolic`` the operator's own map is built first: the same path,
    uncached.  ``CsrMatrix`` and ``MatrixFreeJacobian`` both serve, and
    the prolongator is never formed.
    """

    # The frozen benchmark wraps ``__init__`` and ``apply`` through the
    # ``__dict__`` of BOTH class names, so each name defines its own and
    # neither calls the other's (one set-up or V-cycle = one wrapped
    # call); the bodies, and the constructor's signature, are
    # ``_setup``/``_vcycle``.  The second name goes in the
    # benchmark-archetype PR of ROADMAP item 3(a).
    def __init__(self, *args, **kwargs):
        self._setup(*args, **kwargs)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Pre-smooth, coarse-correct on the collapsed membrane, post-smooth."""
        return self._vcycle(r)

    def _setup(
        self, A, num_columns, levels, ndof=2, smoother_iters=2, coarse_damping=1.0, symbolic=None
    ):
        import scipy.sparse.linalg as spla

        n, blk = A.shape[0], levels * ndof
        if n != num_columns * blk:
            raise ValueError("operator size inconsistent with columns x levels x ndof")
        if getattr(A, "collapse_map", None) is None:
            raise OperatorModeError(
                f"{type(self).__name__} needs an operator exposing collapse_map() "
                f"(CsrMatrix or MatrixFreeJacobian); got {type(A).__name__}"
            )
        if symbolic is None:
            symbolic = A.collapse_map(blk, *column_aggregates(n, blk, ndof))
        self.A, self.symbolic = A, symbolic
        self.smoother = VerticalLineSmoother(A, blk, iters=smoother_iters, symbolic=symbolic)
        Ac = symbolic.collapse(A)
        # tiny shift guards numerically singular collapsed blocks
        Ac.data[symbolic.coarse_diag] += 1.0e-12 * np.abs(Ac.data).max()
        self._coarse = spla.splu(Ac)
        self.coarse_damping = coarse_damping

    @property
    def bytes_per_apply(self) -> float:
        """Modeled HBM traffic of one V-cycle (roofline attribution).

        Each smoother sweep streams the fine operator once (its
        residual product, priced per operator mode by
        ``operator_traffic``) plus three vector passes for the block
        solve and update -- except the first pre-smoothing sweep, which
        starts from zero and needs no operator product; the coarse
        correction adds one fine residual product and the
        restriction/prolongation vector streams (the tiny collapsed
        factor solve is counted as coarse-vector traffic).
        """
        from repro.gpusim.solver_bytes import operator_traffic, vector_stream_bytes

        n, op_b = self.A.shape[0], operator_traffic(self.A)[1]
        sweeps = 2 * self.smoother.iters  # pre + post relaxation
        smoother_b = (sweeps - 1) * op_b + sweeps * 3 * vector_stream_bytes(n)
        coarse_b = (
            op_b + 4 * vector_stream_bytes(n) + 4 * vector_stream_bytes(self.symbolic.num_coarse)
        )
        return smoother_b + coarse_b

    @property
    def bytes_per_setup(self) -> float:
        """Modeled HBM traffic of the set-up's operator work: the line
        smoother's damping estimate (the block inversion and the coarse
        factorization are not modeled)."""
        return self.smoother.bytes_per_setup

    def _vcycle(self, r: np.ndarray) -> np.ndarray:
        tr = get_tracer()
        with tr.span("mdsc.vcycle", kind="column-collapse") as sp:
            if tr.recording:
                sp.args["bytes"] = self.bytes_per_apply
            x = self.smoother.apply(r)  # zero guess: no operator product in sweep 1
            rr = r - self.A.matvec(x)
            sym = self.symbolic  # restriction / prolongation through the index
            xc = self._coarse.solve(np.bincount(sym.agg, weights=rr, minlength=sym.num_coarse))
            x = x + self.coarse_damping * xc[sym.agg]
            return self.smoother.smooth(self.A, r, x)


class MatrixFreeColumnCollapseMdsc(ColumnCollapseMdsc):
    """The name a matrix-free operator's MDSC is constructed (and traced)
    under; set-up and V-cycle are :class:`ColumnCollapseMdsc`'s."""

    def __init__(self, *args, **kwargs):
        self._setup(*args, **kwargs)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Pre-smooth, coarse-correct on the collapsed membrane, post-smooth."""
        return self._vcycle(r)


@dataclass
class MgLevel:
    """One level of the hierarchy."""

    A: CsrMatrix
    P: CsrMatrix | None  # prolongator to this level from the next-coarser
    smoother: object
    kind: str  # "vertical" | "horizontal" | "coarse"


class SemicoarseningMultigrid:
    """V-cycle preconditioner over a prebuilt MDSC-AMG hierarchy.

    Coarse corrections are added undamped and the prolongators are the
    plain piecewise-constant ones.  Both rely on every line smoother
    sitting inside its stability limit (``omega * lambda_max < 2``,
    which :class:`VerticalLineSmoother` derives per operator): a
    smoother past it amplifies the oscillatory modes, and the
    preconditioned operator then looks indefinite whatever the coarse
    levels do (DESIGN.md section 7 has the measurements).
    """

    def __init__(self, levels: list[MgLevel], pre_sweeps: int = 1, post_sweeps: int = 1):
        if not levels:
            raise ValueError("empty multigrid hierarchy")
        self.levels = levels
        self.pre = pre_sweeps
        self.post = post_sweeps
        import scipy.linalg as sla

        coarse = levels[-1].A.toarray()
        # regularize in case of a semi-definite coarse block
        coarse += 1.0e-12 * np.eye(coarse.shape[0]) * max(1.0, np.abs(coarse).max())
        self._coarse_lu = sla.lu_factor(coarse)

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        import scipy.linalg as sla

        return sla.lu_solve(self._coarse_lu, b)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        level = self.levels[k]
        if k == len(self.levels) - 1:
            return self._coarse_solve(b)
        x = level.smoother.smooth(level.A, b, np.zeros_like(b), self.pre)
        r = b - level.A.matvec(x)
        P = self.levels[k + 1].P
        rc = P.rmatvec(r)
        xc = self._cycle(k + 1, rc)
        x = x + P.matvec(xc)
        x = level.smoother.smooth(level.A, b, x, self.post)
        return x

    @property
    def bytes_per_apply(self) -> float:
        """Modeled HBM traffic of one V-cycle across the hierarchy.

        Per level (except the direct-solved coarsest): pre+post smoother
        sweeps stream that level's operator plus three vector passes
        each, and the residual/transfer work adds one more operator
        stream and four vector passes.
        """
        from repro.gpusim.solver_bytes import spmv_bytes, vector_stream_bytes

        total = 0.0
        for lv in self.levels[:-1]:
            n, nnz = lv.A.shape[0], lv.A.nnz
            sweeps = self.pre + self.post
            total += sweeps * (spmv_bytes(n, nnz) + 3 * vector_stream_bytes(n))
            total += spmv_bytes(n, nnz) + 4 * vector_stream_bytes(n)
        total += 4 * vector_stream_bytes(self.levels[-1].A.shape[0])
        return total

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle approximating ``A^-1 r``."""
        tr = get_tracer()
        with tr.span("mdsc.vcycle", kind="amg", num_levels=len(self.levels)) as sp:
            if tr.recording:
                sp.args["bytes"] = self.bytes_per_apply
            return self._cycle(0, r)

    def describe(self) -> list[tuple[str, int, int]]:
        """(kind, n, nnz) per level -- for reports and tests."""
        return [(lv.kind, lv.A.shape[0], lv.A.nnz) for lv in self.levels]


def build_mdsc_amg(
    A: CsrMatrix,
    num_columns: int,
    levels: int,
    ndof: int = 2,
    coarse_size: int = 400,
    theta: float = 0.02,
    jacobi_omega: float = 0.7,
    symbolic=None,
) -> SemicoarseningMultigrid:
    """Build the MDSC-AMG hierarchy for an extruded-mesh operator.

    ``num_columns``/``levels`` describe the extrusion (column-major dof
    numbering assumed); vertical semicoarsening halves the layer count
    until single-layer, then horizontal aggregation coarsens to
    ``coarse_size``.  Prolongators are piecewise constant and every
    multi-layer level gets a line smoother with its own derived damping
    (the Galerkin operators have their own ``lambda_max``).  ``symbolic``
    is the fine level's block map (see :class:`ColumnCollapseMdsc`).
    """
    with get_tracer().span("mdsc.build_hierarchy", n=A.shape[0], levels=levels):
        mg_levels: list[MgLevel] = [
            MgLevel(A, None, VerticalLineSmoother(A, levels * ndof, symbolic=symbolic), "vertical")
        ]
        cur_A, cur_levels = A, levels
        # vertical semicoarsening phase
        while cur_levels > 1:
            agg, cl, ncoarse = vertical_aggregates(num_columns, cur_levels, ndof)
            P = _aggregation_prolongator(cur_A.shape[0], agg, ncoarse)
            Ac = _galerkin(cur_A, P)
            cur_A, cur_levels = Ac, cl
            smoother = (
                VerticalLineSmoother(Ac, cl * ndof)
                if cl > 1
                else JacobiSmoother(Ac, omega=jacobi_omega, iters=2)
            )
            mg_levels.append(MgLevel(Ac, P, smoother, "vertical"))

        # horizontal aggregation phase
        while cur_A.shape[0] > coarse_size:
            agg, ncoarse = horizontal_aggregates(cur_A, ndof, theta)
            if ncoarse >= cur_A.shape[0]:  # no coarsening progress; stop
                break
            P = _aggregation_prolongator(cur_A.shape[0], agg, ncoarse)
            Ac = _galerkin(cur_A, P)
            mg_levels.append(
                MgLevel(Ac, P, JacobiSmoother(Ac, omega=jacobi_omega, iters=2), "horizontal")
            )
            cur_A = Ac

        mg_levels[-1] = MgLevel(mg_levels[-1].A, mg_levels[-1].P, mg_levels[-1].smoother, "coarse")
        return SemicoarseningMultigrid(mg_levels)
