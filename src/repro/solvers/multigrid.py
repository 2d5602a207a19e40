"""Matrix-dependent semicoarsening (MDSC) for extruded meshes.

Follows the structure of Tuminaro, Perego, Tezaur, Salinger & Price
(SISC 2016), the preconditioner MALI uses: because ice sheets are thin,
the extruded mesh is extremely anisotropic, so the hierarchy coarsens
only in the *vertical* direction (semicoarsening) with vertical-line
smoothing, and hands the single-layer membrane problem that is left to
a horizontal solver.

:class:`ColumnCollapseMdsc` takes the vertical phase in one step -- a
piecewise-constant collapse of every column to one dof per velocity
component, Galerkin coarse operator, exact vertical-line relaxation as
smoother -- and factors the collapsed 2-D operator directly (``splu``)
at every mesh the repo runs; no horizontal aggregation level is built.

Applied as one V-cycle per preconditioner application inside GMRES.
"""

from __future__ import annotations

import numpy as np

from repro.fem.sparse import column_aggregates
from repro.gpusim.solver_bytes import vector_stream_bytes
from repro.observability import get_tracer
from repro.solvers.smoothers import VerticalLineSmoother

__all__ = ["ColumnCollapseMdsc", "MatrixFreeColumnCollapseMdsc"]


class ColumnCollapseMdsc:
    """Two-level MDSC preconditioner: line smoothing + full vertical collapse.

    The production preconditioner for the ice Jacobian.  Semicoarsening
    is taken to its limit in one step -- the coarse space has one dof per
    (column, velocity component), i.e. the vertically-collapsed membrane
    problem -- with exact vertical-line relaxation as pre/post smoother.
    On the ice Jacobians it needs 7-8 GMRES iterations per Newton step
    at every mesh measured (600 km / 3 layers to 100 km / 20), for one
    sparse factorization of the membrane problem per set-up.  The line
    smoother's damping is derived from the operator
    (:class:`VerticalLineSmoother`).

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
        residual product, the operator's ``bytes_per_matvec``) plus
        three vector passes for the block solve and update -- except
        the first pre-smoothing sweep, which starts from zero and needs
        no operator product; the coarse
        correction adds one fine residual product and the
        restriction/prolongation vector streams (the tiny collapsed
        factor solve is counted as coarse-vector traffic).
        """
        n, op_b = self.A.shape[0], self.A.bytes_per_matvec
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
