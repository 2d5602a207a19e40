"""Vectorized local-to-global FE assembly (Albany's scatter phase).

``assemble_matrix`` turns the per-element dense Jacobian blocks produced
by the SFad kernel into a global CSR matrix; ``assemble_vector`` scatters
per-element residual blocks.  ``apply_dirichlet`` imposes strong boundary
conditions symmetrically-enough for a nonsymmetric solve (row
replacement with unit diagonal).

:class:`AssemblyPlan` splits assembly into a symbolic phase (done once
per problem: sort/dedup the node-pair pattern, build the CSR structure and
the COO->CSR scatter permutation, precompute Dirichlet masks) and a numeric
phase (done every Newton step: a pure scatter-add into a preallocated
``data`` array).  This mirrors how Albany/Tpetra reuse a fixed crs graph
across nonlinear iterations instead of re-sorting the full ``nc * k^2``
triplet list each time.
"""

from __future__ import annotations

import numpy as np

from repro.fem.dofmap import DofMap
from repro.fem.sparse import ColumnCollapseMap, CsrMatrix, column_aggregates

__all__ = [
    "build_sparsity",
    "assemble_matrix",
    "assemble_vector",
    "apply_dirichlet",
    "AssemblyPlan",
]


def build_sparsity(dofmap: DofMap) -> tuple[np.ndarray, np.ndarray]:
    """COO (rows, cols) pattern of the element-coupled dof graph.

    Entries are repeated per element pair; :meth:`CsrMatrix.from_coo`
    collapses duplicates during assembly.
    """
    ed = dofmap.elem_dofs()  # (nc, k)
    k = ed.shape[1]
    rows = np.repeat(ed, k, axis=1).ravel()
    cols = np.tile(ed, (1, k)).ravel()
    return rows, cols


class AssemblyPlan:
    """Cached symbolic assembly for a fixed dof map (and optional BCs).

    Built once per problem; every subsequent assembly is a numeric fill:

    * ``elem_dofs`` -- per-element global dof lists, gathered once;
    * ``scatter`` -- permutation mapping each entry of the raveled
      ``(nc, k, k)`` local-Jacobian array to its CSR ``data`` slot
      (duplicates map to the same slot and are summed);
    * ``indptr``/``indices`` -- the fixed CSR structure, shared by every
      matrix the plan assembles (and by each matrix's scipy SpMV handle):
      int32 while ``nnz < 2**31``, int64 past that;
    * ``bc_clear``/``bc_diag`` -- masks over ``data`` marking Dirichlet
      rows to clear and their diagonal slots.
    """

    def __init__(self, dofmap: DofMap, bc_dofs: np.ndarray | None = None):
        ed = dofmap.elem_dofs()
        nc, k = ed.shape
        n = dofmap.num_dofs
        self.dofmap = dofmap
        self.elem_dofs = ed
        self.num_dofs = n
        self.block_shape = (nc, k, k)

        # The dof pattern is the node pattern (x) a dense nd x nd block: sort
        # the nc * nn^2 node pairs, then number dof slots arithmetically by (node
        # row, component a, node column, component b), the dofs' (row, col) order.
        # No temporary is larger than the nc * nn^2 node pairs (1 / nd^2 of the
        # dof-level arrays): those are written one (a, b) component plane at a time.
        el, nd, nodes = dofmap.elems, dofmap.ndof_per_node, dofmap.num_nodes
        key = (el[:, :, None] * nodes + el[:, None, :]).ravel()
        order = np.argsort(key)
        ks = key[order]
        del key
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        node_slot = np.empty(len(order), dtype=np.int64)
        node_slot[order] = np.cumsum(new) - 1
        del order
        node_rows, node_cols = np.divmod(ks[new], nodes)
        del ks, new
        count = np.bincount(node_rows, minlength=nodes)  # node pairs per node row
        start, width = np.cumsum(count) - count, nd * count
        self.nnz = nnz = len(node_rows) * nd * nd
        # the CSR structure in int32 while it fits: scipy's SpMV handle then
        # shares it instead of copying it down for every matrix
        index = np.int32 if nnz < 2**31 else np.int64

        # dof slot of (node slot s, a, b) = first[s] + a * stride[s] + b, where
        # first[s] = nd^2 start + nd (s - start) for s in the node row from start
        stride = width[node_rows]
        first = nd * ((nd - 1) * start[node_rows] + np.arange(len(node_rows)))
        nn = el.shape[1]
        # per element node pair: the slot of component row a = 0, advanced
        # by the row stride to each next a
        row_first = first[node_slot].reshape(nc, nn, nn)
        row_stride = stride[node_slot].reshape(nc, nn, nn)
        del node_slot
        scatter = np.empty((nc, nn, nd, nn, nd), dtype=np.int64)
        self.indices = np.empty(nnz, dtype=index)
        for a in range(nd):
            for b in range(nd):
                np.add(row_first, b, out=scatter[:, :, a, :, b])
                self.indices[first + a * stride + b] = nd * node_cols + b
            row_first += row_stride
        del row_first, row_stride
        self.scatter = scatter.reshape(-1)
        rows_start = nd * nd * start[:, None] + np.arange(nd) * width[:, None]
        self.indptr = np.append(rows_start, nnz).astype(index)

        self.bc_dofs = None
        self.bc_clear = None
        self.bc_diag = None
        if bc_dofs is not None:
            bc_dofs = np.asarray(bc_dofs, dtype=np.int64)
            if bc_dofs.size and (bc_dofs.min() < 0 or bc_dofs.max() >= n):
                raise ValueError("Dirichlet dof out of range")
            is_bc = np.zeros(n, dtype=bool)
            is_bc[bc_dofs] = True
            self.bc_dofs = bc_dofs
            self.bc_clear = np.repeat(is_bc, np.diff(self.indptr))
            # the diagonal of dof row (i, a) is slot (a, a) of node pair (i, i)
            self.bc_diag = np.zeros(nnz, dtype=bool)
            diag = np.flatnonzero(node_rows == node_cols)
            for a in range(nd):
                hit = diag[is_bc[nd * node_rows[diag] + a]]
                self.bc_diag[first[hit] + a * stride[hit] + a] = True

        #: numeric fills performed so far (instrumentation for tests/benches)
        self.num_matrix_fills = 0
        #: matrix-free operators wrapped so far (the matrix-free mode's
        #: analogue of ``num_matrix_fills``)
        self.num_operator_wraps = 0

    # ------------------------------------------------------------------
    def assemble_matrix(self, local_jac: np.ndarray, diag_scale: float | None = None) -> CsrMatrix:
        """Numeric fill: scatter-add local blocks into a fresh ``data`` array.

        With ``diag_scale`` (requires the plan's ``bc_dofs``), Dirichlet
        rows are cleared and given that diagonal in the same pass --
        no per-step re-sort, no structure copies.
        """
        if local_jac.shape != self.block_shape:
            raise ValueError(
                f"local Jacobian must have shape {self.block_shape}, got {local_jac.shape}"
            )
        data = np.bincount(self.scatter, weights=local_jac.ravel(), minlength=self.nnz)
        if diag_scale is not None:
            if self.bc_clear is None:
                raise ValueError("plan was built without Dirichlet dofs")
            if diag_scale <= 0.0:
                raise ValueError("diag_scale must be positive")
            data[self.bc_clear] = 0.0
            data[self.bc_diag] = diag_scale
        self.num_matrix_fills += 1
        return CsrMatrix((self.num_dofs, self.num_dofs), self.indptr, self.indices, data)

    def matrix_free_operator(self, local_jac: np.ndarray, diag_scale: float | None = None):
        """Wrap local blocks as a matrix-free operator (no CSR fill).

        The matrix-free counterpart of :meth:`assemble_matrix`: the same
        ``(nc, k, k)`` SFad blocks, the same Dirichlet row replacement,
        but the global matrix is never formed -- GMRES consumes the
        returned :class:`repro.fem.matfree.MatrixFreeJacobian` through
        its ``matvec``.  The plan's cached connectivity is shared, so
        wrapping is O(1) in the problem size; every matvec is a pure
        numeric sweep over the element blocks.
        """
        from repro.fem.matfree import MatrixFreeJacobian

        if local_jac.shape != self.block_shape:
            raise ValueError(
                f"local Jacobian must have shape {self.block_shape}, got {local_jac.shape}"
            )
        if diag_scale is not None and self.bc_dofs is None:
            raise ValueError("plan was built without Dirichlet dofs")
        op = MatrixFreeJacobian(
            self.elem_dofs,
            local_jac,
            self.num_dofs,
            bc_dofs=self.bc_dofs if diag_scale is not None else None,
            diag_scale=1.0 if diag_scale is None else diag_scale,
        )
        self.num_operator_wraps += 1
        return op

    def collapse_map(
        self, levels: int, ndof: int, element_values: bool, coarse: bool = True
    ) -> ColumnCollapseMap:
        """Symbolic MDSC set-up for the operators this plan produces:
        :meth:`assemble_matrix`'s (also gathered from their SPMD row
        partition) or, with ``element_values``, :meth:`matrix_free_operator`'s,
        each entry routed through ``scatter`` so the coarse pattern comes
        from the ``nnz`` the plan already sorted.  ``coarse=False`` leaves
        out the collapse's coarse index (about 4/5 of the build), which
        only MDSC reads; the line smoother reads the column blocks alone.
        Topology only, like the plan: one per problem serves every Newton
        step of every solve."""
        n, blk = self.num_dofs, levels * ndof
        rows = np.repeat(np.arange(n, dtype=np.min_scalar_type(-n)), np.diff(self.indptr))
        return ColumnCollapseMap(
            n, rows, self.indices, blk, *(column_aggregates(n, blk, ndof) if coarse else ()),
            entry_slot=self.scatter if element_values else None,
            bc_dofs=self.bc_dofs if element_values else None,
        )

    def assemble_vector(self, local_res: np.ndarray) -> np.ndarray:
        """Scatter-add per-element residual blocks into a global dof vector."""
        if local_res.shape != self.elem_dofs.shape:
            raise ValueError(
                f"local residual must have shape {self.elem_dofs.shape}, got {local_res.shape}"
            )
        return np.bincount(
            self.elem_dofs.ravel(), weights=local_res.ravel(), minlength=self.num_dofs
        )


def assemble_matrix(dofmap: DofMap, local_jac: np.ndarray) -> CsrMatrix:
    """Assemble per-element dense blocks into a global CSR matrix.

    ``local_jac`` has shape ``(nc, k, k)`` where ``local_jac[c, i, j]`` is
    d(residual of local dof i)/d(local dof j) -- exactly the layout the
    SFad evaluation produces.  One-shot path; for repeated assemblies on
    a fixed dof map use :class:`AssemblyPlan`.
    """
    ed = dofmap.elem_dofs()
    nc, k = ed.shape
    if local_jac.shape != (nc, k, k):
        raise ValueError(f"local Jacobian must have shape {(nc, k, k)}, got {local_jac.shape}")
    rows = np.repeat(ed, k, axis=1).ravel()
    cols = np.tile(ed, (1, k)).ravel()
    n = dofmap.num_dofs
    return CsrMatrix.from_coo(rows, cols, local_jac.ravel(), (n, n))


def assemble_vector(dofmap: DofMap, local_res: np.ndarray) -> np.ndarray:
    """Scatter-add per-element residual blocks into a global dof vector."""
    ed = dofmap.elem_dofs()
    if local_res.shape != ed.shape:
        raise ValueError(f"local residual must have shape {ed.shape}, got {local_res.shape}")
    out = np.zeros(dofmap.num_dofs)
    np.add.at(out, ed.ravel(), local_res.ravel())
    return out


def apply_dirichlet(
    matrix: CsrMatrix,
    rhs: np.ndarray,
    bc_dofs: np.ndarray,
    bc_values: np.ndarray | float = 0.0,
    diag_scale: float = 1.0,
) -> tuple[CsrMatrix, np.ndarray]:
    """Impose ``x[bc_dofs] = bc_values`` by row replacement.

    Rows of constrained dofs are cleared and given diagonal
    ``diag_scale``; the right-hand side receives ``diag_scale *
    bc_values``.  Matching ``diag_scale`` to the magnitude of the
    physics rows keeps algebraic coarsening well conditioned (a unit
    diagonal next to O(1e13) physics entries poisons aggregation-based
    multigrid).  For the Newton update the prescribed increment is zero,
    so column elimination is not required -- constrained unknowns
    decouple.
    """
    if diag_scale <= 0.0:
        raise ValueError("diag_scale must be positive")
    bc_dofs = np.asarray(bc_dofs, dtype=np.int64)
    if bc_dofs.size and (bc_dofs.min() < 0 or bc_dofs.max() >= matrix.shape[0]):
        raise ValueError("Dirichlet dof out of range")
    bc_values = np.broadcast_to(np.asarray(bc_values, dtype=np.float64), bc_dofs.shape)

    is_bc = np.zeros(matrix.shape[0], dtype=bool)
    is_bc[bc_dofs] = True

    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    data = matrix.data.copy()
    # clear constrained rows, set unit diagonal
    clear = is_bc[rows]
    data[clear] = 0.0
    diag_hit = clear & (matrix.indices == rows)
    data[diag_hit] = diag_scale

    out_rhs = np.array(rhs, dtype=np.float64)
    out_rhs[bc_dofs] = diag_scale * bc_values
    return CsrMatrix(matrix.shape, matrix.indptr.copy(), matrix.indices.copy(), data), out_rhs
