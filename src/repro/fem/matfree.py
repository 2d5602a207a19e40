"""Matrix-free Jacobian operator (element-by-element ``J @ v``).

GMRES never needs the assembled CRS Jacobian -- only its action on a
vector.  The SFad jacobian-mode sweep already produces the per-element
dense blocks ``local_jac[c, i, j] = d r_i / d u_j``; assembling them
into CSR and then streaming values + column indices on every matvec is
pure data-movement overhead.  :class:`MatrixFreeJacobian` instead keeps
the element blocks and applies them directly:

    gather   xe = x[elem_dofs]                  (nc, k)
    apply    ye = local_jac @ xe                (nc, k)  batched GEMV
    scatter  y  = sum-into-global(ye)           (n,)

The connectivity is cached by the owning
:class:`repro.fem.assembly.AssemblyPlan`, so each matvec is a pure
numeric sweep -- no sorting, no structure rebuild, no ``nnz`` array.
The operator knows no boundary condition: the problem writes its
Dirichlet rows into the blocks before wrapping them
(``StokesVelocityProblem._impose_dirichlet``: rows zeroed, the row
scale ``s`` at one pivot per dof), so a Dirichlet row of ``J @ x`` sums
to ``s * x[i]`` exactly, as the assembled row does.

The operator also exposes what MDSC preconditioning needs without a
matrix: ``diagonal()`` (point Jacobi), ``column_blocks()`` (the
vertical-line blocks, extracted per-element instead of from CSR), and
``collapse_map()`` (whose ``collapse`` sums the vertically-collapsed
membrane coarse operator from the element blocks).
"""

from __future__ import annotations

import numpy as np

from repro.fem.sparse import ColumnCollapseMap
from repro.gpusim.solver_bytes import element_apply_bytes, element_apply_flops

__all__ = ["MatrixFreeJacobian"]


class MatrixFreeJacobian:
    """Element-block operator with the protocol GMRES, Newton and the
    smoothers read (``operator_mode``, ``bytes_per_matvec``,
    ``flops_per_matvec``, ``isfinite()``) next to ``shape``, ``matvec``,
    ``diagonal`` and ``collapse_map``.

    Parameters
    ----------
    elem_dofs:
        ``(nc, k)`` global dof ids per element (the plan's cached
        connectivity).
    local_jac:
        ``(nc, k, k)`` dense element Jacobian blocks from the SFad sweep.
    num_dofs:
        Global dof count ``n``.
    """

    operator_mode = "matrix-free"

    def __init__(self, elem_dofs: np.ndarray, local_jac: np.ndarray, num_dofs: int):
        elem_dofs = np.asarray(elem_dofs, dtype=np.int64)
        local_jac = np.asarray(local_jac, dtype=np.float64)
        nc, k = elem_dofs.shape
        if local_jac.shape != (nc, k, k):
            raise ValueError(
                f"local Jacobian must have shape {(nc, k, k)}, got {local_jac.shape}"
            )
        self.elem_dofs = elem_dofs
        self.local_jac = local_jac
        self.n = int(num_dofs)
        self.shape = (self.n, self.n)

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J @ x`` by gather / batched block GEMV / scatter-add."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        xe = x[self.elem_dofs]  # (nc, k) gather
        ye = np.matmul(self.local_jac, xe[..., None])[..., 0]  # (nc, k)
        return np.bincount(self.elem_dofs.ravel(), weights=ye.ravel(), minlength=self.n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Global diagonal (scatter of element block diagonals)."""
        de = np.einsum("cii->ci", self.local_jac)
        return np.bincount(self.elem_dofs.ravel(), weights=de.ravel(), minlength=self.n)

    def isfinite(self) -> bool:
        """Finiteness of the stored element blocks (Newton's per-step health check)."""
        return bool(np.all(np.isfinite(self.local_jac)))

    # ------------------------------------------------------------------
    # what MDSC needs without a CRS matrix
    # ------------------------------------------------------------------
    def collapse_map(self, block_size=None, agg=None, num_coarse=0) -> ColumnCollapseMap:
        """This connectivity's own symbolic MDSC set-up (uncached; a
        solve shares ``AssemblyPlan.collapse_map``'s instead)."""
        ed = self.elem_dofs
        k = ed.shape[1]
        rows, cols = np.repeat(ed, k, axis=1).ravel(), np.tile(ed, (1, k)).ravel()
        return ColumnCollapseMap(self.n, rows, cols, block_size, agg, num_coarse)

    def column_blocks(self, block_size: int) -> np.ndarray:
        """Dense on-diagonal column blocks ``(nb, blk, blk)``.

        With column-major dof numbering, block ``p`` covers the dof
        range ``[p*blk, (p+1)*blk)`` (one vertical column); same-column
        element entries are summed in element order -- the matrix-free
        analogue of :meth:`CsrMatrix.column_blocks`.
        """
        return self.collapse_map(block_size).column_blocks(self)

    # ------------------------------------------------------------------
    @property
    def bytes_per_matvec(self) -> float:
        """Modeled HBM traffic of one apply (see gpusim.solver_bytes)."""
        nc, k = self.elem_dofs.shape
        return element_apply_bytes(self.n, nc, k, self.elem_dofs.itemsize)

    @property
    def flops_per_matvec(self) -> float:
        """Modeled float64 ops of one apply (see gpusim.solver_bytes)."""
        return element_apply_flops(*self.elem_dofs.shape)
