"""Smoothers and one-level preconditioners.

The key ingredient for extruded ice-sheet meshes is the vertical-line
smoother: the strong vertical coupling (thin, anisotropic elements)
makes point smoothers nearly useless, while solving each vertical column
exactly -- a batched dense solve thanks to the column-major numbering --
damps the troublesome error components (Tuminaro et al. 2016).
"""

from __future__ import annotations

import numpy as np

from repro.fem.matfree import OperatorModeError
from repro.fem.sparse import CsrMatrix

__all__ = [
    "IdentityPreconditioner",
    "JacobiSmoother",
    "VerticalLineSmoother",
]


def _invert_column_blocks(blocks: np.ndarray) -> np.ndarray:
    """Batched inverse of the column diagonal blocks (singular guard).

    Invert once: the smoother is applied hundreds of times per Newton
    step inside GMRES, and re-factorizing the same blocks per
    application (batched ``np.linalg.solve``) dominated the solve.  The
    blocks are small, diagonally dominant vertical couplings, so
    applying the explicit inverse is numerically safe here.
    """
    diag = np.einsum("bii->bi", blocks)
    bad = np.abs(diag) < 1.0e-300
    diag[bad] = 1.0
    return np.linalg.inv(blocks)


class IdentityPreconditioner:
    """No-op preconditioner (useful as a baseline in tests/benchmarks)."""

    def apply(self, r: np.ndarray) -> np.ndarray:
        return np.array(r)

    def smooth(self, A, b, x, iters: int = 1) -> np.ndarray:
        return np.array(x)


class JacobiSmoother:
    """Damped point Jacobi: ``x += omega D^-1 (b - A x)``."""

    def __init__(self, A: CsrMatrix, omega: float = 0.7, iters: int = 2):
        if not 0.0 < omega <= 1.0:
            raise ValueError("Jacobi damping must be in (0, 1]")
        self.A = A
        self.omega = omega
        self.iters = iters
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError("zero diagonal entry; Jacobi smoother undefined")
        self.dinv = 1.0 / d

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Preconditioner action: ``iters`` sweeps starting from zero."""
        return self.smooth(self.A, r, np.zeros_like(r), self.iters)

    def smooth(self, A, b, x, iters: int | None = None) -> np.ndarray:
        x = np.array(x, dtype=np.float64)
        for _ in range(self.iters if iters is None else iters):
            x += self.omega * self.dinv * (b - A.matvec(x))
        return x


class VerticalLineSmoother:
    """Block Jacobi over vertical columns of an extruded mesh.

    With column-major dof numbering, the dofs of footprint node ``p``
    occupy the contiguous range ``[p*blk, (p+1)*blk)`` with ``blk =
    levels * ndof_per_node``; each diagonal block is a narrow banded
    matrix (the vertical tridiagonal coupling) that we invert once and
    apply batched.  The blocks come from the operator's own
    ``column_blocks`` -- the CSR diagonal blocks or, matrix-free, the
    element blocks -- so one smoother serves both operator modes.
    """

    def __init__(self, A, block_size: int, omega: float = 0.9, iters: int = 1):
        column_blocks = getattr(A, "column_blocks", None)
        if column_blocks is None:
            raise OperatorModeError(
                "VerticalLineSmoother needs an operator exposing column_blocks() "
                f"(CsrMatrix or MatrixFreeJacobian); got {type(A).__name__}"
            )
        n = A.shape[0]
        if n % block_size != 0:
            raise ValueError(f"matrix size {n} not divisible by column block {block_size}")
        self.A = A
        self.blk = int(block_size)
        self.nblocks = n // self.blk
        self.omega = omega
        self.iters = iters
        self.inv_blocks = _invert_column_blocks(column_blocks(self.blk))

    def _block_solve(self, r: np.ndarray) -> np.ndarray:
        rb = r.reshape(self.nblocks, self.blk)
        return np.matmul(self.inv_blocks, rb[..., None])[..., 0].ravel()

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``iters`` sweeps from a zero guess.

        The first residual ``r - A @ 0`` is ``r`` itself, so the first
        sweep costs no operator product; the result equals
        ``smooth(A, r, zeros, iters)``.
        """
        if self.iters < 1:
            return np.zeros_like(r, dtype=np.float64)
        x = self.omega * self._block_solve(r)
        return self.smooth(self.A, r, x, self.iters - 1)

    def smooth(self, A, b, x, iters: int | None = None) -> np.ndarray:
        x = np.array(x, dtype=np.float64)
        for _ in range(self.iters if iters is None else iters):
            x += self.omega * self._block_solve(b - A.matvec(x))
        return x
