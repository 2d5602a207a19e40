"""Smoothers and one-level preconditioners.

The key ingredient for extruded ice-sheet meshes is the vertical-line
smoother: the strong vertical coupling (thin, anisotropic elements)
makes point smoothers nearly useless, while solving each vertical column
exactly -- a batched dense solve thanks to the column-major numbering --
damps the troublesome error components (Tuminaro et al. 2016).
"""

from __future__ import annotations

import numpy as np

from repro.fem.sparse import CsrMatrix
from repro.gpusim.solver_bytes import vector_stream_bytes

__all__ = [
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


#: steps of the power iteration that estimates lambda_max(B^-1 A)
_POWER_STEPS = 10
#: ten power steps land 7 % below to 2 % above lambda_max on the ice
#: Jacobians (DESIGN.md section 7); with this factor ``omega *
#: lambda_max`` stays at 1.2-1.3, well inside the stability limit of 2
_POWER_SAFETY = 1.1


class VerticalLineSmoother:
    """Block Jacobi over vertical columns of an extruded mesh.

    With column-major dof numbering, the dofs of footprint node ``p``
    occupy the contiguous range ``[p*blk, (p+1)*blk)`` with ``blk =
    levels * ndof_per_node``; each diagonal block is a narrow banded
    matrix (the vertical tridiagonal coupling) that we invert once and
    apply batched.  The blocks come through the operator's
    ``collapse_map`` -- from the CSR diagonal blocks or, matrix-free, the
    element blocks -- so one smoother serves both operator modes.

    The damping follows the operator: block Jacobi contracts only while
    ``omega * lambda_max(B^-1 A) < 2`` (``B`` = the column blocks), and
    on the ice Jacobians ``lambda_max`` is 2.0-2.4 and grows along the
    Newton trajectory, so no constant near 1 is safe.  Construction
    estimates it by power iteration (``lambda_max``; ``_POWER_STEPS``
    operator applications from a seeded start vector, so every rank and
    every rerun computes the same bits) and sets ``omega = 4 / (3 *
    _POWER_SAFETY * lambda_max)`` -- the damped-Jacobi choice that
    shrinks the upper half of the spectrum, the horizontally oscillatory
    modes no coarse level sees, by a factor of three per sweep.  An
    explicit ``omega`` skips the estimate (``omega=1`` solves a
    block-diagonal system exactly).
    """

    def __init__(
        self, A, block_size: int, omega: float | None = None, iters: int = 1, symbolic=None
    ):
        n = A.shape[0]
        if n % block_size != 0:
            raise ValueError(f"matrix size {n} not divisible by column block {block_size}")
        self.A = A
        self.blk = int(block_size)
        self.nblocks = n // self.blk
        self.iters = iters
        #: ``ColumnCollapseMap``: the caller's, shared across set-ups, or ``A``'s own
        self.symbolic = symbolic if symbolic is not None else A.collapse_map(self.blk)
        self.inv_blocks = _invert_column_blocks(self.symbolic.column_blocks(A))
        #: the power-iteration estimate (``None`` under an explicit omega)
        self.lambda_max = None
        if omega is None:
            self.lambda_max = self._estimate_lambda_max()
            omega = 4.0 / (3.0 * _POWER_SAFETY * self.lambda_max)
        self.omega = omega

    def _estimate_lambda_max(self) -> float:
        """Growth factor ``|B^-1 A v|`` of the normalized iterate after
        ``_POWER_STEPS`` steps."""
        v, lam = self.symbolic.power_start, 1.0
        for _ in range(_POWER_STEPS):
            v = self._block_solve(self.A.matvec(v / lam))
            lam = np.linalg.norm(v)
        return float(lam)

    @property
    def bytes_per_setup(self) -> float:
        """Modeled HBM traffic of the damping estimate.

        Each power step is priced like a smoother sweep -- one operator
        stream plus three vector passes (block solve, norm, scale); the
        block extraction and inversion are not modeled.
        """
        if self.lambda_max is None:
            return 0.0
        n = self.A.shape[0]
        return _POWER_STEPS * (self.A.bytes_per_matvec + 3 * vector_stream_bytes(n))

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
