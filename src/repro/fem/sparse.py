"""A compressed-sparse-row matrix built for FE assembly.

Self-contained CSR implementation (construction from COO triplets with
duplicate summation, SpMV, diagonal extraction, row operations) with
scipy interop used only at the coarse-solver level and in tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CsrMatrix"]


try:  # fast SpMV backend; the numpy path below is the fallback
    import scipy.sparse as _sp
except ImportError:  # pragma: no cover - scipy is part of the toolchain
    _sp = None


class CsrMatrix:
    """Square-or-rectangular CSR matrix over float64."""

    __slots__ = ("shape", "indptr", "indices", "data", "_spmv")

    def __init__(self, shape: tuple[int, int], indptr, indices, data):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._spmv = None  # lazily-built scipy handle for the matvec hot path
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr length must be nrows + 1")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.data):
            raise ValueError("inconsistent CSR buffers")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.shape[1]):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> "CsrMatrix":
        """Build from COO triplets, summing duplicate (row, col) entries."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("COO triplet arrays must have equal length")
        if len(rows) == 0:
            return cls(shape, np.zeros(shape[0] + 1, np.int64), np.empty(0, np.int64), np.empty(0))
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # collapse duplicates
        new = np.empty(len(rows), dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        idx = np.flatnonzero(new)
        summed = np.add.reduceat(vals, idx)
        rows, cols = rows[idx], cols[idx]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(shape, indptr, cols, summed)

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls((n, n), np.arange(n + 1), np.arange(n), np.ones(n))

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        m = m.tocsr()
        return cls(m.shape, m.indptr, m.indices, m.data)

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x.

        GMRES and the multigrid smoothers apply the same operator
        hundreds of times per Newton step, so the first call builds a
        scipy CSR handle over the (shared) buffers and every subsequent
        call runs the compiled SpMV; without scipy a vectorized
        segmented reduction is used.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"matvec expects a vector of length {self.shape[1]}")
        if _sp is not None:
            if self._spmv is None:
                self._spmv = _sp.csr_matrix(
                    (self.data, self.indices, self.indptr), shape=self.shape
                )
            return self._spmv @ x
        prod = self.data * x[self.indices]
        y = np.zeros(self.shape[0])
        nonempty = self.indptr[:-1] != self.indptr[1:]
        if prod.size:
            sums = np.add.reduceat(prod, self.indptr[:-1][nonempty])
            y[nonempty] = sums
        return y

    def __matmul__(self, x):
        return self.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """x = A^T @ y."""
        y = np.asarray(y, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        x = np.zeros(self.shape[1])
        np.add.at(x, self.indices, self.data * y[rows])
        return x

    def diagonal(self) -> np.ndarray:
        n = min(self.shape)
        d = np.zeros(n)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        hit = (rows == self.indices) & (rows < n)
        d[rows[hit]] = self.data[hit]
        return d

    def isfinite(self) -> bool:
        """Whether every stored value is finite (Newton's per-step health check)."""
        return bool(np.all(np.isfinite(self.data)))

    def column_blocks(self, block_size: int) -> np.ndarray:
        """Dense on-diagonal blocks ``(n // blk, blk, blk)``.

        With column-major dof numbering, block ``p`` covers the dof range
        ``[p*blk, (p+1)*blk)`` -- one vertical column's coupling, which
        the vertical-line smoother inverts.
        """
        blk = int(block_size)
        n = self.shape[0]
        if n % blk != 0:
            raise ValueError(f"matrix size {n} not divisible by column block {blk}")
        blocks = np.zeros((n // blk, blk, blk))
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        cols = self.indices
        on = rows // blk == cols // blk
        blocks[rows[on] // blk, rows[on] % blk, cols[on] % blk] = self.data[on]
        return blocks

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i`` (views, do not mutate ids)."""
        a, b = self.indptr[i], self.indptr[i + 1]
        return self.indices[a:b], self.data[a:b]

    def scale_rows(self, s: np.ndarray) -> "CsrMatrix":
        """Return diag(s) @ A."""
        s = np.asarray(s, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return CsrMatrix(self.shape, self.indptr.copy(), self.indices.copy(), self.data * s[rows])

    def transpose(self) -> "CsrMatrix":
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return CsrMatrix.from_coo(self.indices, rows, self.data, (self.shape[1], self.shape[0]))

    def norm_inf(self) -> float:
        if self.nnz == 0:
            return 0.0
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        sums = np.zeros(self.shape[0])
        np.add.at(sums, rows, np.abs(self.data))
        return float(sums.max())

    def norm_fro(self) -> float:
        return float(np.sqrt(np.sum(self.data**2)))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def copy(self) -> "CsrMatrix":
        return CsrMatrix(self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy())

    def __repr__(self):
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
