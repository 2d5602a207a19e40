"""A compressed-sparse-row matrix built for FE assembly.

CSR storage over the assembly plan's shared structure, construction
from COO triplets with duplicate summation (the reference side), and
scipy's compiled SpMV for the product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gpusim.solver_bytes import spmv_bytes, spmv_flops

__all__ = ["CsrMatrix", "ColumnCollapseMap", "column_aggregates"]


def _frozen(a: np.ndarray, bound: int | None = None) -> np.ndarray:
    """``a`` read-only; an index array in the narrowest signed dtype holding ``bound``."""
    if bound is not None:
        a = np.asarray(a).astype(np.min_scalar_type(-int(bound) - 1), copy=False)
    a.flags.writeable = False
    return a


def column_aggregates(n: int, block_size: int, ndof: int) -> tuple[np.ndarray, int]:
    """Full vertical collapse: every column block keeps one dof per component."""
    dof = np.arange(n)
    return dof // block_size * ndof + dof % ndof, n // block_size * ndof


class ColumnCollapseMap:
    """Symbolic half of the vertical-line / column-collapse MDSC set-up.

    What that set-up derives from *where* an operator's values sit, built
    once per sparsity structure; :meth:`column_blocks` and
    :meth:`collapse` are the numeric half, each one ``np.bincount`` over
    the raw value array (summed in value order):

    * ``block_src``/``block_dst`` -- the values inside the on-diagonal
      blocks of ``block_size`` (one in ``levels`` of them) and their flat
      ``(block, i, j)`` positions;
    * ``coarse_dst`` -- value -> ``data`` position of ``P^T A P`` for the
      piecewise-constant ``agg`` (also the restriction / prolongation
      index), on a fixed CSC pattern that holds every diagonal
      (``coarse_diag``: where the factorization's shift goes); only
      with ``agg`` (``num_coarse`` is 0 without);
    * ``power_start`` -- the seeded unit vector the line smoother's
      ``lambda_max`` estimate starts from.

    A value is a CSR ``data`` slot at ``(rows, cols)`` or, with
    ``entry_slot`` (an ``AssemblyPlan.scatter``), an element-block entry
    routed through its slot.  Either way the values carry the Dirichlet
    rows already (the problem writes them into the element blocks), so a
    Dirichlet row sums like any other.  Read-only.
    """

    def __init__(self, n, rows, cols, block_size=None, agg=None, num_coarse=0, entry_slot=None):
        self.n = n = int(n)
        nc = self.num_coarse = int(num_coarse)
        self.num_values = len(rows) if entry_slot is None else len(entry_slot)
        # index arithmetic in the narrowest dtype holding every product below
        wide = np.min_scalar_type(-max(n * (block_size or 1), (nc + 1) * nc) - 1)
        rows, cols = (np.asarray(a).astype(wide, copy=False) for a in (rows, cols))

        def per_value(dst, size):
            return _frozen(dst if entry_slot is None else dst[entry_slot], size)

        v = np.random.default_rng(0).standard_normal(n)
        self.power_start = _frozen(v / np.linalg.norm(v))
        if block_size is not None:
            blk = self.block_size = int(block_size)
            if self.n % blk != 0:
                raise ValueError(f"matrix size {self.n} not divisible by column block {blk}")
            size = self.n * blk
            on = rows // blk == cols // blk
            dst = per_value(np.where(on, rows * blk + cols % blk, size), size)
            self.block_src = _frozen(np.flatnonzero(dst < size), self.num_values)
            self.block_dst = _frozen(dst[self.block_src], size)
        if agg is not None:
            if np.shape(agg) != (self.n,):
                raise ValueError("aggregate map must cover every fine dof")
            self.agg = _frozen(np.array(agg), nc)
            agg = self.agg.astype(wide)
            # column-major keys: their sorted unique set IS the CSC pattern
            diag = np.arange(nc, dtype=wide)
            keys = np.concatenate([agg[cols] * wide.type(nc) + agg[rows], diag * (nc + 1)])
            pattern = np.unique(keys)
            pos, nnz = np.searchsorted(pattern, keys), len(pattern)
            self.coarse_indices = _frozen(pattern % nc, nc)
            self.coarse_indptr = _frozen(np.searchsorted(pattern, np.arange(nc + 1) * nc), nnz)
            self.coarse_diag = _frozen(pos[len(rows) :], nnz)
            self.coarse_dst = per_value(pos[: len(rows)], nnz)

    def _values(self, A) -> np.ndarray:
        """``A``'s raw value array -- ``ValueError`` unless ``A`` sits on
        the structure the maps index (blindly) into."""
        jac = getattr(A, "local_jac", None)
        values = A.data if jac is None else jac.reshape(-1)
        if A.shape[0] != self.n or values.size != self.num_values:
            raise ValueError(
                f"{A!r} does not have the structure this ColumnCollapseMap was built on "
                f"({self.n} dofs, {self.num_values} values)"
            )
        return values

    def column_blocks(self, A) -> np.ndarray:
        """Dense on-diagonal blocks ``(n // blk, blk, blk)`` of ``A``."""
        values = self._values(A)
        size = self.n * self.block_size
        flat = np.bincount(self.block_dst, weights=values[self.block_src], minlength=size)
        return flat.reshape(-1, self.block_size, self.block_size)

    def collapse(self, A):
        """``P^T A P`` as a scipy CSC matrix (fresh ``data``, stored pattern)."""
        values = self._values(A)
        nnz, nc = len(self.coarse_indices), self.num_coarse
        data = np.bincount(self.coarse_dst, weights=values, minlength=nnz)
        return sp.csc_matrix((data, self.coarse_indices, self.coarse_indptr), shape=(nc, nc))


def _index_array(a) -> np.ndarray:
    """``a`` as a contiguous CSR index array: int32 kept, anything else int64."""
    a = np.ascontiguousarray(a)
    return a if a.dtype == np.int32 else a.astype(np.int64, copy=False)


class CsrMatrix:
    """Square-or-rectangular CSR matrix over float64.

    ``indptr``/``indices`` are int32 or int64 as given (other integer
    types widen to int64) and are never copied: an ``AssemblyPlan``'s
    int32 structure is shared by every matrix it fills and by their
    scipy SpMV handles.

    The operator protocol GMRES, Newton and the smoothers read:
    ``operator_mode``, ``bytes_per_matvec``, ``flops_per_matvec`` (priced
    at the width of the stored indices) and ``isfinite()``.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_spmv")

    operator_mode = "assembled"

    def __init__(self, shape: tuple[int, int], indptr, indices, data):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = _index_array(indptr)
        self.indices = _index_array(indices)
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

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def bytes_per_matvec(self) -> float:
        """Modeled HBM traffic of one SpMV (see gpusim.solver_bytes)."""
        return spmv_bytes(self.shape[0], self.nnz, self.indices.itemsize)

    @property
    def flops_per_matvec(self) -> float:
        """Modeled float64 ops of one SpMV (see gpusim.solver_bytes)."""
        return spmv_flops(self.nnz)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x.

        GMRES and the multigrid smoothers apply the same operator
        hundreds of times per Newton step, so the first call builds a
        scipy CSR handle over the (shared) buffers and every subsequent
        call runs the compiled SpMV.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"matvec expects a vector of length {self.shape[1]}")
        if self._spmv is None:
            self._spmv = sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        return self._spmv @ x

    def __matmul__(self, x):
        return self.matvec(x)

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

    def collapse_map(self, block_size=None, agg=None, num_coarse=0) -> ColumnCollapseMap:
        """This structure's own symbolic MDSC set-up (uncached)."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return ColumnCollapseMap(self.shape[0], rows, self.indices, block_size, agg, num_coarse)

    def column_blocks(self, block_size: int) -> np.ndarray:
        """Dense on-diagonal blocks ``(n // blk, blk, blk)``.

        With column-major dof numbering, block ``p`` covers the dof range
        ``[p*blk, (p+1)*blk)`` -- one vertical column's coupling, which
        the vertical-line smoother inverts.
        """
        return self.collapse_map(block_size).column_blocks(self)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def __repr__(self):
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
