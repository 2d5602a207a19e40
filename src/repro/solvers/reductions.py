"""Deterministic partitioned reductions (BFB across decompositions).

Climate codes built on MALI's stack (E3SM) require bit-for-bit (BFB)
reproducibility across processor layouts: the same problem solved on 1
rank or 64 must produce identical bits.  A naive partitioned dot product
breaks that -- ``sum_p dot(x_p, y_p)`` regroups the floating-point sum
by rank -- so Krylov trajectories, line-search branches and therefore
entire nonlinear solves diverge between decompositions.

:class:`BlockReducer` restores the property by fixing the summation
tree independently of the decomposition: vectors are split into
contiguous *blocks* (for the extruded-mesh solve, one block per vertical
column -- dof ownership is per column, so every block has exactly one
owner), each owner computes its blocks' partial sums, and the final
reduction sums the block partials in block order.  Serial and
distributed evaluations then perform bitwise-identical arithmetic; an
MPI implementation would realize the combine step as a fixed-order
(reproducible) allreduce of the partials.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockReducer", "column_block_reducer"]


class BlockReducer:
    """Dot products and norms with a fixed, block-partitioned sum order.

    Parameters
    ----------
    block_ptr:
        Monotone ``(nblocks + 1,)`` offsets splitting ``[0, n)`` into
        contiguous blocks; a distributed run assigns whole blocks to
        ranks.  Each block partial is an independent ``np.add.reduce``
        over its slice, so it is bitwise identical whether computed from
        the global array or from a rank's local copy.
    meter:
        Optional :class:`repro.mesh.partition.TrafficMeter`; every dot
        or norm records one ``allreduce`` event (the scalar combine a
        distributed run would perform).
    """

    def __init__(self, block_ptr: np.ndarray, meter=None):
        block_ptr = np.asarray(block_ptr, dtype=np.int64)
        if block_ptr.ndim != 1 or len(block_ptr) < 2:
            raise ValueError("block_ptr must list at least one block")
        if block_ptr[0] != 0 or np.any(np.diff(block_ptr) <= 0):
            raise ValueError("block_ptr must be strictly increasing from 0")
        self.block_ptr = block_ptr
        self.n = int(block_ptr[-1])
        self.meter = meter

    @property
    def num_blocks(self) -> int:
        return len(self.block_ptr) - 1

    def _record_allreduce(self) -> None:
        if self.meter is not None:
            # one 8-byte scalar contributed per rank into the combine tree
            self.meter.record("allreduce", None, None, 8 * self.meter.nparts)
            self.meter.count_event("allreduce")

    def block_partials(self, z: np.ndarray) -> np.ndarray:
        """Per-block sums of ``z`` (the quantity each owner contributes)."""
        z = np.asarray(z)
        if z.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        return np.add.reduceat(z, self.block_ptr[:-1])

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Decomposition-independent ``x . y``."""
        partials = self.block_partials(np.asarray(x) * np.asarray(y))
        self._record_allreduce()
        return float(np.sum(partials))

    def norm(self, x: np.ndarray) -> float:
        """Decomposition-independent 2-norm (via :meth:`dot`)."""
        x = np.asarray(x)
        partials = self.block_partials(x * x)
        self._record_allreduce()
        return float(np.sqrt(np.sum(partials)))


def column_block_reducer(num_columns: int, levels: int, ndof: int = 2, meter=None) -> BlockReducer:
    """Reducer blocked by vertical column for the extruded-mesh dof layout.

    Column-major numbering makes each footprint column's ``levels x
    ndof`` dofs contiguous and gives every column a single owning rank,
    so column blocks are the natural BFB reduction unit.
    """
    block = levels * ndof
    return BlockReducer(np.arange(num_columns + 1, dtype=np.int64) * block, meter=meter)
