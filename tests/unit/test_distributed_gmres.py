"""GMRES over distributed operators must reproduce serial GMRES exactly.

The SPMD velocity solve runs GMRES with (a) a row-partitioned matvec --
each rank applies its block of rows and results are placed, never
summed -- and (b) partitioned dot products through
:class:`repro.solvers.reductions.BlockReducer`.  Both are constructed to
be *bitwise* identical to their serial counterparts, so the Arnoldi
iterates, the residual history and the returned solution must match the
serial run exactly (no tolerance), on symmetric and nonsymmetric
systems alike.  This is the kernel-level half of the E3SM-style BFB
contract the integration test checks end to end.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.sparse import CsrMatrix
from repro.solvers import BlockReducer, column_block_reducer, gmres
from repro.solvers.reductions import BlockReducer as BlockReducerDirect


def _csr(dense):
    S = sp.csr_matrix(dense)
    return CsrMatrix(S.shape, S.indptr, S.indices, S.data)


def _random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    return _csr(B @ B.T + n * np.eye(n))


def _random_nonsymmetric(n, seed=1):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) + n * np.eye(n) + np.triu(rng.normal(size=(n, n)), 1)
    return _csr(B)


class _RowBlockOperator:
    """Row-partitioned SpMV: each 'rank' owns a contiguous row block.

    Rank-local products are placed into the result -- the distributed
    pattern with one owner per row.  scipy's CSR row slicing keeps each
    row's entries in order, so every row sum is bitwise equal to the
    serial SpMV.  The operator protocol is ``A``'s.
    """

    def __init__(self, A, block_ptr):
        S = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        self.n = A.shape[0]
        self.blocks = [
            (int(a), int(b), S[int(a) : int(b)]) for a, b in zip(block_ptr[:-1], block_ptr[1:])
        ]
        self.operator_mode = A.operator_mode
        self.bytes_per_matvec, self.flops_per_matvec = A.bytes_per_matvec, A.flops_per_matvec

    def matvec(self, x):
        y = np.empty(self.n)
        for a, b, blk in self.blocks:
            y[a:b] = blk @ x
        return y


def _block_ptr(n, nblocks):
    edges = np.linspace(0, n, nblocks + 1).round().astype(np.int64)
    assert np.all(np.diff(edges) > 0)
    return edges


class TestDistributedGmresExact:
    @pytest.mark.parametrize("make", [_random_spd, _random_nonsymmetric])
    @pytest.mark.parametrize("nblocks", [2, 4, 7])
    def test_history_and_solution_exact(self, make, nblocks):
        n = 40
        A = make(n)
        rng = np.random.default_rng(5)
        b = rng.normal(size=n)
        ptr = _block_ptr(n, nblocks)
        red = BlockReducer(ptr)

        serial = gmres(A, b, tol=1e-12, restart=15, maxiter=200, dot=red.dot, norm=red.norm)
        dist = gmres(
            _RowBlockOperator(A, ptr),
            b,
            tol=1e-12,
            restart=15,
            maxiter=200,
            dot=red.dot,
            norm=red.norm,
        )
        assert dist.iterations == serial.iterations
        assert dist.residual_norms == serial.residual_norms  # exact, not approx
        assert np.array_equal(dist.x, serial.x)
        assert serial.converged and dist.converged

    def test_reducer_independent_of_block_count(self):
        """The reducer's value is fixed by the block layout alone, and the
        serial solve that uses it matches numpy's dot to rounding."""
        n = 30
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=n), rng.normal(size=n)
        red3 = BlockReducer(_block_ptr(n, 3))
        # same blocks computed "locally": concatenating per-block partials
        # from slices gives identical bits
        partials = [
            float(np.add.reduce((x * y)[a:b]))
            for a, b in zip(_block_ptr(n, 3)[:-1], _block_ptr(n, 3)[1:])
        ]
        assert red3.dot(x, y) == float(np.sum(np.array(partials)))
        assert red3.dot(x, y) == pytest.approx(float(np.dot(x, y)), rel=1e-13)

    def test_spd_matches_plain_gmres_to_tolerance(self):
        """Blocked reductions change bits, not mathematics."""
        A = _random_spd(32, seed=3)
        b = np.ones(32)
        red = BlockReducer(_block_ptr(32, 4))
        plain = gmres(A, b, tol=1e-12, restart=32, maxiter=100)
        blocked = gmres(A, b, tol=1e-12, restart=32, maxiter=100, dot=red.dot, norm=red.norm)
        assert np.allclose(plain.x, blocked.x, rtol=1e-9)


class TestBlockReducer:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockReducer(np.array([0]))
        with pytest.raises(ValueError):
            BlockReducer(np.array([1, 2]))
        with pytest.raises(ValueError):
            BlockReducer(np.array([0, 2, 2]))
        red = BlockReducer(np.array([0, 2, 5]))
        with pytest.raises(ValueError):
            red.block_partials(np.zeros(4))

    def test_norm_matches_dot(self):
        red = BlockReducer(np.array([0, 3, 6, 10]))
        x = np.arange(10.0)
        assert red.norm(x) == float(np.sqrt(red.dot(x, x)))

    def test_column_block_reducer_layout(self):
        red = column_block_reducer(num_columns=7, levels=5, ndof=2)
        assert red.num_blocks == 7
        assert red.n == 7 * 5 * 2
        assert red is not None and isinstance(red, BlockReducerDirect)

    def test_meter_records_allreduce(self):
        from repro.mesh.partition import TrafficMeter

        meter = TrafficMeter(4)
        red = BlockReducer(np.array([0, 4, 8]), meter=meter)
        red.dot(np.ones(8), np.ones(8))
        red.norm(np.ones(8))
        assert meter.events["allreduce"] == 2
        assert meter.channel_bytes["allreduce"] == 2 * 8 * 4
