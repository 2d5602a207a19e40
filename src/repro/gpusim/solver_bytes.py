"""Analytic HBM byte model for the GMRES solve hot path.

The paper's central observation is that the velocity solve is
bandwidth-bound: on both A100 and MI250X the Newton--Krylov iteration
moves far more bytes than it computes flops on.  This module prices the
per-iteration data movement of the two operator modes so the solver can
*measure* (accumulate, iteration by iteration, with the Krylov depth it
actually reached) rather than merely assert what each mode moves.

Counting rules (the same first-touch convention as
:mod:`repro.gpusim.memtrace` applies at cache-line granularity):

* every float64 costs :data:`FLOAT_BYTES`, every index the width of
  the operator's own index arrays (``index_bytes``: 4 for the plan's
  int32 CSR structure, 8 for the element connectivity);
* an ``n``-vector streamed once through HBM is one *vector stream* of
  ``8 n`` bytes -- Krylov basis vectors are far larger than any cache
  level at production sizes, so each pass over the basis is a full
  re-stream (the Chalmers & Warburton "streaming operations" premise);
* gathered/scattered global vectors (``x`` reads, ``y`` accumulates)
  are counted once per vector, not once per reference: repeated
  touches of the same dof within one kernel hit cache.

All functions are dependency-free and deterministic.  Each operator
prices itself with them (``bytes_per_matvec`` / ``flops_per_matvec`` on
:class:`~repro.fem.sparse.CsrMatrix`, the distributed matrix and the
matrix-free Jacobian), and :func:`repro.solvers.gmres.gmres` accumulates
those, iteration by iteration, into the ``gmres.*.bytes`` metrics.

The ``*_flops`` companions price the float64 operations of the same
kernels, so roofline attribution (``observability/attribution.py``)
can place each span at its arithmetic intensity ``flops/bytes`` --
which is how the byte model's "bandwidth-bound" premise becomes a
checkable number (AI far left of the ridge point) instead of prose.
Counting rule: one flop per scalar add/mul/fma-half (an fma is 2).
"""

from __future__ import annotations

__all__ = [
    "FLOAT_BYTES",
    "vector_stream_bytes",
    "spmv_bytes",
    "element_apply_bytes",
    "mgs_orth_bytes",
    "cycle_close_bytes",
    "spmv_flops",
    "element_apply_flops",
    "mgs_orth_flops",
    "cycle_close_flops",
]

FLOAT_BYTES = 8


def vector_stream_bytes(n: int) -> float:
    """One full HBM pass over an ``n``-vector of float64."""
    return float(FLOAT_BYTES * n)


def spmv_bytes(n: int, nnz: int, index_bytes: int) -> float:
    """CSR ``y = A x``: values + column indices + row pointer streamed
    once, ``x`` gathered (first touch), ``y`` written."""
    return float(nnz * (FLOAT_BYTES + index_bytes) + (n + 1) * index_bytes + 2 * FLOAT_BYTES * n)


def element_apply_bytes(n: int, num_cells: int, k: int, index_bytes: int) -> float:
    """Element-by-element ``y = A x`` from cached local Jacobian blocks.

    Per cell: the dense ``k x k`` block, the ``k`` connectivity indices,
    and the gathered ``k`` solution values (shared nodes re-hit cache,
    but the gather is indexed, so each cell's reads are counted); global
    side: the ``y`` accumulate (read-modify-write).
    """
    per_cell = k * k * FLOAT_BYTES + k * index_bytes + k * FLOAT_BYTES
    return float(num_cells * per_cell + 2 * FLOAT_BYTES * n)


def mgs_orth_bytes(n: int, depth: int) -> float:
    """Naive modified Gram-Schmidt at Krylov depth ``depth`` (= k + 1
    basis vectors): each of the ``depth`` coefficients is a separate
    dot pass (w, V[i] read) followed by a separate axpy pass (V[i], w
    read, w written), then the norm pass and the normalized write of
    the new basis vector -- ``5 depth + 4`` vector streams."""
    return (5 * depth + 4) * vector_stream_bytes(n)


def cycle_close_bytes(n: int, k_used: int) -> float:
    """End-of-cycle update ``x += Z[:k]^T y`` plus the true-residual
    vector work (``r = b - A x`` minus the matvec itself, which is
    priced separately)."""
    return (k_used + 4) * vector_stream_bytes(n)


def spmv_flops(nnz: int) -> float:
    """CSR ``y = A x``: one multiply-add per stored nonzero."""
    return float(2 * nnz)


def element_apply_flops(num_cells: int, k: int) -> float:
    """Element-by-element ``y = A x``: a dense ``k x k`` GEMV per cell
    (2 k^2 flops) plus the ``k`` scatter-accumulate adds."""
    return float(num_cells * (2 * k * k + k))


def mgs_orth_flops(n: int, depth: int) -> float:
    """MGS at Krylov depth ``depth``: per column one dot (2n) and one
    axpy (2n); then the norm (2n) and the normalizing scale (n)."""
    return float(4 * depth * n + 3 * n)


def cycle_close_flops(n: int, k_used: int) -> float:
    """``x += Z[:k]^T y`` (2n per column) + residual vector update."""
    return float(2 * k_used * n + 2 * n)

