"""Analytic HBM byte model for the GMRES solve hot path.

The paper's central observation is that the velocity solve is
bandwidth-bound: on both A100 and MI250X the Newton--Krylov iteration
moves far more bytes than it computes flops on.  This module prices the
per-iteration data movement of the two operator modes so the solver can
*measure* (accumulate, iteration by iteration, with the Krylov depth it
actually reached) rather than merely assert what each mode moves.

Counting rules (the same first-touch convention as
:mod:`repro.gpusim.memtrace` applies at cache-line granularity):

* every float64 costs :data:`FLOAT_BYTES`, every index
  :data:`INDEX_BYTES`;
* an ``n``-vector streamed once through HBM is one *vector stream* of
  ``8 n`` bytes -- Krylov basis vectors are far larger than any cache
  level at production sizes, so each pass over the basis is a full
  re-stream (the Chalmers & Warburton "streaming operations" premise);
* gathered/scattered global vectors (``x`` reads, ``y`` accumulates)
  are counted once per vector, not once per reference: repeated
  touches of the same dof within one kernel hit cache.

All functions are dependency-free and deterministic; they are consumed
by :func:`repro.solvers.gmres.gmres` (per-iteration accumulation into
``gmres.*.bytes`` metrics) and by ``benchmarks/bench_solver_hotpath.py``
(the ``BENCH_solver.json`` bytes/iteration table).

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
    "INDEX_BYTES",
    "vector_stream_bytes",
    "spmv_bytes",
    "element_apply_bytes",
    "mgs_orth_bytes",
    "cycle_close_bytes",
    "assembled_fill_bytes",
    "operator_traffic",
    "spmv_flops",
    "element_apply_flops",
    "mgs_orth_flops",
    "cycle_close_flops",
    "operator_flops",
]

FLOAT_BYTES = 8
INDEX_BYTES = 8


def vector_stream_bytes(n: int) -> float:
    """One full HBM pass over an ``n``-vector of float64."""
    return float(FLOAT_BYTES * n)


def spmv_bytes(n: int, nnz: int) -> float:
    """CSR ``y = A x``: values + column indices + row pointer streamed
    once, ``x`` gathered (first touch), ``y`` written."""
    return float(nnz * (FLOAT_BYTES + INDEX_BYTES) + (n + 1) * INDEX_BYTES + 2 * FLOAT_BYTES * n)


def element_apply_bytes(n: int, num_cells: int, k: int) -> float:
    """Element-by-element ``y = A x`` from cached local Jacobian blocks.

    Per cell: the dense ``k x k`` block, the ``k`` connectivity indices,
    and the gathered ``k`` solution values (shared nodes re-hit cache,
    but the gather is indexed, so each cell's reads are counted); global
    side: the ``y`` accumulate (read-modify-write).
    """
    per_cell = k * k * FLOAT_BYTES + k * INDEX_BYTES + k * FLOAT_BYTES
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


def assembled_fill_bytes(n: int, nnz: int, num_cells: int, k: int) -> float:
    """Per-Newton-step CSR numeric fill (assembled mode only): the
    local blocks and their scatter permutation are streamed, the CSR
    ``data`` array is accumulated.  Matrix-free mode skips this
    entirely -- the local blocks *are* the operator."""
    return float(num_cells * k * k * (FLOAT_BYTES + INDEX_BYTES) + 2 * FLOAT_BYTES * nnz)


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


def operator_traffic(A) -> tuple[str, float]:
    """(mode label, modeled bytes per matvec) for a solver operator.

    Recognizes assembled CSR/distributed matrices (``nnz``), matrix-free
    element operators (``bytes_per_matvec``), and falls back to zero for
    opaque callables (no model -- their traffic is unknown).
    """
    bpm = getattr(A, "bytes_per_matvec", None)
    if bpm is not None:
        return getattr(A, "operator_mode", "matrix-free"), float(bpm)
    shape = getattr(A, "shape", None)
    nnz = getattr(A, "nnz", None)
    if shape is not None and nnz is not None:
        return "assembled", spmv_bytes(int(shape[0]), int(nnz))
    return "opaque", 0.0


def operator_flops(A) -> float:
    """Modeled flops per matvec for a solver operator (0 when opaque).

    The flop companion of :func:`operator_traffic`: matrix-free element
    operators expose ``flops_per_matvec``, assembled matrices are priced
    by :func:`spmv_flops`.
    """
    fpm = getattr(A, "flops_per_matvec", None)
    if fpm is not None:
        return float(fpm)
    nnz = getattr(A, "nnz", None)
    if nnz is not None:
        return spmv_flops(int(nnz))
    return 0.0
