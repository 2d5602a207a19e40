"""SPMD distributed assembly and SpMV over a real mesh partition.

MALI runs one MPI rank per GPU: each rank assembles the residual and
Jacobian over its *owned* element columns, ships ghost contributions to
their owners (Tpetra ``Export`` with ADD), refreshes ghost solution
values before every evaluation (``Import``), and runs Newton/GMRES on
row-partitioned operators with partitioned dot products.  This module
reproduces that execution structure in-process: one
:class:`DistributedStokesAssembly` per problem precomputes the
per-rank restricted dof maps, entry-exchange routes and CSR structures,
and every Newton step is then a set of rank-local numeric fills plus
metered exchanges.

Ownership rules (matching the extruded column-major numbering):

* footprint *elements* are owned by the rank :func:`repro.mesh.
  partition.partition_footprint` assigned them; a 3-D element belongs to
  its footprint element's owner (whole columns, never split vertically);
* footprint *nodes* are owned by the smallest rank among adjacent
  element owners; all ``levels`` 3-D nodes of a column -- and therefore
  the column's ``levels x ndof`` contiguous dofs -- belong to that rank;
* matrix *rows* follow dof ownership (row-partitioned operators);
  columns are whatever a rank's rows reference (owned + ghost).

Bit-for-bit reproducibility.  E3SM-class climate codes require the
distributed solve to be *bitwise* identical to the serial one (and
across rank counts).  Floating-point addition is not associative, so
this cannot be left to chance; three invariants make it hold here:

1. **Owner-ordered scatter.**  The serial ``AssemblyPlan`` sums
   element contributions per dof (and per CSR slot) in ascending
   global-entry order via ``np.bincount``.  Each owner here consumes
   the same entries in the same ascending order -- interleaving
   neighbors' streams by global entry index -- so every per-dof and
   per-slot sequential sum is bitwise equal to the serial one.
2. **Owner-rows SpMV.**  Each rank's local CSR keeps its rows' entries
   in the serial (ascending-column) order; the local column map is the
   sorted unique column set, so restriction preserves within-row order
   and per-row sums match the serial SpMV bitwise.  Row results are
   placed, never summed, across ranks.
3. **Blocked reductions.**  Dot products and norms go through
   :class:`repro.solvers.reductions.BlockReducer` with one block per
   footprint column (single-owner blocks), which both the serial and
   SPMD solves use -- the fixed-order allreduce of E3SM's BFB mode.

Traffic accounting is *protocol-level*: the meter records the bytes a
real halo protocol would move (one summed value per ghost dof on the
residual export, one value per ghost CSR slot on the Jacobian export,
ghost dof values on each refresh, one scalar per rank per allreduce),
not the internal entry streams this in-process simulation routes.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.fem.assembly import AssemblyPlan
from repro.fem.sparse import CsrMatrix
from repro.gpusim.solver_bytes import spmv_bytes, spmv_flops
from repro.mesh.partition import Partition, TrafficMeter
from repro.observability import get_tracer
from repro.resilience.detectors import receive_verified
from repro.resilience.injectors import fault_plane

__all__ = ["DistributedStokesAssembly", "DistributedMatrix"]

_FP64 = 8  # bytes per exchanged value


class DistributedStokesAssembly:
    """Per-rank restricted assembly of the FO Stokes residual/Jacobian.

    Built once per problem from the serial :class:`AssemblyPlan` and a
    footprint :class:`Partition`; precomputes, per rank:

    * the owned 3-D element list (all layers of owned footprint
      elements) and owned dof list (whole vertical columns);
    * entry-exchange routes: for every residual entry ``(elem, i)`` and
      Jacobian entry ``(elem, i, j)`` whose row dof it owns, the source
      rank and the position in that rank's local block array, kept in
      ascending global-entry order (the BFB invariant);
    * the restricted CSR structure (owned rows x referenced columns)
      with its slot map into the serial CSR, plus per-rank Dirichlet
      masks;
    * protocol-level byte counts for every exchange class.
    """

    def __init__(
        self,
        plan: AssemblyPlan,
        partition: Partition,
        levels: int,
        nlayers: int,
        meter: TrafficMeter | None = None,
    ):
        fp = partition.footprint
        nc, k = plan.elem_dofs.shape
        if nc != fp.num_elems * nlayers:
            raise ValueError("plan element count does not match footprint x layers")
        ndof = plan.num_dofs // (fp.num_nodes * levels)
        if ndof * fp.num_nodes * levels != plan.num_dofs:
            raise ValueError("dof count is not (footprint nodes) x levels x ndof")

        self.plan = plan
        self.partition = partition
        self.nparts = partition.nparts
        self.levels = levels
        self.nlayers = nlayers
        self.ndof = ndof
        self.num_dofs = plan.num_dofs
        self.meter = meter if meter is not None else TrafficMeter(partition.nparts)

        nparts = self.nparts
        nz = nlayers
        k2 = k * k

        # ownership: elements by footprint-element owner, dofs by
        # footprint-node owner (a column's levels x ndof dofs are
        # contiguous under the column-major numbering).  Footprint nodes
        # untouched by any element have no owner; park them on rank 0
        # (their rows are structurally empty).
        node_owner = np.where(partition.node_part < nparts, partition.node_part, 0)
        elem_owner = np.repeat(partition.elem_part, nz)  # (nc,) 3-D element owner
        dof_owner = np.repeat(node_owner, levels * ndof)  # (num_dofs,)
        self.dof_owner = dof_owner

        # per-rank owned sets + global -> local renumbering
        elem_local_pos = np.empty(nc, dtype=np.int64)
        dof_local_row = np.empty(plan.num_dofs, dtype=np.int64)
        self._owned_elems: list[np.ndarray] = []
        self._owned_dofs: list[np.ndarray] = []
        for p in range(nparts):
            e2d = partition.owned_elems(p)
            e3d = (e2d[:, None] * nz + np.arange(nz)[None, :]).ravel()  # ascending
            elem_local_pos[e3d] = np.arange(len(e3d))
            self._owned_elems.append(e3d)
            dofs = np.flatnonzero(dof_owner == p)  # ascending
            dof_local_row[dofs] = np.arange(len(dofs))
            self._owned_dofs.append(dofs)

        # ---- residual exchange: entries (elem, i) routed to row owners
        # in ascending global-entry order ``ent = elem * k + i``
        ent_dof = plan.elem_dofs.ravel()
        ent_src = np.repeat(elem_owner, k)
        ent_owner = dof_owner[ent_dof]
        self._res_rows: list[np.ndarray] = []  # local row per stream entry
        self._res_groups: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        self._res_export: list[dict[int, int]] = []  # owner p <- src q bytes
        for p in range(nparts):
            ent_p = np.flatnonzero(ent_owner == p)  # ascending ent order
            self._res_rows.append(dof_local_row[ent_dof[ent_p]])
            src = ent_src[ent_p]
            srcpos = elem_local_pos[ent_p // k] * k + ent_p % k
            groups, export = {}, {}
            for q in np.unique(src):
                sel = np.flatnonzero(src == q)
                groups[int(q)] = (sel, srcpos[sel])
                if q != p:
                    # protocol: q pre-sums its contributions and ships one
                    # value per distinct ghost dof it shares with p
                    export[int(q)] = int(len(np.unique(ent_dof[ent_p[sel]]))) * _FP64
            self._res_groups.append(groups)
            self._res_export.append(export)

        # ---- restricted CSR structure: owned rows x referenced columns
        slot_rows = np.repeat(np.arange(plan.num_dofs), np.diff(plan.indptr))
        slot_owner = dof_owner[slot_rows]
        slot_local = np.empty(plan.nnz, dtype=np.int64)
        self._gslots: list[np.ndarray] = []  # serial slots of p's rows, ascending
        self._indptr: list[np.ndarray] = []
        self._indices: list[np.ndarray] = []
        self._colmap: list[np.ndarray] = []
        self._bc_clear: list[np.ndarray | None] = []
        self._bc_diag: list[np.ndarray | None] = []
        self._spmv_ghost: list[dict[int, int]] = []  # ghost columns by owner
        #: local column positions of each neighbor's ghost columns -- the
        #: receive buffer layout of the SpMV ghost refresh, used by the
        #: checksum-verified path when the fault plane is armed
        self._spmv_ghost_idx: list[dict[int, np.ndarray]] = []
        for p in range(nparts):
            gslots = np.flatnonzero(slot_owner == p)
            slot_local[gslots] = np.arange(len(gslots))
            lrows = dof_local_row[slot_rows[gslots]]
            gcols = plan.indices[gslots]
            colmap = np.unique(gcols)  # ascending: preserves within-row order
            indptr = np.zeros(len(self._owned_dofs[p]) + 1, dtype=np.int64)
            np.add.at(indptr, lrows + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._gslots.append(gslots)
            self._indptr.append(indptr)
            self._indices.append(np.searchsorted(colmap, gcols))
            self._colmap.append(colmap)
            self._bc_clear.append(None if plan.bc_clear is None else plan.bc_clear[gslots])
            self._bc_diag.append(None if plan.bc_diag is None else plan.bc_diag[gslots])
            ghost_cols = colmap[dof_owner[colmap] != p]
            owners, counts = np.unique(dof_owner[ghost_cols], return_counts=True)
            self._spmv_ghost.append({int(q): int(c) for q, c in zip(owners, counts)})
            self._spmv_ghost_idx.append(
                {int(q): np.flatnonzero(dof_owner[colmap] == q) for q in owners}
            )

        # ---- Jacobian exchange: entries (elem, i, j) routed to row
        # owners in ascending order ``jent = (elem * k + i) * k + j``
        jent_owner = dof_owner[np.repeat(plan.elem_dofs, k, axis=1).ravel()]
        jent_src = np.repeat(elem_owner, k2)
        self._jac_slots: list[np.ndarray] = []  # local slot per stream entry
        self._jac_groups: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        self._jac_export: list[dict[int, int]] = []
        for p in range(nparts):
            jent_p = np.flatnonzero(jent_owner == p)
            self._jac_slots.append(slot_local[plan.scatter[jent_p]])
            src = jent_src[jent_p]
            srcpos = elem_local_pos[jent_p // k2] * k2 + jent_p % k2
            groups, export = {}, {}
            for q in np.unique(src):
                sel = np.flatnonzero(src == q)
                groups[int(q)] = (sel, srcpos[sel])
                if q != p:
                    # protocol: one value per distinct ghost CSR slot
                    export[int(q)] = int(len(np.unique(plan.scatter[jent_p[sel]]))) * _FP64
            self._jac_groups.append(groups)
            self._jac_export.append(export)

        # ---- ghost-refresh routes: dofs each rank's elements read but
        # does not own, grouped by owner (the Import before a sweep)
        self._gather_ghost: list[dict[int, int]] = []
        for p in range(nparts):
            local_dofs = np.unique(plan.elem_dofs[self._owned_elems[p]])
            ghosts = local_dofs[dof_owner[local_dofs] != p]
            owners, counts = np.unique(dof_owner[ghosts], return_counts=True)
            self._gather_ghost.append({int(q): int(c) for q, c in zip(owners, counts)})

    # -- per-rank views ------------------------------------------------
    def owned_elems(self, part: int) -> np.ndarray:
        """Global 3-D element ids rank ``part`` evaluates (ascending)."""
        return self._owned_elems[part]

    def owned_dofs(self, part: int) -> np.ndarray:
        """Global dof ids (matrix rows) owned by ``part`` (ascending)."""
        return self._owned_dofs[part]

    def column_map(self, part: int) -> np.ndarray:
        """Global dofs backing rank ``part``'s local matrix columns."""
        return self._colmap[part]

    def imbalance(self) -> float:
        """max/mean owned 3-D elements (slowest rank sets the step time)."""
        counts = np.array([len(e) for e in self._owned_elems], dtype=np.float64)
        return float(counts.max() / max(1.0, counts.mean()))

    # -- exchanges -----------------------------------------------------
    def record_ghost_refresh(self) -> None:
        """Meter one ghost-dof refresh (Import) before an evaluation sweep."""
        tr = get_tracer()
        with tr.span("halo.ghost_refresh", cat="halo", nparts=self.nparts):
            for p in range(self.nparts):
                for q, count in self._gather_ghost[p].items():
                    nbytes = count * _FP64
                    if tr.recording:
                        with tr.span(
                            "halo.recv", cat="halo", rank=p, src=int(q), bytes=nbytes
                        ):
                            self.meter.record("vector_gather", q, p, nbytes)
                    else:
                        self.meter.record("vector_gather", q, p, nbytes)
            self.meter.count_event("gather")

    def _stream(self, groups, length, rank_blocks) -> np.ndarray:
        """Assemble one owner's entry stream from the sources' blocks."""
        stream = np.empty(length)
        for q, (sel, srcpos) in groups.items():
            stream[sel] = rank_blocks[q].ravel()[srcpos]
        return stream

    def assemble_residual(self, rank_blocks: list[np.ndarray]) -> np.ndarray:
        """Additive residual scatter: rank blocks -> global dof vector.

        ``rank_blocks[p]`` has shape ``(len(owned_elems(p)), k)``.  Every
        owner sums its rows' entries in serial entry order, so the result
        is bitwise equal to ``plan.assemble_vector`` on the unpartitioned
        block array.  Ghost exports are metered per neighbor.
        """
        tr = get_tracer()
        f = np.zeros(self.num_dofs)
        with tr.span("spmd.assemble_residual", cat="halo", nparts=self.nparts):
            for p in range(self.nparts):
                for q, nbytes in self._res_export[p].items():
                    if tr.recording:
                        with tr.span(
                            "halo.send", cat="halo", rank=int(q), dst=p, bytes=nbytes
                        ):
                            self.meter.record("vector_scatter", q, p, nbytes)
                    else:
                        self.meter.record("vector_scatter", q, p, nbytes)
                # rank-local scatter work: the compute side of the
                # halo/compute critical-path split
                with (
                    tr.span("rank.assemble", cat="compute", rank=p, phase="residual")
                    if tr.recording
                    else nullcontext()
                ):
                    stream = self._stream(self._res_groups[p], len(self._res_rows[p]), rank_blocks)
                    f[self._owned_dofs[p]] = np.bincount(
                        self._res_rows[p], weights=stream, minlength=len(self._owned_dofs[p])
                    )
            self.meter.count_event("residual_exchange")
        return f

    def assemble_jacobian(
        self, rank_blocks: list[np.ndarray], diag_scale: float | None = None
    ) -> "DistributedMatrix":
        """Row-partitioned Jacobian from per-rank ``(ne_p, k, k)`` blocks.

        Each owner's CSR data is bitwise equal to the serial plan's data
        restricted to its rows (same per-slot summation order, same
        Dirichlet masking).  Ghost-row exports are metered per neighbor.
        """
        tr = get_tracer()
        data_parts = []
        with tr.span("spmd.assemble_jacobian", cat="halo", nparts=self.nparts):
            for p in range(self.nparts):
                for q, nbytes in self._jac_export[p].items():
                    if tr.recording:
                        with tr.span(
                            "halo.send", cat="halo", rank=int(q), dst=p, bytes=nbytes
                        ):
                            self.meter.record("matrix_export", q, p, nbytes)
                    else:
                        self.meter.record("matrix_export", q, p, nbytes)
                with (
                    tr.span("rank.assemble", cat="compute", rank=p, phase="jacobian")
                    if tr.recording
                    else nullcontext()
                ):
                    stream = self._stream(self._jac_groups[p], len(self._jac_slots[p]), rank_blocks)
                    data = np.bincount(
                        self._jac_slots[p], weights=stream, minlength=len(self._gslots[p])
                    )
                    if diag_scale is not None:
                        if self._bc_clear[p] is None:
                            raise ValueError("plan was built without Dirichlet dofs")
                        if diag_scale <= 0.0:
                            raise ValueError("diag_scale must be positive")
                        data[self._bc_clear[p]] = 0.0
                        data[self._bc_diag[p]] = diag_scale
                    data_parts.append(data)
            self.meter.count_event("jacobian_exchange")
        return DistributedMatrix(self, data_parts)


class DistributedMatrix:
    """Row-partitioned CSR operator with metered ghost-column refresh.

    ``matvec`` runs one rank-local SpMV per rank (owned rows x local
    column map) and places the row results -- no cross-rank sums -- so
    the product is bitwise equal to the serial SpMV.  ``gather_global``
    reconstructs the serial :class:`CsrMatrix` (for the replicated
    preconditioner setup), metering the operator gather.
    """

    def __init__(self, assembly: DistributedStokesAssembly, data_parts: list[np.ndarray]):
        self.assembly = assembly
        self.data_parts = data_parts
        n = assembly.num_dofs
        self.shape = (n, n)
        self._local: list[CsrMatrix] | None = None
        self._global: CsrMatrix | None = None

    @property
    def nparts(self) -> int:
        return self.assembly.nparts

    @property
    def nnz(self) -> int:
        """Stored entries over all ranks' rows (equals the serial plan's nnz)."""
        return sum(len(d) for d in self.data_parts)

    def isfinite(self) -> bool:
        """Whether every rank's stored values are finite."""
        return all(bool(np.all(np.isfinite(d))) for d in self.data_parts)

    def local_matrix(self, part: int) -> CsrMatrix:
        """Rank ``part``'s (owned rows x column map) CSR block."""
        if self._local is None:
            a = self.assembly
            self._local = [
                CsrMatrix(
                    (len(a._owned_dofs[p]), len(a._colmap[p])),
                    a._indptr[p],
                    a._indices[p],
                    self.data_parts[p],
                )
                for p in range(a.nparts)
            ]
        return self._local[part]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x with a metered ghost-column refresh per rank."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"matvec expects a vector of length {self.shape[1]}")
        a = self.assembly
        y = np.zeros(self.shape[0])
        tr = get_tracer()
        # the SpMV is GMRES's inner loop: keep the untraced path free of
        # span bookkeeping beyond the single enclosing handle
        with tr.span("spmd.spmv", cat="halo", nparts=a.nparts):
            for p in range(a.nparts):
                for q, count in a._spmv_ghost[p].items():
                    nbytes = count * _FP64
                    if tr.recording:
                        with tr.span(
                            "halo.recv", cat="halo", rank=p, src=int(q), bytes=nbytes
                        ):
                            a.meter.record("vector_gather", q, p, nbytes)
                    else:
                        a.meter.record("vector_gather", q, p, nbytes)
                xl = x[a._colmap[p]]
                plane = fault_plane()
                if plane.active:
                    self._refresh_ghosts_checked(p, x, xl, plane)
                if tr.recording:
                    # rank-local SpMV, priced so the critical-path pass
                    # and roofline attribution see per-rank compute
                    lm = self.local_matrix(p)
                    with tr.span(
                        "rank.spmv", cat="compute", rank=p,
                        bytes=spmv_bytes(lm.shape[0], lm.nnz),
                        flops=spmv_flops(lm.nnz),
                    ):
                        y[a._owned_dofs[p]] = lm.matvec(xl)
                else:
                    y[a._owned_dofs[p]] = self.local_matrix(p).matvec(xl)
            a.meter.count_event("spmv")
        return y

    def _refresh_ghosts_checked(self, part: int, x, xl, plane) -> None:
        """Armed-plane SpMV ghost refresh: only ghost columns verified by
        :func:`~repro.resilience.detectors.receive_verified` land in ``xl``."""
        a = self.assembly
        for q, idx in a._spmv_ghost_idx[part].items():
            xl[idx] = receive_verified(
                plane,
                lambda: np.ascontiguousarray(x[a._colmap[part][idx]]),
                a.meter,
                what="SpMV ghost payload", rank=part, src=int(q), channel="spmv",
            )

    def __matmul__(self, x):
        return self.matvec(x)

    def gather_global(self) -> CsrMatrix:
        """Serial-identical global CSR (each rank ships its rows' values).

        Used for the replicated preconditioner setup; bytes are metered
        once per matrix on the ``matrix_gather`` channel (the fixed CSR
        structure is exchanged once per problem, only values move per
        Newton step).
        """
        a = self.assembly
        if self._global is None:
            data = np.empty(a.plan.nnz)
            for p in range(a.nparts):
                data[a._gslots[p]] = self.data_parts[p]
                if p != 0:
                    a.meter.record("matrix_gather", p, 0, len(a._gslots[p]) * _FP64)
            a.meter.count_event("matrix_gather")
            self._global = CsrMatrix(
                (a.num_dofs, a.num_dofs), a.plan.indptr, a.plan.indices, data
            )
        return self._global
