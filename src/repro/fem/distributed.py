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

Cells are laid out in *owner order* (each rank's cells, ascending, one
run): an SPMD problem keeps its cell operands and block arrays in it.

Bit-for-bit reproducibility.  E3SM-class climate codes require the
distributed solve to be *bitwise* identical to the serial one (and
across rank counts).  Floating-point addition is not associative, so
this cannot be left to chance; three invariants make it hold here:

1. **Owner-ordered scatter.**  The serial ``AssemblyPlan`` sums
   element contributions per dof (and per CSR slot) in ascending
   global-entry order via ``np.bincount``.  Each owner here consumes
   the same entries in the same ascending order -- one precomputed
   gather out of the owner-ordered block array, whichever rank wrote
   them -- so every per-dof and per-slot sequential sum is bitwise
   equal to the serial one.
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
not the internal entry streams this in-process simulation routes --
as one precomputed :class:`~repro.mesh.partition.ExchangePlan` per
exchange class.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.fem.assembly import AssemblyPlan
from repro.fem.sparse import CsrMatrix
from repro.gpusim.solver_bytes import spmv_bytes, spmv_flops
from repro.mesh.partition import ExchangePlan, Partition, TrafficMeter
from repro.observability import get_tracer
from repro.resilience.detectors import receive_verified
from repro.resilience.injectors import fault_plane

__all__ = ["DistributedStokesAssembly", "DistributedMatrix", "owner_order"]

_FP64 = 8  # bytes per exchanged value


def _group(owner: np.ndarray, nparts: int) -> tuple[np.ndarray, np.ndarray]:
    """One stable sort by owner: ``order[start[p]:start[p + 1]]`` are the
    ids rank ``p`` owns, ascending."""
    order = np.argsort(owner, kind="stable")
    start = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=nparts), out=start[1:])
    return order, start


def owner_order(partition: Partition, nlayers: int) -> tuple[np.ndarray, list[slice]]:
    """``(cell_order, cell_spans)``: the extruded cells in owner order, rank
    ``p``'s cells ascending at ``cell_order[cell_spans[p]]``."""
    order, start = _group(np.repeat(partition.elem_part, nlayers), partition.nparts)
    return order, [slice(int(a), int(b)) for a, b in zip(start[:-1], start[1:])]


def _rank_local(order: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each id's position inside its owner's group of :func:`_group`."""
    local = np.empty(len(order), dtype=np.int64)
    local[order] = np.arange(len(order)) - np.repeat(start[:-1], np.diff(start))
    return local


def _messages(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """``(src, dst, bytes)`` per nonzero ``counts[dst, src]``, by dst then src."""
    return [(int(q), int(p), int(counts[p, q]) * _FP64) for p, q in np.argwhere(counts)]


def _message_spans(tr, name: str, plan: ExchangePlan, dst: int) -> None:
    """The traced view of ``dst``'s messages: one ``halo.send`` /
    ``halo.recv`` span each (the meter records the plan's totals)."""
    for src, nbytes in plan.inbox[dst]:
        peer = {"rank": dst, "src": src} if name == "halo.recv" else {"rank": src, "dst": dst}
        with tr.span(name, cat="halo", bytes=nbytes, **peer):
            pass


class DistributedStokesAssembly:
    """Per-rank restricted assembly of the FO Stokes residual/Jacobian.

    Built once per problem from the serial :class:`AssemblyPlan` and a
    footprint :class:`Partition`; precomputes, per rank:

    * the owned 3-D element list (all layers of owned footprint
      elements, one contiguous run of :attr:`cell_order`) and owned dof
      list (whole vertical columns);
    * entry-exchange routes: for every residual entry ``(elem, i)`` whose
      row dof it owns, the local row and the entry's position in the
      owner-ordered block array, kept in ascending global-entry order
      (the BFB invariant); a Jacobian entry ``(elem, i, j)`` follows its
      row entry, ``j`` fastest, to its local CSR slot;
    * the restricted CSR structure (owned rows x referenced columns)
      with its slot map into the serial CSR, plus per-rank Dirichlet
      masks;
    * protocol-level byte counts for every exchange class.

    Stable sorts by owner (cells, dofs, the ``nc * k`` row entries) and
    one ``np.unique`` per export class over the ghost entries build it;
    CSR slots and Jacobian entries expand from their rows.
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

        nparts, n, nnz = self.nparts, plan.num_dofs, plan.nnz

        # ownership: elements by footprint-element owner, dofs by
        # footprint-node owner (a column's levels x ndof dofs are
        # contiguous under the column-major numbering).  Footprint nodes
        # untouched by any element have no owner; park them on rank 0
        # (their rows are structurally empty).
        node_owner = np.where(partition.node_part < nparts, partition.node_part, 0)
        elem_owner = np.repeat(partition.elem_part, nlayers)  # (nc,) 3-D element owner
        dof_owner = np.repeat(node_owner, levels * ndof)  # (num_dofs,)
        self.dof_owner = dof_owner

        self.cell_order, self.cell_spans = owner_order(partition, nlayers)
        cell_pos = _rank_local(self.cell_order, np.array([0, nc]))  # inverse of cell_order
        dof_order, dof_start = _group(dof_owner, nparts)
        self._owned_dofs = [dof_order[a:b] for a, b in zip(dof_start[:-1], dof_start[1:])]
        dof_local_row = _rank_local(dof_order, dof_start)

        # ---- residual routes: the row entries ``ent = elem * k + i``
        # grouped by row owner, ascending within each owner; an entry
        # sits at ``cell_pos[elem] * k + i`` of the owner-ordered blocks
        ent_dof = plan.elem_dofs.ravel()
        ent_owner = dof_owner[ent_dof]
        ent_order, ent_start = _group(ent_owner, nparts)
        ent_pos = (cell_pos[:, None] * k + np.arange(k)).ravel()[ent_order]
        ent_row = dof_local_row[ent_dof[ent_order]]

        # ---- restricted CSR structure: owned rows x referenced columns.
        # A row's slots are one run of the serial CSR, so a rank's slots
        # (ascending) expand from its rows' runs
        row_nnz = np.diff(plan.indptr)
        run = row_nnz[dof_order]
        run_end = np.cumsum(run)
        gslots = np.repeat(plan.indptr[dof_order] - (run_end - run), run) + np.arange(nnz)
        slot_start = np.concatenate(([0], run_end))[dof_start]
        slot_local = _rank_local(gslots, slot_start)

        # ---- Jacobian routes: entry ``(elem, i, j)`` follows row entry
        # ``(elem, i)``, so its stream is the row entries' k-wide rows
        jac_slot = slot_local[plan.scatter.reshape(nc * k, k)[ent_order]]

        self._res_pos: list[np.ndarray] = []  # block-array position per stream row entry
        self._res_rows: list[np.ndarray] = []  # local row per stream row entry
        self._jac_slots: list[np.ndarray] = []  # local slot per stream entry
        self._gslots: list[np.ndarray] = []  # serial slots of p's rows, ascending
        self._indptr: list[np.ndarray] = []
        self._indices: list[np.ndarray] = []
        self._colmap: list[np.ndarray] = []
        self._bc_clear: list[np.ndarray | None] = []
        self._bc_diag: list[np.ndarray | None] = []
        #: local column positions of each neighbor's ghost columns -- the
        #: receive buffer layout of the SpMV ghost refresh, used by the
        #: checksum-verified path when the fault plane is armed
        self._spmv_ghost_idx: list[dict[int, np.ndarray]] = []
        spmv_counts = np.zeros((nparts, nparts), dtype=np.int64)
        for p in range(nparts):
            ents = slice(ent_start[p], ent_start[p + 1])
            self._res_pos.append(ent_pos[ents])
            self._res_rows.append(ent_row[ents])
            self._jac_slots.append(jac_slot[ents].ravel())
            slots = gslots[slot_start[p]:slot_start[p + 1]]
            gcols = plan.indices[slots]
            used = np.zeros(n, dtype=bool)
            used[gcols] = True
            colmap = np.flatnonzero(used)  # ascending: preserves within-row order
            self._gslots.append(slots)
            # in the plan's index dtype, which each rank's SpMV handle shares
            rank_indptr = np.concatenate(([0], np.cumsum(row_nnz[self._owned_dofs[p]])))
            self._indptr.append(rank_indptr.astype(plan.indices.dtype))
            self._indices.append((np.cumsum(used) - 1)[gcols].astype(plan.indices.dtype))
            self._colmap.append(colmap)
            self._bc_clear.append(None if plan.bc_clear is None else plan.bc_clear[slots])
            self._bc_diag.append(None if plan.bc_diag is None else plan.bc_diag[slots])
            col_owner = dof_owner[colmap]
            spmv_counts[p] = np.bincount(col_owner[col_owner != p], minlength=nparts)
            self._spmv_ghost_idx.append(
                {int(q): np.flatnonzero(col_owner == q) for q in np.flatnonzero(spmv_counts[p])}
            )

        # ---- exchange plans.  Ghost entries are those a rank's cells
        # contribute to another rank's rows; one np.unique per class
        # counts the distinct values each (owner, source) pair ships
        ent_src = np.repeat(elem_owner, k)
        ghost = np.flatnonzero(ent_src != ent_owner)
        pair = ent_owner[ghost] * nparts + ent_src[ghost]  # owner x source
        # residual: the source pre-sums, one value per distinct ghost dof;
        # Jacobian: one value per distinct ghost CSR slot
        res_keys = np.unique(pair * n + ent_dof[ghost]) // n
        jac_keys = np.unique(pair[:, None] * nnz + plan.scatter.reshape(nc * k, k)[ghost]) // nnz
        res_counts, jac_counts = (
            np.bincount(keys, minlength=nparts * nparts).reshape(nparts, nparts)
            for keys in (res_keys, jac_keys)
        )
        self._res_plan = ExchangePlan("vector_scatter", nparts, _messages(res_counts))
        self._jac_plan = ExchangePlan("matrix_export", nparts, _messages(jac_counts))
        # the ghost refresh (Import before a sweep) is the residual
        # export's mirror: the dofs q's cells read from owner p
        self._refresh_plan = ExchangePlan("vector_gather", nparts, _messages(res_counts.T))
        self._spmv_plan = ExchangePlan("vector_gather", nparts, _messages(spmv_counts))
        self._gather_plan = ExchangePlan(
            "matrix_gather", nparts, [(p, 0, len(self._gslots[p]) * _FP64) for p in range(1, nparts)]
        )

    # -- per-rank views ------------------------------------------------
    def owned_elems(self, part: int) -> np.ndarray:
        """Global 3-D element ids rank ``part`` evaluates (ascending)."""
        return self.cell_order[self.cell_spans[part]]

    def owned_dofs(self, part: int) -> np.ndarray:
        """Global dof ids (matrix rows) owned by ``part`` (ascending)."""
        return self._owned_dofs[part]

    def imbalance(self) -> float:
        """max/mean owned 3-D elements (slowest rank sets the step time)."""
        counts = np.array([s.stop - s.start for s in self.cell_spans], dtype=np.float64)
        return float(counts.max() / max(1.0, counts.mean()))

    # -- exchanges -----------------------------------------------------
    def record_ghost_refresh(self) -> None:
        """Meter one ghost-dof refresh (Import) before an evaluation sweep."""
        tr = get_tracer()
        with tr.span("halo.ghost_refresh", cat="halo", nparts=self.nparts):
            if tr.recording:
                for p in range(self.nparts):
                    _message_spans(tr, "halo.recv", self._refresh_plan, p)
            self.meter.record_plan(self._refresh_plan)
            self.meter.count_event("gather")

    def _owner_blocks(self, blocks: np.ndarray, shape: tuple) -> np.ndarray:
        if getattr(blocks, "shape", None) != shape:
            raise ValueError(f"owner-ordered blocks must be one {shape} array")
        return blocks.reshape(-1, shape[1])

    def assemble_residual(self, blocks: np.ndarray) -> np.ndarray:
        """Additive residual scatter: owner-ordered blocks -> global dof vector.

        ``blocks`` is ``(num_cells, k)`` in owner order (rank ``p``'s
        rows at ``cell_spans[p]``).  Every owner sums its rows' entries
        in serial entry order, so the result is bitwise equal to
        ``plan.assemble_vector`` on the global-order block array.
        Ghost exports are metered per neighbor.
        """
        flat = self._owner_blocks(blocks, self.plan.elem_dofs.shape).ravel()
        tr = get_tracer()
        f = np.zeros(self.num_dofs)
        with tr.span("spmd.assemble_residual", cat="halo", nparts=self.nparts):
            self.meter.record_plan(self._res_plan)
            for p in range(self.nparts):
                if tr.recording:
                    _message_spans(tr, "halo.send", self._res_plan, p)
                # rank-local scatter work: the compute side of the
                # halo/compute critical-path split
                with (
                    tr.span("rank.assemble", cat="compute", rank=p, phase="residual")
                    if tr.recording
                    else nullcontext()
                ):
                    f[self._owned_dofs[p]] = np.bincount(
                        self._res_rows[p],
                        weights=flat[self._res_pos[p]],
                        minlength=len(self._owned_dofs[p]),
                    )
            self.meter.count_event("residual_exchange")
        return f

    def assemble_jacobian(
        self, blocks: np.ndarray, diag_scale: float | None = None
    ) -> "DistributedMatrix":
        """Row-partitioned Jacobian from owner-ordered ``(num_cells, k, k)`` blocks.

        Each owner's CSR data is bitwise equal to the serial plan's data
        restricted to its rows (same per-slot summation order, same
        Dirichlet masking).  Ghost-row exports are metered per neighbor.
        """
        rows = self._owner_blocks(blocks, self.plan.block_shape)
        tr = get_tracer()
        data_parts = []
        with tr.span("spmd.assemble_jacobian", cat="halo", nparts=self.nparts):
            self.meter.record_plan(self._jac_plan)
            for p in range(self.nparts):
                if tr.recording:
                    _message_spans(tr, "halo.send", self._jac_plan, p)
                with (
                    tr.span("rank.assemble", cat="compute", rank=p, phase="jacobian")
                    if tr.recording
                    else nullcontext()
                ):
                    data = np.bincount(
                        self._jac_slots[p],
                        weights=rows[self._res_pos[p]].ravel(),
                        minlength=len(self._gslots[p]),
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
    preconditioner setup), metering the operator gather.  Its operator
    protocol prices one product as the serial SpMV over the plan's
    structure would be priced.
    """

    operator_mode = "assembled"

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

    @property
    def bytes_per_matvec(self) -> float:
        """Modeled HBM traffic of one product (see gpusim.solver_bytes)."""
        return spmv_bytes(self.shape[0], self.nnz, self.assembly.plan.indices.itemsize)

    @property
    def flops_per_matvec(self) -> float:
        """Modeled float64 ops of one product (see gpusim.solver_bytes)."""
        return spmv_flops(self.nnz)

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
        plane = fault_plane()
        # the SpMV is GMRES's inner loop: keep the untraced path free of
        # span bookkeeping beyond the single enclosing handle
        with tr.span("spmd.spmv", cat="halo", nparts=a.nparts):
            a.meter.record_plan(a._spmv_plan)
            for p in range(a.nparts):
                if tr.recording:
                    _message_spans(tr, "halo.recv", a._spmv_plan, p)
                xl = x[a._colmap[p]]
                if plane.active:
                    self._refresh_ghosts_checked(p, x, xl, plane)
                if tr.recording:
                    # rank-local SpMV, priced so the critical-path pass
                    # and roofline attribution see per-rank compute
                    lm = self.local_matrix(p)
                    with tr.span(
                        "rank.spmv", cat="compute", rank=p,
                        bytes=lm.bytes_per_matvec, flops=lm.flops_per_matvec,
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
            a.meter.record_plan(a._gather_plan)
            a.meter.count_event("matrix_gather")
            self._global = CsrMatrix(
                (a.num_dofs, a.num_dofs), a.plan.indptr, a.plan.indices, data
            )
        return self._global
