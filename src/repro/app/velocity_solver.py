"""The FO Stokes velocity solve (MALI's velocity solver analogue).

Pipeline per nonlinear iteration, mirroring Albany:

1. gather the nodal solution per element workset;
2. run the evaluator DAG (Gather -> Ugrad -> ViscosityFO -> BodyForce ->
   **StokesFOResid kernel** -> BasalFriction -> Scatter) in residual or
   Jacobian (SFad-16) mode;
3. scatter-add element blocks into the global vector / CSR matrix;
4. impose lateral Dirichlet conditions;
5. solve the Newton step with GMRES + two-level MDSC (vertical collapse
   of every column, as the extruded column-major dof numbering allows).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.app.config import VelocityConfig
from repro.constants import RHO_G_KPA
from repro.core.lowering import pack_geom
from repro.fem.assembly import AssemblyPlan
from repro.fem.discretization import compute_basis_data, compute_face_basis_data
from repro.fem.distributed import DistributedMatrix, DistributedStokesAssembly, owner_order
from repro.fem.dofmap import DofMap
from repro.mesh.extrude import ExtrudedMesh
from repro.mesh.geometry import IceGeometry
from repro.mesh.partition import (
    TrafficMeter,
    ghost_columns_estimate,
    halo_statistics,
    partition_footprint,
)
from repro.observability import get_metrics, get_series, get_tracer
from repro.physics.evaluators import Workset, basal_jacobian_block, build_stokes_field_manager
from repro.physics.viscosity import flow_factor_arrhenius, glen_prefactor
from repro.resilience.injectors import RankFailure, fault_plane
from repro.resilience.policies import ResilienceLog, choose_survivor
from repro.solvers.multigrid import ColumnCollapseMdsc, MatrixFreeColumnCollapseMdsc
from repro.solvers.newton import NEWTON_TOL, NewtonResult, newton_solve
from repro.solvers.reductions import column_block_reducer
from repro.solvers.smoothers import JacobiSmoother, VerticalLineSmoother

__all__ = ["StokesVelocityProblem", "VelocitySolution"]

#: Gauss points per direction: 2 is the paper's 8-point hex rule
QUADRATURE_ORDER = 2
#: cells per evaluator workset (Albany-style chunking)
WORKSET_SIZE = 2048

#: evaluation mode -> (evaluator-DAG mode, residual blocks?, Jacobian blocks?);
#: the mode name is also the label the fault plane and the spans see
_SWEEPS = {
    "residual": ("residual", True, False),
    "jacobian": ("jacobian", False, True),
    "jacobian_fused": ("jacobian", True, True),
}


@dataclass
class VelocitySolution:
    """Result of a velocity solve plus the paper's diagnostics."""

    u: np.ndarray  # (num_dofs,) velocities [m/yr], interleaved (ux, uy)
    newton: NewtonResult
    mean_velocity: float  # mean |u| over all nodes [m/yr]
    max_velocity: float
    surface_mean_velocity: float
    diagnostics: dict = field(default_factory=dict)


class StokesVelocityProblem:
    """Assembles and solves the FO Stokes equations on an extruded mesh."""

    def __init__(self, mesh: ExtrudedMesh, geometry: IceGeometry, config: VelocityConfig | None = None):
        self.mesh = mesh
        self.geometry = geometry
        self.config = config or VelocityConfig()
        self._precompute()

    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        cfg = self.config
        mesh = self.mesh
        fp = mesh.footprint
        order = QUADRATURE_ORDER

        self.dofmap = DofMap(mesh.num_nodes, 2, mesh.elems)

        # SPMD path: real RCB partition of the footprint, rank-restricted
        # assembly and row-partitioned operators with metered halo
        # traffic.  The solve stays bit-for-bit identical to serial
        # because both share the column-blocked reducer below and the
        # distributed assembly preserves the serial summation orders.
        self.partition = partition_footprint(fp, cfg.nparts) if cfg.nparts > 1 else None
        # cell storage order of every per-cell operand and block array:
        # the global order, or the SPMD owner order, in which each rank's
        # cells are one run of ``_spans`` (its operands are views)
        if self.partition is None:
            self._cells, self._spans = np.arange(mesh.num_elems), [slice(0, mesh.num_elems)]
        else:
            self._cells, self._spans = owner_order(self.partition, mesh.nlayers)

        # footprint basis + column maps are pure topology/xy data: the
        # transient geometry refresh moves only column endpoints (z), so
        # these are computed once and reused across every refresh
        self._fp_basis = compute_basis_data(fp.coords, fp.elems, fp.elem_type, order)
        self._elem_col = mesh.elem_column(self._cells)
        self._basal_face_nodes = mesh.basal_face_nodes()
        self._face_type = "quad4" if fp.elem_type == "quad4" else "tri3"

        # coords-dependent numeric setup (3-D basis, surface gradients,
        # basal face geometry and friction) -- recomputed by
        # refresh_geometry(); the first run also samples the friction
        self.basal_beta_qp = None
        self._geometry_numeric_setup()

        # Glen's law prefactor 1/2 A^(-1/n) from the temperature field at
        # layer midheights, checked and raised once here instead of per
        # sweep.  Temperature is a function of (x, y, zeta) only, and a
        # vertical re-extrusion changes neither qp xy positions nor sigma
        # levels, so this survives geometry refreshes untouched.
        zeta_mid = 0.5 * (mesh.sigma[:-1] + mesh.sigma[1:])  # (nz,)
        lay = mesh.elem_layer(self._cells)
        qp_xy = self.basis.qp_coords[:, :, :2]
        temp = self.geometry.temperature(
            qp_xy[..., 0], qp_xy[..., 1], zeta_mid[lay][:, None]
        )
        self.glen_prefactor_qp = glen_prefactor(flow_factor_arrhenius(temp))  # (ne3, nq3)
        self.glen_prefactor_qp.flags.writeable = False

        # row of each cell in the basal-face arrays, -1 off the bed
        basal_elems = mesh.basal_elems()
        basal_row = np.full(mesh.num_elems, -1, dtype=np.int64)
        basal_row[basal_elems] = np.arange(len(basal_elems))
        self._basal_row = basal_row[self._cells]

        # Dirichlet: zero velocity on the lateral (margin) boundary
        lat = mesh.lateral_nodes()
        self.bc_dofs = np.sort(np.concatenate([self.dofmap.dof(lat, 0), self.dofmap.dof(lat, 1)]))

        self.field_manager = build_stokes_field_manager(cfg.kernel_impl)

        # symbolic assembly, done once: sorted/deduped CSR structure,
        # COO->CSR scatter permutation, Dirichlet masks.  Every Newton
        # step is then a pure numeric fill (no re-sort).
        self.plan = AssemblyPlan(self.dofmap, self.bc_dofs)
        #: symbolic half of the vline/MDSC set-up (``plan.collapse_map``),
        #: built by the first set-up that needs it, with the coarse index
        #: only for MDSC; topology only, like the plan, so nothing ever
        #: invalidates it
        self.mdsc_symbolic = None

        # operator-mode axis: matrix-free wraps the SFad element blocks
        # as the GMRES operator instead of filling CSR.  SPMD solves
        # always assemble -- the row-partitioned DistributedMatrix is
        # the halo-exchange unit -- so the axis binds to serial solves.
        self.matrix_free = cfg.operator_mode == "matrix-free" and cfg.nparts == 1

        self.meter = self.spmd = None
        if self.partition is not None:
            self.meter = TrafficMeter(cfg.nparts)
            self.spmd = DistributedStokesAssembly(
                self.plan, self.partition, mesh.levels, mesh.nlayers, meter=self.meter
            )
        self._cell_dofs = self.plan.elem_dofs if self.spmd is None else self.plan.elem_dofs[self._cells]

        # deterministic reductions, one block per footprint column: used
        # by serial AND distributed solves (E3SM-style BFB reproducibility
        # across decompositions)
        self.reducer = column_block_reducer(
            fp.num_nodes, mesh.levels, ndof=2, meter=self.meter
        )

        # characteristic magnitude of the physics diagonal, probed from
        # one workset at zero velocity: Dirichlet rows are scaled to it
        # so algebraic coarsening stays well conditioned.  Probed here
        # only: a Dirichlet row is ``s * e_i`` against ``f_i = s * u_i =
        # 0``, so ``s > 0`` only conditions -- over 26 retreat steps the
        # diagonal drifts 2.5x, freezing ``s`` moves thickness by 1e-16.
        self.bc_diag_scale = self._probe_diag_scale()

        #: full evaluator-DAG sweeps over the mesh, by mode.  Like
        #: :attr:`phase_seconds`, reset at the start of every
        #: :meth:`solve` so both report per-solve numbers (calls made
        #: outside a solve accumulate until the next one).
        self.eval_counts = {"residual": 0, "jacobian": 0}
        #: wall time of the evaluate and scatter phases, per solve
        self.phase_seconds = {"evaluate": 0.0, "scatter": 0.0}

        #: SPMD ranks that failed mid-solve (graceful degradation state);
        #: reset at the start of every :meth:`solve`
        self._dead_ranks: set[int] = set()
        #: active recovery policy, set per solve by :meth:`solve`
        #: (None = fail-fast behavior)
        self._resilience = None

    def _geometry_numeric_setup(self) -> None:
        """The coords-dependent slice of :meth:`_precompute`.

        3-D basis data (jacobians, weighted gradients, qp positions) with
        the host lowering's two operands packed from it, the driving
        stress ``rho g grad(s)`` on the 3-D quadrature rule, and the
        basal face geometry with the friction term's Jacobian block.
        Everything here is a pure function of ``mesh.coords``/
        ``mesh.surface2d`` (and the friction sampled at face-qp xy
        positions, which a vertical re-extrusion does not move: sampled
        by the first run, kept after); :meth:`refresh_geometry` re-runs
        exactly this block after a vertical re-extrusion -- the one place
        a sweep's u-independent inputs are (re)built.  Every sweep of
        every request on the problem shares them: read-only.  An SPMD
        problem keeps them in owner order: the basis GEMM runs in global
        order and its exact results are permuted once, here.
        """
        mesh = self.mesh
        fp = mesh.footprint
        order = QUADRATURE_ORDER

        basis = compute_basis_data(mesh.coords, mesh.elems, mesh.elem_type, order)
        if self.partition is not None:
            cell_arrays = ("w_bf", "grad_bf", "w_grad_bf", "det_j", "qp_coords")
            basis = replace(basis, **{f: getattr(basis, f)[self._cells] for f in cell_arrays})
        self.basis = basis
        # one copy of the weighted basis, packed as the kernel's GEMM
        # operand; ``w_grad_bf``/``w_bf`` are views of it
        self._w_packed = pack_geom(basis.w_grad_bf, basis.w_bf)
        self._w_packed.flags.writeable = False
        basis.w_grad_bf, basis.w_bf = self._w_packed[..., :3], self._w_packed[..., 3]

        # surface gradient at footprint quadrature points, replicated to
        # the 3-D rule: hex qp q maps to footprint qp q // order (tensor
        # ordering has the vertical coordinate fastest)
        fp_grad = self._fp_basis.grad_bf  # (ne2, k, nq2, 2)
        ne2, k = fp_grad.shape[:2]
        s_elem = mesh.surface2d[fp.elems][:, None, :]  # (ne2, 1, k)
        grad_s_2d = (s_elem @ fp_grad.reshape(ne2, k, -1)).reshape(ne2, -1, 2)
        nq3 = self.basis.num_qps
        q2_of_q3 = np.arange(nq3) // order
        # per 3-D cell: its column's surface gradient at the matching qp
        self.force_qp = RHO_G_KPA * grad_s_2d[self._elem_col][:, q2_of_q3, :]  # (ne3, nq3, 2)
        self.force_qp.flags.writeable = False

        # basal faces: bottom quad/tri of each layer-0 element
        face = self.face_basis = compute_face_basis_data(
            mesh.coords, self._basal_face_nodes, self._face_type, order
        )
        if self.basal_beta_qp is None:
            fq = face.qp_coords
            self.basal_beta_qp = np.asarray(
                self.geometry.basal_friction(fq[..., 0], fq[..., 1]), dtype=np.float64
            )  # (nbasal, nqf)
            self.basal_beta_qp.flags.writeable = False
        self.basal_block = basal_jacobian_block(self.basal_beta_qp, face.w_bf, face.bf)
        self.basal_block.flags.writeable = False

    def refresh_geometry(self, thickness2d: np.ndarray, surface2d: np.ndarray) -> None:
        """Re-extrude the mesh for an evolved geometry, keeping symbolic state.

        The transient engine calls this at the top of every coupled step:
        the mesh's vertical coordinate is rebuilt from the new nodal
        thickness/surface (:meth:`ExtrudedMesh.update_columns`) and only
        the numeric precomputations that depend on it are redone.  The
        expensive symbolic artifacts -- DofMap, the AssemblyPlan's
        sorted/deduped CSR structure and scatter permutation, the MDSC
        set-up's symbolic half, RCB partitions, halo maps, the
        column-blocked reducer -- are all topology-derived and survive
        untouched (as does the Dirichlet row scale, see
        :meth:`_precompute`), which is what makes a warm transient step
        much cheaper than a cold problem build.
        """
        with get_tracer().span("stokes.refresh_geometry", num_cells=self.mesh.num_elems):
            self.mesh.update_columns(thickness2d, surface2d)
            self._geometry_numeric_setup()
        get_metrics().counter("transient.geometry_refresh").inc()

    def depth_averaged_cell_velocity(self, u: np.ndarray) -> np.ndarray:
        """Depth-averaged velocity per footprint element, ``(ne2, 2)``.

        Column-average the nodal solution over levels (uniform sigma
        spacing makes the plain mean the depth average), then average
        the footprint element's nodes -- the cell-centered field the
        thickness equation advects with (Eq. 2's ``H u_bar``).
        """
        mesh = self.mesh
        nodal = self.dofmap.nodal_view(u)  # (nn3, 2)
        col_avg = nodal.reshape(mesh.footprint.num_nodes, mesh.levels, 2).mean(axis=1)
        return col_avg[mesh.footprint.elems].mean(axis=1)

    def _probe_diag_scale(self) -> float:
        # the global order's first workset, one scale for every decomposition:
        # ranks keep their cells ascending, so it is a prefix of each run
        first = min(WORKSET_SIZE, self.mesh.num_elems)
        u0, diag = np.zeros(self.dofmap.num_dofs), np.empty((first, self.dofmap.dofs_per_elem))
        for span in self._spans:
            head = slice(span.start, span.start + int(np.searchsorted(self._cells[span], first)))
            for a, b, ws in self._worksets(u0, "jacobian", head):
                diag[self._cells[a:b]] = np.abs(np.einsum("cii->ci", ws.out_jacobian))
        return float(np.mean(diag[diag > 0.0])) if np.any(diag > 0.0) else 1.0

    # ------------------------------------------------------------------
    def _worksets(self, u: np.ndarray, mode: str, cells: slice | None = None, blocks=None):
        """Yield evaluated worksets covering ``cells`` (default: all).

        ``cells`` is a run of the problem's cell storage order -- the
        global order, or the SPMD owner order in which each rank's cells
        are one run -- so every operand a workset reads is a view.
        Yields ``(a, b, ws)`` with ``a:b`` the workset's storage
        positions (global cell ids in a serial problem).  Given the
        ``(num_cells, k, k)`` ``blocks``, a Jacobian-mode workset fills
        its rows ``a:b`` in place (``ws.out_jacobian`` is that view).
        The evaluator DAG is strictly per-element, so a rank's sweep
        reproduces the corresponding serial blocks bitwise.
        """
        mesh = self.mesh
        size = WORKSET_SIZE
        if np.shape(u) != (self.dofmap.num_dofs,):
            raise ValueError(f"solution must have {self.dofmap.num_dofs} dofs")
        if cells is None:
            cells = slice(0, mesh.num_elems)
        for a in range(cells.start, cells.stop, size):
            b = min(a + size, cells.stop)
            idx = slice(a, b)
            rows = self._basal_row[idx]
            basal_cells_local = np.flatnonzero(rows >= 0)
            basal_rows = rows[basal_cells_local]
            packed = self._w_packed[idx]
            # no local binding: a workset's fields are freed as soon as
            # the caller drops it, before the next one is evaluated
            yield a, b, self.field_manager.evaluate(Workset(
                mode=mode,
                solution_local=u[self._cell_dofs[idx]].reshape(b - a, mesh.nodes_per_elem, 2),
                w_bf=packed[..., 3],
                w_grad_bf=packed[..., :3],
                grad_bf=self.basis.grad_bf[idx],
                glen_prefactor_qp=self.glen_prefactor_qp[idx],
                force_qp=self.force_qp[idx],
                basal_cells=basal_cells_local,
                basal_w_bf=self.face_basis.w_bf[basal_rows] if len(basal_rows) else None,
                basal_beta_qp=self.basal_beta_qp[basal_rows] if len(basal_rows) else None,
                basal_bf=self.face_basis.bf if len(basal_rows) else None,
                basal_block=(
                    self.basal_block[basal_rows] if mode == "jacobian" and len(basal_rows) else None
                ),
                w_packed=packed,
                out_jacobian=None if blocks is None else blocks[a:b],
            ))

    def _mark_dead(self, p: int, plane) -> None:
        """Record a rank failure and its redistribution decision."""
        self._dead_ranks.add(p)
        survivor = choose_survivor(self._dead_ranks, self.config.nparts)
        log = plane.log
        if log is not None:
            log.record("detection", "rank_failure", "spmd.rank", rank=p)
            if survivor is not None:
                log.record(
                    "recovery", "rank_redistribution", "spmd.rank",
                    rank=p, survivor=survivor,
                )
            else:
                log.record("recovery", "serial_fallback", "spmd.rank", rank=p)
        get_metrics().counter("resilience.dead_ranks").inc()

    def _sweep_blocks(self, u: np.ndarray, mode: str) -> tuple:
        """Evaluator sweeps feeding the scatter: ``(residual, jacobian)`` block
        arrays in cell storage order, ``None`` for a half ``mode`` skips.

        A serial solve sweeps all cells at once; an SPMD solve sweeps
        each rank's run of the owner order into its rows of the same
        arrays.  The evaluator DAG is strictly per-element, so a block
        depends only on its cells -- whichever rank executes the sweep
        produces it bitwise.  That is what graceful degradation rests
        on: a rank killed by the fault plane is marked dead for the rest
        of the solve and its owned cells are swept by the lowest-numbered
        survivor (serial fallback when none remain), and since the
        scatter order is fixed by the assembly routes the degraded result
        is bitwise equal to the healthy one.
        """
        dag_mode, want_r, want_j = _SWEEPS[mode]
        nc, k = self._cell_dofs.shape
        loc_r = np.empty((nc, k)) if want_r else None
        loc_j = np.empty((nc, k, k)) if want_j else None
        if self.spmd is not None:
            self.spmd.record_ghost_refresh()
        plane = fault_plane()
        for p, span in enumerate(self._spans):
            if plane.active and self.spmd is not None and p not in self._dead_ranks:
                try:
                    plane.poke("spmd.rank", rank=p, mode=mode)
                except RankFailure:
                    self._mark_dead(p, plane)
            executor = p
            if p in self._dead_ranks:
                survivor = choose_survivor(self._dead_ranks, self.config.nparts)
                executor = survivor if survivor is not None else p
            for a, b, ws in self._worksets(u, dag_mode, span, blocks=loc_j):
                if want_r:
                    loc_r[a:b] = ws.out_residual
                del ws  # its fields are dead before the next workset is evaluated
            if plane.active:
                # the ``sweep.output`` fault site: the executor's residual
                # block when the sweep produced one, else its Jacobian block
                out = loc_r if want_r else loc_j
                out[span] = plane.perturb("sweep.output", out[span], rank=executor, mode=mode)
        return loc_r, loc_j

    def _evaluate(self, u: np.ndarray, mode: str):
        """Evaluate -> perturb -> scatter: the one body behind
        :meth:`residual`, :meth:`jacobian` and :meth:`residual_and_jacobian`.

        Returns ``(f, A)`` with ``None`` for the half ``mode`` skips.
        ``A`` is a :class:`CsrMatrix` (serial assembled), a
        :class:`MatrixFreeJacobian` (serial matrix-free) or a row-
        partitioned :class:`DistributedMatrix` (SPMD) whose SpMV and
        gathered operator are bitwise equal to the serial matrix.
        """
        dag_mode, want_r, want_j = _SWEEPS[mode]
        tr = get_tracer()
        tags = {"mode": mode, "nparts": self.config.nparts}
        with tr.span("stokes.evaluate", **tags) as sp:
            loc_r, loc_j = self._sweep_blocks(u, mode)
        self.phase_seconds["evaluate"] += sp.dur_s
        self.eval_counts[dag_mode] += 1
        f = A = None
        with tr.span("stokes.scatter", operator=self.config.operator_mode, **tags) as sp:
            if want_r:
                if self.spmd is not None:
                    f = self.spmd.assemble_residual(loc_r)
                else:
                    f = self.plan.assemble_vector(loc_r)
                # Dirichlet rows are replaced by (scaled) u - 0
                f[self.bc_dofs] = self.bc_diag_scale * u[self.bc_dofs]
            if want_j:
                if self.spmd is not None:
                    A = self.spmd.assemble_jacobian(loc_j, diag_scale=self.bc_diag_scale)
                elif self.matrix_free:
                    A = self.plan.matrix_free_operator(loc_j, diag_scale=self.bc_diag_scale)
                else:
                    A = self.plan.assemble_matrix(loc_j, diag_scale=self.bc_diag_scale)
        self.phase_seconds["scatter"] += sp.dur_s
        return f, A

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Global residual F(u) from a residual-mode sweep."""
        return self._evaluate(u, "residual")[0]

    def jacobian(self, u: np.ndarray):
        """Global Jacobian dF/du with scaled Dirichlet rows."""
        return self._evaluate(u, "jacobian")[1]

    def residual_and_jacobian(self, u: np.ndarray):
        """F(u) and dF/du from one jacobian-mode sweep -- what the solve runs.

        The SFad evaluation computes the residual as the value component
        of the Fad residual, so a single workset sweep in ``jacobian``
        mode yields both outputs: the paper's loop-fusion theme applied
        to the host-side solve.  :meth:`residual` and :meth:`jacobian`
        are the separate sweeps the ``fused-assembly-vs-separate``
        oracle holds this against, bitwise.
        """
        return self._evaluate(u, "jacobian_fused")

    # ------------------------------------------------------------------
    def _preconditioner(self, A):
        kind = self.config.preconditioner
        if kind == "none":
            return None
        with get_tracer().span("precond.setup", kind=kind):
            if self._resilience is None:
                return self._build_preconditioner(A, kind=kind)
            # recovery rungs: the configured set-up, then point Jacobi,
            # then none -- a failing set-up degrades convergence instead
            # of killing the solve, and the last rung cannot fail
            log, failure = self._resilience.log, None
            for rung in dict.fromkeys((kind, "jacobi", "none")):
                try:
                    M = None if rung == "none" else self._build_preconditioner(A, kind=rung)
                except Exception as exc:  # noqa: BLE001 - any set-up may fail
                    failure = exc
                    log.record(
                        "detection", "preconditioner_failure", "precond.setup",
                        factory=rung, error=str(exc),
                    )
                    with get_tracer().span("resilience.precond_fallback", failed=rung):
                        continue
                if failure is not None:
                    log.record(
                        "recovery", "preconditioner_fallback", "precond.setup",
                        fell_back_to=rung, error=str(failure),
                    )
                return M

    def _build_preconditioner(self, A, kind: str | None = None):
        kind = kind if kind is not None else self.config.preconditioner
        if isinstance(A, DistributedMatrix):
            # replicated preconditioner setup from the gathered operator
            # (bitwise equal to the serial matrix); the gather is metered
            # on the matrix_gather channel
            A = A.gather_global()
        # point Jacobi consumes the operator protocol (diagonal),
        # whichever operator mode
        if kind == "jacobi":
            return JacobiSmoother(A, iters=3)
        levels = self.mesh.levels
        symbolic = self.mdsc_symbolic
        if symbolic is None or (kind == "mdsc" and not symbolic.num_coarse):
            symbolic = self.plan.collapse_map(levels, 2, self.matrix_free, coarse=kind == "mdsc")
            self.mdsc_symbolic = symbolic
        if kind == "vline":
            # the MDSC vertical-line relaxation alone, damping derived
            # from lambda_max like inside the V-cycle: with ice-sheet
            # aspect ratios the exact column solve carries most of it
            return VerticalLineSmoother(A, levels * 2, iters=2, symbolic=symbolic)
        # "mdsc": one body; the name is the frozen benchmark's span binding
        mdsc = MatrixFreeColumnCollapseMdsc if self.matrix_free else ColumnCollapseMdsc
        columns = self.mesh.footprint.num_nodes
        return mdsc(A, num_columns=columns, levels=levels, ndof=2, symbolic=symbolic)

    def solve(
        self,
        u0: np.ndarray | None = None,
        callback=None,
        resilience=None,
        checkpoint_cb=None,
        resume_from=None,
        deadline=None,
        newton_tol: float | None = None,
    ) -> VelocitySolution:
        """Run the damped Newton solve and report diagnostics.

        Each Newton step evaluates residual and Jacobian in a single
        SFad sweep (:meth:`residual_and_jacobian`); the per-phase
        wall-time breakdown (evaluate / scatter /
        preconditioner / gmres) lands in ``diagnostics["phase_seconds"]``.
        All phase times come from observability spans, so running inside
        ``repro.observability.tracing()`` additionally records the full
        nested timeline; a metrics snapshot is always embedded in
        ``diagnostics["observability"]``.

        Resilience: pass a :class:`repro.resilience.RecoveryPolicy` to
        recover from detected faults (non-finite sweeps, stagnating
        GMRES, failed preconditioner setup, corrupted halos, dead SPMD
        ranks) instead of raising; when the process fault plane is armed
        (``repro.resilience.fault_injection``) and no policy is given,
        the plane's policy is used automatically so chaos runs recover
        by default.  The event record lands in
        ``diagnostics["resilience"]``.  Newton snapshots every accepted
        step (``sol.newton.checkpoint``); ``checkpoint_cb`` receives each
        snapshot and ``resume_from`` restarts from one (``checkpoint_cb``
        is how a serve worker pool heartbeats and snapshots in-flight
        jobs).

        Service knob: ``deadline`` (a :class:`repro.resilience.
        Deadline`) makes the solve cooperatively abandon work past its
        wall-clock budget with a typed ``SolveTimeout`` carrying the
        last checkpoint.

        Warm starting: ``u0`` seeds Newton with a prior velocity (the
        transient engine passes the previous step's solution), and
        ``newton_tol`` overrides the default ``||F||`` target (1e-8) for
        this solve only -- the engine derives one absolute tolerance from
        the cold start's initial residual so warm-started steps terminate
        as soon as they re-enter the converged basin instead of burning
        the full Newton budget.  Passing ``newton_tol`` also makes the solve an
        inexact Newton: each step's GMRES tolerance follows
        :func:`repro.solvers.newton.forcing_term` instead of sitting at
        the 1e-6 linear tolerance, since steps that only have to reach a
        target need not each be solved to it.  Without it every step is
        solved to 1e-6, as the paper's test is.
        """
        cfg = self.config
        tol = NEWTON_TOL if newton_tol is None else float(newton_tol)
        if u0 is None:
            u0 = np.zeros(self.dofmap.num_dofs)
        plane = fault_plane()
        if resilience is None and plane.active:
            resilience = plane.policy
        self._resilience = resilience
        self._dead_ranks = set()

        # per-solve lifecycle for BOTH phase times and sweep counts: two
        # successive solves each report their own numbers, never
        # cumulative ones (regression-tested)
        self.phase_seconds = {"evaluate": 0.0, "scatter": 0.0}
        self.eval_counts = {"residual": 0, "jacobian": 0}

        tr = get_tracer()
        with tr.span(
            "velocity.solve",
            num_dofs=self.dofmap.num_dofs,
            num_cells=self.mesh.num_elems,
            nparts=cfg.nparts,
            operator_mode=cfg.operator_mode,
        ) as solve_span:
            newton = newton_solve(
                self.residual,
                None,
                u0,
                max_steps=cfg.newton_steps,
                tol=tol,
                preconditioner_fn=self._preconditioner,
                callback=callback,
                residual_jacobian_fn=self.residual_and_jacobian,
                reducer=self.reducer,
                resilience=resilience,
                checkpoint_cb=checkpoint_cb,
                resume_from=resume_from,
                deadline=deadline,
                # a caller with a target stops on it; one with only a
                # step budget (the paper's eight) takes every step anyway
                inexact=newton_tol is not None,
            )
        solve_seconds = solve_span.dur_s
        u = newton.x
        speeds = np.hypot(*self.dofmap.nodal_view(u).T)
        surf = self.mesh.surface_nodes()
        phase_seconds = {
            "evaluate": self.phase_seconds["evaluate"],
            "scatter": self.phase_seconds["scatter"],
            "preconditioner": newton.phase_seconds.get("preconditioner", 0.0),
            "gmres": newton.phase_seconds.get("gmres", 0.0),
        }
        diagnostics = {
            "newton_residuals": newton.residual_norms,
            "linear_iterations": newton.linear_iterations,
            "linear_flags": newton.linear_flags,
            "num_dofs": self.dofmap.num_dofs,
            "num_cells": self.mesh.num_elems,
            "operator_mode": "matrix-free" if self.matrix_free else "assembled",
            "preconditioner": cfg.preconditioner,
            "newton_tol": tol,
            "warm_started": newton.warm_started,
            "solve_seconds": solve_seconds,
            "newton_steps_per_s": newton.iterations / solve_seconds if solve_seconds > 0 else 0.0,
            "phase_seconds": phase_seconds,
            "eval_sweeps": dict(self.eval_counts),
            "observability": {
                "tracing_active": tr.recording,
                "spans_recorded": len(tr.spans),
                "metrics": get_metrics().snapshot(),
                "series": get_series().summary(),
            },
        }
        if self.spmd is not None:
            diagnostics["spmd"] = self._spmd_diagnostics()
        if resilience is not None:
            # one merged event record: the policy's log plus (when the
            # plane was armed with a different log) the injection log
            merged = ResilienceLog()
            merged.extend(resilience.log.events)
            if plane.active and plane.log is not resilience.log:
                merged.extend(plane.log.events)
            rsum = merged.summary()
            if plane.active:
                rsum["schedule"] = plane.schedule.describe()
            rsum["dead_ranks"] = sorted(self._dead_ranks)
            diagnostics["resilience"] = rsum
        return VelocitySolution(
            u=u,
            newton=newton,
            mean_velocity=float(speeds.mean()),
            max_velocity=float(speeds.max()),
            surface_mean_velocity=float(speeds[surf].mean()),
            diagnostics=diagnostics,
        )

    def _spmd_diagnostics(self) -> dict:
        """Measured per-rank halo traffic, imbalance and exchange counts.

        ``ghost_columns_analytic`` is the ``4 sqrt(A)`` compact-patch
        estimate the scaling model falls back to; the measured-vs-
        analytic ratio quantifies how far the real RCB decomposition
        sits from that idealization.
        """
        stats = halo_statistics(self.partition)
        cells_per_rank = self.mesh.num_elems / self.config.nparts
        analytic = ghost_columns_estimate(cells_per_rank, self.mesh.nlayers)
        return {
            "nparts": self.config.nparts,
            "halo": stats.to_dict(),
            "traffic": self.meter.summary(),
            "elem_imbalance": self.spmd.imbalance(),
            "ghost_columns_measured_max": stats.max_ghost_nodes,
            "ghost_columns_measured_mean": stats.mean_ghost_nodes,
            "ghost_columns_analytic": analytic,
            "measured_vs_analytic_ghost_ratio": stats.max_ghost_nodes / analytic,
        }
