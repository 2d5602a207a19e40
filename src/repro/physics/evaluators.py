"""Phalanx-style evaluator DAG for the FO Stokes residual/Jacobian.

Albany evaluates physics as a directed acyclic graph of small evaluators
over *worksets* (bounded chunks of cells); the scalar type -- double or
``SFad(16)`` -- selects Residual vs Jacobian evaluation.  This module
reproduces that structure:

``GatherSolution -> DOFVecGradInterpolation -> ViscosityFO -> BodyForce
-> StokesFOResid (the paper's kernel) -> BasalFrictionResid ->
ScatterResidual``

The field manager topologically orders evaluators by their
requires/provides field names and runs them per workset.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.autodiff import ops
from repro.autodiff.sfad import FadArray, SFad, is_fad
from repro.constants import RHO_G_KPA
from repro.core.fields import JACOBIAN_FAD_SIZE, StokesFields
from repro.core.jacobian import local_jacobian_blocks, local_residual_blocks, run_kernel
from repro.kokkos.view import DOUBLE, View, fad_spec
from repro.observability import get_tracer
from repro.physics.viscosity import effective_strain_rate_squared, glen_viscosity

__all__ = [
    "Workset",
    "Evaluator",
    "FieldManager",
    "GatherSolution",
    "DOFVecGradInterpolation",
    "ViscosityFOEvaluator",
    "BodyForceEvaluator",
    "StokesFOResidEvaluator",
    "BasalFrictionResidEvaluator",
    "ScatterResidual",
    "build_stokes_field_manager",
]


@dataclass
class Workset:
    """One chunk of cells plus the precomputed mesh/physics inputs.

    Basal arrays are ``None`` for worksets with no basal faces.  The
    evaluators populate :attr:`fields` and finally the ``out_*`` blocks.
    """

    mode: str  # "residual" | "jacobian"
    solution_local: np.ndarray  # (nc, nn, 2) nodal velocities
    w_bf: np.ndarray  # (nc, nn, nq)
    w_grad_bf: np.ndarray  # (nc, nn, nq, 3)
    grad_bf: np.ndarray  # (nc, nn, nq, 3)
    flow_factor_qp: np.ndarray  # (nc, nq)
    grad_s_qp: np.ndarray  # (nc, nq, 2)
    basal_w_bf: np.ndarray | None = None  # (nb, nnf, nqf)
    basal_beta_qp: np.ndarray | None = None  # (nb, nqf)
    basal_bf: np.ndarray | None = None  # (nqf, nnf) reference face shapes
    basal_cells: np.ndarray | None = None  # workset-local cell ids of basal cells
    fields: dict = dc_field(default_factory=dict)
    out_residual: np.ndarray | None = None  # (nc, 2*nn)
    out_jacobian: np.ndarray | None = None  # (nc, 2*nn, 2*nn)

    def __post_init__(self):
        if self.mode not in ("residual", "jacobian"):
            raise ValueError(f"unknown workset mode {self.mode!r}")

    @property
    def num_cells(self) -> int:
        return self.solution_local.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.solution_local.shape[1]

    @property
    def num_qps(self) -> int:
        return self.w_bf.shape[2]

    @property
    def is_jacobian(self) -> bool:
        return self.mode == "jacobian"

    @property
    def fad_size(self) -> int:
        """Derivative components of the Jacobian evaluation: nodes x 2."""
        return self.num_nodes * 2


class Evaluator:
    """Base evaluator: declares required and provided field names."""

    name: str = "evaluator"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()

    def evaluate(self, ws: Workset) -> None:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.requires} -> {self.provides}>"


class FieldManager:
    """Topologically-ordered evaluator execution (Phalanx analogue).

    ``num_sweeps`` counts per-workset DAG executions by mode -- the unit
    of cost the paper's loop-fusion optimization reduces.  A
    jacobian-mode sweep produces *both* the residual (SFad value
    component) and the Jacobian (derivative components), so a fused
    solver needs exactly one sweep per workset per Newton step plus one
    residual-mode sweep per workset per line-search trial.
    """

    def __init__(self, evaluators: list[Evaluator]):
        self.evaluators = self._toposort(evaluators)
        self.num_sweeps = {"residual": 0, "jacobian": 0}

    @staticmethod
    def _toposort(evaluators: list[Evaluator]) -> list[Evaluator]:
        providers: dict[str, Evaluator] = {}
        for ev in evaluators:
            for f in ev.provides:
                if f in providers:
                    raise ValueError(f"field {f!r} provided by two evaluators")
                providers[f] = ev
        order: list[Evaluator] = []
        state: dict[int, int] = {}  # id -> 0 new, 1 visiting, 2 done

        def visit(ev: Evaluator):
            s = state.get(id(ev), 0)
            if s == 2:
                return
            if s == 1:
                raise ValueError(f"evaluator cycle through {ev!r}")
            state[id(ev)] = 1
            for f in ev.requires:
                dep = providers.get(f)
                if dep is not None and dep is not ev:
                    visit(dep)
            state[id(ev)] = 2
            order.append(ev)

        for ev in evaluators:
            visit(ev)
        return order

    def evaluate(self, ws: Workset) -> Workset:
        self.num_sweeps[ws.mode] += 1
        tr = get_tracer()
        for ev in self.evaluators:
            for f in ev.requires:
                if f not in ws.fields and f not in ("__workset__",):
                    raise KeyError(f"{ev!r} requires missing field {f!r}")
            if tr.recording:
                with tr.span(ev.name, cat="evaluator", mode=ws.mode):
                    ev.evaluate(ws)
            else:
                ev.evaluate(ws)
        return ws


# ----------------------------------------------------------------------
# concrete evaluators
# ----------------------------------------------------------------------
class GatherSolution(Evaluator):
    """Gather nodal unknowns; seed SFad(16) derivatives in Jacobian mode.

    The seeded ``U`` is marked ``identity_seeded`` and its ``dx`` frozen,
    so :class:`DOFVecGradInterpolation` may write ``dUgrad/dU`` straight
    from ``grad_bf`` instead of contracting the identity against it.
    """

    name = "GatherSolution"
    provides = ("U",)

    def evaluate(self, ws: Workset) -> None:
        u = np.ascontiguousarray(ws.solution_local, dtype=np.float64)
        if ws.is_jacobian:
            nc, nn, nk = u.shape
            n = ws.fad_size
            dx = np.zeros((nc, nn, nk, n))
            j = np.arange(n)
            dx.reshape(nc, n, n)[:, j, j] = 1.0
            dx.flags.writeable = False  # the mark below stays true
            U = SFad(n)(u, dx)
            U.identity_seeded = True
            ws.fields["U"] = U
        else:
            ws.fields["U"] = u


def _interp_grad_values(u: np.ndarray, grad_bf: np.ndarray) -> np.ndarray:
    """``sum_n u(c,n,k) * grad_bf(c,n,q,d)`` as one small GEMM per cell.

    The one value contraction of every mode and scalar type (so the
    Jacobian sweep's values are the residual sweep's, bitwise); ~20x
    faster than the equivalent ``einsum("cnk,cnqd->cqkd")``.
    """
    nc, nn, nq, nd = grad_bf.shape
    out = np.matmul(u.transpose(0, 2, 1), grad_bf.reshape(nc, nn, nq * nd))  # (c, k, q d)
    return np.ascontiguousarray(out.reshape(nc, -1, nq, nd).transpose(0, 2, 1, 3))


def _interp_grad(U, grad_bf: np.ndarray):
    """Ugrad(c,q,k,d) = sum_n U(c,n,k) * grad_bf(c,n,q,d) (Fad-aware).

    For an identity-seeded ``U`` (``dx[c,n,k,f] = [f == n*nk + k]``) every
    sum of the derivative contraction has the single non-zero term
    ``1.0 * grad_bf(c,n,q,d)``, so it is written by one strided
    assignment per component -- bitwise what the einsum returns.
    """
    if not is_fad(U):
        return _interp_grad_values(U, grad_bf)
    val = _interp_grad_values(U.val, grad_bf)
    if U.identity_seeded:
        nc, nn, nk = U.shape
        nq, nd = grad_bf.shape[2:]
        dx = np.zeros((nc, nq, nk, nd, nn, nk))
        g = grad_bf.transpose(0, 2, 3, 1)  # (c, q, d, n)
        for k in range(nk):
            dx[:, :, k, :, :, k] = g
        dx = dx.reshape(nc, nq, nk, nd, nn * nk)
    else:
        dx = np.einsum("cnkf,cnqd->cqkdf", U.dx, grad_bf)
    return type(U)(val, dx)


def _interp_value(U, bf: np.ndarray):
    """u(c,q,k) = sum_n U(c,n,k) * bf(q,n) (Fad-aware)."""
    if is_fad(U):
        val = np.einsum("cnk,qn->cqk", U.val, bf)
        dx = np.einsum("cnkf,qn->cqkf", U.dx, bf)
        return type(U)(val, dx)
    return np.einsum("cnk,qn->cqk", U, bf)


class DOFVecGradInterpolation(Evaluator):
    """Velocity gradients at quadrature points."""

    name = "DOFVecGradInterpolation"
    requires = ("U",)
    provides = ("Ugrad",)

    def evaluate(self, ws: Workset) -> None:
        ws.fields["Ugrad"] = _interp_grad(ws.fields["U"], ws.grad_bf)


class ViscosityFOEvaluator(Evaluator):
    """Glen's-law effective viscosity at quadrature points."""

    name = "ViscosityFO"
    requires = ("Ugrad",)
    provides = ("mu",)

    def evaluate(self, ws: Workset) -> None:
        g = ws.fields["Ugrad"]
        eps_sq = effective_strain_rate_squared(
            g[:, :, 0, 0], g[:, :, 0, 1], g[:, :, 0, 2],
            g[:, :, 1, 0], g[:, :, 1, 1], g[:, :, 1, 2],
        )
        ws.fields["mu"] = glen_viscosity(eps_sq, flow_factor=ws.flow_factor_qp)


class BodyForceEvaluator(Evaluator):
    """Gravitational driving stress ``rho g grad(s)`` at quadrature points.

    The force does not depend on the velocity, so in Jacobian mode it is
    an SFad constant (zero derivatives) -- exactly Albany's behavior.
    """

    name = "StokesFOBodyForce"
    provides = ("force",)

    def evaluate(self, ws: Workset) -> None:
        f = RHO_G_KPA * np.ascontiguousarray(ws.grad_s_qp, dtype=np.float64)
        if ws.is_jacobian:
            ws.fields["force"] = SFad(ws.fad_size).constant(f)
        else:
            ws.fields["force"] = f


class StokesFOResidEvaluator(Evaluator):
    """Run the paper's kernel (baseline or optimized) over the workset."""

    name = "StokesFOResid"
    requires = ("Ugrad", "mu", "force")
    provides = ("Residual", "__stokes_fields__")

    def __init__(self, impl: str = "optimized"):
        if impl not in ("baseline", "optimized"):
            raise ValueError(f"unknown kernel impl {impl!r}")
        self.impl = impl

    def evaluate(self, ws: Workset) -> None:
        nc, nn, nq = ws.num_cells, ws.num_nodes, ws.num_qps
        scalar = fad_spec(ws.fad_size) if ws.is_jacobian else DOUBLE
        mu = ws.fields["mu"]
        force = ws.fields["force"]
        if ws.is_jacobian:
            # promote any non-Fad inputs to Fad constants
            if not is_fad(force):
                force = SFad(ws.fad_size).constant(force)
        sf = StokesFields(
            Ugrad=View("Ugrad", (nc, nq, 2, 3), scalar, data=ws.fields["Ugrad"]),
            muLandIce=View("muLandIce", (nc, nq), scalar, data=mu),
            force=View("force", (nc, nq, 2), scalar, data=force),
            wBF=View("wBF", (nc, nn, nq), DOUBLE, data=ws.w_bf),
            wGradBF=View("wGradBF", (nc, nn, nq, 3), DOUBLE, data=ws.w_grad_bf),
            Residual=View("Residual", (nc, nn, 2), scalar),
            scalar=scalar,
            mesh_scalar=scalar,
        )
        run_kernel(f"{self.impl}-{ws.mode}", sf)
        ws.fields["__stokes_fields__"] = sf
        ws.fields["Residual"] = sf.Residual.data


class BasalFrictionResidEvaluator(Evaluator):
    """Add the basal sliding term ``beta * u * phi`` on bottom faces.

    Only cells listed in ``ws.basal_cells`` receive contributions, on
    their first ``nnf`` local nodes (the bottom face of the extruded
    element).  Linear sliding law: well-posed and Newton-friendly.
    """

    name = "StokesFOBasalResid"
    requires = ("U", "Residual")
    provides = ("ResidualWithFriction",)

    def evaluate(self, ws: Workset) -> None:
        res = ws.fields["Residual"]
        if ws.basal_cells is None or len(ws.basal_cells) == 0:
            ws.fields["ResidualWithFriction"] = res
            return
        if ws.basal_w_bf is None or ws.basal_beta_qp is None or ws.basal_bf is None:
            raise ValueError("basal workset is missing face basis data")
        bc = np.asarray(ws.basal_cells, dtype=np.int64)
        nnf = ws.basal_w_bf.shape[1]

        U = ws.fields["U"]
        u_face = U[bc, :nnf, :] if is_fad(U) else U[bc, :nnf, :]
        u_qp = _interp_value(u_face, ws.basal_bf)  # (nb, nqf, 2)

        if is_fad(u_qp):
            cv = np.einsum("bq,bqkf,bnq->bnkf", ws.basal_beta_qp, u_qp.dx, ws.basal_w_bf)
            vv = np.einsum("bq,bqk,bnq->bnk", ws.basal_beta_qp, u_qp.val, ws.basal_w_bf)
            res.val[bc, :nnf, :] += vv
            res.dx[bc, :nnf, :, :] += cv
        else:
            vv = np.einsum("bq,bqk,bnq->bnk", ws.basal_beta_qp, u_qp, ws.basal_w_bf)
            res[bc, :nnf, :] += vv
        ws.fields["ResidualWithFriction"] = res


class ScatterResidual(Evaluator):
    """Extract per-element residual blocks (and Jacobian blocks)."""

    name = "ScatterResidual"
    requires = ("ResidualWithFriction", "__stokes_fields__")
    provides = ("__scattered__",)

    def evaluate(self, ws: Workset) -> None:
        sf: StokesFields = ws.fields["__stokes_fields__"]
        ws.out_residual = local_residual_blocks(sf)
        if ws.is_jacobian:
            ws.out_jacobian = local_jacobian_blocks(sf)
        ws.fields["__scattered__"] = True


def build_stokes_field_manager(impl: str = "optimized") -> FieldManager:
    """The default FO Stokes evaluation DAG for a kernel implementation."""
    return FieldManager(
        [
            ScatterResidual(),
            BasalFrictionResidEvaluator(),
            StokesFOResidEvaluator(impl=impl),
            BodyForceEvaluator(),
            ViscosityFOEvaluator(),
            DOFVecGradInterpolation(),
            GatherSolution(),
        ]
    )
