"""Phalanx-style evaluator DAG for the FO Stokes residual/Jacobian.

Albany evaluates physics as a directed acyclic graph of small evaluators
over *worksets* (bounded chunks of cells); the scalar type -- double or
``SFad`` -- selects Residual vs Jacobian evaluation.  This module
reproduces that structure:

``GatherSolution -> DOFVecGradInterpolation -> ViscosityFO -> BodyForce
-> StokesFOResid (the paper's kernel) -> BasalFrictionResid ->
ScatterResidual``

The field manager topologically orders evaluators by their
requires/provides field names and runs them per workset.

The Jacobian evaluation applies the chain rule in two stages.  Everything
between the interpolation and the kernel is a function of the six
components of ``Ugrad`` alone, so ``DOFVecGradInterpolation`` seeds there
(``SFad(6)``, independents its own ``(k, d)`` components: the
:data:`~repro.core.lowering.QP_SEED` identity), and ``dUgrad/dU`` -- the
constant ``grad_bf`` -- is applied once, by
:func:`repro.core.lowering.expand_qp_seed`.  What depends on ``Ugrad``
through fixed polynomials -- the strain-rate invariant, the stresses --
is differentiated in closed form on that seed; Glen's law runs on
``SFad(6)``.  ``Residual`` is the only ``SFad(2 * nodes)`` field of a
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.autodiff.sfad import SFad, fad_value, is_fad
from repro.core.fields import StokesFields
from repro.core.jacobian import local_jacobian_blocks, local_residual_blocks, run_kernel
from repro.core.lowering import QP_SEED, expand_qp_seed, qp_seed_operand
from repro.core.variants import get_variant
from repro.kokkos.view import DOUBLE, View, fad_spec
from repro.observability import get_tracer
from repro.physics.viscosity import (
    effective_strain_rate_squared,
    effective_strain_rate_squared_tangent,
    glen_viscosity,
)

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
    "basal_jacobian_block",
    "build_stokes_field_manager",
]


@dataclass
class Workset:
    """One chunk of cells plus the precomputed mesh/physics inputs.

    Basal arrays are ``None`` for worksets with no basal faces.  The
    evaluators populate :attr:`fields` and finally the ``out_*`` blocks.
    ``w_packed`` is the host lowering's geometry-only operand, sliced
    from what the problem packs once per geometry;
    ``force_qp`` and ``basal_block`` are the u-independent terms, built
    there too, and ``glen_prefactor_qp`` once per problem.
    """

    mode: str  # "residual" | "jacobian"
    solution_local: np.ndarray  # (nc, nn, 2) nodal velocities
    w_bf: np.ndarray  # (nc, nn, nq)
    w_grad_bf: np.ndarray  # (nc, nn, nq, 3)
    grad_bf: np.ndarray  # (nc, nn, nq, 3)
    glen_prefactor_qp: np.ndarray  # (nc, nq) 1/2 A^(-1/n)
    force_qp: np.ndarray  # (nc, nq, 2) rho g grad(s)
    basal_w_bf: np.ndarray | None = None  # (nb, nnf, nqf)
    basal_beta_qp: np.ndarray | None = None  # (nb, nqf)
    basal_bf: np.ndarray | None = None  # (nqf, nnf) reference face shapes
    basal_block: np.ndarray | None = None  # (nb, nnf, nnf), Jacobian mode
    basal_cells: np.ndarray | None = None  # workset-local cell ids of basal cells
    w_packed: np.ndarray | None = None  # (nc, nn, nq, 4); None: packed per launch
    fields: dict = dc_field(default_factory=dict)
    out_residual: np.ndarray | None = None  # (nc, 2*nn)
    #: (nc, 2*nn, 2*nn); a caller may hand in the rows of its own block
    #: array, which a Jacobian evaluation then fills in place
    out_jacobian: np.ndarray | None = None

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
    """Gather nodal unknowns: plain doubles in both modes (the Jacobian
    evaluation is seeded one evaluator later, at the quadrature point)."""

    name = "GatherSolution"
    provides = ("U",)

    def evaluate(self, ws: Workset) -> None:
        ws.fields["U"] = np.ascontiguousarray(ws.solution_local, dtype=np.float64)


def _interp_grad_values(u: np.ndarray, grad_bf: np.ndarray) -> np.ndarray:
    """``sum_n u(c,n,k) * grad_bf(c,n,q,d)`` as one small GEMM per cell.

    The one value contraction of every mode (so the Jacobian sweep's
    values are the residual sweep's, bitwise); ~20x faster than the
    equivalent ``einsum("cnk,cnqd->cqkd")``.
    """
    nc, nn, nq, nd = grad_bf.shape
    out = np.matmul(u.transpose(0, 2, 1), grad_bf.reshape(nc, nn, nq * nd))  # (c, k, q d)
    return out.reshape(nc, -1, nq, nd).transpose(0, 2, 1, 3)


def _interp_value(U: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """u(c,q,k) = sum_n U(c,n,k) * bf(q,n)."""
    return np.einsum("cnk,qn->cqk", U, bf)


class DOFVecGradInterpolation(Evaluator):
    """Velocity gradients at quadrature points; in Jacobian mode ``SFad(6)``
    seeded as their own independents (the sweep's one seeding site)."""

    name = "DOFVecGradInterpolation"
    requires = ("U",)
    provides = ("Ugrad",)

    def evaluate(self, ws: Workset) -> None:
        g = _interp_grad_values(ws.fields["U"], ws.grad_bf)
        if ws.is_jacobian:
            g = SFad(6)(g, np.broadcast_to(QP_SEED, g.shape + (6,)))
        ws.fields["Ugrad"] = g


class ViscosityFOEvaluator(Evaluator):
    """Glen's-law effective viscosity at quadrature points.

    The strain-rate invariant is evaluated on values, as in residual
    mode, and differentiated in closed form against ``Ugrad``'s tangent;
    Glen's law takes it from there on ``SFad(6)``.
    """

    name = "ViscosityFO"
    requires = ("Ugrad",)
    provides = ("mu",)

    def evaluate(self, ws: Workset) -> None:
        g = ws.fields["Ugrad"]
        v = fad_value(g)
        eps_sq = effective_strain_rate_squared(
            v[:, :, 0, 0], v[:, :, 0, 1], v[:, :, 0, 2],
            v[:, :, 1, 0], v[:, :, 1, 1], v[:, :, 1, 2],
        )
        if is_fad(g):
            eps_sq = type(g)(eps_sq, effective_strain_rate_squared_tangent(v, g.dx))
        ws.fields["mu"] = glen_viscosity(eps_sq, prefactor=ws.glen_prefactor_qp)


class BodyForceEvaluator(Evaluator):
    """Gravitational driving stress ``rho g grad(s)`` at quadrature points.

    The force does not depend on the velocity: a plain array in both
    modes (no block of zero derivatives in the Jacobian evaluation),
    built with the geometry (``Workset.force_qp``) and published here.
    """

    name = "StokesFOBodyForce"
    provides = ("force",)

    def evaluate(self, ws: Workset) -> None:
        ws.fields["force"] = ws.force_qp


def _nodal_fad(x, seed: np.ndarray):
    """A qp-seeded ``SFad(6)`` field as ``SFad(2 nn)`` w.r.t. the nodal unknowns."""
    dx = expand_qp_seed(x.dx, seed).swapaxes(-1, -2)  # (..., m, k''): f = 2 m + k''
    return SFad(2 * seed.shape[-1])(x.val, dx.reshape(*x.shape, -1))


def _residual_in_place(ws: Workset):
    """The Jacobian-mode ``Residual`` on the rows ``ws.out_jacobian`` names
    (``None``: the view allocates its own): the sweep's block array is
    then the residual's derivative storage, with no per-workset copy."""
    if ws.out_jacobian is None or not ws.is_jacobian:
        return None
    nc, nn = ws.num_cells, ws.num_nodes
    dx = ws.out_jacobian.reshape(nc, nn, 2, 2 * nn)
    dx[...] = 0.0  # the listing accumulates into it
    return SFad(2 * nn)(np.zeros((nc, nn, 2)), dx)


class StokesFOResidEvaluator(Evaluator):
    """Run the paper's kernel (baseline or optimized) over the workset.

    In Jacobian mode a variant with a host lowering takes ``Ugrad``/``mu``
    as they come, ``SFad(6)`` at the qp, plus the ``grad_bf`` seed operand
    (``dUgrad/dU`` applied late, on its GEMM operand).  Where the Fig. 2
    listing itself executes the same expansion goes in early: every view
    of the listing is ``SFad(2 nn)``.
    """

    name = "StokesFOResid"
    requires = ("Ugrad", "mu", "force")
    provides = ("Residual", "__stokes_fields__")

    def __init__(self, impl: str = "optimized"):
        if impl not in ("baseline", "optimized"):
            raise ValueError(f"unknown kernel impl {impl!r}")
        self.impl = impl

    def evaluate(self, ws: Workset) -> None:
        nc, nn, nq = ws.num_cells, ws.num_nodes, ws.num_qps
        variant = get_variant(f"{self.impl}-{ws.mode}")
        Ugrad, mu = ws.fields["Ugrad"], ws.fields["mu"]
        seed = ws.grad_bf if ws.is_jacobian else None
        if ws.is_jacobian and variant.host_lowering is None:
            operand = qp_seed_operand(seed)
            Ugrad, mu, seed = _nodal_fad(Ugrad, operand), _nodal_fad(mu, operand), None
        scalar = fad_spec(ws.fad_size) if ws.is_jacobian else DOUBLE
        in_scalar = fad_spec(Ugrad.num_derivs) if ws.is_jacobian else DOUBLE
        frc_scalar = scalar if seed is None else DOUBLE
        sf = StokesFields(
            Ugrad=View("Ugrad", (nc, nq, 2, 3), in_scalar, data=Ugrad),
            muLandIce=View("muLandIce", (nc, nq), in_scalar, data=mu),
            force=View("force", (nc, nq, 2), frc_scalar, data=ws.fields["force"]),
            wBF=View("wBF", (nc, nn, nq), DOUBLE, data=ws.w_bf),
            wGradBF=View("wGradBF", (nc, nn, nq, 3), DOUBLE, data=ws.w_grad_bf),
            Residual=View("Residual", (nc, nn, 2), scalar, data=_residual_in_place(ws)),
            scalar=scalar,
            mesh_scalar=scalar,
            geom=ws.w_packed,
            seed=seed,
        )
        run_kernel(variant, sf)
        ws.fields["__stokes_fields__"] = sf
        ws.fields["Residual"] = sf.Residual.data


def basal_jacobian_block(beta_qp: np.ndarray, w_bf: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """``sum_q beta(b, q) w(b, n, q) phi(q, m)``, ``(nb, nnf, nnf)``: the
    friction term's Jacobian block per velocity component.  It does not
    depend on the velocity; the problem builds it with the face geometry."""
    return np.einsum("bq,bnq,qm->bnm", beta_qp, w_bf, bf)


class BasalFrictionResidEvaluator(Evaluator):
    """Add the basal sliding term ``beta * u * phi`` on bottom faces.

    Only cells listed in ``ws.basal_cells`` receive contributions, on
    their first ``nnf`` local nodes (the bottom face of the extruded
    element).  Linear sliding law: well-posed and Newton-friendly; its
    Jacobian block is ``delta(k, k') * sum_q beta w(n, q) phi(q, m)``
    (:func:`basal_jacobian_block`, ``Workset.basal_block``).
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
        if ws.basal_block is None and is_fad(res):
            raise ValueError("Jacobian-mode basal workset is missing its friction block")
        bc = np.asarray(ws.basal_cells, dtype=np.int64)
        nnf = ws.basal_w_bf.shape[1]

        u_qp = _interp_value(ws.fields["U"][bc, :nnf, :], ws.basal_bf)  # (nb, nqf, 2)
        vv = np.einsum("bq,bqk,bnq->bnk", ws.basal_beta_qp, u_qp, ws.basal_w_bf)
        if is_fad(res):
            res.val[bc, :nnf, :] += vv
            dx = res.dx.reshape(ws.num_cells, ws.num_nodes, 2, ws.num_nodes, 2)
            for k in range(2):
                dx[bc, :nnf, k, :nnf, k] += ws.basal_block
        else:
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
