"""Suite ``kernels``: every kernel variant against the Fig. 2 baseline
listing, the HostVector lowering against ``HostSerial``, value parts
across scalar types, and each variant's body race-free and bitwise
order-independent.  :func:`perturbed_divergences` is the detection
selftest's probe, not registered: it is *supposed* to diverge."""

from __future__ import annotations

import numpy as np

from repro.verify.compare import collect, mismatch, within
from repro.verify.fixtures import stokes_fields_factory
from repro.verify.oracles import register

__all__ = ["perturbed_divergences"]

_KERNEL_RTOL = 1.0e-12


def _residual_divergences(label: str, ref, alt) -> list:
    """``alt.Residual`` vs ``ref.Residual``: values, and derivatives if Fad."""
    parts = [("values", ref.Residual.values(), alt.Residual.values())]
    if ref.scalar.is_fad:
        parts.append(("dx", ref.Residual.data.dx, alt.Residual.data.dx))
    return collect(within(f"{label}/Residual.{part}", a, r, _KERNEL_RTOL) for part, r, a in parts)


for _impl in ("optimized", "fused"):
    for _mode in ("residual", "jacobian"):

        @register(
            f"{_impl}-{_mode}-vs-baseline",
            f"{_impl} {_mode} kernel agrees with the Fig. 2 baseline listing",
        )
        def _oracle_stokes_variant(impl=_impl, mode=_mode):
            from repro.core.jacobian import run_kernel

            factory = stokes_fields_factory(num_cells=6, mode=mode, seed=11)
            ref, alt = factory(), factory()
            run_kernel(f"baseline-{mode}", ref)
            run_kernel(f"{impl}-{mode}", alt)
            divs = _residual_divergences(f"{impl}-{mode}", ref, alt)
            return divs, f"{impl}-{mode} vs baseline-{mode} @ rtol {_KERNEL_RTOL:g}"


def _qp_seeded_pair(nn: int, nq: int, num_cells: int, seed: int, viscosity: bool = False):
    """One Jacobian launch as the evaluator feeds it to the lowering (``Ugrad``/
    ``muLandIce`` ``SFad(6)`` with dense random ``dx``, a ``grad_bf`` seed, a plain
    ``force``) and to the listing (``dUgrad/dU`` applied, every view ``SFad(2 nn)``).
    With ``viscosity``, ``muLandIce`` is Glen's law of that ``Ugrad`` instead: its
    strain-rate tangent in closed form on the lowering's side, the invariant's
    polynomial run on ``SFad`` on the listing's."""
    from dataclasses import replace

    from repro.autodiff.sfad import SFad
    from repro.core.lowering import qp_seed_operand
    from repro.kokkos.view import DOUBLE, View, fad_spec
    from repro.physics.evaluators import _nodal_fad
    from repro.physics.viscosity import (
        effective_strain_rate_squared,
        effective_strain_rate_squared_tangent,
        glen_viscosity,
    )

    base = stokes_fields_factory(num_cells, "jacobian", seed, nn, nq)()
    rng = np.random.default_rng(seed + 1)
    grad_bf = rng.normal(size=(num_cells, nn, nq, 3)) * 1e-3
    seed_op = qp_seed_operand(grad_bf)
    qp = {
        name: SFad(6)(view.values(), rng.normal(size=view.shape + (6,)) * 0.01)
        for name, view in (("Ugrad", base.Ugrad), ("muLandIce", base.muLandIce))
    }
    late_qp, ref_qp = qp, qp
    if viscosity:
        g = qp["Ugrad"]
        eps_sq = effective_strain_rate_squared(*(g[:, :, k, d] for k in range(2) for d in range(3)))
        closed = type(g)(eps_sq.val, effective_strain_rate_squared_tangent(g.val, g.dx))
        late_qp = {"Ugrad": g, "muLandIce": glen_viscosity(closed)}
        ref_qp = {"Ugrad": g, "muLandIce": glen_viscosity(eps_sq)}

    def form(inputs, scalar, frc_scalar, lift, **operands):
        views = {name: View(name, x.shape, scalar, data=lift(x)) for name, x in inputs.items()}
        views["force"] = View("force", base.force.shape, frc_scalar, data=base.force.values())
        views["Residual"] = View("Residual", base.Residual.shape, base.scalar)
        return replace(base, **views, **operands)

    late = form(late_qp, fad_spec(6), DOUBLE, lambda x: x, seed=grad_bf)
    return late, form(ref_qp, base.scalar, base.scalar, lambda x: _nodal_fad(x, seed_op))


@register(
    "host-lowering-vs-listing",
    "the optimized variant's HostVector lowering agrees with its Fig. 2 listing",
)
def _oracle_host_lowering():
    """HostVector launch (batched-GEMM lowering) vs ``HostSerial`` (listing).

    131 cells: the vectorized launch crosses a chunk boundary and ends
    on a ragged chunk.  Hexahedra and the Voronoi mesh's prisms; the
    Jacobian launch dense (random ``dx`` on ``Ugrad``, ``mu`` *and*
    ``force``), in the qp-seeded form the production sweep feeds, and
    in that form with ``mu`` from Glen's law (the viscosity's closed-form
    strain-rate tangent against ``SFad`` arithmetic on it; 16 cells).
    """
    from repro.core.jacobian import run_kernel
    from repro.kokkos.space import HostSerial

    divs = []
    shapes = (("hex8", 8, 8), ("wedge6", 6, 6))
    for elem, nn, nq in shapes:
        for mode in ("residual", "jacobian"):
            factory = stokes_fields_factory(
                num_cells=131, mode=mode, seed=13, num_nodes=nn, num_qps=nq
            )
            ref, alt = factory(), factory()
            run_kernel(f"optimized-{mode}", ref, space=HostSerial())
            run_kernel(f"optimized-{mode}", alt)
            divs += _residual_divergences(f"{elem}/optimized-{mode}", ref, alt)
        for form, viscosity, cells in (("qp-seeded", False, 131), ("qp-seeded, Glen mu", True, 16)):
            alt, ref = _qp_seeded_pair(nn, nq, num_cells=cells, seed=13, viscosity=viscosity)
            run_kernel("optimized-jacobian", ref, space=HostSerial())
            run_kernel("optimized-jacobian", alt)
            divs += _residual_divergences(f"{elem}/optimized-jacobian ({form})", ref, alt)
    return divs, (
        f"{len(shapes)} element shapes x residual/jacobian/qp-seeded jacobian, 131 cells, "
        f"and qp-seeded with Glen mu, 16 cells @ rtol {_KERNEL_RTOL:g}"
    )


def _viscosity_fields(mode: str, seed=21):
    # base inputs come from one stream, derivative seeds from another, so
    # double- and Fad-typed field sets see identical base values
    from repro.core.viscosity_kernel import make_viscosity_fields

    fields = make_viscosity_fields(6, mode=mode)
    rng = np.random.default_rng(seed)
    nc, nq = fields.num_cells, fields.num_qps
    ug = rng.normal(size=(nc, nq, 2, 3)) * 1e-3
    ff = rng.uniform(1e-6, 1e-4, size=(nc, nq))
    if fields.scalar.is_fad:
        drng = np.random.default_rng(seed + 1)
        fields.Ugrad.data.val[...] = ug
        fields.Ugrad.data.dx[...] = drng.normal(size=ug.shape + (fields.scalar.fad_dim,)) * 1e-6
    else:
        fields.Ugrad.data[...] = ug
    fields.flowFactor.data[...] = ff
    return fields


@register(
    "viscosity-value-consistency",
    "ViscosityFO value part agrees under double and SFad scalar types",
)
def _oracle_viscosity_values():
    from repro.core.viscosity_kernel import ViscosityFOKernel

    fr, fj = _viscosity_fields("residual"), _viscosity_fields("jacobian")
    for f in (fr, fj):
        functor = ViscosityFOKernel(f)
        for c in range(f.num_cells):
            functor(c)
    # not bitwise: the double path evaluates ``np.float64 ** p`` (scalar
    # pow) while the SFad value path evaluates ``ndarray ** p`` (the
    # npy_pow ufunc), and the two libm routes can disagree in the last
    # ulp.  1e-14 is ~50 ulp of slack -- any algebraic difference between
    # the paths is orders of magnitude larger.
    d = within("viscosity/muLandIce.values", fj.muLandIce.values(), fr.muLandIce.values(), 1e-14)
    return collect([d]), "SFad value path vs double path @ rtol 1e-14"


for _key in (
    "baseline-residual",
    "baseline-jacobian",
    "optimized-residual",
    "optimized-jacobian",
    "fused-residual",
    "fused-jacobian",
    "viscosity-residual",
    "viscosity-jacobian",
):

    @register(f"race-{_key}", f"{_key} body is race-free and bitwise order-independent")
    def _oracle_race(key=_key):
        from repro.core.variants import get_variant
        from repro.verify.race import RaceChecker

        variant = get_variant(key)
        if variant.family == "viscosity":
            factory, outputs = (lambda mode=variant.mode: _viscosity_fields(mode)), ["muLandIce"]
        else:
            factory, outputs = stokes_fields_factory(num_cells=6, mode=variant.mode, seed=11), None
        report = RaceChecker(key, variant.make_functor, factory, outputs=outputs).check()
        divs = [d for _, d in report.order_divergences]
        if report.findings and not divs:
            # surface write-set findings even without a bitwise divergence
            divs = [mismatch(f"{key}/write-sets", len(report.findings), 0)]
        return divs, report.describe()


def perturbed_divergences(mode: str = "residual"):
    """Divergences of the seeded wrong-coefficient kernel vs the baseline.

    Nonempty list == the oracle machinery can catch a realistic porting
    bug; used by ``python -m repro verify`` as a negative control and by
    ``--fixture perturbed`` as a fake production kernel.
    """
    from repro.core.jacobian import run_kernel
    from repro.verify.fixtures import PerturbedStokesFOResid

    factory = stokes_fields_factory(num_cells=6, mode=mode, seed=11)
    ref, alt = factory(), factory()
    run_kernel(f"baseline-{mode}", ref)
    functor = PerturbedStokesFOResid(alt)
    for c in range(alt.num_cells):
        functor(c)
    return collect([within(
        f"perturbed-{mode}/Residual.values", alt.Residual.values(), ref.Residual.values(),
        _KERNEL_RTOL,
    )])
