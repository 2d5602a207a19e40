"""Differential oracle registry: implementations testify against each other.

Every fast path in this repo exists as a rewrite of a slower reference
-- optimized kernels vs the baseline listing, SFad derivatives vs the
definition of a derivative, fused assembly vs separate evaluation, the
SPMD solve vs the serial one, the rocprof byte formula vs the modeled
traffic, a resumed or faulted run vs the undisturbed one.  An
:class:`Oracle` makes each such pair executable: run both sides, compare
with an explicit tolerance contract, and report *first-divergence
context* (slot, both values, error magnitudes) rather than a bare
boolean.  An oracle with a planted negative control runs it too, and
fails when the control goes undetected.

The table is declarative: oracles register themselves into
:data:`ORACLES` with a suite tag, and ``python -m repro verify --suite
<tag>`` (or the test suite) executes any slice of it.  Tolerance
contracts, from strictest to loosest:

======================  =========================================
bitwise (rtol=atol=0)   SPMD vs serial, fused vs separate, value
                        parts across scalar types, byte formula,
                        resume vs uninterrupted, chaos vs fault-free
1e-12 relative          kernel variants (reassociated fp sums)
1e-12 relative          complex-step derivatives (exact method)
1e-8 relative           central differences (roundoff-limited;
                        truncation is zero -- the body is
                        quadratic along any direction)
======================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.verify.compare import Divergence, first_divergence

__all__ = [
    "Oracle",
    "OracleResult",
    "ORACLES",
    "run_oracles",
    "suite_names",
    "basis_divergences",
    "drift_divergences",
    "kill_resume_drill",
    "perturbed_divergences",
    "qp_seeded_divergences",
    "resume_divergences",
    "smoother_contraction_divergences",
]


@dataclass(frozen=True)
class Oracle:
    """One executable implementation-vs-reference contract."""

    name: str
    suite: str  # "kernels" | "jacobian" | "spmd" | "bytes" | "matvec" | "transient" | "serve"
    description: str
    fn: object  # () -> (list[Divergence], detail_str)


@dataclass
class OracleResult:
    """Outcome of one oracle run."""

    name: str
    suite: str
    passed: bool
    detail: str
    divergences: list = field(default_factory=list)

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.suite}/{self.name}: {self.detail}"]
        lines += [f"    {d.describe()}" for d in self.divergences[:4]]
        return "\n".join(lines)


ORACLES: list[Oracle] = []


def _register(name: str, suite: str, description: str):
    def deco(fn):
        ORACLES.append(Oracle(name=name, suite=suite, description=description, fn=fn))
        return fn

    return deco


def suite_names() -> list[str]:
    return sorted({o.suite for o in ORACLES})


def run_oracles(suites=None, progress=None) -> list[OracleResult]:
    """Execute the registry (optionally restricted to some suites)."""
    results = []
    for oracle in ORACLES:
        if suites and oracle.suite not in suites:
            continue
        if progress:
            progress(oracle)
        try:
            divergences, detail = oracle.fn()
        except Exception as exc:  # an oracle crashing is a failure, not an abort
            results.append(OracleResult(oracle.name, oracle.suite, False, f"raised {exc!r}"))
            continue
        results.append(
            OracleResult(
                name=oracle.name,
                suite=oracle.suite,
                passed=not divergences,
                detail=detail,
                divergences=list(divergences),
            )
        )
    return results


# ======================================================================
# suite "kernels": every variant vs the reference kernel
# ======================================================================

_KERNEL_RTOL = 1.0e-12


def _stokes_pair(impl: str, mode: str):
    from repro.core.jacobian import run_kernel
    from repro.verify.fixtures import stokes_fields_factory

    factory = stokes_fields_factory(num_cells=6, mode=mode, seed=11)
    ref, alt = factory(), factory()
    run_kernel(f"baseline-{mode}", ref)
    run_kernel(f"{impl}-{mode}", alt)
    return ref, alt


def _residual_divergences(label: str, ref, alt) -> list:
    """``alt.Residual`` vs ``ref.Residual``: values, and derivatives if Fad."""
    parts = [("values", ref.Residual.values(), alt.Residual.values())]
    if ref.scalar.is_fad:
        parts.append(("dx", ref.Residual.data.dx, alt.Residual.data.dx))
    divs = []
    for part, r, a in parts:
        scale = float(np.max(np.abs(r)))
        d = first_divergence(
            f"{label}/Residual.{part}", a, r, rtol=_KERNEL_RTOL, atol=_KERNEL_RTOL * scale
        )
        if d:
            divs.append(d)
    return divs


def _compare_stokes(impl: str, mode: str):
    ref, alt = _stokes_pair(impl, mode)
    divs = _residual_divergences(f"{impl}-{mode}", ref, alt)
    return divs, f"{impl}-{mode} vs baseline-{mode} @ rtol {_KERNEL_RTOL:g}"


for _impl in ("optimized", "fused"):
    for _mode in ("residual", "jacobian"):

        @_register(
            f"{_impl}-{_mode}-vs-baseline",
            "kernels",
            f"{_impl} {_mode} kernel agrees with the Fig. 2 baseline listing",
        )
        def _oracle_stokes_variant(impl=_impl, mode=_mode):
            return _compare_stokes(impl, mode)


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
    from repro.verify.fixtures import stokes_fields_factory

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


@_register(
    "host-lowering-vs-listing",
    "kernels",
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
    from repro.verify.fixtures import stokes_fields_factory

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


def _fill_viscosity(fields, seed=21):
    # base inputs come from one stream, derivative seeds from another, so
    # double- and Fad-typed field sets see identical base values
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


@_register(
    "viscosity-value-consistency",
    "kernels",
    "ViscosityFO value part agrees under double and SFad scalar types",
)
def _oracle_viscosity_values():
    from repro.core.viscosity_kernel import ViscosityFOKernel, make_viscosity_fields

    fr = _fill_viscosity(make_viscosity_fields(6, mode="residual"))
    fj = _fill_viscosity(make_viscosity_fields(6, mode="jacobian"))
    for f in (fr, fj):
        functor = ViscosityFOKernel(f)
        for c in range(f.num_cells):
            functor(c)
    # not bitwise: the double path evaluates ``np.float64 ** p`` (scalar
    # pow) while the SFad value path evaluates ``ndarray ** p`` (the
    # npy_pow ufunc), and the two libm routes can disagree in the last
    # ulp.  1e-14 is ~50 ulp of slack -- any algebraic difference between
    # the paths is orders of magnitude larger.
    scale = float(np.max(np.abs(fr.muLandIce.values()))) or 1.0
    d = first_divergence(
        "viscosity/muLandIce.values",
        fj.muLandIce.values(),
        fr.muLandIce.values(),
        rtol=1e-14,
        atol=1e-14 * scale,
    )
    return ([d] if d else []), "SFad value path vs double path @ rtol 1e-14"


def _race_oracle_fn(key: str):
    from repro.core.variants import get_variant
    from repro.verify.race import RaceChecker

    variant = get_variant(key)
    if variant.family == "viscosity":
        from repro.core.viscosity_kernel import make_viscosity_fields

        def factory(mode=variant.mode):
            return _fill_viscosity(make_viscosity_fields(6, mode=mode))

        checker = RaceChecker(key, variant.make_functor, factory, outputs=["muLandIce"])
    else:
        from repro.verify.fixtures import stokes_fields_factory

        checker = RaceChecker(
            key, variant.make_functor, stokes_fields_factory(num_cells=6, mode=variant.mode, seed=11)
        )
    report = checker.check()
    divs = [d for _, d in report.order_divergences]
    if report.findings:
        # surface write-set findings even without a bitwise divergence
        return (
            divs
            or [
                Divergence(
                    name=f"{key}/write-sets",
                    index=(0,),
                    lhs=float("nan"),
                    rhs=float("nan"),
                    abs_err=float("nan"),
                    max_abs_err=float("nan"),
                    num_bad=len(report.findings),
                )
            ],
            report.describe(),
        )
    return divs, report.describe()


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

    @_register(
        f"race-{_key}",
        "kernels",
        f"{_key} body is race-free and bitwise order-independent",
    )
    def _oracle_race(key=_key):
        return _race_oracle_fn(key)


# ======================================================================
# suite "jacobian": SFad vs the definition of the derivative
# ======================================================================


class _DuckStokesFields:
    """Minimal fields bundle over raw ndarrays (real *or* complex).

    The kernel bodies are single-source polynomials over ``+``/``*``, so
    they run unchanged on complex arrays -- which is what makes the
    complex-step derivative applicable at all.
    """

    def __init__(self, Ugrad, muLandIce, force, wBF, wGradBF, dtype):
        self.Ugrad = Ugrad.astype(dtype)
        self.muLandIce = muLandIce.astype(dtype)
        self.force = force.astype(dtype)
        self.wBF = wBF
        self.wGradBF = wGradBF
        nc, nn = wBF.shape[0], wBF.shape[1]
        self.Residual = np.zeros((nc, nn, 2), dtype=dtype)
        self.num_nodes = nn
        self.num_qps = wBF.shape[2]
        self._zero = dtype(0)

    def zero(self, cell):
        return self._zero


def _duck_residual(base: dict, dU, dmu, dfrc, t, dtype=np.float64) -> np.ndarray:
    """Evaluate the optimized body at ``base + t * direction``."""
    from repro.core.kernels import StokesFOResidOptimized

    fields = _DuckStokesFields(
        base["Ugrad"] + t * dU,
        base["muLandIce"] + t * dmu,
        base["force"] + t * dfrc,
        base["wBF"],
        base["wGradBF"],
        dtype,
    )
    functor = StokesFOResidOptimized(fields)
    for c in range(fields.wBF.shape[0]):
        functor(c)
    return fields.Residual


def _seeded_jacobian_setup(num_cells=4, seed=31):
    """Base point, per-component directions, and the SFad-computed dirs.

    Returns ``(base, dirs, sfad_dirderiv)`` where ``sfad_dirderiv[k]``
    is the kernel-propagated directional derivative along direction
    ``k`` (shape ``(nc, nn, 2)``).
    """
    from repro.core.fields import JACOBIAN_FAD_SIZE, make_stokes_fields
    from repro.core.jacobian import run_kernel

    rng = np.random.default_rng(seed)
    nc, nn, nq = num_cells, 8, 8
    base = {
        "Ugrad": rng.normal(size=(nc, nq, 2, 3)) * 1e-3,
        "muLandIce": rng.uniform(1e3, 1e5, size=(nc, nq)),
        "force": rng.normal(size=(nc, nq, 2)) * 10.0,
        "wBF": rng.uniform(0.1, 1.0, size=(nc, nn, nq)),
        "wGradBF": rng.normal(size=(nc, nn, nq, 3)) * 1e-3,
    }
    k = JACOBIAN_FAD_SIZE
    # direction magnitudes follow each view's scale so finite differences
    # perturb every input comparably in relative terms
    dirs = {
        "Ugrad": rng.normal(size=base["Ugrad"].shape + (k,)) * 1e-3,
        "muLandIce": rng.normal(size=base["muLandIce"].shape + (k,)) * 1e3,
        "force": rng.normal(size=base["force"].shape + (k,)) * 1.0,
    }

    fields = make_stokes_fields(nc, mode="jacobian")
    for name in ("Ugrad", "muLandIce", "force"):
        view = getattr(fields, name)
        view.data.val[...] = base[name]
        view.data.dx[...] = dirs[name]
    fields.wBF.data[...] = base["wBF"]
    fields.wGradBF.data[...] = base["wGradBF"]
    run_kernel("optimized-jacobian", fields)
    sfad = np.moveaxis(fields.Residual.data.dx, -1, 0)  # (k, nc, nn, 2)
    return base, dirs, sfad


@_register(
    "sfad-vs-central-fd",
    "jacobian",
    "SFad directional derivatives match central finite differences",
)
def _oracle_sfad_fd():
    base, dirs, sfad = _seeded_jacobian_setup()
    eps = 1.0e-3  # truncation is exactly zero (body quadratic along t)
    divs = []
    for k in range(sfad.shape[0]):
        dU, dmu, dfrc = dirs["Ugrad"][..., k], dirs["muLandIce"][..., k], dirs["force"][..., k]
        fp = _duck_residual(base, dU, dmu, dfrc, +eps)
        fm = _duck_residual(base, dU, dmu, dfrc, -eps)
        fd = (fp - fm) / (2.0 * eps)
        scale = max(1.0e-30, float(np.max(np.abs(fd))))
        d = first_divergence(f"dResidual[dir {k}] (fd)", sfad[k], fd, rtol=1e-8, atol=1e-8 * scale)
        if d:
            divs.append(d)
    return divs, f"16 directions, eps={eps:g}, rtol 1e-8"


@_register(
    "sfad-vs-complex-step",
    "jacobian",
    "SFad directional derivatives match the complex-step derivative",
)
def _oracle_sfad_complex():
    base, dirs, sfad = _seeded_jacobian_setup()
    h = 1.0e-20  # no subtractive cancellation: h can sit below roundoff
    divs = []
    for k in range(sfad.shape[0]):
        dU, dmu, dfrc = dirs["Ugrad"][..., k], dirs["muLandIce"][..., k], dirs["force"][..., k]
        fc = _duck_residual(base, dU, dmu, dfrc, 1j * h, dtype=np.complex128)
        cs = fc.imag / h
        scale = max(1.0e-30, float(np.max(np.abs(cs))))
        d = first_divergence(
            f"dResidual[dir {k}] (complex)", sfad[k], cs, rtol=1e-12, atol=1e-12 * scale
        )
        if d:
            divs.append(d)
    return divs, f"16 directions, h={h:g}, rtol 1e-12"


def _small_problem(nparts: int = 1):
    from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig

    cfg = AntarcticaConfig(
        resolution_km=400.0,
        num_layers=3,
        velocity=VelocityConfig(nparts=nparts),
    )
    return AntarcticaTest.build(cfg).problem


@_register(
    "fused-assembly-vs-separate",
    "jacobian",
    "fused residual_and_jacobian equals separate residual/jacobian, bitwise",
)
def _oracle_fused_assembly():
    problem = _small_problem()
    rng = np.random.default_rng(42)
    u = rng.normal(size=problem.dofmap.num_dofs) * 10.0
    u[problem.bc_dofs] = 0.0
    f_fused, A_fused = problem.residual_and_jacobian(u)
    f_sep = problem.residual(u)
    A_sep = problem.jacobian(u)
    divs = []
    d = first_divergence("residual (fused vs separate)", f_fused, f_sep)
    if d:
        divs.append(d)
    d = first_divergence("jacobian.data (fused vs separate)", A_fused.data, A_sep.data)
    if d:
        divs.append(d)
    return divs, f"{problem.dofmap.num_dofs} dofs, bitwise"


def _u_seeded_blocks(ws):
    """Element blocks of an evaluated Jacobian-mode workset, recomputed with
    the seed at the nodal unknowns: ``U`` is ``SFad(2 nn)`` with an identity
    ``dx``, the interpolation contracts it against ``grad_bf``, and viscosity,
    kernel (the lowering with no seed operand) and basal friction carry all
    ``2 nn`` components.  The sweep before it seeded at the qp: its reference."""
    from dataclasses import replace

    from repro.autodiff.seeding import seed_block
    from repro.core.jacobian import local_jacobian_blocks, local_residual_blocks, run_kernel
    from repro.kokkos.view import View, fad_spec
    from repro.physics.evaluators import _interp_grad_values
    from repro.physics.viscosity import effective_strain_rate_squared, glen_viscosity

    nc, nn, n = ws.num_cells, ws.num_nodes, ws.fad_size
    scalar = fad_spec(n)
    U = seed_block(ws.fields["U"].reshape(nc, n), n).reshape(nc, nn, 2)
    g = type(U)(
        _interp_grad_values(U.val, ws.grad_bf), np.einsum("cnkf,cnqd->cqkdf", U.dx, ws.grad_bf)
    )
    eps_sq = effective_strain_rate_squared(*(g[:, :, k, d] for k in range(2) for d in range(3)))
    mu = glen_viscosity(eps_sq, prefactor=ws.glen_prefactor_qp)
    inputs = {"Ugrad": g, "muLandIce": mu, "force": ws.force_qp}
    sf = replace(
        ws.fields["__stokes_fields__"],
        seed=None,
        Residual=View("Residual", (nc, nn, 2), scalar),
        **{name: View(name, x.shape, scalar, data=x) for name, x in inputs.items()},
    )
    run_kernel("optimized-jacobian", sf)
    if ws.basal_cells is not None and len(ws.basal_cells):
        bc, nnf, res = ws.basal_cells, ws.basal_w_bf.shape[1], sf.Residual.data
        u_qp = np.einsum("bnk,qn->bqk", U.val[bc, :nnf], ws.basal_bf)
        du_qp = np.einsum("bnkf,qn->bqkf", U.dx[bc, :nnf], ws.basal_bf)
        res.val[bc, :nnf] += np.einsum("bq,bqk,bnq->bnk", ws.basal_beta_qp, u_qp, ws.basal_w_bf)
        res.dx[bc, :nnf] += np.einsum("bq,bqkf,bnq->bnkf", ws.basal_beta_qp, du_qp, ws.basal_w_bf)
    return local_residual_blocks(sf), local_jacobian_blocks(sf)


_SEED_RTOL = 1.0e-13  # of max|J|: the two chains differ in reassociated sums only
_FD_BOUND = 2.0e-5  # relative error of J @ v against central differences of F


def qp_seeded_divergences():
    """The production Jacobian sweep (``SFad(6)`` seeded at the qp, ``dUgrad/dU``
    applied on the GEMM operand) against :func:`_u_seeded_blocks` on the hex
    and the prism fixture, basal faces included: residual blocks bitwise,
    Jacobian blocks within 1e-13 of ``max|J|``.  The kernel-level derivative
    oracles feed dense ``dx`` and never see the seed, so the assembled
    ``J @ v`` is also held against central differences of ``F``."""
    from repro.app import AntarcticaConfig, AntarcticaTest

    divs, detail = [], []
    rng = np.random.default_rng(17)
    for elem, footprint in (("hex8", "quad"), ("wedge6", "voronoi")):
        cfg = AntarcticaConfig(resolution_km=400.0, num_layers=3, footprint=footprint)
        problem = AntarcticaTest.build(cfg).problem
        u = rng.normal(size=problem.dofmap.num_dofs) * 10.0
        u[problem.bc_dofs] = 0.0
        for a, _, ws in problem._worksets(u, "jacobian"):
            ref_r, ref_j = _u_seeded_blocks(ws)
            atol = _SEED_RTOL * float(np.max(np.abs(ref_j)))
            divs += filter(None, (
                first_divergence(f"{elem}/residual blocks @ cell {a}", ws.out_residual, ref_r),
                first_divergence(
                    f"{elem}/jacobian blocks @ cell {a}", ws.out_jacobian, ref_j, rtol=0.0, atol=atol
                ),
            ))
        detail.append(f"{elem} {problem.mesh.num_elems} cells")
        if elem != "hex8":
            continue
        A = problem.jacobian(u)
        for k in range(4):
            v = rng.normal(size=len(u))
            eps = 1.0e-6 * max(1.0, np.linalg.norm(u)) / np.linalg.norm(v)
            fd = (problem.residual(u + eps * v) - problem.residual(u - eps * v)) / (2.0 * eps)
            err = float(np.linalg.norm(A.matvec(v) - fd) / np.linalg.norm(fd))
            if not err < _FD_BOUND:
                divs.append(_out_of_bound(f"J@v vs central FD (direction {k})", err, _FD_BOUND))
    return divs, (
        f"{', '.join(detail)}: residual bitwise, jacobian @ {_SEED_RTOL:g} max|J|; "
        f"J@v vs FD along 4 directions < {_FD_BOUND:g}"
    )


_register(
    "qp-seeded-vs-u-seeded",
    "jacobian",
    "the qp-seeded Jacobian sweep equals the U-seeded SFad(2 nn) chain and central differences",
)(qp_seeded_divergences)


_BASIS_RTOL = 1.0e-12
#: the planted defect: the 3x3 cofactor that carries the slope of the
#: layers (``dz/dxi``, ``dz/deta``) into ``dN/dx``, sign flipped
_PLANTED_COFACTOR = (0, 2)


def _lapack_basis(coords, cells, elem_type: str, face: bool = False) -> dict:
    """The einsum + ``np.linalg`` basis the closed-form cofactors replaced:
    the reference side of :func:`basis_divergences`, nowhere in production."""
    from repro.fem import quadrature_rule, reference_element

    ref = reference_element(elem_type)
    qp, w = quadrature_rule(elem_type, 2)
    bf, gref, x = ref.shape(qp), ref.grad(qp), coords[cells]
    jac = np.einsum("qnr,cnd->cqdr", gref, x)
    out = {"qp_coords": np.einsum("qn,cnd->cqd", bf, x)}
    if face:
        out["det_j"] = np.linalg.norm(np.cross(jac[..., 0], jac[..., 1]), axis=-1)
    else:
        out["det_j"] = np.linalg.det(jac)
        out["grad_bf"] = np.einsum("qnr,cqrd->cnqd", gref, np.linalg.inv(jac))
        out["w_grad_bf"] = out["grad_bf"] * (out["det_j"] * w)[:, None, :, None]
    out["w_bf"] = bf.T * (out["det_j"] * w)[:, None, :]
    return out


def _basis_meshes():
    """``(label, ExtrudedMesh)``: the benchmark's Antarctica 200 km / 10, the
    golden Greenland grid (both hex8) and a Voronoi-dual prism mesh (wedge6)."""
    from repro.app import AntarcticaConfig, AntarcticaTest
    from repro.mesh import greenland_geometry
    from repro.mesh.extrude import extrude_footprint
    from repro.mesh.planar import masked_quad_footprint

    def antarctica(km, layers, footprint="quad"):
        cfg = AntarcticaConfig(resolution_km=km, num_layers=layers, footprint=footprint)
        return AntarcticaTest.build(cfg).mesh

    geo = greenland_geometry()
    fp = masked_quad_footprint(9, 15, geo.lx, geo.ly, geo.mask)
    return [
        ("antarctica-200km-10", antarctica(200.0, 10)),
        ("greenland", extrude_footprint(fp, geo, 5)),
        ("wedge6", antarctica(400.0, 3, "voronoi")),
    ]


def basis_divergences(flip: tuple[int, int] | None = None, meshes=None):
    """Production basis data against :func:`_lapack_basis` at 1e-12.

    On every mesh: the 3-D basis, the footprint basis and the basal face
    measure, every field scaled per physical direction (a gradient along
    ``z`` is 1e3 times one along ``x``).  ``flip=(d, r)`` plants a sign
    error in the 3x3 cofactor ``(d, r)`` of the production formula, the
    negative control that must diverge.
    """
    from unittest import mock

    from repro.fem import compute_basis_data, compute_face_basis_data, discretization

    exact = discretization._cofactors

    def flipped(jac):
        cof, det = exact(jac)
        if flip is not None and len(jac) == 3:
            cof[flip[0]][flip[1]] = -cof[flip[0]][flip[1]]
        return cof, det

    divs, cells = [], 0
    with mock.patch.object(discretization, "_cofactors", flipped):
        for label, mesh in meshes or _basis_meshes():
            fp = mesh.footprint
            faces = mesh.basal_face_nodes()
            face_type = "quad4" if fp.elem_type == "quad4" else "tri3"
            cases = (
                (mesh.elem_type, compute_basis_data(mesh.coords, mesh.elems, mesh.elem_type),
                 _lapack_basis(mesh.coords, mesh.elems, mesh.elem_type)),
                (fp.elem_type, compute_basis_data(fp.coords, fp.elems, fp.elem_type),
                 _lapack_basis(fp.coords, fp.elems, fp.elem_type)),
                (f"{face_type} faces", compute_face_basis_data(mesh.coords, faces, face_type),
                 _lapack_basis(mesh.coords, faces, face_type, face=True)),
            )
            for kind, got, ref in cases:
                for name, want in ref.items():
                    vector = name in ("grad_bf", "w_grad_bf", "qp_coords")
                    axes = tuple(range(want.ndim - vector))
                    atol = _BASIS_RTOL * np.max(np.abs(want), axis=axes)
                    d = first_divergence(
                        f"{label}/{kind}/{name}", getattr(got, name), want,
                        rtol=_BASIS_RTOL, atol=atol,
                    )
                    if d:
                        divs.append(d)
            cells += mesh.num_elems
    return divs, cells


@_register(
    "basis-vs-reference",
    "jacobian",
    "closed-form cofactor basis data equal the einsum + LAPACK formula; a flipped cofactor diverges",
)
def _oracle_basis():
    meshes = _basis_meshes()
    divs, cells = basis_divergences(meshes=meshes)
    planted, _ = basis_divergences(flip=_PLANTED_COFACTOR, meshes=meshes)
    if not planted:
        divs.append(_out_of_bound("planted flipped cofactor: divergences", 0.0, 1.0))
    return divs, (
        f"{len(meshes)} meshes, {cells} cells: 3-D, footprint and face basis @ rtol "
        f"{_BASIS_RTOL:g} per direction; flipped cofactor {_PLANTED_COFACTOR} caught by "
        f"{len(planted)} comparisons"
    )


@_register(
    "sanitizer-clean-solve",
    "jacobian",
    "a full velocity solve creates no NaN/Inf under the armed sanitizer",
)
def _oracle_sanitizer_clean():
    from repro.verify.sanitizer import sanitizing

    problem = _small_problem()
    with sanitizing(mode="record") as san:
        sol = problem.solve()
    divs = []
    if san.counts["nonfinite"]:
        divs.append(
            Divergence(
                name="sanitizer.nonfinite",
                index=(0,),
                lhs=float(san.counts["nonfinite"]),
                rhs=0.0,
                abs_err=float(san.counts["nonfinite"]),
                max_abs_err=float(san.counts["nonfinite"]),
                num_bad=san.counts["nonfinite"],
            )
        )
    detail = (
        f"solve converged to |F|={sol.newton.residual_norms[-1]:.3e}; "
        f"sanitizer events: {san.summary()['events']} "
        f"(nonfinite={san.counts['nonfinite']}, cancellation={san.counts['cancellation']}, "
        f"denormal={san.counts['denormal']})"
    )
    return divs, detail


# ======================================================================
# suite "spmd": partitioned solves vs the serial solve
# ======================================================================


@_register(
    "spmd-vs-serial",
    "spmd",
    "SPMD solves at nparts in {1,2,4,7} are bitwise identical to serial",
)
def _oracle_spmd():
    serial = _small_problem(1).solve()
    divs = []
    checked = []
    for nparts in (1, 2, 4, 7):
        sol = _small_problem(nparts).solve()
        d = first_divergence(f"u (nparts={nparts})", sol.u, serial.u)
        if d:
            divs.append(d)
        if sol.newton.residual_norms != serial.newton.residual_norms:
            divs.append(
                Divergence(
                    name=f"newton.residual_norms (nparts={nparts})",
                    index=(0,),
                    lhs=sol.newton.residual_norms[-1],
                    rhs=serial.newton.residual_norms[-1],
                    abs_err=abs(sol.newton.residual_norms[-1] - serial.newton.residual_norms[-1]),
                    max_abs_err=0.0,
                    num_bad=1,
                )
            )
        checked.append(nparts)
    return divs, f"nparts {checked} vs serial, {len(serial.u)} dofs, bitwise"


# ======================================================================
# suite "bytes": the appendix TCC_EA formula vs the modeled traffic
# ======================================================================


@_register(
    "rocprof-formula-vs-model",
    "bytes",
    "64B-request rocprof formula reconciles exactly with modeled HBM bytes",
)
def _oracle_bytes():
    from repro.core.variants import variant_names
    from repro.gpusim import ANTARCTICA_16KM, GPUSimulator
    from repro.gpusim.specs import ALL_GPUS

    divs = []
    checked = 0
    for gpu, spec in ALL_GPUS.items():
        sim = GPUSimulator(spec)
        for key in variant_names():
            p = sim.run(key, ANTARCTICA_16KM)
            dm = p.data_movement
            formula = dm.rocprof_formula_bytes()
            if formula != dm.total_bytes or dm.total_bytes <= 0.0:
                divs.append(
                    Divergence(
                        name=f"{gpu}/{key}",
                        index=(0,),
                        lhs=formula,
                        rhs=dm.total_bytes,
                        abs_err=abs(formula - dm.total_bytes),
                        max_abs_err=abs(formula - dm.total_bytes),
                        num_bad=1,
                    )
                )
            checked += 1
    return divs, f"{checked} (gpu, variant) pairs, exact equality"


# ======================================================================
# suite "matvec": the matrix-free operator vs the assembled matrix
# ======================================================================

_MATVEC_RTOL = 1.0e-12
_MATVEC_PROBES = 4  # random directions v per J @ v comparison


def _operator_pair(geometry: str = "antarctica"):
    """Assembled and matrix-free problems sharing one mesh/geometry."""
    from dataclasses import replace

    from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
    from repro.app.velocity_solver import StokesVelocityProblem

    if geometry == "antarctica":
        cfg = AntarcticaConfig(
            resolution_km=400.0,
            num_layers=3,
            velocity=VelocityConfig(operator_mode="assembled"),
        )
        t = AntarcticaTest.build(cfg)
        pa = t.problem
        pm = StokesVelocityProblem(
            t.mesh, t.geometry, replace(cfg.velocity, operator_mode="matrix-free")
        )
        return pa, pm
    from repro.mesh import greenland_geometry
    from repro.mesh.extrude import extrude_footprint
    from repro.mesh.planar import masked_quad_footprint

    geo = greenland_geometry()
    fp = masked_quad_footprint(9, 15, geo.lx, geo.ly, geo.mask)
    mesh = extrude_footprint(fp, geo, 5)
    pa = StokesVelocityProblem(mesh, geo, VelocityConfig(operator_mode="assembled"))
    pm = StokesVelocityProblem(mesh, geo, VelocityConfig(operator_mode="matrix-free"))
    return pa, pm


def _matvec_divergences(pa, pm, seed: int = 7):
    """Matrix-free vs assembled ``J @ v`` at a seeded state, plus diagonals."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=pa.dofmap.num_dofs) * 10.0
    u[pa.bc_dofs] = 0.0
    A = pa.jacobian(u)
    B = pm.jacobian(u)
    divs = []
    for p in range(_MATVEC_PROBES):
        v = rng.normal(size=len(u))
        ya, ym = A.matvec(v), B.matvec(v)
        scale = max(1.0e-30, float(np.max(np.abs(ya))))
        d = first_divergence(
            f"J@v (probe {p})", ym, ya, rtol=_MATVEC_RTOL, atol=_MATVEC_RTOL * scale
        )
        if d:
            divs.append(d)
    da = A.diagonal()
    dscale = max(1.0e-30, float(np.max(np.abs(da))))
    d = first_divergence(
        "diag(J)", B.diagonal(), da, rtol=_MATVEC_RTOL, atol=_MATVEC_RTOL * dscale
    )
    if d:
        divs.append(d)
    return divs, A, B


for _geom in ("antarctica", "greenland"):

    @_register(
        f"matrix-free-vs-assembled-jv-{_geom}",
        "matvec",
        f"element-block J@v equals assembled CSR J@v on the {_geom} fixture",
    )
    def _oracle_matfree_jv(geom=_geom):
        pa, pm = _operator_pair(geom)
        divs, A, _ = _matvec_divergences(pa, pm)
        return divs, (
            f"{geom}: {A.shape[0]} dofs, 4 probes + diagonal @ rtol {_MATVEC_RTOL:g}"
        )


@_register(
    "matrix-free-smoother-blocks",
    "matvec",
    "matrix-free vertical-line blocks equal the CSR-extracted blocks",
)
def _oracle_matfree_blocks():
    pa, pm = _operator_pair("antarctica")
    rng = np.random.default_rng(9)
    u = rng.normal(size=pa.dofmap.num_dofs) * 10.0
    u[pa.bc_dofs] = 0.0
    A, B = pa.jacobian(u), pm.jacobian(u)
    blk = pa.mesh.levels * 2
    ref = A.column_blocks(blk)
    alt = B.column_blocks(blk)
    scale = max(1.0e-30, float(np.max(np.abs(ref))))
    d = first_divergence(
        "column_blocks", alt, ref, rtol=_MATVEC_RTOL, atol=_MATVEC_RTOL * scale
    )
    return ([d] if d else []), (
        f"{ref.shape[0]} column blocks of {blk}x{blk} @ rtol {_MATVEC_RTOL:g}"
    )


@_register(
    "matrix-free-solve-vs-assembled",
    "matvec",
    "end-to-end Newton solves agree across operator modes to the golden tolerance",
)
def _oracle_matfree_solve():
    pa, pm = _operator_pair("antarctica")
    sa, sm = pa.solve(), pm.solve()
    divs = []
    scale = max(1.0e-30, float(np.max(np.abs(sa.u))))
    d = first_divergence("u (matrix-free vs assembled)", sm.u, sa.u, rtol=1e-5, atol=1e-8 * scale)
    if d:
        divs.append(d)
    if sm.newton.iterations != sa.newton.iterations:
        divs.append(
            Divergence(
                name="newton.iterations",
                index=(0,),
                lhs=float(sm.newton.iterations),
                rhs=float(sa.newton.iterations),
                abs_err=abs(float(sm.newton.iterations - sa.newton.iterations)),
                max_abs_err=0.0,
                num_bad=1,
            )
        )
    return divs, (
        f"mean |u| {sa.mean_velocity:.6f} vs {sm.mean_velocity:.6f} m/yr, "
        f"{sa.newton.iterations} Newton steps each"
    )


@_register(
    "matvec-bytes-reconciliation",
    "matvec",
    "GMRES byte accounting reconciles with the operator model in both operator modes",
)
def _oracle_matvec_bytes():
    from repro.gpusim.solver_bytes import element_apply_bytes, spmv_bytes
    from repro.solvers.gmres import gmres
    from repro.solvers.smoothers import JacobiSmoother

    pa, pm = _operator_pair("antarctica")
    rng = np.random.default_rng(17)
    u = rng.normal(size=pa.dofmap.num_dofs) * 10.0
    u[pa.bc_dofs] = 0.0
    A, B = pa.jacobian(u), pm.jacobian(u)
    b = -pa.residual(u)
    # a deliberately weak preconditioner: enough matvecs for a
    # miscounted one to show
    ra = gmres(A, b, tol=1e-6, restart=200, maxiter=400, M=JacobiSmoother(A, iters=3))
    rm = gmres(B, b, tol=1e-6, restart=200, maxiter=400, M=JacobiSmoother(B, iters=3))
    divs = []
    # exact reconciliation: accumulated matvec bytes == count * model,
    # priced here from each operator's arrays, not its own protocol
    expect_a = ra.matvecs * spmv_bytes(A.shape[0], A.nnz, A.indices.itemsize)
    expect_m = rm.matvecs * element_apply_bytes(B.n, *B.elem_dofs.shape, B.elem_dofs.itemsize)
    for name, got, want in (
        ("assembled.matvec_bytes", ra.matvec_bytes, expect_a),
        ("matrix-free.matvec_bytes", rm.matvec_bytes, expect_m),
    ):
        if got != want:
            divs.append(
                Divergence(
                    name=name, index=(0,), lhs=got, rhs=want,
                    abs_err=abs(got - want), max_abs_err=abs(got - want), num_bad=1,
                )
            )
    return divs, (
        f"matvec bytes: assembled {ra.matvec_bytes:.3e} over {ra.matvecs} matvecs, "
        f"matrix-free {rm.matvec_bytes:.3e} over {rm.matvecs}, within budget 400"
    )


#: the derived damping must leave this much room below the stability
#: limit ``omega * lambda_max = 2`` (measured 1.24-1.30)
_CONTRACTION_BOUND = 1.5
#: the ten-step power estimate over ``scipy.sparse.linalg.eigs``
#: (measured 0.93-1.02 across meshes and Newton steps)
_ESTIMATE_BAND = (0.85, 1.1)


def _out_of_bound(name: str, got: float, bound: float) -> Divergence:
    err = abs(got - bound)
    return Divergence(
        name=name, index=(0,), lhs=got, rhs=bound, abs_err=err, max_abs_err=err, num_bad=1
    )


def _converged_jacobian(mode: str, nparts: int = 1):
    """The 600 km / 3-layer problem and its Jacobian at the converged state."""
    from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig

    velocity = VelocityConfig(operator_mode=mode, nparts=nparts)
    cfg = AntarcticaConfig(resolution_km=600.0, num_layers=3, velocity=velocity)
    problem = AntarcticaTest.build(cfg).problem
    return problem, problem.jacobian(problem.solve().u)


def smoother_contraction_divergences(omega: float | None = None):
    """Is the vertical-line smoother inside its stability limit?

    On the converged-state Jacobian of the 600 km / 3-layer mesh -- the
    largest ``lambda_max(B^-1 A)`` of the meshes on record, 2.35 -- block
    Jacobi contracts only if ``omega * lambda_max < 2``.  The reference
    ``lambda_max`` comes from ARPACK, not from the smoother's own power
    iteration.  ``omega=None`` checks the derived damping (and the
    estimate behind it); a planted constant such as the former 0.9 is
    the negative control.
    """
    import scipy.sparse.linalg as spla

    from repro.solvers.smoothers import VerticalLineSmoother

    divs, detail = [], []
    for mode in ("assembled", "matrix-free"):
        problem, J = _converged_jacobian(mode)
        sm = VerticalLineSmoother(J, problem.mesh.levels * 2, omega=omega)
        n = J.shape[0]
        BinvA = spla.LinearOperator(
            (n, n), matvec=lambda v, J=J, sm=sm: sm._block_solve(J.matvec(v)), dtype=np.float64
        )
        lam_ref = float(
            abs(spla.eigs(BinvA, k=1, which="LM", v0=np.ones(n), return_eigenvectors=False)[0])
        )
        if not sm.omega * lam_ref < _CONTRACTION_BOUND:
            divs.append(
                _out_of_bound(f"{mode}: omega * lambda_max", sm.omega * lam_ref, _CONTRACTION_BOUND)
            )
        if sm.lambda_max is not None:
            ratio = sm.lambda_max / lam_ref
            lo, hi = _ESTIMATE_BAND
            if not lo <= ratio <= hi:
                divs.append(
                    _out_of_bound(f"{mode}: estimate / lambda_max", ratio, lo if ratio < lo else hi)
                )
        detail.append(f"{mode} lambda_max {lam_ref:.3f}, omega {sm.omega:.3f}")
    return divs, (
        f"{'; '.join(detail)}; omega * lambda_max < {_CONTRACTION_BOUND}, "
        f"estimate within {_ESTIMATE_BAND[0]}-{_ESTIMATE_BAND[1]}x"
    )


_register(
    "smoother-contraction",
    "matvec",
    "the line smoother's derived damping sits inside the stability limit 2 / lambda_max(B^-1 A)",
)(smoother_contraction_divergences)


@_register(
    "mdsc-symbolic-vs-direct",
    "matvec",
    "MDSC numeric refresh through the problem's symbolic map equals an independent construction",
)
def _oracle_mdsc_symbolic():
    """CSR, matrix-free and gathered SPMD operators: blocks bitwise the
    dense diagonal blocks, ``P^T A P`` against the dense triple product,
    one V-cycle bitwise the direct constructor's (which builds its own map)."""
    from repro.solvers.multigrid import ColumnCollapseMdsc, MatrixFreeColumnCollapseMdsc

    divs = []
    for mode, nparts in (("assembled", 1), ("matrix-free", 1), ("assembled", 2)):
        problem, J = _converged_jacobian(mode, nparts)
        A = J.gather_global() if nparts > 1 else J
        levels, n, blk = problem.mesh.levels, A.shape[0], 2 * problem.mesh.levels
        shared = problem.plan.collapse_map(levels, 2, problem.matrix_free)
        # element order == CSR slot order, so the plan's fill is the dense reference
        fill = problem.plan.assemble_matrix(A.local_jac, A.diag_scale) if problem.matrix_free else A
        dense = fill.toarray()
        ref_blocks = np.stack([dense[i : i + blk, i : i + blk] for i in range(0, n, blk)])
        P = np.zeros((n, n // levels))
        P[np.arange(n), np.arange(n) // blk * 2 + np.arange(n) % 2] = 1.0
        ref_coarse = P.T @ dense @ P
        cls = MatrixFreeColumnCollapseMdsc if problem.matrix_free else ColumnCollapseMdsc
        kw = dict(num_columns=n // blk, levels=levels)
        r = np.random.default_rng(31).standard_normal(n)
        checks = (
            ("column blocks", shared.column_blocks(A), ref_blocks, 0.0),
            ("collapsed operator", shared.collapse(A).toarray(), ref_coarse, 1.0e-12),
            ("V-cycle", cls(A, symbolic=shared, **kw).apply(r), cls(A, **kw).apply(r), 0.0),
        )
        for name, got, want, rtol in checks:
            name, atol = f"{mode}/nparts={nparts}: {name}", rtol * np.max(np.abs(want))
            d = first_divergence(name, got, want, rtol=rtol, atol=atol)
            if d:
                divs.append(d)
    return divs, (
        f"{n} dofs: {n // blk} blocks of {blk}x{blk} bitwise, {n // levels} coarse dofs "
        "@ rtol 1e-12, V-cycle bitwise, for CSR / element / gathered operators"
    )


def matfree_perturbed_divergences(rel: float = 1.0e-4):
    """Divergences of a deliberately perturbed matrix-free operator.

    Scales one element-block entry by ``1 + rel`` -- the planted defect
    proving the matvec oracle *detects* a wrong matrix-free apply (the
    suite's negative control, mirroring :func:`perturbed_divergences`).
    """
    pa, pm = _operator_pair("antarctica")
    rng = np.random.default_rng(23)
    u = rng.normal(size=pa.dofmap.num_dofs) * 10.0
    u[pa.bc_dofs] = 0.0
    A, B = pa.jacobian(u), pm.jacobian(u)
    # poison one interior (non-Dirichlet-row) block entry
    is_bc = np.zeros(B.n, dtype=bool)
    is_bc[B.bc_dofs] = True
    cells, ii = np.nonzero(~is_bc[B.elem_dofs])
    c, i = int(cells[0]), int(ii[0])
    B.local_jac[c, i, i] *= 1.0 + rel
    v = rng.normal(size=len(u))
    ya, ym = A.matvec(v), B.matvec(v)
    scale = max(1.0e-30, float(np.max(np.abs(ya))))
    d = first_divergence(
        "perturbed J@v", ym, ya, rtol=_MATVEC_RTOL, atol=_MATVEC_RTOL * scale
    )
    return [d] if d else []


@_register(
    "matvec-detects-perturbed-operator",
    "matvec",
    "the matvec oracle flags a planted wrong element block (detection selftest)",
)
def _oracle_matfree_detection():
    divs = matfree_perturbed_divergences()
    if not divs:
        return [_out_of_bound("perturbed-operator-not-detected", 0.0, 1.0)], (
            "planted 1e-4 block perturbation was NOT detected"
        )
    return [], (
        f"planted 1e-4 block perturbation detected "
        f"(max |diff| {divs[0].max_abs_err:.3e} over {divs[0].num_bad} entries)"
    )


# ======================================================================
# suite "transient": the coupled thickness/velocity engine
# ======================================================================

#: antarctica-closed (20 steps) is killed after its 10th step, and
#: antarctica-retreat (12 steps) after its 3rd: the velocity predictor
#: fires on both sides of that kill (index 2 is its first step)
_CLOSED_KILL_AT = 9
_PREDICTOR_KILL_AT = 2
#: relative volume drift under a zero mass balance (1.4e-16: interior
#: upwind fluxes telescope exactly, so anything more is a bug); the
#: planted leak's 3 steps each keep 1 - 1e-9 of the ice
_DRIFT_TOL = 1.0e-12
_PLANTED_LEAK = 1.0e-9
#: antarctica-closed's GMRES iterations per warm Newton step under mdsc
#: (3.0; 8.0 at ``linear_tol``) and under the default vline (4.5; 11.5)
_GMRES_PER_NEWTON = 4.0
_VLINE_GMRES_PER_NEWTON = 6.0
#: antarctica-retreat's 25 warm steps average at most 3.0 Newton steps
#: (2.64; 3.56 when every step starts from the last velocity as it is)
_PREDICTOR_WARM_STEPS = 25
_WARM_NEWTON_MEAN = 3.0


def _gmres_per_warm_newton(engine):
    """``(run of ``engine``'s scenario, its GMRES iterations per warm
    Newton step)``."""
    gmres = []
    full = engine.run(callback=lambda step, info: gmres.append(info["gmres_iterations"]))
    return full, sum(gmres[1:]) / sum(full.newton_iterations[1:])


def kill_resume_drill(name: str, kill_at: int):
    """``(engine, uninterrupted run of the library scenario ``name``, its
    GMRES iterations per warm Newton step, checkpoint loaded from the
    ``.npz`` of the run killed after step ``kill_at + 1``)``."""
    import tempfile

    from repro.transient import (
        TransientCheckpoint,
        TransientEngine,
        TransientKilled,
        get_scenario,
    )

    engine = TransientEngine(get_scenario(name))
    full, per_newton = _gmres_per_warm_newton(engine)
    with tempfile.TemporaryDirectory() as td:
        try:
            engine.run(kill_at_step=kill_at, checkpoint_dir=td)
        except TransientKilled as kill:
            return engine, full, per_newton, TransientCheckpoint.load(kill.path)
    raise AssertionError("scripted kill did not fire")


def resume_divergences(drill, drop_u_before: bool = False):
    """The drill's run resumed from its ``.npz`` against the uninterrupted
    run, bitwise.  ``drop_u_before`` resumes from the checkpoint with
    ``u_before`` emptied, the negative control that must diverge wherever
    the velocity predictor fires after the kill."""
    import dataclasses

    engine, full, _, ckpt = drill
    if drop_u_before:
        ckpt = dataclasses.replace(ckpt, u_before=np.empty(0))
    resumed = engine.run(resume_from=ckpt)
    divs = []
    for name, got, want in (
        ("thickness", resumed.thickness, full.thickness),
        ("u", resumed.u, full.u),
        ("particles_xy", resumed.particles.xy, full.particles.xy),
        ("particles_zeta", resumed.particles.zeta, full.particles.zeta),
        ("particles_active", resumed.particles.active, full.particles.active),
        ("newton_iterations", resumed.newton_iterations, full.newton_iterations),
    ):
        d = first_divergence(name, got, want)
        if d:
            divs.append(d)
    return divs


def drift_divergences(result):
    """The run's volume drift past ``_DRIFT_TOL`` (a non-finite one too)."""
    drift = result.volume_drift
    return [] if drift <= _DRIFT_TOL else [_out_of_bound("volume drift", drift, _DRIFT_TOL)]


@_register(
    "transient-closed-budget",
    "transient",
    "antarctica-closed conserves volume, warm steps beat the cold one on Newton and GMRES "
    "budgets under vline and mdsc, a kill/resume is bitwise; a planted leak is caught",
)
def _oracle_closed_budget():
    from dataclasses import replace
    from unittest import mock

    from repro.app import AntarcticaTest
    from repro.store import ArtifactCache
    from repro.transient import TransientEngine

    drill = kill_resume_drill("antarctica-closed", _CLOSED_KILL_AT)
    engine, full, per_newton, _ = drill
    divs = drift_divergences(full) + resume_divergences(drill)
    cold, warm = full.cold_iterations, full.warm_mean_iterations
    if not warm < cold:
        divs.append(_out_of_bound("warm mean Newton steps", warm, cold))

    def build_mdsc(sc):
        cfg = sc.to_config()
        return AntarcticaTest.build(
            replace(cfg, velocity=replace(cfg.velocity, preconditioner="mdsc"))
        )

    mdsc = TransientEngine(engine.scenario, cache=ArtifactCache(builder=build_mdsc))
    per_newton_by_pc = {
        engine.problem.config.preconditioner: per_newton,
        "mdsc": _gmres_per_warm_newton(mdsc)[1],
    }
    bounds = {"vline": _VLINE_GMRES_PER_NEWTON, "mdsc": _GMRES_PER_NEWTON}
    for pc, value in per_newton_by_pc.items():
        if not value <= bounds[pc]:
            divs.append(
                _out_of_bound(f"GMRES iterations per warm Newton step ({pc})", value, bounds[pc])
            )
    step = engine.evolver.step
    with mock.patch.object(
        engine.evolver, "step", lambda *a, **kw: step(*a, **kw) * (1.0 - _PLANTED_LEAK)
    ):
        leaky = engine.run(num_steps=3)
    if not drift_divergences(leaky):
        divs.append(_out_of_bound("planted leak: volume drift", leaky.volume_drift, _DRIFT_TOL))
    return divs, (
        f"{len(full.dts)} steps: drift {full.volume_drift:.3e}; Newton steps cold {cold}, warm "
        f"mean {warm:.2f}; GMRES iterations per warm Newton step "
        f"{', '.join(f'{pc} {v:.2f}' for pc, v in per_newton_by_pc.items())}; killed after "
        f"step {_CLOSED_KILL_AT + 1}, resumed bitwise; planted leak drifts {leaky.volume_drift:.1e}"
    )


@_register(
    "transient-velocity-predictor",
    "transient",
    "25 warm steps of antarctica-retreat average at most 3.0 Newton steps",
)
def _oracle_velocity_predictor():
    from repro.transient import TransientEngine, get_scenario

    retreat = get_scenario("antarctica-retreat").with_steps(1 + _PREDICTOR_WARM_STEPS)
    warm = TransientEngine(retreat).run().warm_mean_iterations
    divs = []
    if not warm <= _WARM_NEWTON_MEAN:
        divs.append(_out_of_bound("warm mean Newton steps", warm, _WARM_NEWTON_MEAN))
    return divs, f"antarctica-retreat: warm mean {warm:.2f} over {_PREDICTOR_WARM_STEPS} steps"


#: what forcing may cost and must save on the 12-step 400 km / 4 retreat
#: run (measured under mdsc: thickness 1.3e-9 of scale, volumes 2.6e-11,
#: Newton steps 33 vs 32, GMRES iterations 102 vs 250; under the default
#: vline: Newton steps 33 vs 32, GMRES iterations 148 vs 368)
_INEXACT_THICKNESS_RTOL = 1.0e-7
_INEXACT_VOLUME_RTOL = 1.0e-9
_INEXACT_EXTRA_NEWTON_STEPS = 3
_INEXACT_GMRES_SHARE = 0.45


@_register(
    "inexact-vs-exact-newton",
    "transient",
    "the retreat trajectory under Eisenstat-Walker forcing against every step solved to linear_tol",
)
def _oracle_inexact_newton():
    """Both runs stop every solve on the same ``tol_abs``; pinning the
    rule's ceiling to its floor is the exact solve."""
    from unittest import mock

    from repro.observability import get_metrics
    from repro.solvers import newton
    from repro.transient import TransientEngine, get_scenario

    engine = TransientEngine(get_scenario("antarctica-retreat"))
    iterations = get_metrics().counter("gmres.iterations")

    def run():
        before = iterations.value
        result = engine.run()
        return result, sum(result.newton_iterations), iterations.value - before

    forced, forced_newton, forced_gmres = run()
    with mock.patch.object(newton, "_ETA_MAX", newton.LINEAR_TOL):
        exact, exact_newton, exact_gmres = run()

    divs = []
    for name, got, want, rtol in (
        ("thickness", forced.thickness, exact.thickness, _INEXACT_THICKNESS_RTOL),
        ("volumes", np.asarray(forced.volumes), np.asarray(exact.volumes), _INEXACT_VOLUME_RTOL),
    ):
        d = first_divergence(name, got, want, rtol=0.0, atol=rtol * float(np.max(np.abs(want))))
        if d:
            divs.append(d)
    if forced_newton > exact_newton + _INEXACT_EXTRA_NEWTON_STEPS:
        divs.append(
            _out_of_bound(
                "Newton steps", forced_newton, exact_newton + _INEXACT_EXTRA_NEWTON_STEPS
            )
        )
    if forced_gmres > _INEXACT_GMRES_SHARE * exact_gmres:
        divs.append(
            _out_of_bound("GMRES iterations", forced_gmres, _INEXACT_GMRES_SHARE * exact_gmres)
        )
    return divs, (
        f"{len(forced.dts)} steps: thickness @ {_INEXACT_THICKNESS_RTOL:g} of scale, volumes @ "
        f"{_INEXACT_VOLUME_RTOL:g}; Newton steps {forced_newton} vs {exact_newton}, "
        f"GMRES iterations {forced_gmres} vs {exact_gmres}"
    )


@_register(
    "transient-predictor-resume",
    "transient",
    "a retreat run killed while the velocity predictor fires resumes bitwise; dropping u_before diverges",
)
def _oracle_predictor_resume():
    drill = kill_resume_drill("antarctica-retreat", _PREDICTOR_KILL_AT)
    divs = resume_divergences(drill)
    planted = resume_divergences(drill, drop_u_before=True)
    if not planted:
        divs.append(_out_of_bound("planted resume without u_before: divergences", 0.0, 1.0))
    return divs, (
        f"antarctica-retreat, {len(drill[1].dts)} steps, killed after step "
        f"{_PREDICTOR_KILL_AT + 1}: thickness, u, particles and Newton counts bitwise; "
        f"resume without u_before caught by {len(planted)} comparisons"
    )


# ======================================================================
# suite "serve": the solve service under faults vs fault-free solves
# ======================================================================

#: OpenMetrics families the chaos run must expose, and how many
#: ``serve_*`` families at least
_SERVE_FAMILIES = ("serve_requests", "serve_dedup", "serve_worker_deaths")
_MIN_SERVE_FAMILIES = 10


@_register(
    "chaos-vs-fault-free",
    "serve",
    "dedup, worker kills, the reference fault schedule and a deadline storm against the solve "
    "service, bitwise against fault-free solves; a breaker patched open is caught",
)
def _oracle_chaos():
    from unittest import mock

    from repro import observability as obs
    from repro.serve import chaos
    from repro.serve.breaker import CircuitBreaker

    checks = chaos.chaos_assertions()
    failed = [f"{name} {detail}".strip() for name, held, detail in checks if not held]
    families = obs.parse_exposition(obs.render(obs.get_metrics().snapshot(), obs.get_series()))
    served = [f for f in families if f.startswith("serve_")]
    failed += [f"OpenMetrics family {f}" for f in _SERVE_FAMILIES if f not in families]
    divs = [_out_of_bound(name, 0.0, 1.0) for name in failed]
    if len(served) < _MIN_SERVE_FAMILIES:
        divs.append(_out_of_bound("serve_* OpenMetrics families", len(served), _MIN_SERVE_FAMILIES))
    with mock.patch.object(CircuitBreaker, "allow", return_value=True):
        caught = [name for name, held, _ in chaos.chaos_assertions(storm_only=True) if not held]
    if not caught:
        divs.append(_out_of_bound("planted open breaker: failed assertions", 0.0, 1.0))
    return divs, (
        f"{len(checks)} assertions; {len(served)} serve_* families; the storm wave with the "
        f"breaker patched open fails {len(caught)}"
    )


# ======================================================================
# the perturbed-kernel probe (used by the detection selftest, not
# registered: it is *supposed* to diverge)
# ======================================================================


def perturbed_divergences(mode: str = "residual"):
    """Divergences of the seeded wrong-coefficient kernel vs the baseline.

    Nonempty list == the oracle machinery can catch a realistic porting
    bug; used by ``python -m repro verify`` as a negative control and by
    ``--fixture perturbed`` as a fake production kernel.
    """
    from repro.core.jacobian import run_kernel
    from repro.verify.fixtures import PerturbedStokesFOResid, stokes_fields_factory

    factory = stokes_fields_factory(num_cells=6, mode=mode, seed=11)
    ref, alt = factory(), factory()
    run_kernel(f"baseline-{mode}", ref)
    functor = PerturbedStokesFOResid(alt)
    for c in range(alt.num_cells):
        functor(c)
    scale = float(np.max(np.abs(ref.Residual.values())))
    d = first_divergence(
        f"perturbed-{mode}/Residual.values",
        alt.Residual.values(),
        ref.Residual.values(),
        rtol=_KERNEL_RTOL,
        atol=_KERNEL_RTOL * scale,
    )
    return [d] if d else []
