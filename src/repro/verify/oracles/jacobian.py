"""Suite ``jacobian``: SFad against the definition of the derivative
(central differences, the complex step), the production qp-seeded sweep
against the U-seeded chain, fused assembly against separate evaluation,
the closed-form basis against the einsum + LAPACK formula, and a whole
solve under the armed sanitizer."""

from __future__ import annotations

import numpy as np

from repro.verify.compare import collect, first_divergence, mismatch, within
from repro.verify.fixtures import antarctica, greenland_mesh, seeded_state
from repro.verify.oracles import register

__all__ = ["basis_divergences", "basis_meshes", "qp_seeded_divergences"]


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


def _duck_residual(base: dict, dirs: dict, k: int, t, dtype=np.float64) -> np.ndarray:
    """Evaluate the optimized body at ``base + t * direction k``."""
    from repro.core.kernels import StokesFOResidOptimized

    fields = _DuckStokesFields(
        *(base[name] + t * dirs[name][..., k] for name in ("Ugrad", "muLandIce", "force")),
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


@register("sfad-vs-central-fd", "SFad directional derivatives match central finite differences")
def _oracle_sfad_fd():
    base, dirs, sfad = _seeded_jacobian_setup()
    eps = 1.0e-3  # truncation is exactly zero (body quadratic along t)
    divs = collect(
        within(
            f"dResidual[dir {k}] (fd)", sfad[k],
            (_duck_residual(base, dirs, k, +eps) - _duck_residual(base, dirs, k, -eps)) / (2.0 * eps),
            1e-8,
        )
        for k in range(sfad.shape[0])
    )
    return divs, f"16 directions, eps={eps:g}, rtol 1e-8"


@register("sfad-vs-complex-step", "SFad directional derivatives match the complex-step derivative")
def _oracle_sfad_complex():
    base, dirs, sfad = _seeded_jacobian_setup()
    h = 1.0e-20  # no subtractive cancellation: h can sit below roundoff
    divs = collect(
        within(
            f"dResidual[dir {k}] (complex)", sfad[k],
            _duck_residual(base, dirs, k, 1j * h, dtype=np.complex128).imag / h, 1e-12,
        )
        for k in range(sfad.shape[0])
    )
    return divs, f"16 directions, h={h:g}, rtol 1e-12"


@register(
    "fused-assembly-vs-separate",
    "fused residual_and_jacobian equals separate residual/jacobian, bitwise",
)
def _oracle_fused_assembly():
    problem = antarctica().problem
    u = seeded_state(problem, np.random.default_rng(42))
    f_fused, A_fused = problem.residual_and_jacobian(u)
    f_sep = problem.residual(u)
    A_sep = problem.jacobian(u)
    divs = collect([
        first_divergence("residual (fused vs separate)", f_fused, f_sep),
        first_divergence("jacobian.data (fused vs separate)", A_fused.data, A_sep.data),
    ])
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


@register(
    "qp-seeded-vs-u-seeded",
    "the qp-seeded Jacobian sweep equals the U-seeded SFad(2 nn) chain and central differences",
)
def qp_seeded_divergences():
    """The production Jacobian sweep (``SFad(6)`` seeded at the qp, ``dUgrad/dU``
    applied on the GEMM operand) against :func:`_u_seeded_blocks` on the hex
    and the prism fixture, basal faces included: residual blocks bitwise,
    Jacobian blocks within 1e-13 of ``max|J|``.  The kernel-level derivative
    oracles feed dense ``dx`` and never see the seed, so the assembled
    ``J @ v`` is also held against central differences of ``F``."""
    divs, detail = [], []
    rng = np.random.default_rng(17)
    for elem, footprint in (("hex8", "quad"), ("wedge6", "voronoi")):
        problem = antarctica(footprint=footprint).problem
        u = seeded_state(problem, rng)
        for a, _, ws in problem._worksets(u, "jacobian"):
            ref_r, ref_j = _u_seeded_blocks(ws)
            atol = _SEED_RTOL * float(np.max(np.abs(ref_j)))
            divs += collect([
                first_divergence(f"{elem}/residual blocks @ cell {a}", ws.out_residual, ref_r),
                first_divergence(
                    f"{elem}/jacobian blocks @ cell {a}", ws.out_jacobian, ref_j, rtol=0.0, atol=atol
                ),
            ])
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
                divs.append(mismatch(f"J@v vs central FD (direction {k})", err, _FD_BOUND))
    return divs, (
        f"{', '.join(detail)}: residual bitwise, jacobian @ {_SEED_RTOL:g} max|J|; "
        f"J@v vs FD along 4 directions < {_FD_BOUND:g}"
    )


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


def basis_meshes():
    """``(label, ExtrudedMesh)``: the benchmark's Antarctica 200 km / 10, the
    golden Greenland grid (both hex8) and a Voronoi-dual prism mesh (wedge6)."""
    return [
        ("antarctica-200km-10", antarctica(200.0, 10).mesh),
        ("greenland", greenland_mesh()[0]),
        ("wedge6", antarctica(footprint="voronoi").mesh),
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
        for label, mesh in meshes or basis_meshes():
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
                    atol = _BASIS_RTOL * np.max(np.abs(want), axis=tuple(range(want.ndim - vector)))
                    divs += collect([first_divergence(
                        f"{label}/{kind}/{name}", getattr(got, name), want,
                        rtol=_BASIS_RTOL, atol=atol,
                    )])
            cells += mesh.num_elems
    return divs, cells


@register(
    "basis-vs-reference",
    "closed-form cofactor basis data equal the einsum + LAPACK formula; a flipped cofactor diverges",
)
def _oracle_basis():
    meshes = basis_meshes()
    divs, cells = basis_divergences(meshes=meshes)
    planted, _ = basis_divergences(flip=_PLANTED_COFACTOR, meshes=meshes)
    if not planted:
        divs.append(mismatch("planted flipped cofactor: divergences", 0.0, 1.0))
    return divs, (
        f"{len(meshes)} meshes, {cells} cells: 3-D, footprint and face basis @ rtol "
        f"{_BASIS_RTOL:g} per direction; flipped cofactor {_PLANTED_COFACTOR} caught by "
        f"{len(planted)} comparisons"
    )


@register(
    "sanitizer-clean-solve",
    "a full velocity solve creates no NaN/Inf under the armed sanitizer",
)
def _oracle_sanitizer_clean():
    from repro.verify.sanitizer import sanitizing

    problem = antarctica().problem
    with sanitizing(mode="record") as san:
        sol = problem.solve()
    nonfinite = san.counts["nonfinite"]
    detail = (
        f"solve converged to |F|={sol.newton.residual_norms[-1]:.3e}; "
        f"sanitizer events: {san.summary()['events']} "
        f"(nonfinite={nonfinite}, cancellation={san.counts['cancellation']}, "
        f"denormal={san.counts['denormal']})"
    )
    return ([mismatch("sanitizer.nonfinite", nonfinite, 0)] if nonfinite else []), detail
