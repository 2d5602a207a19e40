"""Tests for the FE substrate: elements, quadrature, basis data, assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import (
    Quad4,
    Tri3,
    Hex8,
    Wedge6,
    reference_element,
    gauss_legendre_1d,
    quadrature_rule,
    compute_basis_data,
    compute_face_basis_data,
    DofMap,
    CsrMatrix,
    assemble_matrix,
    assemble_vector,
    apply_dirichlet,
    AssemblyPlan,
)
from repro.fem.discretization import _reference_tables


class TestReferenceElements:
    @pytest.mark.parametrize("cls", [Quad4, Tri3, Hex8, Wedge6])
    def test_partition_of_unity(self, cls):
        rng = np.random.default_rng(0)
        if cls in (Tri3,):
            pts = rng.dirichlet([1, 1, 1], size=10)[:, :2]
        elif cls is Wedge6:
            tri = rng.dirichlet([1, 1, 1], size=10)[:, :2]
            pts = np.concatenate([tri, rng.uniform(-1, 1, (10, 1))], axis=1)
        else:
            pts = rng.uniform(-1, 1, (10, cls.dim))
        N = cls.shape(pts)
        assert np.allclose(N.sum(axis=1), 1.0)
        G = cls.grad(pts)
        assert np.allclose(G.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("cls", [Quad4, Tri3, Hex8, Wedge6])
    def test_kronecker_at_nodes(self, cls):
        N = cls.shape(cls.nodes)
        assert np.allclose(N, np.eye(cls.num_nodes), atol=1e-12)

    @pytest.mark.parametrize("cls", [Quad4, Tri3, Hex8, Wedge6])
    def test_gradient_matches_fd(self, cls):
        rng = np.random.default_rng(1)
        p = rng.uniform(-0.4, 0.4, (1, cls.dim)) + (0.3 if cls in (Tri3, Wedge6) else 0.0)
        G = cls.grad(p)[0]
        eps = 1e-6
        for d in range(cls.dim):
            pp, pm = p.copy(), p.copy()
            pp[0, d] += eps
            pm[0, d] -= eps
            fd = (cls.shape(pp)[0] - cls.shape(pm)[0]) / (2 * eps)
            assert np.allclose(G[:, d], fd, atol=1e-8)

    def test_registry(self):
        assert reference_element("hex8") is Hex8
        with pytest.raises(ValueError):
            reference_element("tet4")


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gauss_1d_exactness(self, n):
        pts, wts = gauss_legendre_1d(n)
        for deg in range(2 * n):
            exact = (1 - (-1) ** (deg + 1)) / (deg + 1)
            assert np.isclose(np.sum(wts * pts**deg), exact, atol=1e-12)

    def test_hex_rule_has_8_points(self):
        pts, wts = quadrature_rule("hex8", 2)
        assert len(pts) == 8
        assert np.isclose(wts.sum(), 8.0)  # volume of [-1,1]^3

    def test_quad_rule_weight_sum(self):
        _, wts = quadrature_rule("quad4", 2)
        assert np.isclose(wts.sum(), 4.0)

    def test_triangle_rule_area(self):
        for deg in (1, 2, 3):
            pts, wts = quadrature_rule("tri3", deg)
            assert np.isclose(wts.sum(), 0.5)

    def test_triangle_rule_quadratic_exact(self):
        pts, wts = quadrature_rule("tri3", 2)
        # integral of x^2 over unit triangle = 1/12
        assert np.isclose(np.sum(wts * pts[:, 0] ** 2), 1.0 / 12.0)

    def test_wedge_rule_volume(self):
        _, wts = quadrature_rule("wedge6", 2)
        assert np.isclose(wts.sum(), 1.0)  # 0.5 (tri) * 2 (line)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            quadrature_rule("pyr5")
        with pytest.raises(ValueError):
            gauss_legendre_1d(0)


def _unit_cube_mesh(n=2):
    """n^3 hex mesh of the unit cube."""
    xs = np.linspace(0, 1, n + 1)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def nid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    elems = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                elems.append(
                    [
                        nid(i, j, k),
                        nid(i + 1, j, k),
                        nid(i + 1, j + 1, k),
                        nid(i, j + 1, k),
                        nid(i, j, k + 1),
                        nid(i + 1, j, k + 1),
                        nid(i + 1, j + 1, k + 1),
                        nid(i, j + 1, k + 1),
                    ]
                )
    return coords, np.array(elems, dtype=np.int64)


class TestBasisData:
    def test_cube_volume(self):
        coords, elems = _unit_cube_mesh(2)
        bd = compute_basis_data(coords, elems, "hex8")
        assert np.isclose(bd.cell_volumes().sum(), 1.0)
        assert bd.num_qps == 8
        assert bd.num_nodes == 8

    def test_wbf_integrates_basis(self):
        # sum_n wBF(c,n,q) over n,q = volume
        coords, elems = _unit_cube_mesh(1)
        bd = compute_basis_data(coords, elems, "hex8")
        assert np.isclose(bd.w_bf.sum(), 1.0)

    def test_gradient_reproduces_linear_field(self):
        coords, elems = _unit_cube_mesh(2)
        bd = compute_basis_data(coords, elems, "hex8")
        f = 2.0 * coords[:, 0] - 3.0 * coords[:, 1] + 0.5 * coords[:, 2]
        fe = f[elems]  # (nc, nn)
        grad = np.einsum("cn,cnqd->cqd", fe, bd.grad_bf)
        assert np.allclose(grad[..., 0], 2.0)
        assert np.allclose(grad[..., 1], -3.0)
        assert np.allclose(grad[..., 2], 0.5)

    def test_stretched_mesh_volume(self):
        coords, elems = _unit_cube_mesh(2)
        stretched = coords * np.array([2.0, 3.0, 0.5])
        bd = compute_basis_data(stretched, elems, "hex8")
        assert np.isclose(bd.cell_volumes().sum(), 3.0)

    def test_tangled_mesh_rejected(self):
        coords, elems = _unit_cube_mesh(1)
        bad = coords.copy()
        bad[elems[0, 0]] = bad[elems[0, 6]] + 1.0  # fold the element
        with pytest.raises(ValueError):
            compute_basis_data(bad, elems, "hex8")

    @pytest.mark.parametrize("poison", ["fold", np.nan, np.inf])
    def test_bad_element_is_named(self, poison):
        """The (1, 1, 1) corner belongs to the last of the eight cubes only.
        A NaN or infinite coordinate is not a positive finite determinant:
        it raises too, instead of leaving NaN gradients behind."""
        coords, elems = _unit_cube_mesh(2)
        corner = elems[7, 6]
        bad = coords.copy()
        bad[corner] = coords[elems[7, 0]] - 0.5 if poison == "fold" else poison
        with pytest.raises(ValueError, match="element 7:"):
            compute_basis_data(bad, elems, "hex8")

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_face_rejected(self, poison):
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, poison]], dtype=float)
        with pytest.raises(ValueError, match="face 0"):
            compute_face_basis_data(coords, np.array([[0, 1, 2]]), "tri3")

    def test_face_basis_area(self):
        # unit square face floating in 3D, at an angle
        coords = np.array(
            [[0, 0, 0], [1, 0, 0.5], [1, 1, 0.5], [0, 1, 0.0]], dtype=float
        )
        faces = np.array([[0, 1, 2, 3]])
        bd = compute_face_basis_data(coords, faces, "quad4")
        exact = np.sqrt(1 + 0.25)  # stretched in x-z
        assert np.isclose(bd.cell_volumes().sum(), exact, rtol=1e-6)

    def test_tilted_triangle_face_area(self):
        # half |t_s x t_t| with t_s = (1, 0, 0.5), t_t = (0, 1, 0.25)
        coords = np.array([[0, 0, 0], [1, 0, 0.5], [0, 1, 0.25]], dtype=float)
        bd = compute_face_basis_data(coords, np.array([[0, 1, 2]]), "tri3")
        exact = 0.5 * np.sqrt(0.5**2 + 0.25**2 + 1.0)
        assert np.isclose(bd.cell_volumes().sum(), exact, rtol=1e-14)
        assert np.allclose(bd.qp_coords.mean(axis=1), coords.mean(axis=0), rtol=1e-14)

    @pytest.mark.parametrize("face", [False, True])
    def test_every_array_is_read_only(self, face):
        """Worksets slice these without copying: the arrays of a call and
        the per-(elem_type, order) tables they come from are all frozen."""
        coords, elems = _unit_cube_mesh(1)
        if face:
            bd = compute_face_basis_data(coords, elems[:, :4], "quad4")
        else:
            bd = compute_basis_data(coords, elems, "hex8")
        arrays = [a for a in vars(bd).values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 7
        arrays += list(_reference_tables("quad4" if face else "hex8", 2))
        arrays += list(quadrature_rule("hex8", 2))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_reference_tables_are_built_once(self):
        assert _reference_tables("wedge6", 2) is _reference_tables("wedge6", 2)
        assert quadrature_rule("tri3", 2) is quadrature_rule("tri3", 2)

    def test_qp_coords_inside_bounds(self):
        coords, elems = _unit_cube_mesh(2)
        bd = compute_basis_data(coords, elems, "hex8")
        assert bd.qp_coords.min() >= 0.0
        assert bd.qp_coords.max() <= 1.0


def _lapack_basis(coords, elems, elem_type, order=2):
    """The einsum + ``np.linalg`` formula the closed-form cofactors replaced."""
    ref = reference_element(elem_type)
    qp, w = quadrature_rule(elem_type, order)
    bf, gref, x = ref.shape(qp), ref.grad(qp), coords[elems]
    jac = np.einsum("qnr,cnd->cqdr", gref, x)
    det_j = np.linalg.det(jac)
    grad_bf = np.einsum("qnr,cqrd->cnqd", gref, np.linalg.inv(jac))
    wdet = det_j * w
    return {
        "det_j": det_j,
        "grad_bf": grad_bf,
        "w_bf": bf.T[None] * wdet[:, None, :],
        "w_grad_bf": grad_bf * wdet[:, None, :, None],
        "qp_coords": np.einsum("qn,cnd->cqd", bf, x),
    }


def _jittered_elements(elem_type, seed, num_cells=5):
    """Independent elements: the reference nodes moved by up to 0.15, then
    mapped by ``diag(s) (I + 0.3 N)`` (scales 1e-1 to 1e3, orientation
    kept) and shifted by up to two element sizes."""
    ref = reference_element(elem_type)
    rng = np.random.default_rng(seed)
    d, nn = ref.dim, ref.num_nodes
    xi = ref.nodes + rng.uniform(-0.15, 0.15, (num_cells, nn, d))
    a = np.eye(d) + 0.3 * rng.normal(size=(num_cells, d, d))
    a[np.linalg.det(a) < 0.0, 0] *= -1.0
    a *= 10.0 ** rng.uniform(-1.0, 3.0, (num_cells, d, 1))
    shift = rng.uniform(-2.0, 2.0, (num_cells, 1, d)) * np.abs(a).sum(axis=2)[:, None, :]
    x = np.einsum("cde,cne->cnd", a, xi) + shift
    return x.reshape(-1, d), np.arange(num_cells * nn).reshape(num_cells, nn)


class TestClosedFormBasis:
    """The GEMM + cofactor basis against the LAPACK formula it replaced,
    and the identities any basis must satisfy."""

    @given(st.sampled_from(["hex8", "wedge6", "quad4", "tri3"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_matches_the_lapack_formula(self, elem_type, seed):
        coords, elems = _jittered_elements(elem_type, seed)
        bd = compute_basis_data(coords, elems, elem_type)
        for name, want in _lapack_basis(coords, elems, elem_type).items():
            # every cell, and every physical direction, has its own scale
            vector = name in ("grad_bf", "w_grad_bf", "qp_coords")
            axes = tuple(range(1, want.ndim - vector))
            scale = np.max(np.abs(want), axis=axes, keepdims=True)
            assert np.allclose(getattr(bd, name), want, rtol=1e-12, atol=1e-12 * scale), name

    @pytest.mark.parametrize("elem_type", ["hex8", "wedge6", "quad4", "tri3"])
    def test_gradients_sum_to_zero_and_reproduce_linear_fields(self, elem_type):
        coords, elems = _jittered_elements(elem_type, seed=5)
        bd = compute_basis_data(coords, elems, elem_type)
        scale = np.max(np.abs(bd.grad_bf), axis=(1, 2, 3))[:, None, None]
        assert np.all(np.abs(bd.grad_bf.sum(axis=1)) <= 1e-13 * scale)
        slope = np.arange(1.0, bd.dim + 1.0)
        field = (coords @ slope)[elems]
        grad = np.einsum("cn,cnqd->cqd", field, bd.grad_bf)
        assert np.allclose(grad, slope, rtol=1e-10)

    @pytest.mark.parametrize("elem_type", ["hex8", "wedge6", "quad4", "tri3"])
    def test_volumes_are_those_of_the_mapped_reference(self, elem_type):
        """Undistorted affine images: the volume is |det A| times the
        reference volume."""
        ref = reference_element(elem_type)
        a = np.diag(np.arange(2.0, 2.0 + ref.dim)) + 0.1
        coords = ref.nodes @ a.T + 7.0
        bd = compute_basis_data(coords, np.arange(ref.num_nodes)[None], elem_type)
        ref_volume = quadrature_rule(elem_type, 2)[1].sum()
        assert np.isclose(bd.cell_volumes()[0], np.linalg.det(a) * ref_volume, rtol=1e-14)

    def test_coordinates_of_the_wrong_dimension_are_refused(self):
        coords, elems = _unit_cube_mesh(1)
        with pytest.raises(ValueError, match="2-D coordinates"):
            compute_basis_data(coords, elems[:, :4], "quad4")


class TestDofMap:
    def test_numbering(self):
        elems = np.array([[0, 1, 2], [1, 2, 3]])
        dm = DofMap(4, 2, elems)
        assert dm.num_dofs == 8
        assert dm.dof(3, 1) == 7
        assert dm.node_of(7) == 3
        assert dm.comp_of(7) == 1

    def test_elem_dofs_interleaved(self):
        dm = DofMap(4, 2, np.array([[0, 2]]))
        assert np.array_equal(dm.elem_dofs()[0], [0, 1, 4, 5])

    def test_gather(self):
        dm = DofMap(3, 2, np.array([[0, 2]]))
        sol = np.arange(6.0)
        assert np.array_equal(dm.gather(sol)[0], [0.0, 1.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            dm.gather(np.zeros(5))

    def test_nodal_view(self):
        dm = DofMap(3, 2, np.array([[0, 1]]))
        v = dm.nodal_view(np.arange(6.0))
        assert v.shape == (3, 2)
        assert v[2, 1] == 5.0


class TestCsr:
    def test_from_coo_sums_duplicates(self):
        m = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        dense = m.toarray()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 4.0
        assert m.nnz == 2

    def test_matvec_matches_scipy(self):
        rng = np.random.default_rng(0)
        import scipy.sparse as sp

        A = sp.random(40, 30, density=0.1, random_state=0, format="csr")
        m = CsrMatrix(A.shape, A.indptr, A.indices, A.data)
        x = rng.normal(size=30)
        assert np.allclose(m.matvec(x), A @ x)

    def test_matvec_empty_rows(self):
        m = CsrMatrix.from_coo([2], [0], [1.5], (4, 3))
        y = m.matvec(np.array([2.0, 0.0, 0.0]))
        assert np.allclose(y, [0, 0, 3.0, 0])

    def test_diagonal(self):
        m = CsrMatrix.from_coo([0, 1, 1], [0, 1, 0], [5.0, 7.0, 1.0], (2, 2))
        assert np.array_equal(m.diagonal(), [5.0, 7.0])

    def test_int32_structure_is_priced_at_four_bytes_per_index(self):
        """One SpMV streams 8 B of value and 4 B of column index per
        nonzero, a 4 B row pointer per row + 1, and ``x`` and ``y``."""
        m = CsrMatrix.from_coo([0, 0, 1, 2, 2], [0, 2, 1, 0, 2], np.arange(1.0, 6.0), (3, 3))
        n, nnz = 3, 5
        m32 = CsrMatrix(m.shape, m.indptr.astype(np.int32), m.indices.astype(np.int32), m.data)
        assert m32.indices.dtype == m32.indptr.dtype == np.int32
        assert m32.bytes_per_matvec == 12 * nnz + 4 * (n + 1) + 16 * n
        assert m.bytes_per_matvec == 16 * nnz + 8 * (n + 1) + 16 * n
        assert m32.flops_per_matvec == m.flops_per_matvec == 2 * nnz
        assert m32.operator_mode == "assembled"

    def test_isfinite_catches_one_planted_nan(self):
        m = CsrMatrix.from_coo([0, 1, 1], [0, 1, 0], [5.0, 7.0, 1.0], (2, 2))
        assert m.isfinite()
        m.data[2] = np.nan
        assert not m.isfinite()

    def test_identity(self):
        m = CsrMatrix.identity(5)
        x = np.arange(5.0)
        assert np.array_equal(m.matvec(x), x)

    def test_validation(self):
        with pytest.raises(ValueError):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])  # indptr too short
        with pytest.raises(ValueError):
            CsrMatrix((2, 2), [0, 1, 1], [5], [1.0])  # col out of range

    @given(st.integers(2, 20), st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_coo_roundtrip_property(self, n, nnz):
        rng = np.random.default_rng(nnz * 131 + n)
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.normal(size=nnz)
        m = CsrMatrix.from_coo(rows, cols, vals, (n, n))
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        assert np.allclose(m.toarray(), dense)


class TestAssembly:
    def test_assemble_vector_matches_loop(self):
        elems = np.array([[0, 1], [1, 2]])
        dm = DofMap(3, 1, elems)
        local = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = assemble_vector(dm, local)
        assert np.allclose(out, [1.0, 5.0, 4.0])

    def test_assemble_matrix_1d_laplace(self):
        # three-node 1D chain with k_e = [[1,-1],[-1,1]]
        elems = np.array([[0, 1], [1, 2]])
        dm = DofMap(3, 1, elems)
        ke = np.array([[1.0, -1.0], [-1.0, 1.0]])
        A = assemble_matrix(dm, np.stack([ke, ke]))
        expect = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.allclose(A.toarray(), expect)

    def test_shape_validation(self):
        dm = DofMap(3, 1, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            assemble_matrix(dm, np.zeros((1, 3, 3)))
        with pytest.raises(ValueError):
            assemble_vector(dm, np.zeros((2, 2)))

    def test_apply_dirichlet(self):
        elems = np.array([[0, 1], [1, 2]])
        dm = DofMap(3, 1, elems)
        ke = np.array([[1.0, -1.0], [-1.0, 1.0]])
        A = assemble_matrix(dm, np.stack([ke, ke]))
        b = np.array([0.0, 1.0, 0.0])
        A2, b2 = apply_dirichlet(A, b, np.array([0]), 5.0)
        dense = A2.toarray()
        assert np.allclose(dense[0], [1, 0, 0])
        assert b2[0] == 5.0
        # interior rows untouched
        assert np.allclose(dense[1], [-1, 2, -1])

    def test_apply_dirichlet_out_of_range(self):
        dm = DofMap(2, 1, np.array([[0, 1]]))
        A = assemble_matrix(dm, np.ones((1, 2, 2)))
        with pytest.raises(ValueError):
            apply_dirichlet(A, np.zeros(2), np.array([9]))

    def test_plan_matrix_matches_one_shot(self):
        """Plan fills reproduce from_coo assembly entry for entry."""
        rng = np.random.default_rng(0)
        elems = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        dm = DofMap(5, 2, elems)
        plan = AssemblyPlan(dm)
        k = dm.dofs_per_elem
        for trial in range(3):  # repeated numeric fills, same structure
            local = rng.normal(size=(3, k, k))
            A_plan = plan.assemble_matrix(local)
            A_ref = assemble_matrix(dm, local)
            assert np.allclose(A_plan.toarray(), A_ref.toarray(), atol=1e-14)
            assert np.array_equal(A_plan.indptr, A_ref.indptr)
            assert np.array_equal(A_plan.indices, A_ref.indices)
        assert plan.num_matrix_fills == 3

    def test_plan_vector_matches_one_shot(self):
        rng = np.random.default_rng(1)
        elems = np.array([[0, 1], [1, 2], [2, 3]])
        dm = DofMap(4, 1, elems)
        plan = AssemblyPlan(dm)
        local = rng.normal(size=(3, 2))
        assert np.allclose(plan.assemble_vector(local), assemble_vector(dm, local))

    def test_plan_dirichlet_matches_apply_dirichlet(self):
        """The fused BC masks equal the legacy row-replacement pass."""
        rng = np.random.default_rng(2)
        elems = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 0]])
        dm = DofMap(6, 2, elems)
        bc = np.array([0, 1, 7])
        plan = AssemblyPlan(dm, bc_dofs=bc)
        local = rng.normal(size=(3, 6, 6))
        A_plan = plan.assemble_matrix(local, diag_scale=3.5)
        A_ref, _ = apply_dirichlet(
            assemble_matrix(dm, local), np.zeros(12), bc, diag_scale=3.5
        )
        assert np.allclose(A_plan.toarray(), A_ref.toarray(), atol=1e-14)

    def test_plan_validation(self):
        dm = DofMap(3, 1, np.array([[0, 1], [1, 2]]))
        plan = AssemblyPlan(dm, bc_dofs=np.array([0]))
        with pytest.raises(ValueError):
            plan.assemble_matrix(np.zeros((1, 2, 2)))  # wrong cell count
        with pytest.raises(ValueError):
            plan.assemble_vector(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            plan.assemble_matrix(np.zeros((2, 2, 2)), diag_scale=-1.0)
        with pytest.raises(ValueError):
            AssemblyPlan(dm, bc_dofs=np.array([99]))
        no_bc = AssemblyPlan(dm)
        with pytest.raises(ValueError):
            no_bc.assemble_matrix(np.zeros((2, 2, 2)), diag_scale=1.0)

    def test_dirichlet_solution_exact(self):
        """Solve 1D Laplace with Dirichlet ends; expect linear profile."""
        n = 10
        elems = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
        dm = DofMap(n + 1, 1, elems)
        h = 1.0 / n
        ke = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        A = assemble_matrix(dm, np.tile(ke, (n, 1, 1)))
        b = np.zeros(n + 1)
        A2, b2 = apply_dirichlet(A, b, np.array([0, n]), np.array([0.0, 1.0]))
        x = np.linalg.solve(A2.toarray(), b2)
        assert np.allclose(x, np.linspace(0, 1, n + 1), atol=1e-10)
