"""Property tests for FE assembly: AssemblyPlan vs direct assembly.

Hypothesis generates random small meshes (arbitrary connectivity,
including degenerate elements that repeat a node) and checks that the
cached symbolic plan, the one-shot COO path, and a dense scipy
reference all agree -- and that repeated numeric fills on one plan are
bitwise-stable.

``TestNodeLevelSymbolicPhase`` holds the plan's five symbolic arrays to
the dof-level lexsort it replaced.  That reference lives here, not in
``src/``: the plan sorts ``nc * nn^2`` node pairs and expands slots by
arithmetic, and must produce what sorting all ``nc * k^2`` dof pairs did.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.assembly import (
    AssemblyPlan,
    apply_dirichlet,
    assemble_matrix,
    assemble_vector,
    build_sparsity,
)
from repro.fem.dofmap import DofMap


@st.composite
def dofmaps(draw):
    """Random small dof maps: nodes, vector dofs, arbitrary connectivity."""
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    ndof = draw(st.integers(min_value=1, max_value=3))
    nc = draw(st.integers(min_value=1, max_value=6))
    nn = draw(st.integers(min_value=1, max_value=4))
    elems = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=num_nodes - 1), min_size=nn, max_size=nn),
            min_size=nc,
            max_size=nc,
        )
    )
    return DofMap(num_nodes=num_nodes, ndof_per_node=ndof, elems=np.array(elems))


@st.composite
def dofmaps_with_bcs(draw):
    """A random dof map plus a (possibly empty) sorted set of Dirichlet dofs."""
    dofmap = draw(dofmaps())
    bc = draw(st.sets(st.integers(min_value=0, max_value=dofmap.num_dofs - 1)))
    return dofmap, np.array(sorted(bc), dtype=np.int64)


def _lexsort_reference(dofmap, bc_dofs):
    """The dof-level symbolic phase as ``AssemblyPlan`` built it through
    PR 20: lexsort every ``(row, col)`` dof pair, dedup, rank."""
    ed = dofmap.elem_dofs()
    k, n = ed.shape[1], dofmap.num_dofs
    rows = np.repeat(ed, k, axis=1).ravel()
    cols = np.tile(ed, (1, k)).ravel()
    order = np.lexsort((cols, rows))
    rs, cs = rows[order], cols[order]
    new = np.ones(len(rs), dtype=bool)
    new[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    scatter = np.empty(len(rows), dtype=np.int64)
    scatter[order] = np.cumsum(new) - 1
    indices = cs[new]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rs[new] + 1, 1)
    np.cumsum(indptr, out=indptr)
    is_bc = np.zeros(n, dtype=bool)
    is_bc[bc_dofs] = True
    row_of_slot = np.repeat(np.arange(n), np.diff(indptr))
    bc_clear = is_bc[row_of_slot]
    return {
        "indptr": indptr,
        "indices": indices,
        "scatter": scatter,
        "bc_clear": bc_clear,
        "bc_diag": bc_clear & (indices == row_of_slot),
    }


#: where the plan's documented dtype is not the reference's: the CSR
#: structure is int32 below ``nnz = 2**31`` (every mesh here), so scipy's
#: SpMV handle shares it; ``scatter`` stays int64, ``np.bincount``'s index
_PLAN_DTYPES = {"indptr": np.int32, "indices": np.int32}


def _assert_plan_equals_reference(dofmap, bc_dofs):
    plan = AssemblyPlan(dofmap, bc_dofs)
    for name, expected in _lexsort_reference(dofmap, bc_dofs).items():
        got = getattr(plan, name)
        assert got.dtype == _PLAN_DTYPES.get(name, expected.dtype), name
        np.testing.assert_array_equal(got, expected, err_msg=name)
    assert plan.nnz == len(plan.indices)


def _local_blocks(dofmap, seed):
    rng = np.random.default_rng(seed)
    nc, k = dofmap.elem_dofs().shape
    jac = rng.normal(size=(nc, k, k)) * 10.0 ** rng.uniform(-3, 3, size=(nc, 1, 1))
    res = rng.normal(size=(nc, k))
    return jac, res


def _dense_reference(dofmap, local_jac):
    """Direct triple-loop scatter into a dense matrix."""
    n = dofmap.num_dofs
    ed = dofmap.elem_dofs()
    dense = np.zeros((n, n))
    for c in range(len(ed)):
        for i, gi in enumerate(ed[c]):
            for j, gj in enumerate(ed[c]):
                dense[gi, gj] += local_jac[c, i, j]
    return dense


class TestPlanEqualsDirect:
    @given(dofmaps(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_one_shot_and_dense(self, dofmap, seed):
        jac, _ = _local_blocks(dofmap, seed)
        plan = AssemblyPlan(dofmap)
        from_plan = plan.assemble_matrix(jac)
        one_shot = assemble_matrix(dofmap, jac)
        dense = _dense_reference(dofmap, jac)
        # identical CSR structure; the two paths sum duplicates in
        # different orders, so data agrees to rounding, not bitwise
        # (bitwise stability is a per-path property -- TestPlanCacheReuse)
        np.testing.assert_array_equal(from_plan.indptr, one_shot.indptr)
        np.testing.assert_array_equal(from_plan.indices, one_shot.indices)
        np.testing.assert_allclose(from_plan.data, one_shot.data, rtol=1e-12, atol=1e-300)
        # the dense loop sums in a different order: tolerance, not bitwise
        np.testing.assert_allclose(from_plan.toarray(), dense, rtol=1e-12, atol=1e-300)

    @given(dofmaps(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_one_shot(self, dofmap, seed):
        _, res = _local_blocks(dofmap, seed)
        plan = AssemblyPlan(dofmap)
        np.testing.assert_array_equal(plan.assemble_vector(res), assemble_vector(dofmap, res))

    @given(dofmaps())
    @settings(max_examples=40, deadline=None)
    def test_sparsity_pattern_consistent(self, dofmap):
        rows, cols = build_sparsity(dofmap)
        plan = AssemblyPlan(dofmap)
        assert plan.nnz == len(set(zip(rows.tolist(), cols.tolist())))
        assert plan.indptr[-1] == plan.nnz
        # every row's column indices are sorted (CSR canonical form)
        for r in range(dofmap.num_dofs):
            seg = plan.indices[plan.indptr[r] : plan.indptr[r + 1]]
            assert np.all(np.diff(seg) > 0)


class TestNodeLevelSymbolicPhase:
    @given(dofmaps_with_bcs())
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_connectivity_matches_lexsort(self, case):
        """ndof 1..3, any connectivity, repeated nodes inside an element."""
        _assert_plan_equals_reference(*case)

    @pytest.mark.parametrize(
        "km,layers,footprint",
        [(200.0, 10, "quad"), (600.0, 3, "quad"), (320.0, 5, "voronoi")],
        ids=["hex8-200km-10", "hex8-600km-3", "wedge6-voronoi"],
    )
    def test_extruded_meshes_match_lexsort(self, km, layers, footprint):
        from repro.app import AntarcticaConfig, AntarcticaTest

        cfg = AntarcticaConfig(resolution_km=km, num_layers=layers, footprint=footprint)
        problem = AntarcticaTest.build(cfg).problem
        _assert_plan_equals_reference(problem.dofmap, problem.bc_dofs)

    @pytest.mark.parametrize("ndof", [1, 2, 3])
    def test_planar_quad_mesh_matches_lexsort(self, ndof):
        """A non-extruded mesh: no vertical stencil for the plan to lean on."""
        from repro.mesh.planar import quad_footprint

        fp = quad_footprint(7, 5, 7.0, 5.0)
        dofmap = DofMap(num_nodes=len(fp.coords), ndof_per_node=ndof, elems=fp.elems)
        _assert_plan_equals_reference(dofmap, fp.boundary_nodes * ndof)

    def test_sorts_node_pairs_once_and_never_lexsorts(self, monkeypatch):
        """The regression guard in deterministic units: one sort of
        ``nc * nn^2`` keys (4x fewer than the dof pairs at ``nd = 2``)."""
        dofmap = DofMap(
            num_nodes=30, ndof_per_node=2,
            elems=np.random.default_rng(0).integers(0, 30, size=(11, 4)),
        )
        sorted_sizes = []
        argsort, sort = np.argsort, np.sort

        def counting(fn):
            def wrapper(a, *args, **kwargs):
                sorted_sizes.append(np.size(a))
                return fn(a, *args, **kwargs)

            return wrapper

        def no_lexsort(*_a, **_k):
            raise AssertionError("AssemblyPlan.__init__ called np.lexsort")

        monkeypatch.setattr(np, "argsort", counting(argsort))
        monkeypatch.setattr(np, "sort", counting(sort))
        monkeypatch.setattr(np, "unique", counting(np.unique))
        monkeypatch.setattr(np, "lexsort", no_lexsort)
        AssemblyPlan(dofmap, np.array([0, 1]))
        assert sorted_sizes == [11 * 4 * 4]


class TestPlanCacheReuse:
    @given(dofmaps(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_refill_is_bitwise_stable(self, dofmap, seed):
        """Same coefficients through a cached plan -> identical bits."""
        jac, res = _local_blocks(dofmap, seed)
        plan = AssemblyPlan(dofmap)
        a = plan.assemble_matrix(jac)
        b = plan.assemble_matrix(jac.copy())
        np.testing.assert_array_equal(a.data, b.data)
        assert a.indptr is plan.indptr and b.indptr is plan.indptr
        assert a.indices is plan.indices and b.indices is plan.indices
        assert plan.num_matrix_fills == 2
        np.testing.assert_array_equal(plan.assemble_vector(res), plan.assemble_vector(res.copy()))

    @given(dofmaps(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_refill_matches_fresh_plan(self, dofmap, seed):
        """Numeric fills with new coefficients never depend on fill history."""
        jac1, _ = _local_blocks(dofmap, seed)
        jac2 = jac1 * 1.7 + 0.3
        plan = AssemblyPlan(dofmap)
        plan.assemble_matrix(jac1)  # warm the plan with different numbers
        reused = plan.assemble_matrix(jac2)
        fresh = AssemblyPlan(dofmap).assemble_matrix(jac2)
        np.testing.assert_array_equal(reused.data, fresh.data)
        np.testing.assert_array_equal(reused.indices, fresh.indices)


class TestDirichletPath:
    @given(dofmaps(), st.integers(min_value=0, max_value=2**31), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fused_bc_matches_apply_dirichlet(self, dofmap, seed, data):
        jac, res = _local_blocks(dofmap, seed)
        nbc = data.draw(st.integers(min_value=0, max_value=dofmap.num_dofs))
        bc_dofs = np.array(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=dofmap.num_dofs - 1),
                        min_size=nbc,
                        max_size=nbc,
                    )
                )
            ),
            dtype=np.int64,
        )
        plan = AssemblyPlan(dofmap, bc_dofs=bc_dofs)
        fused = plan.assemble_matrix(jac, diag_scale=2.5)
        unfused = plan.assemble_matrix(jac)
        rhs = plan.assemble_vector(res)
        via_apply, _ = apply_dirichlet(unfused, rhs, bc_dofs, diag_scale=2.5)
        np.testing.assert_array_equal(fused.toarray(), via_apply.toarray())


class TestPlanValidation:
    def _map(self):
        return DofMap(num_nodes=4, ndof_per_node=2, elems=np.array([[0, 1], [2, 3]]))

    def test_shape_mismatch_rejected(self):
        plan = AssemblyPlan(self._map())
        with pytest.raises(ValueError):
            plan.assemble_matrix(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            plan.assemble_vector(np.zeros((3, 4)))

    def test_diag_scale_without_bcs_rejected(self):
        plan = AssemblyPlan(self._map())
        with pytest.raises(ValueError, match="without Dirichlet"):
            plan.assemble_matrix(np.zeros((2, 4, 4)), diag_scale=1.0)

    def test_nonpositive_diag_scale_rejected(self):
        plan = AssemblyPlan(self._map(), bc_dofs=np.array([0]))
        with pytest.raises(ValueError, match="positive"):
            plan.assemble_matrix(np.zeros((2, 4, 4)), diag_scale=0.0)

    def test_bc_dof_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            AssemblyPlan(self._map(), bc_dofs=np.array([99]))
