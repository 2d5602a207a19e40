"""Tests for the verification subsystem (race checker, oracles, sanitizer)."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.sfad import SFad
from repro.verify.compare import first_divergence, max_abs_error
from repro.verify.fixtures import (
    PerturbedStokesFOResid,
    RacyNodalScatter,
    make_racy_fields,
    stokes_fields_factory,
)
from repro.verify.race import (
    RaceChecker,
    ShadowFields,
    check_order_independence,
    find_races,
    iteration_orders,
    record_access_sets,
)
from repro.verify.sanitizer import SanitizerError, sanitizer, sanitizing


class TestCompare:
    def test_equal_arrays_no_divergence(self):
        a = np.arange(12.0).reshape(3, 4)
        assert first_divergence("x", a, a.copy()) is None

    def test_bitwise_catches_ulp(self):
        a = np.ones(4)
        b = a.copy()
        b[2] = np.nextafter(1.0, 2.0)
        d = first_divergence("x", a, b)
        assert d is not None
        assert d.index == (2,)
        assert d.num_bad == 1

    def test_nan_never_agrees(self):
        a = np.array([1.0, np.nan])
        assert first_divergence("x", a, a.copy()) is not None

    def test_tolerance_mode(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0 + 1e-14, 2.0])
        assert first_divergence("x", a, b, rtol=1e-12) is None
        assert first_divergence("x", a, b, rtol=1e-16) is not None

    def test_first_index_is_c_order(self):
        a = np.zeros((2, 3))
        b = a.copy()
        b[0, 2] = 1.0
        b[1, 0] = 1.0
        d = first_divergence("x", a, b)
        assert d.index == (0, 2)
        assert d.num_bad == 2

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            first_divergence("x", np.zeros(3), np.zeros(4))

    def test_max_abs_error(self):
        assert max_abs_error([1.0, 2.0], [1.0, 2.5]) == 0.5
        assert max_abs_error([], []) == 0.0

    def test_describe_mentions_slot(self):
        d = first_divergence("Residual", np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert "Residual[1]" in d.describe()


class TestRaceChecker:
    def test_racy_fixture_write_sets_flagged(self):
        fields = make_racy_fields()
        rec = record_access_sets(RacyNodalScatter, fields, fields.num_cells)
        findings = find_races(rec)
        assert findings, "shared-nodal scatter must produce race findings"
        assert any(f.kind == "write-write" for f in findings)
        assert all(f.view == "nodal" for f in findings)

    def test_racy_fixture_order_divergence(self):
        divs, orders = check_order_independence(
            RacyNodalScatter, lambda: make_racy_fields(), extent=12
        )
        assert "permuted" in orders and "reversed" in orders
        assert divs, "reassociated shared-node sums must diverge bitwise"

    def test_racy_report_end_to_end(self):
        report = RaceChecker(
            "racy", RacyNodalScatter, lambda: make_racy_fields()
        ).check()
        assert not report.passed
        assert "race" in report.describe()

    @pytest.mark.parametrize("mode", ["residual", "jacobian"])
    def test_production_kernels_clean(self, mode):
        from repro.core.variants import get_variant

        v = get_variant(f"optimized-{mode}")
        report = RaceChecker(
            v.key, v.make_functor, stokes_fields_factory(num_cells=4, mode=mode, seed=3)
        ).check()
        assert report.passed, report.describe()
        assert report.orders_checked == ("identity", "reversed", "strided", "permuted")

    def test_iteration_orders_are_permutations(self):
        orders = iteration_orders(17, seed=5)
        for name, order in orders.items():
            assert sorted(order) == list(range(17)), name
        assert not np.array_equal(orders["permuted"], orders["identity"])

    def test_shadow_fields_forwards_non_views(self):
        fields = make_racy_fields()
        rec = record_access_sets(RacyNodalScatter, fields, 2)
        # conn is a plain ndarray: forwarded, not recorded
        assert all(view == "nodal" or view == "cellval" for (view, _), _ in rec.writes.items())

    def test_shadow_rejects_non_integer_index(self):
        from repro.verify.race import AccessRecorder

        fields = make_racy_fields()
        shadow = ShadowFields(fields, AccessRecorder())
        with pytest.raises(TypeError):
            shadow.nodal[0:2]

    def test_perturbed_kernel_is_order_independent_but_wrong(self):
        """The perturbed fixture shows why oracles and race checks differ."""
        from repro.core.jacobian import run_kernel

        factory = stokes_fields_factory(num_cells=4, seed=9)
        report = RaceChecker("perturbed", PerturbedStokesFOResid, factory).check()
        assert report.passed  # deterministic...
        ref, alt = factory(), factory()
        run_kernel("baseline-residual", ref)
        functor = PerturbedStokesFOResid(alt)
        for c in range(alt.num_cells):
            functor(c)
        assert not np.allclose(  # ...but numerically wrong
            ref.Residual.values(), alt.Residual.values(), rtol=1e-9
        )


class TestSanitizer:
    def test_disarmed_by_default(self):
        assert sanitizer().active is False

    def test_nonfinite_creation_trapped(self):
        with sanitizing() as san:
            san.check("test.op", np.array([1.0, np.inf]), np.array([1.0, 2.0]))
        assert san.counts["nonfinite"] == 1
        assert san.events[0].op == "test.op"

    def test_propagation_not_retrapped(self):
        with sanitizing() as san:
            san.check("test.op", np.array([np.nan]), np.array([np.nan]))
        assert san.counts["nonfinite"] == 0

    def test_cancellation_trapped(self):
        with sanitizing(cancellation_ratio=1e-10) as san:
            a = 1.0e8
            san.check_cancellation("test.sub", a, a, a - np.nextafter(a, 2 * a))
        assert san.counts["cancellation"] == 1

    def test_denormal_trapped_and_optional(self):
        tiny = np.array([1.0e-320])
        with sanitizing() as san:
            san.check("test.op", tiny)
        assert san.counts["denormal"] == 1
        with sanitizing(trap_denormals=False) as san:
            san.check("test.op", tiny)
        assert san.counts["denormal"] == 0

    def test_raise_mode(self):
        with pytest.raises(SanitizerError, match="test.op"):
            with sanitizing(mode="raise"):
                sanitizer().check("test.op", np.array([np.nan]), np.array([1.0]))
        assert sanitizer().active is False  # context manager disarmed on the way out

    def test_nested_arming_rejected(self):
        with sanitizing():
            with pytest.raises(RuntimeError):
                with sanitizing():
                    pass

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sanitizer().arm(mode="explode")

    def test_fad_operands(self):
        fad = SFad(2)(np.array([1.0]), np.array([[np.inf, 0.0]]))
        with sanitizing() as san:
            san.check("test.op", fad, np.array([1.0]))
        assert san.counts["nonfinite"] == 1

    def test_ops_log_creation_has_provenance(self):
        x = np.array([2.0, -1.0])
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(ops.log(x)))  # disarmed: silent
            with sanitizing() as san:
                ops.log(x)
        assert san.counts["nonfinite"] == 1
        assert san.summary()["by_op"] == {"ops.log": 1}

    def test_ops_sqrt_exp_power_instrumented(self):
        with np.errstate(invalid="ignore", over="ignore"):
            with sanitizing() as san:
                ops.sqrt(np.array([-1.0]))
                ops.exp(np.array([1.0e300]))
                ops.power(np.array([-2.0]), 0.5)
        assert san.counts["nonfinite"] == 3

    def test_ops_clean_inputs_no_events(self):
        with sanitizing() as san:
            ops.sqrt(np.array([4.0]))
            ops.log(np.array([2.7]))
            ops.exp(np.array([1.0]))
        assert san.summary()["events"] == 0

    def test_gmres_runs_clean_under_sanitizer(self):
        from repro.fem.sparse import CsrMatrix
        from repro.solvers.gmres import gmres

        rng = np.random.default_rng(0)
        dense = np.diag(rng.uniform(1.0, 2.0, 20)) + 0.01 * rng.normal(size=(20, 20))
        rows, cols = np.nonzero(dense)
        A = CsrMatrix.from_coo(rows, cols, dense[rows, cols], dense.shape)
        b = rng.normal(size=20)
        with sanitizing() as san:
            result = gmres(A, b, tol=1e-10)
        assert result.converged
        assert san.counts["nonfinite"] == 0

    def test_summary_shape(self):
        with sanitizing() as san:
            pass
        s = san.summary()
        assert set(s) == {"events", "nonfinite", "cancellation", "denormal", "by_op"}


class TestOracles:
    def test_registry_covers_all_suites(self):
        from repro.verify.oracles import ORACLES, suite_names

        assert set(suite_names()) == {
            "kernels", "jacobian", "spmd", "bytes", "matvec", "transient", "serve"
        }
        names = [o.name for o in ORACLES]
        assert len(names) == len(set(names)), "oracle names must be unique"
        # every kernel variant has a race oracle
        from repro.core.variants import variant_names

        for key in variant_names():
            assert f"race-{key}" in names

    def test_matvec_suite_passes(self):
        """The operator-mode differential oracles (matrix-free vs
        assembled J@v, byte reconciliation, planted-defect detection)
        all hold."""
        from repro.verify.oracles import run_oracles

        results = run_oracles(["matvec"])
        failed = [r.describe() for r in results if not r.passed]
        assert not failed, failed
        names = {r.name for r in results}
        assert "matrix-free-vs-assembled-jv-antarctica" in names
        assert "matrix-free-vs-assembled-jv-greenland" in names
        assert "matvec-detects-perturbed-operator" in names

    def test_transient_and_serve_suites_pass(self):
        """The engine's and the service's acceptance checks, each oracle
        with its planted control caught."""
        from repro.verify.oracles import run_oracles

        results = run_oracles(["transient", "serve"])
        failed = [r.describe() for r in results if not r.passed]
        assert not failed, failed
        assert [r.name for r in results] == [
            "transient-closed-budget",
            "transient-velocity-predictor",
            "inexact-vs-exact-newton",
            "transient-predictor-resume",
            "chaos-vs-fault-free",
        ]

    def test_all_kernel_oracles_pass(self):
        from repro.verify.oracles import run_oracles

        results = run_oracles(["kernels"])
        failed = [r.describe() for r in results if not r.passed]
        assert not failed, failed
        by_name = {r.name: r for r in results}
        for impl in ("optimized", "fused"):
            for mode in ("residual", "jacobian"):
                assert f"{impl}-{mode}-vs-baseline" in by_name
        assert "host-lowering-vs-listing" in by_name

    def test_host_lowering_oracle_detects_a_wrong_lowering(self, monkeypatch):
        """A lowering one part in 1e9 off in its last cell (in the second
        chunk of the 131-cell launches) is a divergence from the listing."""
        from dataclasses import replace

        from repro.core.lowering import StokesFOResidHostLowering
        from repro.core.variants import VARIANTS
        from repro.verify.oracles import ORACLES

        class OffByALittle(StokesFOResidHostLowering):
            def __call__(self, cell):
                super().__call__(cell)
                self.Residual.values()[-1] *= 1.0 + 1.0e-9

        oracle = [o for o in ORACLES if o.name == "host-lowering-vs-listing"][0]
        assert not oracle.fn()[0]
        for key in ("optimized-residual", "optimized-jacobian"):
            monkeypatch.setitem(VARIANTS, key, replace(VARIANTS[key], host_lowering=OffByALittle))
        divs, _ = oracle.fn()
        # values of both element shapes x (residual, jacobian, both qp-seeded forms)
        assert len(divs) == 8

    def test_matvec_bytes_oracle_detects_a_miscounted_matvec(self, monkeypatch):
        """An operator pricing one word per matvec more than the byte
        model of its arrays is a divergence of both modes' counters."""
        from repro.fem.matfree import MatrixFreeJacobian
        from repro.fem.sparse import CsrMatrix
        from repro.verify.oracles import ORACLES

        oracle = [o for o in ORACLES if o.name == "matvec-bytes-reconciliation"][0]
        assert not oracle.fn()[0]
        for cls in (CsrMatrix, MatrixFreeJacobian):
            exact = cls.bytes_per_matvec.fget
            monkeypatch.setattr(cls, "bytes_per_matvec", property(lambda A, f=exact: f(A) + 8.0))
        assert [d.name for d in oracle.fn()[0]] == [
            "assembled.matvec_bytes",
            "matrix-free.matvec_bytes",
        ]

    def test_smoother_contraction_oracle_detects_a_planted_constant(self):
        """omega = 0.9 is past 2 / lambda_max on the 600 km Jacobian: the
        oracle passes with the derived damping and flags the constant
        for both operator modes."""
        from repro.verify.oracles import smoother_contraction_divergences

        assert not smoother_contraction_divergences()[0]
        divs, _ = smoother_contraction_divergences(omega=0.9)
        assert [d.name for d in divs] == [
            "assembled: omega * lambda_max",
            "matrix-free: omega * lambda_max",
        ]
        assert all(d.lhs > 2.0 for d in divs)

    def test_mdsc_symbolic_oracle_detects_a_component_swap(self, monkeypatch):
        """A problem map whose aggregates send ``ux`` to the ``uy`` membrane
        dof and back: the blocks are untouched, the collapsed operator of
        every operator kind is not ``P^T A P``."""
        from repro.fem import assembly
        from repro.verify.oracles import ORACLES

        oracle = [o for o in ORACLES if o.name == "mdsc-symbolic-vs-direct"][0]
        assert oracle.suite == "matvec"
        assert not oracle.fn()[0]
        exact = assembly.column_aggregates

        def swapped(n, block_size, ndof):
            agg, nc = exact(n, block_size, ndof)
            return agg ^ 1, nc

        monkeypatch.setattr(assembly, "column_aggregates", swapped)
        names = [d.name for d in oracle.fn()[0]]
        for tag in ("assembled/nparts=1", "matrix-free/nparts=1", "assembled/nparts=2"):
            assert f"{tag}: collapsed operator" in names
            assert f"{tag}: column blocks" not in names

    def test_qp_seeded_oracle_detects_a_component_swap(self, monkeypatch):
        """The expansion through ``grad_bf`` with the two velocity components
        of ``dUgrad(k', d')/dU(m, k'')`` swapped: element blocks of both
        element shapes and all four finite-difference directions diverge."""
        from repro.core import lowering
        from repro.verify.oracles import ORACLES, qp_seeded_divergences

        assert "qp-seeded-vs-u-seeded" in [o.name for o in ORACLES if o.suite == "jacobian"]
        assert not qp_seeded_divergences()[0]
        expand = lowering.expand_qp_seed
        monkeypatch.setattr(
            lowering, "expand_qp_seed", lambda dx, seed: expand(dx, seed)[..., ::-1, :]
        )
        names = [d.name for d in qp_seeded_divergences()[0]]
        assert names == [
            "hex8/jacobian blocks @ cell 0",
            *(f"J@v vs central FD (direction {k})" for k in range(4)),
            "wedge6/jacobian blocks @ cell 0",
        ]

    def test_closed_form_oracles_detect_a_flipped_strain_rate_coefficient(self, monkeypatch):
        """``d(e_e^2)/dv_z`` with its coefficient flipped (1/2 -> -1/2): the
        qp-seeded sweep's element blocks and ``J @ v`` diverge, and so does
        the lowering fed Glen's ``mu`` against the listing fed ``SFad``'s."""
        from repro.physics import evaluators, viscosity
        from repro.verify.oracles import ORACLES, qp_seeded_divergences

        exact = viscosity.effective_strain_rate_squared_tangent

        def flipped(g, dg):
            g = g.copy()
            g[..., 1, 2] *= -1.0  # v_z enters the gradient only as v_z / 2
            return exact(g, dg)

        for module in (viscosity, evaluators):
            monkeypatch.setattr(module, "effective_strain_rate_squared_tangent", flipped)
        names = [d.name for d in qp_seeded_divergences()[0]]
        assert "hex8/jacobian blocks @ cell 0" in names
        assert "wedge6/jacobian blocks @ cell 0" in names
        assert any(name.startswith("J@v vs central FD") for name in names)
        oracle = [o for o in ORACLES if o.name == "host-lowering-vs-listing"][0]
        assert [d.name for d in oracle.fn()[0]] == [
            f"{elem}/optimized-jacobian (qp-seeded, Glen mu)/Residual.dx"
            for elem in ("hex8", "wedge6")
        ]

    def test_closed_form_oracles_detect_a_flipped_stress_coefficient(self, monkeypatch):
        """One entry of the stress tangent's ``L`` flipped (``dstrs02/du_z``,
        1 -> -1): every Jacobian form of the lowering diverges from the
        listing, and the qp-seeded sweep's ``J @ v`` from central
        differences of ``F``.  The U-seeded reference runs the lowering's
        dense form, so its element blocks share any ``L``; the listing
        checks every entry at 1e-12, the differences only the entries that
        carry ``J`` (the vertical ones: a horizontal entry moves ``J @ v``
        by ~1e-5 at 400 km)."""
        from repro.core import lowering
        from repro.verify.oracles import ORACLES, qp_seeded_divergences

        L = lowering._STRESS_L.copy()
        L[4, 2] = -1.0
        monkeypatch.setattr(lowering, "_STRESS_L", L)
        names = [d.name for d in qp_seeded_divergences()[0]]
        assert names == [f"J@v vs central FD (direction {k})" for k in range(4)]
        oracle = [o for o in ORACLES if o.name == "host-lowering-vs-listing"][0]
        names = [d.name for d in oracle.fn()[0]]
        assert len(names) == 6 and all(name.endswith("/Residual.dx") for name in names)

    def test_basis_oracle_detects_a_flipped_cofactor(self, monkeypatch):
        """The cofactor that carries the layers' slope into ``dN/dx``, sign
        flipped, moves the 3-D gradients of all three meshes.  The one that
        couples ``dx/dzeta`` is zero on an extruded mesh, so flipping it
        moves nothing; planted as the control, the oracle reports that its
        control went undetected."""
        from repro.verify import oracles

        oracle = [o for o in oracles.ORACLES if o.name == "basis-vs-reference"][0]
        assert oracle.suite == "jacobian"
        meshes = oracles._basis_meshes()
        assert oracles.basis_divergences(meshes=meshes) == ([], 3510)
        names = [d.name for d in oracles.basis_divergences(flip=(0, 2), meshes=meshes)[0]]
        assert names == [
            f"{mesh}/{elem}/{field}"
            for mesh, elem in (
                ("antarctica-200km-10", "hex8"), ("greenland", "hex8"), ("wedge6", "wedge6")
            )
            for field in ("grad_bf", "w_grad_bf")
        ]
        assert oracles.basis_divergences(flip=(2, 0), meshes=meshes)[0] == []
        monkeypatch.setattr(oracles, "_PLANTED_COFACTOR", (2, 0))
        assert [d.name for d in oracle.fn()[0]] == ["planted flipped cofactor: divergences"]

    def test_perturbed_divergences_nonempty(self):
        from repro.verify.oracles import perturbed_divergences

        divs = perturbed_divergences()
        assert divs and divs[0].num_bad > 0

    def test_crashing_oracle_is_a_failure_not_an_abort(self):
        from repro.verify.oracles import Oracle, run_oracles

        bad = Oracle("boom", "kernels", "always raises", lambda: 1 / 0)
        import repro.verify.oracles as mod

        mod.ORACLES.append(bad)
        try:
            results = run_oracles(["kernels"])
        finally:
            mod.ORACLES.remove(bad)
        r = [x for x in results if x.name == "boom"][0]
        assert not r.passed and "raised" in r.detail

    def test_bytes_oracle_exact(self):
        from repro.verify.oracles import ORACLES

        oracle = [o for o in ORACLES if o.name == "rocprof-formula-vs-model"][0]
        divs, detail = oracle.fn()
        assert not divs, [d.describe() for d in divs]
        assert "exact" in detail
