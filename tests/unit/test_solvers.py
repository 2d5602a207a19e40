"""Tests for GMRES, smoothers, the two-level MDSC V-cycle, and damped Newton."""

import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.sparse import CsrMatrix
from repro.solvers import (
    gmres,
    JacobiSmoother,
    VerticalLineSmoother,
    ColumnCollapseMdsc,
    forcing_term,
    newton_solve,
)

newton_module = importlib.import_module("repro.solvers.newton")


def _laplace_1d(n):
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
    return CsrMatrix(A.shape, A.indptr, A.indices, A.data)


def _random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    As = sp.csr_matrix(A)
    return CsrMatrix(As.shape, As.indptr, As.indices, As.data)


def _extruded_operator(ncols=16, levels=5, ndof=2, aniso=100.0, seed=0):
    """Anisotropic operator mimicking an extruded-mesh discretization.

    Columns are strongly coupled vertically (factor ``aniso``), weakly
    horizontally on a ring; dofs column-major: ((col*levels)+lev)*ndof+c.
    """
    n = ncols * levels * ndof
    rows, cols, vals = [], [], []

    def dof(c, l, k):
        return (c * levels + l) * ndof + k

    for c in range(ncols):
        for l in range(levels):
            for k in range(ndof):
                i = dof(c, l, k)
                diag = 2.0 * aniso + 2.0
                if l > 0:
                    rows.append(i), cols.append(dof(c, l - 1, k)), vals.append(-aniso)
                if l < levels - 1:
                    rows.append(i), cols.append(dof(c, l + 1, k)), vals.append(-aniso)
                for cn in ((c - 1) % ncols, (c + 1) % ncols):
                    rows.append(i), cols.append(dof(cn, l, k)), vals.append(-1.0)
                rows.append(i), cols.append(i), vals.append(diag + 0.5)
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


class TestGmres:
    def test_identity_converges_immediately(self):
        A = CsrMatrix.identity(10)
        b = np.arange(10.0)
        res = gmres(A, b, tol=1e-12)
        assert res.converged
        assert np.allclose(res.x, b)

    def test_laplace_converges(self):
        A = _laplace_1d(50)
        rng = np.random.default_rng(0)
        xref = rng.normal(size=50)
        b = A.matvec(xref)
        res = gmres(A, b, tol=1e-10, restart=30, maxiter=500)
        assert res.converged
        assert np.allclose(res.x, xref, atol=1e-6)

    def test_zero_rhs(self):
        res = gmres(_laplace_1d(5), np.zeros(5))
        assert res.converged and np.allclose(res.x, 0.0)

    def test_residual_monotone_within_cycle(self):
        A = _random_spd(30, seed=1)
        b = np.ones(30)
        res = gmres(A, b, tol=1e-12, restart=30, maxiter=30)
        norms = np.array(res.residual_norms)
        assert np.all(np.diff(norms) <= 1e-9 * norms[0])

    def test_maxiter_respected(self):
        A = _laplace_1d(200)
        b = np.ones(200)
        res = gmres(A, b, tol=1e-14, restart=10, maxiter=15)
        assert res.iterations <= 15
        assert not res.converged

    def test_callable_operator(self):
        """The matrix once handed over as a callable, as the operator it is."""
        A = _laplace_1d(20)
        res = gmres(A, np.ones(20), tol=1e-10, maxiter=100)
        assert res.converged

    def test_preconditioner_reduces_iterations(self):
        A = _extruded_operator(ncols=12, levels=6, aniso=500.0)
        b = np.random.default_rng(11).normal(size=A.shape[0])
        plain = gmres(A, b, tol=1e-8, restart=40, maxiter=400)
        pre = gmres(A, b, tol=1e-8, restart=40, maxiter=400, M=JacobiSmoother(A, iters=3))
        assert pre.converged
        assert pre.iterations < plain.iterations

    @given(st.integers(5, 40))
    @settings(max_examples=15, deadline=None)
    def test_spd_always_converges_property(self, n):
        A = _random_spd(n, seed=n)
        b = np.ones(n)
        res = gmres(A, b, tol=1e-10, restart=n, maxiter=5 * n)
        assert res.converged
        assert np.linalg.norm(A.matvec(res.x) - b) <= 1e-9 * np.linalg.norm(b)


class TestGmresBreakdown:
    """Lucky-breakdown termination: once the Krylov space closes, stop."""

    class _Counting(CsrMatrix):
        """``A`` counting its own products."""

        __slots__ = ("count",)

        def matvec(self, x):
            self.count["matvecs"] += 1
            return super().matvec(x)

    @classmethod
    def _counting(cls, A):
        mv = cls._Counting(A.shape, A.indptr, A.indices, A.data)
        mv.count = {"matvecs": 0}
        return mv, mv.count

    def test_krylov_closure_converges_in_subspace_dim(self):
        # three distinct eigenvalues -> Krylov space of b closes at dim 3
        d = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        A = CsrMatrix.from_coo(np.arange(6), np.arange(6), d, (6, 6))
        mv, count = self._counting(A)
        res = gmres(mv, np.ones(6), tol=1e-12, restart=6, maxiter=60)
        assert res.converged
        assert res.iterations <= 3
        # initial residual + <=3 Arnoldi steps + final true residual
        assert count["matvecs"] <= 5

    def test_breakdown_on_inconsistent_singular_system_stops(self):
        """Singular A with b outside range(A): the subspace closes while
        the residual stays large.  Without breakdown termination GMRES
        keeps orthogonalizing against zero vectors and restarting until
        ``maxiter``; with it, the solve stops at the subspace dimension.
        """
        A = CsrMatrix.from_coo(np.arange(3), np.arange(3), [1.0, 2.0, 0.0], (3, 3))
        b = np.array([1.0, 1.0, 1.0])
        mv, count = self._counting(A)
        res = gmres(mv, b, tol=1e-12, restart=10, maxiter=200)
        assert not res.converged
        assert res.iterations <= 4  # not the full maxiter budget
        assert count["matvecs"] <= 8
        # the returned iterate is still the subspace minimizer: only the
        # null-space component of b (norm 1) remains
        assert res.final_residual == pytest.approx(1.0, rel=1e-8)

    def test_breakdown_solution_is_exact_for_consistent_system(self):
        d = np.array([2.0, 2.0, 5.0])
        A = CsrMatrix.from_coo(np.arange(3), np.arange(3), d, (3, 3))
        xref = np.array([1.0, 1.0, -3.0])
        res = gmres(A, A.matvec(xref), tol=1e-13, restart=3, maxiter=30)
        assert res.converged
        assert np.allclose(res.x, xref, atol=1e-10)


class TestGmresWorkspace:
    """The Krylov basis and the preconditioned directions are allocated
    uninitialised: with the allocator handing back NaN, any row read
    before it was written would poison the result."""

    @staticmethod
    def _poison(monkeypatch) -> list:
        """Hand gmres NaN-filled workspaces from here on; returns the sizes handed out."""
        handed_out = []

        def poisoned(rows, n):
            handed_out.append(rows * n)
            return np.full((rows, n), np.nan)

        monkeypatch.setattr(importlib.import_module("repro.solvers.gmres"), "_workspace", poisoned)
        return handed_out

    @staticmethod
    def _same(a, b):
        assert np.array_equal(a.x, b.x)
        assert a.residual_norms == b.residual_norms
        assert (a.flag, a.iterations, a.matvecs) == (b.flag, b.iterations, b.matvecs)

    def test_lucky_breakdown_and_restart_clamp_read_no_unwritten_row(self, monkeypatch):
        closing = CsrMatrix.from_coo(
            np.arange(6), np.arange(6), [1.0, 1.0, 2.0, 2.0, 3.0, 3.0], (6, 6)
        )
        singular = CsrMatrix.from_coo(np.arange(3), np.arange(3), [1.0, 2.0, 0.0], (3, 3))
        laplace = _laplace_1d(200)
        cases = [
            # the Krylov space closes at dimension 3 of restart=6
            lambda: gmres(closing, np.ones(6), tol=1e-12, restart=6, maxiter=60),
            # breakdown with the residual still large
            lambda: gmres(singular, np.ones(3), tol=1e-12, restart=10, maxiter=200),
            # the second cycle is clamped to 3 of restart=10 by the budget
            lambda: gmres(laplace, np.ones(200), tol=1e-14, restart=10, maxiter=15),
            # cycles 40 deep: the storage grows past its first rows twice
            lambda: gmres(laplace, np.ones(200), tol=1e-10, restart=40, maxiter=90),
            # a warm start, preconditioned, several full restart cycles
            lambda: gmres(laplace, np.ones(200), x0=np.full(200, 0.5), tol=1e-10,
                          restart=7, maxiter=120, M=JacobiSmoother(laplace, iters=2)),
        ]
        expected = [case() for case in cases]
        handed_out = self._poison(monkeypatch)
        for case, want in zip(cases, expected):
            self._same(case(), want)
        assert handed_out  # the poisoned allocator is the one gmres uses

    @pytest.mark.parametrize(
        "velocity",
        [dict(operator_mode="assembled"), dict(operator_mode="matrix-free"), dict(nparts=2)],
        ids=["assembled", "matrix-free", "nparts2"],
    )
    def test_solve_reads_no_unwritten_row(self, velocity, monkeypatch):
        from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig

        cfg = AntarcticaConfig(
            resolution_km=400.0, num_layers=4, velocity=VelocityConfig(**velocity)
        )
        want = AntarcticaTest.build(cfg).run()
        handed_out = self._poison(monkeypatch)
        got = AntarcticaTest.build(cfg).run()
        assert handed_out
        assert np.array_equal(got.u, want.u)
        assert got.newton.linear_iterations == want.newton.linear_iterations


class TestSmoothers:
    def test_jacobi_reduces_error(self):
        A = _laplace_1d(30)
        b = np.zeros(30)
        x0 = np.ones(30)
        sm = JacobiSmoother(A, omega=0.6, iters=10)
        x = sm.smooth(A, b, x0)
        assert np.linalg.norm(x) < np.linalg.norm(x0)

    def test_jacobi_rejects_zero_diag(self):
        A = CsrMatrix.from_coo([0, 1], [1, 0], [1.0, 1.0], (2, 2))
        with pytest.raises(ValueError):
            JacobiSmoother(A)

    def test_jacobi_bad_omega(self):
        with pytest.raises(ValueError):
            JacobiSmoother(_laplace_1d(4), omega=1.5)

    def test_vertical_line_exact_on_block_diagonal(self):
        """With no horizontal coupling one sweep solves exactly."""
        A = _extruded_operator(ncols=4, levels=4, aniso=10.0)
        # strip horizontal couplings -> block diagonal
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        blk = 4 * 2
        keep = rows // blk == A.indices // blk
        Abd = CsrMatrix.from_coo(rows[keep], A.indices[keep], A.data[keep], A.shape)
        sm = VerticalLineSmoother(Abd, blk, omega=1.0, iters=1)
        rng = np.random.default_rng(2)
        xref = rng.normal(size=A.shape[0])
        b = Abd.matvec(xref)
        x = sm.smooth(Abd, b, np.zeros_like(b))
        assert np.allclose(x, xref, atol=1e-10)

    def test_vertical_line_beats_jacobi_on_anisotropy(self):
        A = _extruded_operator(ncols=10, levels=8, aniso=1000.0)
        b = np.zeros(A.shape[0])
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=A.shape[0])
        xj = JacobiSmoother(A, omega=0.7, iters=3).smooth(A, b, x0)
        xv = VerticalLineSmoother(A, 8 * 2, iters=3).smooth(A, b, x0)
        assert np.linalg.norm(xv) < 0.5 * np.linalg.norm(xj)

    def test_vertical_line_damping_follows_lambda_max(self):
        """The derived omega sits inside the stability limit of the
        operator at hand: ``I - omega B^-1 A`` is a contraction."""
        A = _extruded_operator(ncols=12, levels=4, aniso=1.0)
        blk = 4 * 2
        sm = VerticalLineSmoother(A, blk)
        M = A.toarray()
        B = np.zeros_like(M)
        for p in range(12):
            B[p * blk : (p + 1) * blk, p * blk : (p + 1) * blk] = M[
                p * blk : (p + 1) * blk, p * blk : (p + 1) * blk
            ]
        lam = np.linalg.eigvals(np.linalg.solve(B, M))
        lam_max = float(np.max(np.abs(lam)))
        assert sm.lambda_max == pytest.approx(lam_max, rel=0.1)
        assert sm.omega == pytest.approx(4.0 / (3.0 * 1.1 * sm.lambda_max))
        assert sm.omega * lam_max < 1.5
        assert np.max(np.abs(1.0 - sm.omega * lam)) < 1.0

    def test_vertical_line_explicit_omega_skips_estimate(self):
        A = _extruded_operator(ncols=4, levels=4)
        sm = VerticalLineSmoother(A, 4 * 2, omega=0.8)
        assert sm.omega == 0.8 and sm.lambda_max is None
        assert sm.bytes_per_setup == 0.0

    def test_vertical_line_size_check(self):
        with pytest.raises(ValueError):
            VerticalLineSmoother(_laplace_1d(10), 3)


class TestMultigrid:
    """The two-level column-collapse MDSC on the synthetic extruded operator."""

    def test_hierarchy_structure(self):
        levels, ncols = 8, 32
        A = _extruded_operator(ncols=ncols, levels=levels, aniso=200.0)
        mg = ColumnCollapseMdsc(A, num_columns=ncols, levels=levels)
        # two levels: line relaxation over whole columns on the fine
        # operator, one coarse dof per (column, component) below it
        assert mg.smoother.blk == levels * 2
        assert mg.symbolic.num_coarse == ncols * 2 < A.shape[0]
        dof = np.arange(A.shape[0])
        assert np.array_equal(mg.symbolic.agg, dof // (levels * 2) * 2 + dof % 2)
        with pytest.raises(ValueError, match="columns x levels x ndof"):
            ColumnCollapseMdsc(A, num_columns=ncols + 1, levels=levels)

    def test_vcycle_preconditions_gmres(self):
        levels = 8
        A = _extruded_operator(ncols=24, levels=levels, aniso=500.0)
        b = np.ones(A.shape[0])
        mg = ColumnCollapseMdsc(A, num_columns=24, levels=levels)
        plain = gmres(A, b, tol=1e-8, restart=60, maxiter=600)
        pre = gmres(A, b, tol=1e-8, restart=60, maxiter=600, M=mg)
        assert pre.converged
        assert pre.iterations < max(10, plain.iterations // 2)

    def test_vcycle_is_linear_operator(self):
        A = _extruded_operator(ncols=8, levels=4)
        mg = ColumnCollapseMdsc(A, num_columns=8, levels=4)
        rng = np.random.default_rng(5)
        r1, r2 = rng.normal(size=A.shape[0]), rng.normal(size=A.shape[0])
        lhs = mg.apply(2.0 * r1 - 3.0 * r2)
        rhs = 2.0 * mg.apply(r1) - 3.0 * mg.apply(r2)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestNewton:
    def test_scalarish_quadratic(self):
        """Solve x^2 - 4 = 0 componentwise (diagonal Jacobian)."""

        def F(x):
            return x * x - 4.0

        def J(x):
            return CsrMatrix.from_coo(np.arange(3), np.arange(3), 2.0 * x, (3, 3))

        res = newton_solve(F, J, np.array([1.0, 3.0, 10.0]), max_steps=30, tol=1e-12)
        assert res.converged
        assert np.allclose(res.x, 2.0)

    def test_linear_system_one_step(self):
        A = _random_spd(10, seed=6)
        xref = np.arange(10.0)
        b = A.matvec(xref)
        res = newton_solve(lambda x: A.matvec(x) - b, lambda x: A, np.zeros(10), max_steps=3, tol=1e-10, linear_tol=1e-12)
        assert res.converged
        assert res.iterations <= 2
        assert np.allclose(res.x, xref, atol=1e-6)

    def test_damping_engages_on_hard_start(self):
        # f(x) = atan-like flat function where full steps overshoot
        def F(x):
            return np.arctan(x)

        def J(x):
            d = 1.0 / (1.0 + x * x)
            return CsrMatrix.from_coo([0], [0], d, (1, 1))

        res = newton_solve(F, J, np.array([20.0]), max_steps=40, tol=1e-10)
        assert res.converged
        assert min(res.step_lengths) < 1.0  # backtracking happened

    def test_residual_history_decreases(self):
        A = _random_spd(8, seed=7)
        b = A.matvec(np.ones(8))
        res = newton_solve(lambda x: A.matvec(x) - b, lambda x: A, np.zeros(8), max_steps=5, tol=1e-12)
        norms = res.residual_norms
        assert norms[-1] < norms[0]

    def test_respects_max_steps(self):
        def F(x):
            return np.array([np.exp(x[0]) + 1.0])  # no root

        def J(x):
            return CsrMatrix.from_coo([0], [0], [np.exp(x[0])], (1, 1))

        res = newton_solve(F, J, np.array([0.0]), max_steps=4, tol=1e-12)
        assert not res.converged
        assert res.iterations == 4

    def test_fused_path_matches_unfused(self):
        def F(x):
            return x * x - 4.0

        def J(x):
            return CsrMatrix.from_coo(np.arange(3), np.arange(3), 2.0 * x, (3, 3))

        x0 = np.array([1.0, 3.0, 10.0])
        plain = newton_solve(F, J, x0, max_steps=30, tol=1e-12)
        fused = newton_solve(
            F, None, x0, max_steps=30, tol=1e-12, residual_jacobian_fn=lambda x: (F(x), J(x))
        )
        assert fused.converged
        assert np.allclose(fused.x, plain.x, atol=1e-12)
        assert fused.iterations == plain.iterations

    def test_fused_path_eval_counts(self):
        """One fused sweep per accepted step, one residual per trial."""

        def F(x):
            return np.arctan(x)  # forces backtracking from x0 = 20

        def J(x):
            return CsrMatrix.from_coo([0], [0], 1.0 / (1.0 + x * x), (1, 1))

        res = newton_solve(
            F, None, np.array([20.0]), max_steps=40, tol=1e-10,
            residual_jacobian_fn=lambda x: (F(x), J(x)),
        )
        assert res.converged
        assert min(res.step_lengths) < 1.0  # damping engaged
        trials = sum(int(round(np.log2(1.0 / a))) + 1 for a in res.step_lengths)
        assert res.num_jacobian_evals == res.iterations
        assert res.num_residual_evals == trials

    def test_requires_some_jacobian(self):
        with pytest.raises(ValueError):
            newton_solve(lambda x: x, None, np.array([1.0]))

    def test_phase_seconds_reported(self):
        A = _random_spd(6, seed=9)
        b = A.matvec(np.ones(6))
        res = newton_solve(lambda x: A.matvec(x) - b, lambda x: A, np.zeros(6), max_steps=3)
        assert set(res.phase_seconds) == {"evaluate", "preconditioner", "gmres"}
        assert all(v >= 0.0 for v in res.phase_seconds.values())

    def test_preconditioner_hook_called(self):
        calls = []
        A = _random_spd(6, seed=8)
        b = A.matvec(np.ones(6))

        def precond(J):
            calls.append(1)
            return JacobiSmoother(J, iters=2)

        res = newton_solve(
            lambda x: A.matvec(x) - b, lambda x: A, np.zeros(6), max_steps=3, preconditioner_fn=precond
        )
        assert res.converged and len(calls) >= 1


def _cubic():
    """``x^3 = 8`` componentwise: six to eight Newton steps from far out."""

    def F(x):
        return x**3 - 8.0

    def J(x):
        return CsrMatrix.from_coo(np.arange(3), np.arange(3), 3.0 * x * x, (3, 3))

    return F, J, np.array([9.0, 30.0, 100.0])


_positive_norms = st.lists(
    st.floats(min_value=1.0e-3, max_value=1.0e15), min_size=1, max_size=12
)


@pytest.fixture
def asked(monkeypatch):
    """Every tolerance ``newton_solve`` hands to ``gmres``, in order."""
    tols = []

    def spy(A, b, tol, **kwargs):
        tols.append(tol)
        return gmres(A, b, tol=tol, **kwargs)

    monkeypatch.setattr(newton_module, "gmres", spy)
    return tols


class TestForcingTerm:
    ETA_MAX = newton_module._ETA_MAX

    @given(
        norms=_positive_norms,
        tol=st.floats(min_value=0.0, max_value=1.0e12),
        linear_tol=st.sampled_from([1.0e-10, 1.0e-6, 1.0e-3, 0.5]),
    )
    def test_stays_inside_its_band(self, norms, tol, linear_tol):
        eta = forcing_term(norms, tol, linear_tol)
        assert linear_tol <= eta <= max(self.ETA_MAX, linear_tol)

    def test_first_step_is_the_ceiling(self):
        assert forcing_term([3.0e13], 1.0e7, 1.0e-6) == self.ETA_MAX

    @given(
        norms=_positive_norms,
        lo=st.floats(min_value=1.0e-6, max_value=2.0),
        hi=st.floats(min_value=1.0e-6, max_value=2.0),
    )
    def test_nondecreasing_in_the_residual_ratio(self, norms, lo, hi):
        """With the target out of reach (``tol = 0``) a step that reduced
        ``||F||`` less is followed by a looser linear solve, never a
        tighter one."""
        lo, hi = sorted((lo, hi))
        slow = forcing_term(norms + [hi * norms[-1]], 0.0, 1.0e-6)
        fast = forcing_term(norms + [lo * norms[-1]], 0.0, 1.0e-6)
        assert fast <= slow

    def test_fast_steps_tighten_to_linear_tol_and_no_further(self):
        assert forcing_term([1.0e13, 1.0e11], 0.0, 1.0e-6) == pytest.approx(0.9e-4)
        assert forcing_term([1.0e13, 1.0e9], 0.0, 1.0e-6) == 1.0e-6

    def test_never_tighter_than_the_target_needs(self):
        # two orders gained asks for 0.9e-4, but the target is one more
        # order away: a linear residual of half of it is enough
        norms, tol = [1.0e13, 1.0e11], 1.0e8
        assert forcing_term(norms, tol, 1.0e-6) == 0.5 * tol / norms[-1]

    def test_safeguard_holds_the_term_after_a_loose_step(self, monkeypatch):
        """Inert below a ceiling of 1/3 (``0.9 eta^2 <= 0.1``): raise the
        ceiling to the textbook 0.9 to see it."""
        monkeypatch.setattr(newton_module, "_ETA_MAX", 0.9)
        assert forcing_term([1.0, 1.0e-3], 0.0, 1.0e-6) == pytest.approx(0.9**3)
        assert forcing_term([1.0, 1.0e-3, 1.0e-6], 0.0, 1.0e-6) == pytest.approx(0.9 * 0.9**6)
        # 0.9 * 0.478^2 = 0.21 still holds; 0.9 * 0.21^2 = 0.04 does not
        assert forcing_term([1.0, 1.0e-3, 1.0e-6, 1.0e-9], 0.0, 1.0e-6) == pytest.approx(
            0.9 * (0.9 * 0.9**6) ** 2
        )
        assert forcing_term([1.0, 1.0e-3, 1.0e-6, 1.0e-9, 1.0e-12], 0.0, 1.0e-6) == 1.0e-6

    def test_replaying_a_checkpoint_reproduces_the_live_terms(self, asked):
        """The rule needs no checkpoint field: the residual history a
        :class:`NewtonCheckpoint` already carries determines it."""
        F, J, x0 = _cubic()
        live, checkpoints = asked, []
        tol = 1.0e-9 * float(np.linalg.norm(F(x0)))
        out = newton_solve(
            F, J, x0, max_steps=30, tol=tol, inexact=True,
            checkpoint_cb=checkpoints.append,
        )
        assert out.converged and out.stop_reason == "tolerance"
        assert live[0] == self.ETA_MAX and min(live) < self.ETA_MAX
        assert len(live) == out.iterations >= 4
        for ckpt, next_term in zip(checkpoints, live[1:]):
            assert forcing_term(ckpt.residual_norms, tol, 1.0e-6) == next_term

    def test_exact_solve_asks_for_linear_tol_every_step(self, asked):
        F, J, x0 = _cubic()
        newton_solve(F, J, x0, max_steps=30, tol=1.0e-3, linear_tol=1.0e-7)
        assert len(asked) >= 4 and set(asked) == {1.0e-7}


class TestRoundoffFloor:
    @staticmethod
    def _floored(floor):
        """A residual whose second component no step can move: the
        rounding noise of a 1e13-scale sum, made deterministic."""

        def F(x):
            return np.array([1.0e13 * (x[0] - 1.0), floor])

        def J(x):
            return CsrMatrix.from_coo([0, 1], [0, 1], [1.0e13, 1.0], (2, 2))

        return F, J, np.array([0.0, 0.0])

    def test_stops_converged_on_the_floor(self):
        F, J, x0 = self._floored(0.25)
        out = newton_solve(F, J, x0, max_steps=25, tol=1.0e-8)
        # one step to the floor, two that gain nothing, stop
        assert out.converged and out.stop_reason == "roundoff_floor"
        assert out.iterations == 3
        assert out.step_lengths[1:] == [1.0 / 64.0, 1.0 / 64.0]
        assert out.final_residual == 0.25

    def test_a_stall_above_the_floor_is_not_convergence(self):
        F, J, x0 = self._floored(1.0e5)  # 1e-8 of ||F_0||
        out = newton_solve(F, J, x0, max_steps=6, tol=1.0e-8)
        assert not out.converged and out.stop_reason == "max_steps"
        assert out.iterations == 6

    #: ``(residual_norms, step_lengths)`` of the 25-step cold 400 km / 4
    #: solve (``tests/integration/test_inexact_newton.py``), recorded with
    #: the LAPACK basis and with the closed-form one.  They agree to 4
    #: digits through step 8 and reach the floor at step 9; the two damped
    #: steps after it gained 9.5 % and 9.9 % in the first and -1.7 % and
    #: 6.5 % in the second -- rounding luck that a rule on the gain (the
    #: one before, with a 10 % bar) reads as signal.
    HEAD_NORMS = [2.793e13, 2.427e13, 2.311e13, 2.251e13, 1.781e13, 4.744e12, 3.783e11, 2.602e9, 1.287e5]
    HEAD_STEPS = [0.25, 0.25, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    #: steps 9-11: ``||F||`` after each, and the step lengths of 10 and 11
    RECORDED = {
        "lapack": ([0.3139, 0.2841, 0.2559], [0.5, 0.25]),
        "cofactor": ([0.263, 0.2675, 0.2503], [1.0 / 64.0, 0.125]),
    }

    @pytest.mark.parametrize("history", sorted(RECORDED))
    def test_recorded_histories_stop_at_step_eleven(self, history):
        tail_norms, tail_steps = self.RECORDED[history]
        norms, steps = self.HEAD_NORMS + tail_norms, self.HEAD_STEPS + tail_steps
        assert len(steps) == 11 and len(norms) == 12
        stops = [
            k
            for k in range(1, len(steps) + 1)
            if newton_module._at_roundoff_floor(norms[: k + 1], steps[:k])
        ]
        assert stops == [11]

    def test_the_floor_rule_reads_steps_not_gains(self):
        """Below the line, two backtracked steps stop the solve whatever
        they gained; a full step in between, or one step above the line,
        does not."""
        floor = newton_module._at_roundoff_floor
        below = [1.0e13, 1.0e12, 0.3, 0.1, 0.01]
        assert floor(below, [1.0, 1.0, 0.5, 0.5])
        assert not floor(below, [1.0, 0.5, 1.0, 0.5])
        assert not floor(below[:2], [0.5])
        assert not floor([1.0e13, 1.0e12, 1.0e4, 9.0e3], [1.0, 0.5, 0.5])

    def test_passing_the_line_while_still_gaining_is_not_the_floor(self):
        F, J, x0 = _cubic()
        f0 = float(np.linalg.norm(F(x0)))
        out = newton_solve(F, J, x0, max_steps=30, tol=1.0e-13 * f0)
        assert out.converged and out.stop_reason == "tolerance"


class TestFailureInjection:
    def test_newton_rejects_nonfinite_residual(self):
        def F(x):
            return np.array([np.nan])

        def J(x):
            return CsrMatrix.identity(1)

        with pytest.raises(FloatingPointError):
            newton_solve(F, J, np.array([1.0]))

    def test_gmres_with_singular_matrix_reports_nonconvergence(self):
        # rank-deficient system with incompatible rhs
        A = CsrMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
        b = np.array([1.0, 1.0])
        res = gmres(A, b, tol=1e-12, maxiter=20)
        assert not res.converged

    def test_vertical_smoother_guards_zero_block(self):
        # a block that is entirely zero must not produce NaNs
        A = CsrMatrix.from_coo([0, 1, 2, 3], [0, 1, 2, 3], [1.0, 1.0, 0.0, 0.0], (4, 4))
        sm = VerticalLineSmoother(A, 2, iters=1)
        out = sm.apply(np.ones(4))
        assert np.all(np.isfinite(out))
