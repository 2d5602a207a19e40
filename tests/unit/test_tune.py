"""Unit tests for the autotuner: axis lists, kernel model, trial order.

The measured-trial loop over real solves lives in
``tests/integration/test_tuned_solve.py``; everything here runs without
a single Newton step.
"""

import dataclasses
from types import SimpleNamespace

from repro.app.config import VelocityConfig
from repro.gpusim.specs import A100, MI250X_GCD
from repro.kokkos.policy import LaunchBounds
from repro.tune import (
    AutoTuner,
    GpusimPrior,
    TuneCandidate,
    TrialResult,
    kernel_axes,
    solver_axes,
)
from repro.tune.space import KERNEL_MODES, effective_launch_bounds

#: small synthetic mesh, enough for the kernel model to price
NUM_CELLS = 240

#: the trial-flagged solver configurations, in table order
TABLE_ORDER = [
    ("mdsc", "assembled"), ("mdsc", "matrix-free"),
    ("vline", "assembled"), ("vline", "matrix-free"),
]


def _candidate(**overrides) -> TuneCandidate:
    base = dict(
        kernel_impl="optimized",
        launch_bounds=LaunchBounds(128, 2),
        preconditioner="mdsc",
        operator_mode="assembled",
    )
    base.update(overrides)
    return TuneCandidate(**base)


def _fake_search(base: VelocityConfig, cost=lambda cand: 1.0e8):
    """One search whose trials are canned counters (no problem, no solve)."""
    tuner = AutoTuner(
        problem_factory=lambda cfg: SimpleNamespace(mesh=SimpleNamespace(num_elems=NUM_CELLS)),
        base_config=base,
        mesh_key="unit",
        spec=MI250X_GCD,
    )
    tuner._run_trial = lambda cand, prior: TrialResult(
        candidate=cand, gmres_iterations=60, gmres_matvecs=68, matvec_bytes=cost(cand),
        stream_bytes=1.0e8, kernel_bytes=1.0e9, eval_sweeps={"jacobian": 8, "residual": 8},
        newton_converged=True, mean_velocity=12.6, wall_seconds=0.1,
    )
    return tuner.tune()


class TestSpace:
    def test_enumeration_is_deterministic(self):
        # two independent lists, never their product: 10 launchable
        # (kernel_impl, LaunchBounds) points on either GPU, and the
        # table's trial-flagged preconditioners in both operator modes
        for spec in (MI250X_GCD, A100):
            assert kernel_axes(spec) == kernel_axes(spec)
            assert len(kernel_axes(spec)) == 10
        assert solver_axes(VelocityConfig(operator_mode="assembled")) == TABLE_ORDER

    def test_unlaunchable_bounds_filtered_by_spec(self):
        low = dataclasses.replace(MI250X_GCD, max_threads_per_cu=512)
        axes = kernel_axes(low)
        assert axes, "some configs must survive even on a small CU"
        for _, lb in axes:
            for mode in KERNEL_MODES:
                assert effective_launch_bounds(lb, mode).max_threads <= 512
        # the 1024-thread Table II column and the implicit residual
        # default (1024) are both gone
        assert all(lb.explicit and lb.max_threads <= 512 for _, lb in axes)

    def test_apply_to_preserves_untuned_fields(self):
        cfg = VelocityConfig(newton_steps=5, nparts=2)
        out = _candidate(preconditioner="vline").apply_to(cfg)
        assert out.preconditioner == "vline"
        assert out.newton_steps == 5
        assert out.nparts == 2

    def test_candidate_from_config_round_trips(self):
        # the default trial measures exactly what the untuned solve runs
        for mode in ("assembled", "matrix-free"):
            cfg = VelocityConfig(operator_mode=mode, preconditioner="vline")
            assert _fake_search(cfg).trials[0].candidate.apply_to(cfg) == cfg


class TestPrior:
    def test_kernel_profiles_memoized(self):
        prior = GpusimPrior(MI250X_GCD, NUM_CELLS)
        lb = LaunchBounds(128, 2)
        assert prior.kernel_profile("optimized", lb, "jacobian") is prior.kernel_profile(
            "optimized", lb, "jacobian"
        )

    def test_best_kernel_axes_is_the_byte_argmin(self):
        # Table II automated: the model's pick moves no more bytes per
        # sweep pair than any launchable point, and at the paper's cell
        # counts it reproduces the paper's two winners on the MI250X
        prior = GpusimPrior(MI250X_GCD, NUM_CELLS)
        best = prior.sweep_bytes(*prior.best_kernel_axes(), {"jacobian": 1, "residual": 1})
        for axes in kernel_axes(MI250X_GCD):
            assert best <= prior.sweep_bytes(*axes, {"jacobian": 1, "residual": 1})
        for cells, lb in ((2720, LaunchBounds(128, 2)), (272, LaunchBounds(256, 2))):
            assert GpusimPrior(MI250X_GCD, cells).best_kernel_axes() == ("optimized", lb)


class TestTrialQueue:
    """The trial list is the table's order with the default first -- no
    seed, no ranking, no solves needed to see it."""

    @staticmethod
    def _axes(report):
        return [(t.candidate.preconditioner, t.candidate.operator_mode) for t in report.trials]

    def test_default_config_always_first(self):
        for default in (("vline", "matrix-free"), ("mdsc", "assembled"), ("jacobi", "assembled")):
            base = VelocityConfig(preconditioner=default[0], operator_mode=default[1])
            axes = self._axes(_fake_search(base))
            assert axes[0] == default
            # then the table's order; no configuration measured twice
            assert axes[1:] == [a for a in TABLE_ORDER if a != default]

    def test_exact_tie_keeps_the_earlier_trial(self):
        # regression: ties were broken by describe() string order, so an
        # equal-cost "jacobi" displaced the hand-picked "mdsc" default
        report = _fake_search(VelocityConfig(preconditioner="vline"))
        assert len(report.trials) == 4
        assert report.winner is report.trials[0]
        # and a strictly cheaper trial does displace it
        report = _fake_search(
            VelocityConfig(preconditioner="vline"),
            cost=lambda cand: 0.5e8 if cand.preconditioner == "mdsc" else 1.0e8,
        )
        assert report.winner.candidate.preconditioner == "mdsc"
        assert report.winner.cost_bytes < report.trials[0].cost_bytes

    def test_spmd_base_config_drops_matrix_free(self):
        # the default, too, is measured as it will run: SPMD always assembles
        base = VelocityConfig(nparts=4, operator_mode="matrix-free")
        assert self._axes(_fake_search(base)) == [
            ("mdsc", "assembled"), ("vline", "assembled")
        ]
