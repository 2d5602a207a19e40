"""The gpusim byte/occupancy model as a search prior.

Measured trials are expensive (each is a full Newton--Krylov solve), so
the tuner only spends them on candidates the *model* already ranks as
promising.  The prior prices every candidate in modeled HBM bytes per
Newton step, the deterministic currency the whole perf stack uses
(Section V: the solve is bandwidth-bound, so bytes order configurations
the way time does on real hardware):

* **kernel side** -- the gpusim pipeline (register allocation ->
  occupancy -> cache/memtrace -> timing) run once per distinct
  ``(kernel_impl, launch_bounds, mode)`` at this mesh's cell count.
  This is where Table II lives: a LaunchBounds that spills SFad
  accumulators to scratch pays real modeled bytes and loses.
* **solver side** -- the :mod:`repro.gpusim.solver_bytes` analytic model
  at an *estimated* Krylov depth: matvec bytes per operator mode, the
  MGS orthogonalization streams, the assembled mode's per-step CSR
  fill, scaled by a per-preconditioner iteration-count heuristic.

The prior never decides the winner -- measured deterministic counters
do -- it only orders the trial queue (and breaks ties deterministically
by the candidate's position in the enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim import solver_bytes as _bytes
from repro.gpusim.simulator import GPUSimulator, KernelProfile, ProblemSize
from repro.gpusim.specs import GPUSpec
from repro.tune.space import TuneCandidate

__all__ = ["ProblemModel", "PriorScore", "GpusimPrior", "ITERATION_FACTOR"]

#: relative GMRES iteration-count factor per preconditioner (the MDSC
#: two-level solve is the reference; line relaxation loses the membrane
#: coupling, Jacobi loses the column coupling too).  Measured after the
#: PR 14 damping fix, eight-step solves at 600 km / 3, 400 km / 4 and
#: 200 km / 10 layers: mdsc 59 / 58 / 60 iterations, vline 86 / 86 / 88,
#: mdsc-amg 85 / 87 / 93, jacobi 486 / 976 / 6127 and none 827 / 2273
#: (both mesh-dependent; the 400 km / 4 ratio is used, a lower bound
#: on finer meshes).  Ordering only -- measured trials overrule it.
ITERATION_FACTOR = {"mdsc": 1.0, "mdsc-amg": 1.5, "vline": 1.5, "jacobi": 17.0, "none": 40.0}

#: GMRES iterations per Newton step under MDSC: 7-8 at all three meshes
BASE_ITERS_PER_STEP = 7.5


@dataclass(frozen=True)
class ProblemModel:
    """The mesh-derived quantities the byte model needs."""

    num_dofs: int
    num_cells: int
    nnz: int
    dofs_per_elem: int
    newton_steps: int = 8


@dataclass(frozen=True)
class PriorScore:
    """Modeled per-Newton-step cost decomposition of one candidate."""

    candidate: TuneCandidate
    kernel_bytes_per_step: float
    kernel_time_per_step_s: float
    solver_bytes_per_step: float
    est_iterations_per_step: float

    @property
    def total_bytes_per_step(self) -> float:
        return self.kernel_bytes_per_step + self.solver_bytes_per_step


class GpusimPrior:
    """Score candidates with the GPU model; memoize the kernel runs."""

    def __init__(self, spec: GPUSpec, model: ProblemModel):
        self.spec = spec
        self.model = model
        self._sim = GPUSimulator(spec)
        self._profiles: dict[tuple[str, str, str], KernelProfile] = {}

    # ------------------------------------------------------------------
    def kernel_profile(self, candidate: TuneCandidate, mode: str) -> KernelProfile:
        """The memoized gpusim profile of one kernel of this candidate."""
        lb = candidate.effective_launch_bounds(mode)
        key = (candidate.kernel_impl, mode, str(lb))
        prof = self._profiles.get(key)
        if prof is None:
            prof = self._sim.run(
                f"{candidate.kernel_impl}-{mode}",
                ProblemSize(num_cells=self.model.num_cells),
                launch_bounds=lb,
            )
            self._profiles[key] = prof
        return prof

    # ------------------------------------------------------------------
    def score(self, candidate: TuneCandidate) -> PriorScore:
        m = self.model
        jac = self.kernel_profile(candidate, "jacobian")
        res = self.kernel_profile(candidate, "residual")
        # one fused SFad sweep (jacobian) + one line-search residual
        # sweep per accepted Newton step
        kernel_bytes = jac.hbm_bytes + res.hbm_bytes
        kernel_time = jac.time_s + res.time_s

        est_iters = BASE_ITERS_PER_STEP * ITERATION_FACTOR.get(
            candidate.preconditioner, 4.0
        )

        n, k = m.num_dofs, m.dofs_per_elem
        if candidate.operator_mode == "matrix-free":
            matvec = _bytes.element_apply_bytes(n, m.num_cells, k)
            fill = 0.0
        else:
            matvec = _bytes.spmv_bytes(n, m.nnz)
            fill = _bytes.assembled_fill_bytes(n, m.nnz, m.num_cells, k)
        # one cycle of depth est_iters: the per-iteration depth grows
        # 1..d, so the orthogonalization stream is priced at depth d/2
        mid = max(1, int(round(est_iters / 2.0)))
        per_iter = matvec + _bytes.mgs_orth_bytes(n, mid)
        close = _bytes.cycle_close_bytes(n, int(est_iters)) + matvec
        solver_bytes = est_iters * per_iter + close + fill

        return PriorScore(
            candidate=candidate,
            kernel_bytes_per_step=float(kernel_bytes),
            kernel_time_per_step_s=float(kernel_time),
            solver_bytes_per_step=float(solver_bytes),
            est_iterations_per_step=float(est_iters),
        )

    def rank(self, candidates: list[TuneCandidate]) -> list[PriorScore]:
        """Candidates ordered by modeled bytes per step (ties: stable
        enumeration order, so the ranking is fully deterministic)."""
        scores = [self.score(c) for c in candidates]
        order = sorted(
            range(len(scores)), key=lambda i: (scores[i].total_bytes_per_step, i)
        )
        return [scores[i] for i in order]
