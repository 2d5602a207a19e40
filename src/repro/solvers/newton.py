"""Damped Newton's method with backtracking line search and recovery.

MALI's velocity solve runs a fixed number of damped Newton steps (eight
in the paper's Antarctica test); each step assembles residual and
Jacobian via the SFad kernel and solves the linear system with
preconditioned GMRES.

The paper's headline optimization is loop fusion: SFad evaluation
already produces the residual as the value component of the Jacobian
sweep, so each step makes one ``(F(x), J(x))`` evaluate call.  Line-
search trials use the cheap residual-only path.

Resilience.  Production ice-sheet runs hit non-finite residuals (thin-
ice viscosity blowups), stagnating GMRES and corrupted evaluations, and
survive them by step rejection and restart rather than aborting.  This
solver guards every phase -- evaluation, linear solve, line search --
with finiteness checks that (absent a policy) raise a
``FloatingPointError`` naming the step and phase.  With a
:class:`repro.resilience.RecoveryPolicy` attached it instead climbs the
recovery ladder: re-evaluate a poisoned sweep, drop the preconditioner
and escalate the GMRES restart for a sick linear solve, and reject the
step and resume from the last good iterate with a halved damping cap.
Every accepted step is snapshotted, so a killed solve can resume via
``resume_from=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.observability import get_metrics, get_series, get_tracer
from repro.resilience.checkpoint import NewtonCheckpoint
from repro.resilience.deadline import SolveTimeout
from repro.resilience.detectors import nonfinite_count
from repro.solvers.gmres import gmres
from repro.verify.sanitizer import sanitizer

__all__ = ["NewtonResult", "forcing_term", "newton_solve"]

# disarmed fast path: one attribute read per instrumented site
_SAN = sanitizer()

#: Eisenstat-Walker choice 2, ``eta_k = gamma (||F_k|| / ||F_{k-1}||)^2``:
#: ``_ETA_MAX`` is the first step's term and the ceiling (1e-1 costs the
#: shelf-collapse scenario ten more Newton steps, 1e-3 takes a third more
#: GMRES iterations; DESIGN.md section 7, PR 24, has the table)
_ETA_MAX = 1.0e-2
_EW_GAMMA = 0.9
#: the previous term keeps the next from collapsing while
#: ``gamma eta_{k-1}^2`` is above this
_EW_SAFEGUARD = 0.1

#: roundoff-floor stop: ``||F|| <= _FLOOR_RTOL ||F_0||`` and the last two
#: accepted steps both needed backtracking
_FLOOR_RTOL = 1.0e-10

#: ``newton_solve``'s ``||F||`` target and per-step linear tolerance (the
#: paper's 1e-6)
NEWTON_TOL = 1.0e-8
LINEAR_TOL = 1.0e-6

#: smallest backtracking step, accepted even if it does not decrease
#: ``||F||`` (keeps the fixed-step-count workflow robust)
_DAMPING_MIN = 1.0 / 64.0

#: recovery-ladder budgets of a solve with a ``RecoveryPolicy``:
#: full re-evaluations of a non-finite sweep
_MAX_REEVALUATIONS = 2
#: rejected attempts per Newton step before giving up
_MAX_STEP_REJECTIONS = 3
#: damping-cap multiplier applied on each step rejection
_STEP_DAMPING_BACKOFF = 0.5
#: restart/maxiter growth factor per GMRES escalation
_GMRES_RESTART_GROWTH = 2
#: stagnating linear-solve retries with a grown Krylov space
_MAX_GMRES_ESCALATIONS = 2


def forcing_term(residual_norms, tol: float, linear_tol: float) -> float:
    """Relative GMRES tolerance for the Newton step after ``residual_norms``.

    A pure function of the accepted residual history ``[||F_0||, ...,
    ||F_k||]`` -- the previous terms the safeguard needs are replayed
    from it -- so a solve resumed from a :class:`NewtonCheckpoint`
    (which carries that history) asks GMRES for bitwise what the
    uninterrupted solve asked.  The term stays inside ``[linear_tol,
    _ETA_MAX]`` and is never tighter than reaching ``tol`` needs:
    ``eta_k ||F_k||`` is the linear residual the step leaves, and half
    of ``tol`` is as small as that has to be.
    """
    ceiling = max(_ETA_MAX, linear_tol)
    eta = ceiling
    for k in range(1, len(residual_norms)):
        held = _EW_GAMMA * eta**2
        eta = _EW_GAMMA * (residual_norms[k] / residual_norms[k - 1]) ** 2
        if held > _EW_SAFEGUARD:
            eta = max(eta, held)
        eta = min(max(eta, 0.5 * tol / residual_norms[k], linear_tol), ceiling)
    return eta


def _at_roundoff_floor(residual_norms, step_lengths) -> bool:
    """Ten orders below ``||F_0||`` and two accepted steps in a row needed
    backtracking (``alpha < 1``): down there a full Newton step that does
    not reduce ``||F||`` is one rounding noise has defeated, and further
    sweeps buy nothing.  How much the damped steps happened to gain is
    rounding luck and plays no part.  A pure function of the
    checkpointed history, so a resumed solve stops where the
    uninterrupted one does."""
    return (
        len(step_lengths) >= 2
        and residual_norms[-1] <= _FLOOR_RTOL * residual_norms[0]
        and step_lengths[-1] < 1.0
        and step_lengths[-2] < 1.0
    )


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    #: why the loop ended: ``tolerance`` (``||F|| <= tol``),
    #: ``roundoff_floor`` (converged as far as the arithmetic allows,
    #: see :func:`_at_roundoff_floor`) or ``max_steps``
    stop_reason: str = "max_steps"
    residual_norms: list[float] = field(default_factory=list)
    step_lengths: list[float] = field(default_factory=list)
    linear_iterations: list[int] = field(default_factory=list)
    #: per-step GMRES outcome flag (``converged`` / ``maxiter`` /
    #: ``stagnated`` / ``breakdown``), aligned with ``linear_iterations``
    linear_flags: list[str] = field(default_factory=list)
    #: residual-only evaluations: one per line-search trial
    num_residual_evals: int = 0
    #: ``(f, J)`` sweeps -- one per accepted step (the initial evaluation
    #: doubles as the step-0 sweep), plus any recovery re-evaluations
    num_jacobian_evals: int = 0
    #: wall time per solver phase: evaluate (residual/Jacobian callbacks),
    #: preconditioner (setup per step), gmres (linear solves).  Sourced
    #: from observability spans (newton.evaluate / newton.precond_setup /
    #: gmres.solve), so the numbers agree with a recorded trace exactly.
    phase_seconds: dict = field(default_factory=dict)
    #: snapshot after the last accepted step; feed it back via
    #: ``newton_solve(resume_from=...)`` to restart
    checkpoint: NewtonCheckpoint | None = None
    #: the solve started from a nonzero ``x0`` (a warm start).  Transient
    #: stepping feeds each solve the previous step's velocity; this flag
    #: is the provenance the warm-start regression tests assert on.
    warm_started: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1]


def _raise_nonfinite(step: int, phase: str, arr=None) -> None:
    detail = ""
    if arr is not None:
        detail = f": {nonfinite_count(np.asarray(arr))} non-finite entries"
    raise FloatingPointError(
        f"non-finite values at Newton step {step} (phase {phase!r}){detail}; "
        "attach resilience=repro.resilience.RecoveryPolicy() to recover "
        "instead of aborting"
    )


def newton_solve(
    residual_fn,
    jacobian_fn,
    x0: np.ndarray,
    max_steps: int = 8,
    tol: float = NEWTON_TOL,
    linear_tol: float = LINEAR_TOL,
    gmres_restart: int = 300,
    gmres_maxiter: int = 900,
    preconditioner_fn=None,
    callback=None,
    residual_jacobian_fn=None,
    reducer=None,
    resilience=None,
    checkpoint_cb=None,
    resume_from: NewtonCheckpoint | None = None,
    deadline=None,
    inexact: bool = False,
) -> NewtonResult:
    """Solve ``F(x) = 0`` by damped Newton.

    Parameters
    ----------
    residual_fn:
        ``x -> F(x)``, the residual-only path of the line search.
    jacobian_fn:
        ``x -> J``, an operator GMRES accepts (``J.isfinite()`` is the
        per-step health check); may be ``None`` when
        ``residual_jacobian_fn`` is given.
    residual_jacobian_fn:
        ``x -> (F(x), J(x))`` evaluated in one sweep -- the step's one
        evaluate call.  When omitted it is composed from ``residual_fn``
        and ``jacobian_fn`` (closed-form callers).
    preconditioner_fn:
        Optional ``J -> M`` building a preconditioner per Newton step.
    max_steps:
        Maximum (and, when ``tol`` is not reached, exact) Newton steps --
        the paper's test uses eight.
    reducer:
        Optional object with ``dot(x, y)`` and ``norm(x)`` (e.g.
        :class:`repro.solvers.reductions.BlockReducer`) used for every
        residual norm, line-search test and GMRES inner product.  A
        distributed solve passes a partitioned, decomposition-independent
        reducer so serial and SPMD trajectories stay bit-for-bit equal.
    resilience:
        Optional :class:`repro.resilience.RecoveryPolicy`.  Without it,
        any non-finite value detected mid-solve raises a
        ``FloatingPointError`` naming the step and phase; with it the
        solver recovers (re-evaluation, step rejection with damping
        backoff, GMRES restart escalation) and logs every event.
    checkpoint_cb:
        Called with the :class:`NewtonCheckpoint` of every accepted step
        (the latest one is also ``NewtonResult.checkpoint``).
    resume_from:
        A :class:`NewtonCheckpoint` to restart from: the loop re-enters
        at the checkpointed step with the saved iterate and histories.
    deadline:
        Optional :class:`repro.resilience.Deadline` -- the cooperative
        wall-clock budget of a served request.  Checked at every step
        attempt, line-search trial and (propagated) GMRES iteration;
        expiry raises a typed :class:`repro.resilience.SolveTimeout`
        carrying the last completed checkpoint, so the caller can serve
        a partial result or resume later (``resume_from=exc.checkpoint``
        continues bitwise-identically).  A budget that expires before
        the first step completes raises with ``checkpoint=None`` --
        an immediate typed timeout, never partial garbage.
    inexact:
        Solve each step's linear system to :func:`forcing_term` instead
        of ``linear_tol``.  For solves that stop on a reachable ``tol``:
        a fixed-step-count run gains nothing from a cheaper step it
        takes anyway, and its trajectory is pinned by goldens.
    """
    if residual_jacobian_fn is None:
        if jacobian_fn is None:
            raise ValueError("either jacobian_fn or residual_jacobian_fn is required")

        def residual_jacobian_fn(x):
            return residual_fn(x), jacobian_fn(x)

    norm_fn = np.linalg.norm if reducer is None else reducer.norm
    gmres_dot = None if reducer is None else reducer.dot
    gmres_norm = None if reducer is None else reducer.norm
    phases = {"evaluate": 0.0, "preconditioner": 0.0, "gmres": 0.0}
    tr = get_tracer()
    metrics = get_metrics()
    policy = resilience
    log = policy.log if policy is not None else None

    x = np.array(x0, dtype=np.float64)
    res = NewtonResult(x, False, 0)
    res.warm_started = bool(np.any(x != 0.0))
    res.phase_seconds = phases
    start_step = 0
    if resume_from is not None:
        x = np.array(resume_from.x, dtype=np.float64)
        start_step = int(resume_from.step)
        res.x = x
        res.iterations = start_step
        res.residual_norms = list(resume_from.residual_norms)
        res.step_lengths = list(resume_from.step_lengths)
        res.linear_iterations = list(resume_from.linear_iterations)
        res.linear_flags = list(resume_from.linear_flags)
        res.checkpoint = resume_from

    def sweep(what: str, step: int):
        with tr.span("newton.evaluate", what=what, step=step) as sp:
            out = residual_jacobian_fn(x)
        phases["evaluate"] += sp.dur_s
        res.num_jacobian_evals += 1
        return out

    def evaluate(what: str, step: int):
        """``(f, J)`` at the current ``x`` -- the one evaluate call.

        A NaN produced by the sweep must not propagate silently into
        norms and GMRES: without a policy it raises naming the step;
        with one the sweep is re-run (a poisoned sweep is transient,
        genuinely bad thickness/viscosity inputs are not).
        """
        attempts = 0
        while True:
            f_new, J_new = sweep("reevaluate" if attempts else what, step)
            f_ok = bool(np.all(np.isfinite(f_new)))
            if f_ok and J_new.isfinite():
                if attempts:
                    log.record(
                        "recovery", "reevaluation", "newton.evaluate",
                        step=step, phase=what, attempts=attempts,
                    )
                return f_new, J_new
            attempts += 1
            if policy is None or attempts > _MAX_REEVALUATIONS:
                if not f_ok and what != "step":
                    raise FloatingPointError(
                        "non-finite residual at the initial guess; check inputs "
                        "(thickness/viscosity fields) before starting Newton"
                    )
                _raise_nonfinite(step, "evaluate", None if f_ok else f_new)
            log.record(
                "detection", "nonfinite_evaluation", "newton.evaluate",
                step=step, phase=what, attempt=attempts,
            )

    def _check_deadline(phase: str) -> None:
        # cooperative budget check: reads the clock and branches only,
        # so within-budget trajectories are bitwise-deadline-free.  The
        # raised SolveTimeout carries the last completed checkpoint
        # (None before the first one: immediate timeout, no partial
        # garbage).
        if deadline is not None:
            deadline.check(phase, checkpoint=res.checkpoint)

    # the initial evaluation doubles as the step-0 sweep (the residual
    # is the value component of the same SFad sweep), so a full solve
    # performs exactly one DAG sweep per accepted step plus one
    # residual-only sweep per line-search trial.  A resumed solve
    # re-evaluates at the checkpointed iterate (same sweep shape).
    what0 = "initial" if resume_from is None else "resume"
    _check_deadline(f"newton.{what0}")
    f, J = evaluate(what0, start_step)
    fnorm = float(norm_fn(f))
    if _SAN.active:
        _SAN.check("newton.residual_norm", fnorm, f, site="initial")
    series = get_series()
    if resume_from is None:
        res.residual_norms.append(fnorm)
        series.record("newton.residual", fnorm)
    if fnorm <= tol:
        res.converged, res.stop_reason = True, "tolerance"
        return res

    for step in range(start_step, max_steps):
        with tr.span("newton.step", step=step):
            alpha_cap = 1.0
            rejections = 0
            while True:  # step-attempt loop: rejected attempts retry here
                _check_deadline(f"newton.step {step}")
                if J is None:
                    # the sweep's value component replaces the carried
                    # line-search residual
                    f, J = evaluate("step", step)
                    fnorm = float(norm_fn(f))

                with tr.span("newton.precond_setup", step=step) as sp:
                    M = preconditioner_fn(J) if preconditioner_fn is not None else None
                phases["preconditioner"] += sp.dur_s

                # linear solve with restart escalation: a stagnating (or
                # non-finite) GMRES retries with a grown Krylov space; a
                # non-finite direction additionally drops the
                # preconditioner (the usual culprit)
                restart_eff, maxiter_eff = gmres_restart, gmres_maxiter
                escalations = 0
                eta = forcing_term(res.residual_norms, tol, linear_tol) if inexact else linear_tol
                while True:
                    try:
                        with tr.span("gmres.solve", step=step) as sp:
                            lin = gmres(
                                J,
                                -f,
                                tol=eta,
                                restart=restart_eff,
                                maxiter=maxiter_eff,
                                M=M,
                                dot=gmres_dot,
                                norm=gmres_norm,
                                deadline=deadline,
                            )
                    except SolveTimeout as exc:
                        # GMRES raises bare (it has no Newton state);
                        # attach the last completed checkpoint here so
                        # the service can serve/resume the partial result
                        if exc.checkpoint is None:
                            exc.checkpoint = res.checkpoint
                        raise
                    phases["gmres"] += sp.dur_s
                    dx = lin.x
                    if not np.all(np.isfinite(dx)):
                        problem = "nonfinite_direction"
                    elif lin.flag == "stagnated":
                        problem = "gmres_stagnated"
                    else:
                        problem = None
                    if problem is None:
                        break
                    if policy is None:
                        if problem == "nonfinite_direction":
                            _raise_nonfinite(step, "gmres", dx)
                        break  # stagnation without a policy: proceed damped
                    if escalations >= _MAX_GMRES_ESCALATIONS:
                        if problem == "nonfinite_direction":
                            _raise_nonfinite(step, "gmres", dx)
                        break
                    log.record(
                        "detection", problem, "gmres.solve",
                        step=step, flag=lin.flag, restart=restart_eff,
                        final_residual=lin.final_residual,
                    )
                    escalations += 1
                    restart_eff *= _GMRES_RESTART_GROWTH
                    maxiter_eff *= _GMRES_RESTART_GROWTH
                    if problem == "nonfinite_direction":
                        M = None
                    with tr.span(
                        "resilience.recover", site="gmres.solve",
                        step=step, restart=restart_eff,
                    ):
                        log.record(
                            "recovery", "gmres_escalation", "gmres.solve",
                            step=step, escalation=escalations,
                            restart=restart_eff, maxiter=maxiter_eff,
                            dropped_preconditioner=problem == "nonfinite_direction",
                        )

                # consumed: the line search reads neither, and the next
                # attempt or step sweeps and sets up afresh.  ``M`` holds
                # ``J`` (``M.A``), so both go before the next sweep runs.
                J = M = None

                # backtracking on ||F||, capped by the rejection backoff
                alpha = alpha_cap
                rejected = False
                nonfinite_trials = 0
                with tr.span("newton.line_search", step=step):
                    while True:
                        _check_deadline(f"newton.line_search step {step}")
                        x_trial = x + alpha * dx
                        with tr.span("newton.evaluate", what="line_search") as sp:
                            f_trial = residual_fn(x_trial)
                        phases["evaluate"] += sp.dur_s
                        res.num_residual_evals += 1
                        if np.all(np.isfinite(f_trial)):
                            fnorm_trial = float(norm_fn(f_trial))
                            if _SAN.active:
                                _SAN.check(
                                    "newton.residual_norm", fnorm_trial, f_trial,
                                    site=f"step {step} line_search alpha={alpha:g}",
                                )
                            if (
                                fnorm_trial < (1.0 - 1.0e-4 * alpha) * fnorm
                                or alpha <= _DAMPING_MIN
                            ):
                                if nonfinite_trials and policy is not None:
                                    log.record(
                                        "recovery", "line_search_reeval",
                                        "newton.line_search", step=step,
                                        alpha=alpha, bad_trials=nonfinite_trials,
                                    )
                                break
                        else:
                            # a non-finite trial is never acceptable --
                            # without this guard a NaN reaching
                            # ``_DAMPING_MIN`` would be silently accepted
                            if policy is None:
                                _raise_nonfinite(step, "line_search", f_trial)
                            nonfinite_trials += 1
                            log.record(
                                "detection", "nonfinite_line_search",
                                "newton.line_search", step=step, alpha=alpha,
                            )
                            if alpha <= _DAMPING_MIN:
                                rejected = True
                                break
                        alpha *= 0.5

                if not rejected:
                    break  # step attempt succeeded
                # reject the step: resume from the last good iterate with
                # a halved damping cap (x was never overwritten)
                rejections += 1
                if rejections > _MAX_STEP_REJECTIONS:
                    _raise_nonfinite(step, "step_rejection")
                alpha_cap *= _STEP_DAMPING_BACKOFF
                with tr.span(
                    "resilience.recover", site="newton.step",
                    step=step, rejection=rejections,
                ):
                    log.record(
                        "recovery", "step_rejection", "newton.step",
                        step=step, rejections=rejections, alpha_cap=alpha_cap,
                    )
                metrics.counter("resilience.step_rejections").inc()

            x, f, fnorm = x_trial, f_trial, fnorm_trial
            res.step_lengths.append(alpha)
            res.residual_norms.append(fnorm)
            series.record("newton.residual", fnorm)
            series.record("newton.step_length", alpha)
            res.linear_iterations.append(lin.iterations)
            res.linear_flags.append(lin.flag)
            metrics.histogram("gmres.iterations_per_solve").observe(lin.iterations)
            res.iterations = step + 1
            metrics.counter("newton.steps").inc()
            res.checkpoint = NewtonCheckpoint(
                step=step + 1,
                x=x.copy(),
                residual_norms=list(res.residual_norms),
                step_lengths=list(res.step_lengths),
                linear_iterations=list(res.linear_iterations),
                linear_flags=list(res.linear_flags),
            )
            metrics.counter("newton.checkpoints").inc()
            if checkpoint_cb is not None:
                checkpoint_cb(res.checkpoint)
        if callback is not None:
            callback(step, x, fnorm, lin)
        if fnorm <= tol:
            res.converged, res.stop_reason = True, "tolerance"
            break
        if _at_roundoff_floor(res.residual_norms, res.step_lengths):
            res.converged, res.stop_reason = True, "roundoff_floor"
            break

    res.x = x
    return res
