"""Cooperative wall-clock deadlines for the solver stack.

A long-lived solve service cannot let one request monopolize a worker:
every request carries a wall-clock budget, and the budget must reach
the places that actually spend the time -- the Newton step loop, the
GMRES inner iterations, the line-search trials.  Python threads cannot
be preempted safely mid-``numpy`` call, so the budget is *cooperative*:
:class:`Deadline` is threaded down as an optional argument and checked
at loop boundaries (Newton step attempts, GMRES cycles and iterations,
line-search trials), where raising is cheap and the solver state is
consistent.

Expiry raises a typed :class:`SolveTimeout` rather than returning a
corrupted half-iterate.  ``newton_solve`` attaches the last *completed*
:class:`~repro.resilience.checkpoint.NewtonCheckpoint` to the
exception, so the caller gets a usable partial result: serve it
degraded, or resume the solve later via ``newton_solve(resume_from=
exc.checkpoint)`` -- the resumed trajectory is bitwise-identical to an
uninterrupted run (checkpoint/restart re-enters the loop at the same
iterate and re-evaluates the same sweep).

A deadline that expires before the first Newton step completes carries
``checkpoint=None``: an immediate typed timeout, never partial garbage.

Determinism: checks only read the clock and branch -- they never touch
the numerics -- so a solve that does *not* time out is bitwise equal to
one run without any deadline.  Tests inject a fake ``clock`` to expire
at exact loop positions.
"""

from __future__ import annotations

import time

__all__ = ["Deadline", "SolveTimeout"]


class SolveTimeout(RuntimeError):
    """A solve exceeded its wall-clock budget (typed, checkpoint-bearing).

    Attributes
    ----------
    budget_s:
        The wall-clock budget the deadline was created with.
    elapsed_s:
        Time elapsed on the deadline's clock when the check fired.
    phase:
        The cooperative checkpoint that detected expiry (e.g.
        ``"newton.step 3"``, ``"gmres cycle 1 it 42"``).
    checkpoint:
        Last completed :class:`NewtonCheckpoint`, or ``None`` when the
        budget expired before the first checkpointed step (immediate
        timeout: no partial state exists).  Resume with
        ``newton_solve(resume_from=exc.checkpoint)`` for a
        bitwise-identical continuation.
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        budget_s: float = 0.0,
        elapsed_s: float = 0.0,
        phase: str = "",
        checkpoint=None,
    ):
        if message is None:
            at = f" at {phase}" if phase else ""
            have = (
                f"last checkpoint: step {checkpoint.step}"
                if checkpoint is not None
                else "no completed checkpoint"
            )
            message = (
                f"solve exceeded its {budget_s:.3g}s deadline{at} "
                f"(elapsed {elapsed_s:.3g}s; {have})"
            )
        super().__init__(message)
        self.budget_s = float(budget_s)
        self.elapsed_s = float(elapsed_s)
        self.phase = phase
        self.checkpoint = checkpoint


class Deadline:
    """A wall-clock budget started at construction time.

    ``clock`` defaults to :func:`time.monotonic`; tests inject a fake
    clock to make expiry fire at exact loop positions.  The deadline
    starts ticking immediately -- a service creates it at *admission*,
    so queue wait counts against the request's budget (a request that
    waited its whole budget in the queue times out before wasting a
    worker on it).
    """

    __slots__ = ("budget_s", "_clock", "_t0")

    def __init__(self, budget_s: float, clock=time.monotonic):
        self.budget_s = float(budget_s)
        self._clock = clock
        self._t0 = clock()

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.budget_s - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, phase: str, checkpoint=None) -> None:
        """Raise :class:`SolveTimeout` if the budget is spent.

        Called at cooperative boundaries only; reads the clock and
        branches, so it never perturbs the numerics of a solve that
        stays within budget.
        """
        elapsed = self.elapsed()
        if elapsed >= self.budget_s:
            raise SolveTimeout(
                budget_s=self.budget_s,
                elapsed_s=elapsed,
                phase=phase,
                checkpoint=checkpoint,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget_s={self.budget_s}, remaining={self.remaining():.3g})"
