"""Cooperative deadline tests: Deadline/SolveTimeout + solver propagation.

The load-bearing properties:

* expiry raises a TYPED exception at a cooperative boundary, carrying
  the last completed checkpoint (or ``None`` before any step completes
  -- never partial garbage);
* a solve that stays within budget is BITWISE identical to one run
  without any deadline (checks only read the clock);
* resuming from a timeout's checkpoint reproduces the uninterrupted
  trajectory bitwise.
"""

import pickle
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.sparse import CsrMatrix
from repro.resilience import Deadline, SolveTimeout
from repro.solvers import gmres, newton_solve


class FakeClock:
    """Manually advanced clock injected into Deadline."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TickingClock:
    """Advances a fixed amount on every read (deterministic 'wall time')."""

    def __init__(self, dt: float):
        self.t = 0.0
        self.dt = dt

    def __call__(self) -> float:
        self.t += self.dt
        return self.t


def _csr(m):
    m = m.tocsr()
    return CsrMatrix(m.shape, m.indptr, m.indices, m.data)


def _laplace_1d(n):
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return _csr(sp.diags([off, main, off], [-1, 0, 1]))


def _cubic_system():
    """Small smooth nonlinear system needing several Newton steps."""
    c = np.array([1.0, 8.0, 27.0, 64.0])

    def F(x):
        return x**3 - c

    def J(x):
        return _csr(sp.diags(3.0 * x**2))

    return F, J, np.array([3.0, 3.0, 3.0, 3.0])


class TestDeadline:
    def test_elapsed_remaining_expired(self):
        clock = FakeClock()
        d = Deadline(5.0, clock=clock)
        assert d.elapsed() == 0.0
        assert d.remaining() == 5.0
        assert not d.expired
        clock.advance(4.0)
        d.check("anywhere")  # within budget: no raise
        clock.advance(1.0)
        assert d.expired
        with pytest.raises(SolveTimeout):
            d.check("somewhere")

    def test_zero_budget_expires_immediately(self):
        d = Deadline(0.0, clock=FakeClock())
        with pytest.raises(SolveTimeout):
            d.check("first check")

    def test_timeout_is_typed_and_self_describing(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        clock.advance(3.0)
        sentinel = SimpleNamespace(step=3)
        with pytest.raises(SolveTimeout) as exc_info:
            d.check("newton.step 3", checkpoint=sentinel)
        exc = exc_info.value
        assert exc.budget_s == 2.0
        assert exc.elapsed_s == 3.0
        assert exc.phase == "newton.step 3"
        assert exc.checkpoint is sentinel
        assert "deadline" in str(exc)
        assert "newton.step 3" in str(exc)
        assert isinstance(exc, RuntimeError)

    def test_crosses_a_process_boundary_as_its_absolute_expiry(self):
        """A pickled deadline reads ``time.monotonic`` and keeps what was
        left of the budget, whatever clock the original reads."""
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        clock.advance(4.0)
        before = time.monotonic()
        copy = pickle.loads(pickle.dumps(d))
        assert copy.budget_s == 10.0
        assert 6.0 - (time.monotonic() - before) <= copy.remaining() <= 6.0
        clock.advance(100.0)  # the original's clock is not the copy's
        assert not copy.expired

    def test_timeout_keeps_its_payload_through_pickling(self):
        ckpt = SimpleNamespace(step=2)
        exc = pickle.loads(pickle.dumps(
            SolveTimeout(budget_s=1.0, elapsed_s=1.5, phase="gmres", checkpoint=ckpt)
        ))
        assert (exc.budget_s, exc.elapsed_s, exc.phase, exc.checkpoint.step) == (1.0, 1.5, "gmres", 2)


class TestGmresDeadline:
    def test_mid_cycle_expiry_is_typed(self):
        A = _laplace_1d(40)
        b = np.ones(40)
        # every clock read advances; the budget admits the first few
        # inner-iteration checks, then expires mid-cycle
        deadline = Deadline(2.0, clock=TickingClock(0.25))
        with pytest.raises(SolveTimeout) as exc_info:
            gmres(A, b, tol=1e-12, restart=30, maxiter=200, deadline=deadline)
        assert exc_info.value.phase.startswith("gmres cycle")

    def test_no_deadline_and_lavish_deadline_bitwise_equal(self):
        A = _laplace_1d(40)
        b = np.linspace(1.0, 2.0, 40)
        plain = gmres(A, b, tol=1e-10, restart=20, maxiter=200)
        timed = gmres(
            A, b, tol=1e-10, restart=20, maxiter=200,
            deadline=Deadline(1.0e9, clock=FakeClock()),
        )
        assert plain.iterations == timed.iterations
        assert np.array_equal(plain.x, timed.x)


class TestNewtonDeadline:
    def test_budget_shorter_than_one_step_immediate_typed_timeout(self):
        F, J, x0 = _cubic_system()
        with pytest.raises(SolveTimeout) as exc_info:
            newton_solve(
                F, J, x0, max_steps=10, tol=1e-12,
                deadline=Deadline(0.0, clock=FakeClock()),
            )
        exc = exc_info.value
        # no step completed: no partial garbage, and the phase names the
        # very first cooperative boundary
        assert exc.checkpoint is None
        assert exc.phase == "newton.initial"

    def test_within_budget_solve_bitwise_equals_deadline_free(self):
        F, J, x0 = _cubic_system()
        plain = newton_solve(F, J, x0, max_steps=20, tol=1e-12)
        timed = newton_solve(
            F, J, x0, max_steps=20, tol=1e-12,
            deadline=Deadline(1.0e9, clock=FakeClock()),
        )
        assert plain.iterations == timed.iterations
        assert plain.residual_norms == timed.residual_norms
        assert np.array_equal(plain.x, timed.x)

    def test_timeout_carries_last_checkpoint(self):
        F, J, x0 = _cubic_system()
        clock = FakeClock()

        # expire the budget from the step callback: deterministic expiry
        # at an exact loop position, independent of machine speed
        def expire_after_second_step(step, x, fnorm, lin):
            if step == 1:
                clock.advance(10.0)

        with pytest.raises(SolveTimeout) as exc_info:
            newton_solve(
                F, J, x0, max_steps=20, tol=1e-14,
                deadline=Deadline(1.0, clock=clock),
                callback=expire_after_second_step,
            )
        ckpt = exc_info.value.checkpoint
        assert ckpt is not None
        assert ckpt.step == 2
        assert len(ckpt.residual_norms) == 3  # initial + 2 accepted steps

    def test_resume_after_timeout_is_bitwise_identical(self):
        F, J, x0 = _cubic_system()
        reference = newton_solve(F, J, x0, max_steps=20, tol=1e-12)

        clock = FakeClock()

        def expire_after_second_step(step, x, fnorm, lin):
            if step == 1:
                clock.advance(10.0)

        with pytest.raises(SolveTimeout) as exc_info:
            newton_solve(
                F, J, x0, max_steps=20, tol=1e-12,
                deadline=Deadline(1.0, clock=clock),
                callback=expire_after_second_step,
            )
        resumed = newton_solve(
            F, J, x0, max_steps=20, tol=1e-12,
            resume_from=exc_info.value.checkpoint,
        )
        assert resumed.converged == reference.converged
        assert resumed.iterations == reference.iterations
        assert resumed.residual_norms == reference.residual_norms
        assert np.array_equal(resumed.x, reference.x)
