"""Per-scenario circuit breaker: stop hammering a failing problem.

A scenario that keeps timing out or diverging wastes a worker per
attempt while healthy requests queue behind it.  The breaker cuts that
off with the classic three-state machine, driven entirely by request
outcomes (no wall-clock cooldown -- a deterministic request-count
schedule, so chaos runs replay identically):

* **closed** -- requests flow; ``FAILURE_THRESHOLD`` *consecutive*
  failures trip it open (a single success resets the streak);
* **open** -- requests are shed with ``breaker_open``; after
  ``PROBE_AFTER`` sheds the next request is admitted as the half-open
  probe;
* **half-open** -- exactly one probe runs (concurrent requests keep
  shedding); success closes the breaker, failure reopens it and the
  shed count starts over.

Every transition is recorded (with the driving request ordinal) so the
chaos harness can assert the exact open -> half-open -> closed script.
"""

from __future__ import annotations

from repro.observability import get_metrics

__all__ = ["CircuitBreaker"]

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"
_STATE_CODE = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

#: consecutive failures that trip a closed breaker open
FAILURE_THRESHOLD = 3
#: sheds an open breaker counts before it admits the half-open probe
PROBE_AFTER = 2


class CircuitBreaker:
    """Outcome-driven breaker for one scenario digest."""

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.state = CLOSED
        self.consecutive_failures = 0
        #: sheds since the breaker last opened (drives the probe schedule)
        self.rejections = 0
        #: True while the single half-open probe is in flight
        self.probe_in_flight = False
        #: chronological (from_state, to_state, detail) record
        self.transitions: list[dict] = []

    # ------------------------------------------------------------------
    def _move(self, to_state: str, **detail) -> None:
        self.transitions.append({"from": self.state, "to": to_state, **detail})
        self.state = to_state
        get_metrics().gauge("serve.breaker.state").set(_STATE_CODE[to_state])
        get_metrics().counter(f"serve.breaker.{to_state}").inc()

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Admission decision for one request (counts a shed when False)."""
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            # one probe at a time; everyone else keeps shedding
            if self.probe_in_flight:
                self.rejections += 1
                return False
            self.probe_in_flight = True
            return True
        # OPEN: shed until the probe schedule arms the half-open state;
        # the arming request is itself still shed -- the NEXT request
        # becomes the probe (K failures, then PROBE_AFTER sheds, then
        # one probe: the exact script the chaos harness asserts)
        self.rejections += 1
        if self.rejections >= PROBE_AFTER:
            self._move(HALF_OPEN, after_rejections=self.rejections)
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.probe_in_flight = False
            self.rejections = 0
            self._move(CLOSED, probe="success")

    def record_failure(self, reason: str = "") -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # failed probe: back to open, shed count restarts
            self.probe_in_flight = False
            self.rejections = 0
            self._move(OPEN, probe="failure", reason=reason)
            return
        if self.state == CLOSED and self.consecutive_failures >= FAILURE_THRESHOLD:
            self.rejections = 0
            self._move(OPEN, consecutive_failures=self.consecutive_failures, reason=reason)

    def describe(self) -> dict:
        return {
            "scenario": self.scenario,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "rejections": self.rejections,
            "transitions": list(self.transitions),
        }
