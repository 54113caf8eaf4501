"""Per-tenant circuit breaker: fail fast instead of failing slowly.

The classic three-state machine over a tenant's job outcomes:

* **CLOSED** -- jobs flow; consecutive failures are counted and any
  success resets the count.  Reaching the policy's
  ``failure_threshold`` trips the breaker OPEN.
* **OPEN** -- submissions are rejected immediately with
  :class:`~repro.errors.CircuitOpenError` (no queue slot, no worker
  time) until ``cooldown_s`` has elapsed on the server's clock.
* **HALF_OPEN** -- after the cooldown, up to ``half_open_probes`` jobs
  are admitted as probes.  A probe success closes the breaker; a probe
  failure re-opens it for another cooldown.

The breaker is driven entirely by the server (which serializes calls
under its lock and supplies the clock), so the state machine itself
stays lock-free and deterministic.
"""

from __future__ import annotations

from repro.serve.policy import BreakerPolicy

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of the states (``serve_breaker_state`` metric).
STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class CircuitBreaker:
    """One tenant's breaker; see module docstring for the state machine."""

    def __init__(self, policy: BreakerPolicy, *, tenant: str = "") -> None:
        self.policy = policy
        self.tenant = tenant
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probes_in_flight = 0
        self.transitions: list[tuple[str, str]] = []   #: (from, to) audit

    # -- admission ---------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a new job be admitted at time ``now``?

        Handles the OPEN -> HALF_OPEN transition as a side effect (the
        cooldown is evaluated lazily, on the next submission).
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < self.policy.cooldown_s:
                return False
            self._transition(HALF_OPEN)
        # HALF_OPEN: admit a bounded number of probes
        if self.probes_in_flight < self.policy.half_open_probes:
            self.probes_in_flight += 1
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Seconds until the next probe could be admitted (0 when closed)."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self.policy.cooldown_s - (now - self.opened_at))

    # -- outcomes ----------------------------------------------------------

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self._transition(CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self.opened_at = now
            self._transition(OPEN)
        elif (self.state == CLOSED
              and self.consecutive_failures >= self.policy.failure_threshold):
            self.opened_at = now
            self._transition(OPEN)

    # -- internals ---------------------------------------------------------

    def _transition(self, to: str) -> None:
        self.transitions.append((self.state, to))
        self.state = to
        if to != HALF_OPEN:
            self.probes_in_flight = 0
