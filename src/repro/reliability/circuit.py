"""Per-dependency circuit breakers for the serving fleet.

The :class:`~repro.reliability.degrade.LoadShedder` protects a *queue*; this
module protects a *dependency*.  When one backend of the serving fleet
(a worker process behind the router) starts failing, retrying it for
every request doubles the damage: each attempt burns a client's latency
budget and keeps the sick worker pinned at saturation.  The classic fix
is the circuit breaker (Nygard's "Release It!" pattern, the same state
machine Hystrix/resilience4j ship):

* **closed** — normal operation.  Failures are counted in a rolling
  outcome window; when either ``failure_threshold`` *consecutive*
  failures or an error rate ``>= error_rate_threshold`` over at least
  ``min_requests`` outcomes is reached, the breaker **opens**.
* **open** — every call is refused instantly (``allow()`` returns
  False) for ``recovery_timeout_s``.  The router uses this to route
  around the worker without spending a connection attempt on it.
* **half-open** — after the timeout, up to ``half_open_probes`` trial
  calls are let through.  If they all succeed the breaker **closes**
  (window reset); any failure re-opens it and restarts the timeout.

Every transition increments ``circuit.<name>.<state>`` in the telemetry
registry, so ``/metrics`` exposes breaker history; the current state and
the refusal count are in :meth:`CircuitBreaker.describe` (the router's
``/healthz``).  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..telemetry import clock as _default_clock
from ..telemetry import get_registry

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe three-state circuit breaker.

    Parameters
    ----------
    name:
        Label mixed into the ``circuit.<name>.*`` metric names.
    failure_threshold:
        Consecutive failures that open a closed breaker.
    error_rate_threshold:
        Error rate over the rolling window that opens a closed breaker
        (only once the window holds at least ``min_requests`` outcomes,
        so a single early failure cannot trip a 100% rate).
    window:
        Rolling outcome-window length (successes + failures).
    min_requests:
        Minimum outcomes in the window before the rate rule applies.
    recovery_timeout_s:
        How long an open breaker refuses calls before going half-open.
    half_open_probes:
        Trial calls admitted (and successes required) in half-open
        before the breaker closes again.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, name: str = "default", failure_threshold: int = 5,
                 error_rate_threshold: float = 0.5, window: int = 20,
                 min_requests: int = 10, recovery_timeout_s: float = 5.0,
                 half_open_probes: int = 2,
                 clock: Optional[Callable[[], float]] = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if not 0.0 < error_rate_threshold <= 1.0:
            raise ValueError("error_rate_threshold must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if recovery_timeout_s < 0:
            raise ValueError("recovery_timeout_s must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = str(name)
        self.failure_threshold = int(failure_threshold)
        self.error_rate_threshold = float(error_rate_threshold)
        self.window = int(window)
        self.min_requests = int(min_requests)
        self.recovery_timeout_s = float(recovery_timeout_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock if clock is not None else _default_clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=self.window)
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.stats: Dict[str, int] = {
            "successes": 0, "failures": 0, "rejected": 0,
            "opens": 0, "closes": 0,
        }

    # ------------------------------------------------------------------
    def _transition(self, state: str) -> None:
        """Move to ``state`` (caller holds the lock) and emit metrics."""
        if state == self._state:
            return
        self._state = state
        get_registry().inc(f"circuit.{self.name}.{state}")
        if state == OPEN:
            self._opened_at = self._clock()
            self._probes_in_flight = 0
            self._probe_successes = 0
            self.stats["opens"] += 1
        elif state == HALF_OPEN:
            self._probes_in_flight = 0
            self._probe_successes = 0
        else:  # CLOSED
            self._outcomes.clear()
            self._consecutive_failures = 0
            self._opened_at = None
            self.stats["closes"] += 1

    def _maybe_half_open(self) -> None:
        """Open → half-open once the recovery timeout elapsed (locked)."""
        if self._state == OPEN and self._opened_at is not None and \
                self._clock() - self._opened_at >= self.recovery_timeout_s:
            self._transition(HALF_OPEN)

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state (applies the open → half-open timeout lazily)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Admission decision for one call.

        A half-open breaker admits at most ``half_open_probes``
        concurrent trials; everything else is refused until the probes
        settle.  The caller MUST follow an admitted call with exactly
        one :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return True
            self.stats["rejected"] += 1
        return False

    def record_success(self) -> None:
        with self._lock:
            self.stats["successes"] += 1
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0,
                                             self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._transition(CLOSED)
                return
            self._outcomes.append(True)
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.stats["failures"] += 1
            if self._state == HALF_OPEN:
                # One sick probe is proof enough: reopen immediately.
                self._probes_in_flight = max(0,
                                             self._probes_in_flight - 1)
                self._transition(OPEN)
                return
            if self._state == OPEN:
                return
            self._outcomes.append(False)
            self._consecutive_failures += 1
            rate = 1.0 - sum(self._outcomes) / len(self._outcomes)
            if (self._consecutive_failures >= self.failure_threshold
                    or (len(self._outcomes) >= self.min_requests
                        and rate >= self.error_rate_threshold)):
                self._transition(OPEN)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Force-close (operator override / tests)."""
        with self._lock:
            if self._state != CLOSED:
                self._transition(CLOSED)
            else:
                self._outcomes.clear()
                self._consecutive_failures = 0

    def describe(self) -> Dict[str, object]:
        """Breaker facts for /healthz."""
        with self._lock:
            self._maybe_half_open()
            outcomes = len(self._outcomes)
            rate = (1.0 - sum(self._outcomes) / outcomes
                    if outcomes else 0.0)
            return {
                "name": self.name,
                "state": self._state,
                "error_rate": rate,
                "window": outcomes,
                "consecutive_failures": self._consecutive_failures,
                "stats": dict(self.stats),
            }

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, state={self.state!r}, "
                f"stats={self.stats})")
