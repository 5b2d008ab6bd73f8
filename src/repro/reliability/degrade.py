"""Overload degradation: admission control and serving-side errors.

This module is the degradation policy for a *stream* of requests: when
the serving queue backs up faster than the workers drain it, the correct
degradation is to shed load early (fail fast with a retryable error)
instead of letting every request time out.

:class:`LoadShedder` implements hysteresis admission control: once queue
depth crosses ``high_watermark`` new requests are rejected until depth
falls back to ``low_watermark``, which prevents the shed/admit decision
from oscillating around a single threshold.  Its ``stats`` count the
admitted and shed decisions (served in the worker's ``/healthz``).

:class:`OverloadShedError` and :class:`DeadlineExceededError` are the
two degradation outcomes the micro-batcher surfaces to callers (mapped
to HTTP 503 / 504 by :mod:`repro.serve.server`).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = ["OverloadShedError", "DeadlineExceededError", "LoadShedder"]


class ServingDegradedError(RuntimeError):
    """Base of the serving degradation outcomes.

    Carries the *request id* (the request's trace id when tracing is
    on) and the model label of the batcher that rejected it, so a
    coalesced batch's shed/deadline error can say **which** request was
    affected — both travel into the HTTP error payload and the
    per-model ``serve.batcher.*.model.<label>`` counters.
    """

    def __init__(self, message: str, request_id: Optional[str] = None,
                 model: Optional[str] = None):
        super().__init__(message)
        self.request_id = request_id
        self.model = model


class OverloadShedError(ServingDegradedError):
    """Request rejected by admission control (retryable: HTTP 503)."""


class DeadlineExceededError(ServingDegradedError):
    """Request expired before a worker reached it (HTTP 504)."""


class LoadShedder:
    """Watermark-based admission control with hysteresis (thread-safe).

    Parameters
    ----------
    high_watermark:
        Queue depth at (or above) which new requests are shed.  Once
        shedding started it stops at the low watermark,
        ``high_watermark // 2``.
    """

    def __init__(self, high_watermark: int):
        if high_watermark < 1:
            raise ValueError("high_watermark must be >= 1")
        self.high_watermark = int(high_watermark)
        self.low_watermark = self.high_watermark // 2
        self._shedding = False
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {"admitted": 0, "shed": 0}

    @property
    def shedding(self) -> bool:
        """Whether the shedder is currently in the rejecting regime."""
        return self._shedding

    def admit(self, depth: int) -> bool:
        """Admission decision for a request arriving at queue ``depth``.

        Returns True to admit.  Transitions: depth >= high → start
        shedding; depth <= low → stop shedding; in between the previous
        regime persists (hysteresis).
        """
        with self._lock:
            if self._shedding:
                if depth <= self.low_watermark:
                    self._shedding = False
            elif depth >= self.high_watermark:
                self._shedding = True
            admitted = not self._shedding
            if admitted:
                self.stats["admitted"] += 1
            else:
                self.stats["shed"] += 1
        return admitted

    def reset(self) -> None:
        with self._lock:
            self._shedding = False
            self.stats = {"admitted": 0, "shed": 0}

    def __repr__(self) -> str:
        return (f"LoadShedder(high={self.high_watermark}, "
                f"low={self.low_watermark}, shedding={self._shedding}, "
                f"stats={self.stats})")
