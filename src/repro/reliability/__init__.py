"""Reliability subsystem: guards, fault injection, graceful degradation.

Implements the robustness story around the paper's HD pipelines:

* :mod:`~repro.reliability.guards` — numerics guards (NaN/Inf/overflow
  detection with raise/warn/skip policies) hooked into every trainer.
* :mod:`~repro.reliability.faults` — the seeded hypervector bit-flip
  injector the robustness sweep corrupts queries and item memory with.
* :mod:`~repro.reliability.report` — the accuracy-vs-bit-flip-rate
  robustness sweep for NSHD / BaselineHD / VanillaHD.
* :mod:`~repro.reliability.degrade` — serving-side overload
  degradation: :class:`LoadShedder` watermark admission control plus the
  shed/deadline error types surfaced by :mod:`repro.serve`.
* :mod:`~repro.reliability.circuit` — :class:`CircuitBreaker`, the
  per-dependency closed → open → half-open state machine the fleet
  router wraps around each worker process.
"""

from .circuit import CircuitBreaker
from .degrade import (DeadlineExceededError, LoadShedder,
                      OverloadShedError, ServingDegradedError)
from .faults import BitFlipInjector, flip_bits
from .guards import (POLICIES, NumericsError, NumericsGuard,
                     NumericsWarning)
from .report import (DEFAULT_RATES, bit_flip_curve, bit_flip_sweep,
                     format_sweep, sweep_systems)

__all__ = [
    "POLICIES", "NumericsError", "NumericsGuard", "NumericsWarning",
    "BitFlipInjector", "flip_bits",
    "DEFAULT_RATES", "bit_flip_curve", "bit_flip_sweep", "format_sweep",
    "sweep_systems",
    "LoadShedder", "OverloadShedError", "DeadlineExceededError",
    "ServingDegradedError",
    "CircuitBreaker",
]
