"""Autograd / layer profiler: per-op and per-layer time + MAC estimates.

The nn substrate carries permanently-installed but dormant hooks:

* every :class:`repro.nn.Tensor` primitive (add, matmul, relu, sign_ste,
  …) and every heavy functional op (conv2d, pooling, batch norm) is
  wrapped so that *when a profiler is installed* the wrapper times the
  forward computation, estimates its FLOP/MAC cost, and re-wraps the op's
  backward closure to time the backward pass too;
* :class:`repro.nn.Module.__call__` reports every *leaf-module* forward
  with its wall time and the MAC/parameter cost from
  :func:`repro.hardware.macs.layer_cost` (the same accounting the Fig. 5
  analysis uses).

When no profiler is installed the wrappers reduce to a single global
``None`` check — the disabled-path overhead is asserted to stay under a
few percent by ``scripts/check_telemetry.sh`` (see
:func:`disabled_overhead_ratio`).

Usage::

    with Profiler() as prof:
        pipeline.fit(x, y)
    print(prof.format_top_ops())
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import tensor as _tensor_mod
from .report import format_table

__all__ = ["OpStat", "LayerStat", "Profiler", "get_active_profiler",
           "disabled_overhead_ratio"]

_perf = time.perf_counter

#: Ops whose FLOP count scales with the *input* size (reductions).
_REDUCTION_OPS = frozenset({"sum", "max", "mean"})

_layer_cost = None  # lazily imported from repro.hardware.macs


class OpStat:
    """Aggregated cost of one autograd op kind."""

    __slots__ = ("name", "calls", "forward_s", "backward_calls",
                 "backward_s", "bytes", "flops")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.forward_s = 0.0
        self.backward_calls = 0
        self.backward_s = 0.0
        self.bytes = 0
        self.flops = 0

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": "op",
            "name": self.name,
            "calls": self.calls,
            "forward_s": self.forward_s,
            "backward_calls": self.backward_calls,
            "backward_s": self.backward_s,
            "total_s": self.total_s,
            "bytes": self.bytes,
            "flops": self.flops,
        }


class LayerStat:
    """Aggregated cost of one leaf-module kind (Conv2d, Linear, …)."""

    __slots__ = ("name", "calls", "forward_s", "macs", "params", "bytes")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.forward_s = 0.0
        self.macs = 0
        self.params = 0
        self.bytes = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": "layer",
            "name": self.name,
            "calls": self.calls,
            "forward_s": self.forward_s,
            "macs": self.macs,
            "params": self.params,
            "bytes": self.bytes,
        }


def _estimate_flops(name: str, out_data: np.ndarray, args: tuple) -> int:
    """Cheap MAC/FLOP estimate for an autograd op.

    Follows the Fig. 5 accounting: GEMM-like ops count one MAC per
    multiply-accumulate; everything else counts one op per element.
    """
    try:
        if name == "matmul" and args:
            first = args[0]
            inner = getattr(first, "shape", (1,))[-1]
            return int(out_data.size) * int(inner)
        if name == "conv2d" and len(args) >= 2:
            weight = args[1]
            _, group_in, k, _ = weight.shape
            return int(out_data.size) * int(group_in) * int(k) * int(k)
        if name in _REDUCTION_OPS and args:
            return int(getattr(args[0], "size", out_data.size))
    except Exception:
        pass
    return int(out_data.size)


class Profiler:
    """Collects per-op / per-layer statistics while installed.

    Install with :meth:`enable` / :meth:`disable` or as a context
    manager.  Only one profiler is active at a time (module-global slot
    in ``repro.nn.tensor``); nesting raises to avoid silently dropping
    half the events.
    """

    def __init__(self):
        self.ops: Dict[str, OpStat] = {}
        self.layers: Dict[str, LayerStat] = {}
        self._lock = threading.Lock()
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def enable(self) -> "Profiler":
        if _tensor_mod._PROFILER is not None:
            raise RuntimeError("another Profiler is already enabled")
        _tensor_mod._PROFILER = self
        self._installed = True
        return self

    def disable(self) -> None:
        if self._installed:
            _tensor_mod._PROFILER = None
            self._installed = False

    @property
    def enabled(self) -> bool:
        return self._installed

    def __enter__(self) -> "Profiler":
        return self.enable()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # Hook targets (called from repro.nn when installed)
    # ------------------------------------------------------------------
    def record_op(self, name: str, elapsed: float, out, args: tuple) -> None:
        """Record a forward op and arm backward timing on its output."""
        data = getattr(out, "data", None)
        with self._lock:
            stat = self.ops.get(name)
            if stat is None:
                stat = self.ops[name] = OpStat(name)
            stat.calls += 1
            stat.forward_s += elapsed
            if data is not None:
                stat.bytes += int(data.nbytes)
                stat.flops += _estimate_flops(name, data, args)

        backward = getattr(out, "_backward", None)
        if backward is None or getattr(backward, "_repro_profiled", False):
            # No tape node, or a passthrough of an already-armed tensor
            # (e.g. dropout in eval mode returning its input) — arming
            # again would double-attribute the backward time.
            return

        profiler = self

        def timed_backward(grad: np.ndarray) -> None:
            t0 = _perf()
            backward(grad)
            dt = _perf() - t0
            with profiler._lock:
                stat.backward_calls += 1
                stat.backward_s += dt

        timed_backward._repro_profiled = True  # type: ignore[attr-defined]
        out._backward = timed_backward

    def record_layer(self, module, elapsed: float, out) -> None:
        """Record a leaf-module forward (called by ``Module.__call__``)."""
        global _layer_cost
        if _layer_cost is None:
            from ..hardware.macs import layer_cost as _lc
            _layer_cost = _lc
        name = type(module).__name__
        data = getattr(out, "data", None)
        shape = getattr(out, "shape", None)
        cost = _layer_cost(module, shape)
        with self._lock:
            stat = self.layers.get(name)
            if stat is None:
                stat = self.layers[name] = LayerStat(name)
            stat.calls += 1
            stat.forward_s += elapsed
            stat.macs += cost.macs
            stat.params = max(stat.params, cost.params)
            if data is not None:
                stat.bytes += int(data.nbytes)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def top_ops(self, k: int = 10) -> List[OpStat]:
        """The ``k`` hottest ops by total (forward + backward) time."""
        return sorted(self.ops.values(), key=lambda s: -s.total_s)[:k]

    def top_layers(self, k: int = 10) -> List[LayerStat]:
        return sorted(self.layers.values(), key=lambda s: -s.forward_s)[:k]

    def total_op_time(self) -> float:
        return sum(stat.total_s for stat in self.ops.values())

    def to_events(self) -> List[Dict[str, object]]:
        events = [stat.as_dict() for stat in self.top_ops(len(self.ops))]
        events += [stat.as_dict() for stat in self.top_layers(len(self.layers))]
        return events

    def format_top_ops(self, k: int = 10) -> str:
        """Markdown table of the hottest autograd ops (as in the run report).

        ``GFLOP/s`` is the forward rate: a GEMM op far below BLAS speed
        stands out there.
        """
        if not self.ops:
            return "(no ops recorded)"
        return format_table(
            ["op", "calls", "fwd_s", "bwd_s", "total_s", "GFLOP", "GFLOP/s",
             "MB"],
            [[o.name, o.calls, o.forward_s, o.backward_s, o.total_s,
              o.flops / 1e9, o.flops / o.forward_s / 1e9 if o.forward_s
              else 0.0, o.bytes / 1e6] for o in self.top_ops(k)])

    def format_top_layers(self, k: int = 10) -> str:
        """Markdown table of the slowest leaf-module kinds."""
        if not self.layers:
            return "(no layers recorded)"
        return format_table(
            ["layer", "calls", "fwd_s", "MMAC", "params"],
            [[l.name, l.calls, l.forward_s, l.macs / 1e6, l.params]
             for l in self.top_layers(k)])

    def reset(self) -> None:
        with self._lock:
            self.ops = {}
            self.layers = {}

    def __repr__(self) -> str:
        return (f"Profiler(enabled={self._installed}, ops={len(self.ops)}, "
                f"layers={len(self.layers)})")


def get_active_profiler() -> Optional[Profiler]:
    """The currently-installed profiler, if any."""
    return _tensor_mod._PROFILER


# ----------------------------------------------------------------------
# Disabled-path overhead measurement
# ----------------------------------------------------------------------
def disabled_overhead_ratio(size: int = 128, iters: int = 200,
                            repeats: int = 7,
                            ops: Sequence[str] = ("add", "matmul", "relu")
                            ) -> float:
    """Measure the cost of the dormant profiling hooks.

    Times a mixed tensor workload through the *wrapped* op entry points
    (the shipped configuration, profiler disabled) against the unwrapped
    originals (reachable via ``__wrapped__``), using min-of-``repeats``
    to suppress scheduler noise.  Returns ``t_wrapped / t_unwrapped``;
    ``scripts/check_telemetry.sh`` asserts this stays below 1.05.
    """
    if _tensor_mod._PROFILER is not None:
        raise RuntimeError("disable the profiler before measuring the "
                           "disabled-path overhead")
    Tensor = _tensor_mod.Tensor
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(size, size)))
    b = Tensor(rng.normal(size=(size, size)))

    method_by_op = {"add": "__add__", "matmul": "__matmul__", "relu": "relu",
                    "mul": "__mul__", "sum": "sum"}
    wrapped: List[Tuple[object, tuple]] = []
    raw: List[Tuple[object, tuple]] = []
    for op in ops:
        fn = getattr(Tensor, method_by_op[op])
        original = getattr(fn, "__wrapped__", fn)
        operands = (a, b) if op in ("add", "matmul", "mul") else (a,)
        wrapped.append((fn, operands))
        raw.append((original, operands))

    def run(fns: List[Tuple[object, tuple]]) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = _perf()
            for _ in range(iters):
                for fn, operands in fns:
                    fn(*operands)
            best = min(best, _perf() - t0)
        return best

    run(raw)  # warm caches before the measured passes
    t_raw = run(raw)
    t_wrapped = run(wrapped)
    return t_wrapped / t_raw
