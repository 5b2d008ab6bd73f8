"""CLI entry point: ``python -m repro.serve bundle.npz --port 8000``.

Serves a :class:`~repro.serve.bundle.ModelBundle` over HTTP with the
stdlib :class:`~repro.serve.server.ModelServer` (micro-batching, load
shedding, Prometheus metrics, hot reload on ``POST /reload`` / SIGHUP).

Tuning can come from flags or a TOML config file (``--config
serve.toml``); flags win over the file.  The file maps 1:1 onto the
MicroBatcher / LoadShedder / engine knobs::

    [server]
    host = "0.0.0.0"
    port = 8000

    [batcher]
    max_batch_size = 64
    max_latency_ms = 5.0
    workers = 2
    high_watermark = 128
    timeout_s = 5.0

    [engine]
    cache_size = 256
    build_extractor = true
    quality = true           # omit: auto-on when the bundle has a baseline
    quality_window = 512

    [online]
    rule = "online"          # "mass" (dense) or "online" (sparse)
    max_update_norm = 1.0    # per-class L2 cap per feedback sample
    rate_limit_per_s = 50.0  # feedback admission (token bucket)
    holdout_every = 8        # every Nth sample → validation ring
    promote_every = 64       # gate evaluation cadence
    min_accuracy_gain = 0.01 # shadow must beat live by this much

    [alerts]
    interval_s = 1.0         # background evaluation period

    [[alerts.rules]]
    name = "feature-drift"
    metric = "quality.feature.psi_max"
    op = ">"
    threshold = 0.25
    for_s = 2.0
    severity = "page"

Flat top-level keys (``port = 8000``) are accepted too.  Alert rules
(threshold / absence / burn-rate predicates over the metrics registry —
see :mod:`repro.telemetry.alerts`) are evaluated on a background thread
and exposed at ``GET /alertz`` plus ``alert.state.*`` gauges; in fleet
mode the ``--config`` file is forwarded to every worker, so the same
rules run fleet-wide.

``--fleet N`` switches to the fault-tolerant multi-process mode: a
:class:`~repro.serve.fleet.Supervisor` spawns N worker processes (each
one of these CLI invocations on its own port, inheriting the tuning
flags above) and a :class:`~repro.serve.router.Router` front-end
consistent-hashes ``/predict`` across the healthy ones with per-worker
circuit breakers.  See ``docs/FLEET.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..online.learner import ONLINE_OPTION_KEYS
from ..telemetry import (enable_request_tracing, load_alert_rules,
                         tracing_env_options)
from .bundle import BundleError, ModelBundle
from .engine import EngineSelfCheckError, InferenceEngine
from .fleet import FleetError, Supervisor
from .router import Router
from .server import ModelServer

__all__ = ["main", "build_server", "build_fleet", "load_config",
           "worker_args_from", "configure_tracing"]

#: Config keys per section → ModelServer / InferenceEngine kwarg names.
_SERVER_KEYS = ("host", "port")
_BATCHER_KEYS = ("max_batch_size", "max_latency_ms", "workers",
                 "high_watermark", "timeout_s")
_ENGINE_KEYS = ("cache_size", "build_extractor", "selfcheck", "quality",
                "quality_window")
_ALERT_KEYS = ("interval_s", "rules")
_ONLINE_KEYS = ONLINE_OPTION_KEYS


def load_config(path: str) -> Dict[str, Any]:
    """Read a TOML config file into a flat ``{key: value}`` dict.

    Accepts both sectioned (``[server]`` / ``[batcher]`` / ``[engine]``
    / ``[alerts]`` / ``[online]``) and flat layouts; unknown keys and
    sections raise so typos fail loudly instead of silently serving
    with defaults.  The ``[online]`` section lands verbatim as
    ``online_options`` (the :class:`~repro.online.OnlineLearner` kwargs
    — enables ``POST /feedback`` continual learning).  The ``[alerts]``
    section is parsed through
    :func:`~repro.telemetry.alerts.load_alert_rules` (so a malformed
    rule also fails at startup) and lands as ``alert_rules`` /
    ``alert_interval_s``.
    """
    import tomllib
    with open(path, "rb") as handle:
        raw = tomllib.load(handle)
    flat: Dict[str, Any] = {}
    known = set(_SERVER_KEYS) | set(_BATCHER_KEYS) | set(_ENGINE_KEYS)
    for key, value in raw.items():
        if key == "alerts":
            if not isinstance(value, dict):
                raise ValueError(f"[alerts] must be a table in {path!r}")
            for sub in value:
                if sub not in _ALERT_KEYS:
                    raise ValueError(
                        f"unknown config key alerts.{sub} in {path!r}")
            flat["alert_rules"] = load_alert_rules(
                value.get("rules", []))
            if "interval_s" in value:
                flat["alert_interval_s"] = float(value["interval_s"])
            continue
        if key == "online":
            if not isinstance(value, dict):
                raise ValueError(f"[online] must be a table in {path!r}")
            for sub in value:
                if sub not in _ONLINE_KEYS:
                    raise ValueError(
                        f"unknown config key online.{sub} in {path!r}")
            flat["online_options"] = dict(value)
            continue
        if isinstance(value, dict):
            if key not in ("server", "batcher", "engine"):
                raise ValueError(
                    f"unknown config section [{key}] in {path!r}; "
                    "expected [server], [batcher], [engine], "
                    "[alerts], or [online]")
            for sub, subvalue in value.items():
                if sub not in known:
                    raise ValueError(
                        f"unknown config key {key}.{sub} in {path!r}")
                flat[sub] = subvalue
        else:
            if key not in known:
                raise ValueError(f"unknown config key {key!r} in {path!r}")
            flat[key] = value
    return flat


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a model bundle over HTTP "
                    "(/predict, /healthz, /metrics, /reload).")
    parser.add_argument("bundle", help="path to a ModelBundle .npz archive")
    parser.add_argument("--config", default=None,
                        help="TOML config file (flags override it)")
    parser.add_argument("--host", default=None, help="bind host "
                        "(default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (default 8000; 0 = ephemeral)")
    parser.add_argument("--max-batch-size", type=int, default=None)
    parser.add_argument("--max-latency-ms", type=float, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--high-watermark", type=int, default=None,
                        help="shedder high watermark (0 disables shedding)")
    parser.add_argument("--timeout-s", type=float, default=None,
                        help="per-request deadline inside the batcher")
    parser.add_argument("--cache-size", type=int, default=None,
                        help="encoded-hypervector LRU entries (0 disables)")
    parser.add_argument("--no-packed", action="store_true",
                        help="forbid the bit-packed fast path")
    parser.add_argument("--no-extractor", action="store_true",
                        help="serve features only (skip rebuilding the CNN)")
    parser.add_argument("--dry-run", action="store_true",
                        help="build engine+server, print health JSON, exit")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="serve through a supervised N-worker fleet "
                             "behind a consistent-hash router (0 = "
                             "single-process mode)")
    parser.add_argument("--chaos", action="store_true",
                        help="arm the POST /slow fault-injection "
                             "endpoint (tests/chaos harness only)")
    parser.add_argument("--trace", action="store_true",
                        help="enable per-request distributed tracing "
                             "(flight recorder + /tracez + /requestz); "
                             "also via REPRO_TRACE=1")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="additionally export sampled trace spans "
                             "as JSONL under DIR (implies --trace; "
                             "also via REPRO_TRACE_DIR)")
    parser.add_argument("--trace-sample", type=float, default=None,
                        metavar="RATE",
                        help="head-sampling rate in [0, 1] for trace "
                             "export (default 1.0; the flight recorder "
                             "sees every trace regardless)")
    return parser.parse_args(argv)


def configure_tracing(args: argparse.Namespace, service: str) -> bool:
    """Turn on request tracing for this process if flags/env ask for it.

    Flags win over the ``REPRO_TRACE`` / ``REPRO_TRACE_DIR`` /
    ``REPRO_TRACE_SAMPLE`` environment (which is how a fleet supervisor
    arms spawned workers).  Returns whether tracing was enabled.
    """
    env = tracing_env_options()
    trace_dir = getattr(args, "trace_dir", None) or env["trace_dir"]
    enabled = bool(getattr(args, "trace", False)) or env["enabled"] \
        or trace_dir is not None
    if not enabled:
        return False
    sample = getattr(args, "trace_sample", None)
    sample_rate = float(sample) if sample is not None else env["sample_rate"]
    enable_request_tracing(service=service, sample_rate=sample_rate,
                           trace_dir=trace_dir)
    return True


def build_server(args: argparse.Namespace) -> ModelServer:
    """Resolve config + flags into a bound (not yet serving) server."""
    config = load_config(args.config) if args.config else {}

    def knob(name: str, default: Any) -> Any:
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return config.get(name, default)

    engine_options: Dict[str, Any] = {
        "cache_size": int(knob("cache_size", 256)),
    }
    if args.no_packed:
        engine_options["use_packed"] = False
    if args.no_extractor:
        engine_options["build_extractor"] = False
    elif "build_extractor" in config:
        engine_options["build_extractor"] = bool(config["build_extractor"])
    if "selfcheck" in config:
        engine_options["selfcheck"] = bool(config["selfcheck"])
    if "quality" in config:
        engine_options["quality"] = bool(config["quality"])
    if "quality_window" in config:
        engine_options["quality_window"] = int(config["quality_window"])

    ModelBundle.verify(args.bundle)
    engine = InferenceEngine.from_path(args.bundle, **engine_options)

    high_watermark = knob("high_watermark", 128)
    high_watermark = int(high_watermark) if high_watermark else None
    return ModelServer(
        engine,
        host=str(knob("host", "127.0.0.1")),
        port=int(knob("port", 8000)),
        max_batch_size=int(knob("max_batch_size", 32)),
        max_latency_ms=float(knob("max_latency_ms", 5.0)),
        workers=int(knob("workers", 2)),
        high_watermark=high_watermark,
        timeout_s=float(knob("timeout_s", 5.0)),
        bundle_path=args.bundle,
        engine_options=engine_options,
        chaos=True if getattr(args, "chaos", False) else None,
        alert_rules=config.get("alert_rules"),
        alert_interval_s=float(config.get("alert_interval_s", 1.0)),
        online_options=config.get("online_options"),
    )


def worker_args_from(args: argparse.Namespace) -> List[str]:
    """Forward explicitly-set tuning flags to fleet worker processes
    (each worker is its own ``python -m repro.serve`` invocation)."""
    out: List[str] = []
    if args.config:
        out += ["--config", args.config]
    for flag, name in (("--max-batch-size", "max_batch_size"),
                       ("--max-latency-ms", "max_latency_ms"),
                       ("--workers", "workers"),
                       ("--high-watermark", "high_watermark"),
                       ("--timeout-s", "timeout_s"),
                       ("--cache-size", "cache_size")):
        value = getattr(args, name, None)
        if value is not None:
            out += [flag, str(value)]
    if args.no_packed:
        out.append("--no-packed")
    if args.no_extractor:
        out.append("--no-extractor")
    if args.chaos:
        out.append("--chaos")
    if getattr(args, "trace", False):
        out.append("--trace")
    if getattr(args, "trace_dir", None):
        out += ["--trace-dir", args.trace_dir]
    if getattr(args, "trace_sample", None) is not None:
        out += ["--trace-sample", str(args.trace_sample)]
    return out


def build_fleet(args: argparse.Namespace) -> Router:
    """Resolve flags into a bound (not yet serving) fleet router."""
    config = load_config(args.config) if args.config else {}
    ModelBundle.verify(args.bundle)  # fail before spawning anything
    supervisor = Supervisor(
        args.bundle, workers=int(args.fleet),
        host=str(args.host if args.host is not None
                 else config.get("host", "127.0.0.1")),
        worker_args=worker_args_from(args),
        chaos=args.chaos,
        trace_dir=getattr(args, "trace_dir", None),
        trace_sample=getattr(args, "trace_sample", None),
    )
    router = Router(
        supervisor,
        host=str(args.host if args.host is not None
                 else config.get("host", "127.0.0.1")),
        port=int(args.port if args.port is not None
                 else config.get("port", 8000)),
        own_fleet=True,
        alert_rules=config.get("alert_rules"),
        alert_interval_s=float(config.get("alert_interval_s", 1.0)),
    )
    supervisor.start(wait_ready=False)
    try:
        supervisor.wait_ready()
    except FleetError:
        supervisor.stop()
        raise
    return router


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.fleet:
        return _main_fleet(args)
    try:
        server = build_server(args)
    except (BundleError, EngineSelfCheckError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    configure_tracing(args, service=f"worker-{server.address[1]}")

    if args.dry_run:
        print(json.dumps(server.health(), indent=2, sort_keys=True,
                         default=str))
        server.stop()
        return 0

    host, port = server.address
    print(f"serving {args.bundle} on http://{host}:{port} "
          f"(POST /predict, /reload; GET /healthz, /metrics; "
          f"SIGHUP reloads, SIGTERM drains)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        server.stop()
    return 0


def _main_fleet(args: argparse.Namespace) -> int:
    configure_tracing(args, service="router")
    try:
        router = build_fleet(args)
    except (BundleError, EngineSelfCheckError, FleetError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        print(json.dumps(router.health(), indent=2, sort_keys=True,
                         default=str))
        router.stop()
        return 0

    host, port = router.address
    print(f"serving {args.bundle} through a {args.fleet}-worker fleet "
          f"on http://{host}:{port} (POST /predict, /reload; "
          f"GET /healthz, /metrics; SIGTERM drains)")
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        print("shutting down fleet")
        router.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
