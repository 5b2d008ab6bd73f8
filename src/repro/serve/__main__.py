"""CLI entry point: ``python -m repro.serve bundle.npz --port 8000``.

Serves a :class:`~repro.serve.bundle.ModelBundle` over HTTP with the
stdlib :class:`~repro.serve.server.ModelServer` (micro-batching, load
shedding, Prometheus metrics, hot reload on ``POST /reload`` / SIGHUP).

Tuning lives in a TOML config file (``--config serve.toml``), every key
in its section.  The command line carries switches and the three
deployment settings, ``--host``, ``--port`` and ``--cache-size``, which
the file does not.  The file maps 1:1 onto the MicroBatcher /
LoadShedder / engine knobs::

    [batcher]
    max_batch_size = 64
    max_latency_ms = 5.0
    workers = 2
    high_watermark = 128     # 0 disables shedding
    timeout_s = 5.0

    [engine]
    quality = true           # omit: auto-on when the bundle has a baseline
    quality_window = 512

    [online]
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

Alert rules (threshold / absence predicates over the metrics
registry — see :mod:`repro.telemetry.alerts`) are evaluated on a
background thread and exposed at ``GET /alertz`` plus ``alert.state.*``
gauges.

``--fleet N`` switches to the fault-tolerant multi-process mode: a
:class:`~repro.serve.fleet.Supervisor` keeps N worker processes (each
one of these CLI invocations on its own port; the first ones forked
from this process, restarts exec'd, see :func:`build_fleet`) and a
:class:`~repro.serve.router.Router` front-end consistent-hashes
``/predict`` across the healthy ones with per-worker circuit breakers.
A worker is configured by its command line alone: the flags this
invocation set are forwarded (:func:`worker_args_from`), ``--config``
included, so the same tuning and alert rules run fleet-wide.  See
``docs/FLEET.md``.

A process imports only the side it runs: the engine and server in
:func:`build_server`, the supervisor and router in :func:`build_fleet`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from ..telemetry import enable_request_tracing, load_alert_rules
from .bundle import BundleError, ModelBundle

if TYPE_CHECKING:
    from .fleet import Worker
    from .router import Router
    from .server import ModelServer

__all__ = ["main", "build_server", "build_fleet", "load_config",
           "worker_args_from", "configure_tracing"]

#: Config section → {key: the type its value must have} (ModelServer /
#: InferenceEngine kwarg names, the alert-rule table, the OnlineLearner
#: kwargs).  A ``float`` key also takes a TOML integer.  The table lives
#: here, not with the learner, so a router checks a file's ``[online]``
#: keys without importing the online-learning code.
_SECTIONS = {
    "batcher": {"max_batch_size": int, "max_latency_ms": float,
                "workers": int, "high_watermark": int, "timeout_s": float},
    "engine": {"quality": bool, "quality_window": int},
    "alerts": {"interval_s": float, "rules": list},
    "online": {"lr": float, "max_update_norm": float,
               "rate_limit_per_s": float, "holdout_every": int,
               "promote_every": int, "auto_promote": bool,
               "export_dir": str, "min_feedback": int,
               "min_validation": int, "min_accuracy_gain": float,
               "min_shadow_accuracy": float,
               "max_confusability_increase": float,
               "max_saturation": float},
}


def _has_type(value: Any, kind: type) -> bool:
    """TOML's ``true`` is no integer and ``1`` is a valid float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def load_config(path: str) -> Dict[str, Any]:
    """Read a TOML config file into a flat ``{key: value}`` dict.

    Every key sits in its section (``[batcher]`` / ``[engine]`` /
    ``[alerts]`` / ``[online]``); an unknown section or key, a key
    outside any section, or a value of the wrong type raises so typos
    fail loudly instead of silently serving with defaults.  The
    ``[online]`` section lands verbatim as ``online_options`` (the
    :class:`~repro.online.OnlineLearner` kwargs — enables ``POST
    /feedback`` continual learning).  The ``[alerts]`` section is parsed
    through :func:`~repro.telemetry.alerts.load_alert_rules` (so a
    malformed rule also fails at startup) and lands as ``alert_rules`` /
    ``alert_interval_s``, which must be > 0.
    """
    import tomllib
    with open(path, "rb") as handle:
        raw = tomllib.load(handle)
    expected = ", ".join(f"[{name}]" for name in _SECTIONS)
    flat: Dict[str, Any] = {}
    for section, table in raw.items():
        if not isinstance(table, dict):
            raise ValueError(f"config key {section!r} in {path!r} is "
                             f"outside a section; expected {expected}")
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}] in "
                             f"{path!r}; expected {expected}")
        for key, value in table.items():
            if key not in _SECTIONS[section]:
                raise ValueError(
                    f"unknown config key {section}.{key} in {path!r}")
            kind = _SECTIONS[section][key]
            if not _has_type(value, kind):
                raise ValueError(
                    f"config key {section}.{key} in {path!r} must be "
                    f"{kind.__name__}, got {value!r}")
        if section == "alerts":
            flat["alert_rules"] = load_alert_rules(table.get("rules", []))
            if "interval_s" in table:
                if not table["interval_s"] > 0:  # NaN fails it too
                    raise ValueError(
                        f"config key alerts.interval_s in {path!r} must "
                        f"be > 0, got {table['interval_s']!r}")
                flat["alert_interval_s"] = float(table["interval_s"])
        elif section == "online":
            flat["online_options"] = dict(table)
        else:
            flat.update(table)
    return flat


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a model bundle over HTTP "
                    "(/predict, /healthz, /metrics, /reload).")
    parser.add_argument("bundle", help="path to a ModelBundle .npz archive")
    parser.add_argument("--config", default=None,
                        help="TOML config file ([batcher], [engine], "
                             "[alerts] and [online] sections)")
    parser.add_argument("--host", default="127.0.0.1", help="bind host "
                        "(default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8000,
                        help="bind port (default 8000; 0 = ephemeral)")
    parser.add_argument("--cache-size", type=int, default=None,
                        help="encoded-hypervector LRU entries (default "
                             "256; 0 disables)")
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
                             "(flight recorder + /tracez + /requestz)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="additionally export every trace span "
                             "as JSONL under DIR (implies --trace)")
    return parser.parse_args(argv)


def configure_tracing(args: argparse.Namespace, service: str) -> bool:
    """Turn on request tracing for this process when ``--trace`` or
    ``--trace-dir`` asks for it; returns whether tracing was enabled."""
    if not (args.trace or args.trace_dir):
        return False
    enable_request_tracing(service=service, trace_dir=args.trace_dir)
    return True


def build_server(args: argparse.Namespace) -> ModelServer:
    """Resolve config + flags into a bound (not yet serving) server."""
    from .engine import InferenceEngine
    from .server import ModelServer

    config = load_config(args.config) if args.config else {}
    engine_options: Dict[str, Any] = {
        key: config[key] for key in _SECTIONS["engine"] if key in config}
    if args.cache_size is not None:
        engine_options["cache_size"] = args.cache_size

    # Requests carry features, so a worker never builds the CNN trunk.
    engine = InferenceEngine.from_path(args.bundle, build_extractor=False,
                                       **engine_options)
    return ModelServer(
        engine, host=args.host, port=args.port,
        **{key: config[key] for key in _SECTIONS["batcher"]
           if key in config},
        bundle_path=args.bundle,
        engine_options=engine_options,
        chaos=args.chaos,
        alert_rules=config.get("alert_rules"),
        alert_interval_s=config.get("alert_interval_s", 1.0),
        online_options=config.get("online_options"),
    )


def worker_args_from(args: argparse.Namespace) -> List[str]:
    """The flags each fleet worker (its own ``python -m repro.serve``
    invocation) gets besides bundle, host and port: every flag this
    invocation set, the one channel that configures a worker."""
    out: List[str] = []
    if args.config:
        out += ["--config", args.config]
    if args.cache_size is not None:
        out += ["--cache-size", str(args.cache_size)]
    for flag, on in (("--chaos", args.chaos), ("--trace", args.trace)):
        if on:
            out.append(flag)
    if args.trace_dir:
        out += ["--trace-dir", args.trace_dir]
    return out


def _may_fork() -> bool:
    """Whether fleet workers may start as forks of this process: on
    Linux only (elsewhere fork without exec is unsafe for several system
    libraries), and only while no other thread runs, since a thread's
    locks would be copied held into the child."""
    return (sys.platform.startswith("linux")
            and threading.active_count() == 1)


def _become_worker(args: argparse.Namespace, worker: Worker) -> ModelServer:
    """In a forked child: build the server that ``python -m repro.serve
    BUNDLE --host H --port P`` plus the forwarded flags would build.
    Its output goes where an exec'd worker's does, to devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    os.close(devnull)
    args.fleet, args.dry_run = 0, False
    args.host, args.port = worker.host, worker.port
    return build_server(args)


def build_fleet(args: argparse.Namespace) -> Union[Router, ModelServer]:
    """Resolve flags into a bound (not yet serving) fleet router.

    The first workers are forks of this process when :func:`_may_fork`
    allows, so none repeats the interpreter and numpy start this process
    has paid; the supervisor execs every later restart, since by then
    the router runs threads.  In each forked child this returns that
    worker's server instead (``args`` rewritten to describe it), which
    :func:`main` serves as a single server: ``main`` returns in the
    child too when the worker stops.
    """
    from .fleet import ForkedProcess, Supervisor
    from .router import Router

    config = load_config(args.config) if args.config else {}
    ModelBundle.verify(args.bundle)  # fail before spawning anything
    supervisor = Supervisor(args.bundle, workers=int(args.fleet),
                            host=args.host,
                            worker_args=worker_args_from(args))
    first: List[ForkedProcess] = []
    if _may_fork():
        sys.stdout.flush()  # else a child would inherit unwritten output
        sys.stderr.flush()
        for worker in supervisor.workers:
            try:
                pid = os.fork()
            except OSError:
                break  # this slot and the rest start by exec
            if pid == 0:
                return _become_worker(args, worker)
            first.append(ForkedProcess(pid))
    try:
        supervisor.start(wait_ready=False, first=first)
        router = Router(
            supervisor, host=args.host, port=args.port, own_fleet=True,
            alert_rules=config.get("alert_rules"),
            alert_interval_s=config.get("alert_interval_s", 1.0),
        )
        supervisor.wait_ready()
    except BaseException:
        supervisor.stop()  # no worker outlives a failed start
        raise
    return router


def _start_errors(args: argparse.Namespace) -> Tuple[type, ...]:
    """What a start may fail with besides a traceback.  Evaluated when
    the failure is caught: a forked fleet worker clears ``args.fleet``
    before it builds its server, and fails as a single server does."""
    if args.fleet:
        from .fleet import FleetError as error
    else:
        from .engine import EngineSelfCheckError as error
    return (BundleError, error, OSError, ValueError)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if not 0 <= args.port <= 65535:
        print(f"error: --port must be in [0, 65535], got {args.port}",
              file=sys.stderr)
        return 2
    if args.trace_dir:
        # Before anything binds or spawns: a worker would only die on it.
        try:
            os.makedirs(args.trace_dir, exist_ok=True)
            if not os.access(args.trace_dir, os.W_OK | os.X_OK):
                raise PermissionError("not writable")
        except OSError as exc:
            print(f"error: --trace-dir {args.trace_dir!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    try:
        front = build_fleet(args) if args.fleet else build_server(args)
    except _start_errors(args) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    configure_tracing(args, service="router" if args.fleet
                      else f"worker-{front.address[1]}")

    if args.dry_run:
        print(json.dumps(front.health(), indent=2, sort_keys=True,
                         default=str))
        front.stop()
        return 0

    fleet = f" through a {args.fleet}-worker fleet" if args.fleet else ""
    reload = "" if args.fleet else "SIGHUP reloads, "
    print(f"serving {args.bundle}{fleet} on {front.url} (POST /predict, "
          f"/reload; GET /healthz, /metrics; {reload}SIGTERM drains)")
    try:
        front.serve_forever()  # stops the front end however it exits
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
