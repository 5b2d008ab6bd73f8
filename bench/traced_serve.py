"""Run ``python -m repro.serve`` with the benchmark's timing wrappers.

Usage::

    python bench/traced_serve.py SPANS_DIR BUNDLE [repro.serve options]

Installs the wrappers from ``spans.py``, then calls
``repro.serve.__main__.main`` with the remaining arguments.  When the
server exits (SIGTERM drains it), this process writes its per-layer
span table to ``SPANS_DIR/spans-<pid>.json``.  With ``--fleet N`` the
supervisor's worker processes are started through this script too, so
each worker writes its own table next to the router's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from repro.telemetry.tracing import Tracer  # noqa: E402


def _trace_fleet_workers(spans_dir: str) -> None:
    """Start ``[python, -m, repro.serve, ...]`` children through here."""
    popen = subprocess.Popen

    def traced_popen(cmd, *args, **kwargs):
        if list(cmd[1:3]) == ["-m", "repro.serve"]:
            cmd = [cmd[0], os.path.abspath(__file__), spans_dir, *cmd[3:]]
        return popen(cmd, *args, **kwargs)

    subprocess.Popen = traced_popen


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    spans.install(tracer)
    if "--fleet" in argv:
        _trace_fleet_workers(spans_dir)
    from repro.serve.__main__ import main as serve_main
    try:
        return serve_main(argv)
    finally:
        spans.write(tracer,
                    os.path.join(spans_dir, f"spans-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main())
