"""What the live gate scripts share: an HTTP JSON client, the serve-CLI
server launcher, and the PASS/FAIL checker with its failure summary.

``check_quality.py``, ``check_online.py``, ``check_trace.py`` and
``chaos_serve.py`` import this module first; importing it puts ``src/``
on ``sys.path``.  ``bench/`` keeps its own client, because the
benchmark's paths are fixed.
"""

import http.client
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def http_request(host, port, method, path, payload=None, timeout=15.0):
    """One request → ``(status, parsed json body, headers dict)``.

    ``payload`` is sent as JSON, or as is when it is ``bytes``; a body
    that is empty or not JSON parses to ``{}``.
    """
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = payload if isinstance(payload, bytes) \
                else json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body, headers)
        response = conn.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            parsed = {}
        return response.status, parsed, dict(response.getheaders())
    finally:
        conn.close()


def http_json(host, port, method, path, payload=None, timeout=15.0):
    """One request → ``(status, parsed json body)``."""
    return http_request(host, port, method, path, payload, timeout)[:2]


def boot(bundle_path, config_text, workdir, tag):
    """Serve CLI path: TOML config → built + started ModelServer."""
    from repro.serve.__main__ import _parse_args, build_server

    config_path = os.path.join(workdir, f"serve-{tag}.toml")
    with open(config_path, "w") as handle:
        handle.write(config_text)
    server = build_server(_parse_args(
        [bundle_path, "--config", config_path, "--port", "0"]))
    server.start()
    return server


class Checks:
    """``check(condition, label)`` prints a PASS/FAIL line and keeps the
    failed labels; :meth:`summary` ends the gate."""

    def __init__(self):
        self.failures = []

    def __call__(self, condition, label):
        print(("PASS" if condition else "FAIL") + f"  {label}")
        if not condition:
            self.failures.append(label)

    def summary(self, failed, passed):
        """Print ``failed`` and the failed labels to stderr and return 1,
        or print ``passed`` and return 0."""
        if self.failures:
            print(f"\n{failed} FAILED: {len(self.failures)} assertion(s):",
                  file=sys.stderr)
            for label in self.failures:
                print(f"  - {label}", file=sys.stderr)
            return 1
        print(f"\n{passed}")
        return 0
