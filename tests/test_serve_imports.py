"""What a serve process imports.

Each check runs in a fresh interpreter, since the test process has
imported everything.  A worker imports no training, CNN, data, fleet
or router code; a router imports no engine, batcher, server, online or
learning code; the packages that re-export heavy submodules do so
lazily; and a request imports nothing, so no compile cost lands in it.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from .conftest import _synthetic_bundle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

WORKER_DENIED = [
    "repro.learn.pipeline", "repro.learn.manifold", "repro.learn.distill",
    "repro.models", "repro.data.synthetic", "repro.data.augment",
    "repro.nn.layers", "repro.nn.optim", "repro.nn.tensor",
    "repro.reliability.report", "repro.serve.router", "repro.serve.fleet",
    "urllib.request",
]
ROUTER_DENIED = [
    "repro.serve.engine", "repro.serve.server", "repro.serve.batching",
    "repro.online", "repro.learn",
]

ALERTS = textwrap.dedent("""\
    [alerts]
    interval_s = 1.0

    [[alerts.rules]]
    name = "feature-drift"
    metric = "quality.feature.psi_max"
    op = ">"
    threshold = 0.25
    """)
ONLINE = "\n[online]\nholdout_every = 8\nauto_promote = false\n"

#: Runs ``python -m repro.serve`` on sys.argv[1:] and prints the names
#: of the loaded modules as JSON.
RUN_CLI = textwrap.dedent("""\
    import json, runpy, sys
    sys.argv = ["repro.serve", *sys.argv[1:]]
    try:
        runpy.run_module("repro.serve", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
    print(json.dumps(sorted(sys.modules)))
    """)


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(modules, denied):
    """The modules in ``modules`` that are, or are under, a denied one."""
    return sorted(name for name in modules for prefix in denied
                  if name == prefix or name.startswith(prefix + "."))


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("imports") / "bundle.npz")
    _synthetic_bundle(dim=256, features=16, classes=4, seed=3).save(path)
    return path


def write_config(tmp_path, text):
    path = tmp_path / "serve.toml"
    path.write_text(text)
    return str(path)


class TestFootprint:
    @pytest.mark.parametrize("online", [False, True],
                             ids=["plain", "online"])
    def test_worker_imports_no_training_fleet_or_router_code(
            self, bundle_path, tmp_path, online):
        config = write_config(tmp_path, ALERTS + (ONLINE if online else ""))
        modules = run_python(RUN_CLI, bundle_path, "--port", "0",
                             "--config", config, "--dry-run")
        assert "repro.serve.server" in modules
        assert ("repro.online.learner" in modules) is online
        assert loaded(modules, WORKER_DENIED) == []

    def test_router_imports_no_engine_online_or_learning_code(
            self, bundle_path, tmp_path):
        config = write_config(tmp_path, ALERTS + ONLINE)
        modules = run_python(RUN_CLI, bundle_path, "--port", "0",
                             "--fleet", "1", "--config", config,
                             "--dry-run")
        assert "repro.serve.router" in modules
        assert loaded(modules, ROUTER_DENIED) == []


#: Checks one lazily exporting package in a fresh process and prints
#: what it found.
CHECK_PACKAGE = textwrap.dedent("""\
    import importlib, json, sys
    package = importlib.import_module(sys.argv[1])
    names = list(package.__all__)
    eager = [name for name in names if name in vars(package)]
    listed = sorted(set(names) - set(dir(package)))
    resolved = {name: getattr(package, name) is not None for name in names}
    star = {}
    exec(f"from {sys.argv[1]} import *", star)
    try:
        getattr(package, "no_such_name")
        unknown = None
    except AttributeError as exc:
        unknown = str(exc)
    print(json.dumps({"names": names, "eager": eager, "unlisted": listed,
                      "resolved": resolved,
                      "unbound": sorted(set(names) - set(star)),
                      "unknown": unknown}))
    """)

LAZY_PACKAGES = ["repro.serve", "repro.learn", "repro.nn", "repro.data",
                 "repro.reliability"]


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_is_lazy_and_resolves(self, package):
        found = run_python(CHECK_PACKAGE, package)
        assert found["names"] and len(set(found["names"])) == len(
            found["names"])
        assert found["eager"] == []        # the lazy table is __all__
        assert all(found["resolved"].values())
        assert found["unbound"] == []
        assert found["unlisted"] == []
        assert found["unknown"] == (f"module {package!r} has no "
                                    f"attribute 'no_such_name'")

    def test_telemetry_reads_the_ledger_on_first_use(self):
        found = run_python(textwrap.dedent("""\
            import json, sys
            import repro.telemetry as telemetry
            before = "repro.telemetry.ledger" in sys.modules
            names = ["git_info", "env_fingerprint", "config_fingerprint"]
            listed = all(name in dir(telemetry) for name in names)
            ok = all(callable(getattr(telemetry, name)) for name in names)
            print(json.dumps([before, listed, ok,
                              "repro.telemetry.ledger" in sys.modules]))
            """))
        assert found == [False, True, True, True]


#: Serves an in-process [online] worker, then sends the first /predict,
#: a /feedback that does not promote, /metrics and /healthz, and prints
#: the modules those requests imported.
SERVE_REQUESTS = textwrap.dedent("""\
    import http.client, json, sys
    from repro.serve.__main__ import _parse_args, build_server

    server = build_server(_parse_args(
        [sys.argv[1], "--port", "0", "--config", sys.argv[2]])).start()
    host, port = server.address[:2]

    def call(method, path, payload=None):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        conn.close()
        return response.status

    before = set(sys.modules)
    statuses = [
        call("POST", "/predict", {"features": [[0.5] * 16]}),
        call("POST", "/feedback", {"features": [0.5] * 16, "label": 1}),
        call("GET", "/metrics"),
        call("GET", "/healthz"),
    ]
    imported = sorted(set(sys.modules) - before)
    server.stop()
    print(json.dumps({"statuses": statuses, "imported": imported}))
    """)


def test_a_request_imports_nothing(bundle_path, tmp_path):
    config = write_config(tmp_path, ALERTS + ONLINE)
    found = run_python(SERVE_REQUESTS, bundle_path, config)
    assert found["statuses"] == [200, 200, 200, 200]
    assert found["imported"] == []
