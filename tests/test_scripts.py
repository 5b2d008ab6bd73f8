"""The gate scripts: every one imports, the benchmark gate's verdicts,
and the harness the live gates share."""

import ast
import copy
import os
import re
import socket
import subprocess
import sys
from collections import defaultdict

import pytest

from repro.telemetry import get_registry

from .conftest import _synthetic_bundle, counter, wait_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def test_every_script_imports():
    """A dangling import (of a deleted module or name) fails here, not in
    a tier-2 gate.  ``pretrain_teachers.py`` and ``warm_features.py`` do
    their work at import and have no ``__main__`` guard, so they are not
    imported."""
    names = ["trace_overhead"]
    for name in sorted(os.listdir(SCRIPTS)):
        if name.endswith(".py"):
            with open(os.path.join(SCRIPTS, name)) as handle:
                if 'if __name__ == "__main__"' in handle.read():
                    names.append(name[:-3])
    assert "bench_gate" in names and "chaos_serve" in names
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), SCRIPTS]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys\n"
         "for name in sys.argv[1:]:\n"
         "    importlib.import_module(name)\n", *names],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_metric_names_match_the_reference():
    """``check_metric_names.py`` exits 0: every metric registered under
    ``src/repro/`` is in the docs/OBSERVABILITY.md reference, and every
    documented name is registered."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "check_metric_names.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture
def metric_lint(monkeypatch):
    monkeypatch.setattr(sys, "path", [SCRIPTS] + sys.path)
    import check_metric_names
    return check_metric_names


def lint_tree(root, code, documented, reader):
    """A repository tree with one source file, the docs appendix and one
    test file, for ``check_metric_names.main(root)``."""
    for part, text in (("src/repro/mod.py", code),
                       ("tests/test_mod.py", reader),
                       ("docs/OBSERVABILITY.md",
                        "## Metric name reference\n\n" + "".join(
                            f"| `{name}` | counter | - |\n"
                            for name in documented))):
        path = root / part
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


class TestMetricLint:
    def test_every_literal_of_a_conditional_name_is_registered(
            self, metric_lint, tmp_path):
        src = tmp_path / "repro"
        src.mkdir()
        (src / "degrade.py").write_text(
            'registry.inc("degrade.admitted" if admitted '
            'else "degrade.shed")\n')
        found = metric_lint.collect_code(str(src))
        assert sorted(name for name, _ in found) == [
            "degrade.admitted", "degrade.shed"]

    def test_a_name_nothing_reads_fails_the_lint(self, metric_lint,
                                                 tmp_path, capsys):
        code = 'registry.inc("serve.widgets")\n'
        root = lint_tree(tmp_path, code, ["serve.widgets"],
                         'assert counter("serve.widgets.extra") == 1\n')
        assert metric_lint.main(root) == 1
        assert ("registered but never read: serve.widgets"
                in capsys.readouterr().err)
        lint_tree(tmp_path, code, ["serve.widgets"],
                  'assert counter("serve.widgets") == 1\n')
        assert metric_lint.main(root) == 0

    def test_the_prometheus_form_is_a_reader(self, metric_lint):
        code = [("serve.latency_ms", "mod.py:1")]
        for text in ("repro_serve_latency_ms 3",
                     'assert "repro_serve_latency_ms_count" in metrics'):
            assert metric_lint.find_unread(code, text) == []
        for text in ("repro_serve_latency_ms_max 3",
                     "serve_latency_ms 3", "repro_serve_latency"):
            assert metric_lint.find_unread(code, text) == code, text

    def test_an_fstring_name_is_read_by_a_spelled_out_name(
            self, metric_lint):
        code = [("serve.batcher.deadline.model.*", "mod.py:1")]
        assert metric_lint.find_unread(
            code, 'counter("serve.batcher.deadline.model.default")') == []
        assert metric_lint.find_unread(
            code, 'counter(f"serve.batcher.deadline.model.{m}")') == code
        assert metric_lint.find_unread(
            code, '"serve.batcher.deadline.model"') == code


#: Where a definition under ``src/repro/`` may be named by its callers.
CALLER_DIRS = ("src", "scripts", "bench", "benchmarks", "examples")

#: Definitions the caller lint lets stand with no caller outside tests/.
UNCALLED_ALLOWED = {
    "JsonHandler.do_GET": "http.server hook, called by the stdlib",
    "JsonHandler.do_POST": "http.server hook, called by the stdlib",
    "JsonHandler.log_message": "http.server hook, called by the stdlib",
    "HTTPServer.handle_error": "socketserver hook, called by the stdlib",
    "use_registry": "test seam: a fresh metrics registry for one block",
    "StaticFleet.set_healthy": "test seam: flips a router test's worker",
    "population_stability_index":
        "reference the drift tests check the windowed PSI against",
    "expected_overlap_std":
        "reference the hypervector statistics tests compare against",
    "QuantizedNSHD": "backs the paper's Sec. VI-B int8 deployment claim",
    "QuantizedTensor.dequantize": "part of QuantizedNSHD's int8 claim",
    "QuantizedNSHD.model_bytes": "part of QuantizedNSHD's int8 claim",
}


def _naming_lines(path):
    """The lines of a ``.py`` or ``.sh`` file that can name a definition.

    Imports, ``__all__`` and ``lazy_exports`` tables only re-export a
    name, so a Python file's are blanked; a ``def``/``class`` keyword
    with its name is a definition, not a use, and goes everywhere."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    if path.endswith(".py"):
        for node in ast.walk(ast.parse(text)):
            exports = isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign) and (
                    any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                    or getattr(getattr(node.value, "func", None), "id",
                               None) == "lazy_exports"))
            if exports:
                for index in range(node.lineno - 1, node.end_lineno):
                    lines[index] = ""
    return [re.sub(r"\b(?:def|class)\s+\w+", "", line) for line in lines]


def uncalled_definitions(root):
    """``{qualname: "path:line"}`` of every top-level function or class,
    and every public method, under ``src/repro/`` whose name occurs in no
    ``.py`` or ``.sh`` file of :data:`CALLER_DIRS` outside the lines of
    its own definition."""
    definitions = []
    uses = defaultdict(list)
    for top in CALLER_DIRS:
        for folder, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith((".py", ".sh")):
                    continue
                path = os.path.join(folder, name)
                for lineno, line in enumerate(_naming_lines(path), 1):
                    for word in re.findall(r"\w+", line):
                        uses[word].append((path, lineno))
                if name.endswith(".py") and path.startswith(
                        os.path.join(root, "src", "repro")):
                    with open(path, encoding="utf-8") as handle:
                        tree = ast.parse(handle.read())
                    for node in tree.body:
                        if not isinstance(node, (ast.FunctionDef,
                                                 ast.ClassDef)):
                            continue
                        definitions.append((node.name, node, path))
                        if isinstance(node, ast.ClassDef):
                            definitions.extend(
                                (f"{node.name}.{sub.name}", sub, path)
                                for sub in node.body
                                if isinstance(sub, ast.FunctionDef)
                                and not sub.name.startswith("_"))
    uncalled = {}
    for qualname, node, path in definitions:
        if not any(where != path
                   or not node.lineno <= lineno <= node.end_lineno
                   for where, lineno in uses[node.name]):
            uncalled[qualname] = (f"{os.path.relpath(path, root)}:"
                                  f"{node.lineno}")
    return uncalled


def test_every_definition_has_a_caller_outside_the_tests():
    """A function, class or public method under ``src/repro/`` that only
    tests call is deleted with its tests, or allowlisted with a reason;
    an allowlist entry that gained a caller is dropped."""
    uncalled = uncalled_definitions(ROOT)
    unlisted = {name: where for name, where in uncalled.items()
                if name not in UNCALLED_ALLOWED}
    assert not unlisted, f"named only by tests: {unlisted}"
    stale = sorted(set(UNCALLED_ALLOWED) - set(uncalled))
    assert not stale, f"allowlisted but called outside the tests: {stale}"


def test_the_caller_lint_sees_only_uses(tmp_path):
    for part, text in (
            ("src/repro/mod.py",
             "__all__ = ['helper', 'Unused', 'Kept']\n"
             "def helper(x):\n    return helper(x - 1)\n\n"
             "class Unused:\n    pass\n\n"
             "class Kept:\n    def run(self):\n        pass\n"
             "    def _private(self):\n        pass\n"),
            ("src/repro/__init__.py", "from .mod import helper, Unused\n"),
            ("scripts/go.sh", "python -c 'Kept().run()'\n"),
            ("tests/test_mod.py", "from repro.mod import helper\n"
                                  "helper(1)\n")):
        path = tmp_path / part
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert uncalled_definitions(str(tmp_path)) == {
        "helper": os.path.join("src", "repro", "mod.py") + ":2",
        "Unused": os.path.join("src", "repro", "mod.py") + ":5"}


@pytest.fixture
def bench_gate(monkeypatch):
    # bench_gate puts src/ and bench/ on sys.path; undo that afterwards.
    monkeypatch.setattr(sys, "path", [SCRIPTS] + sys.path)
    import bench_gate
    return bench_gate


def bench_file(latencies, env=None):
    """A schema-2 BENCH record with one untraced train run per latency."""
    runs = [{"workload": "train", "trace": 0, "smoke": False,
             "correct": True,
             "metrics": {"setup_s": {"value": 1.0},
                         "rows_per_s": {"value": 300.0},
                         "latency_p50_ms": {"value": latency}}}
            for latency in latencies]
    return {"schema_version": 2, "env": env or {"cpu_count": 2},
            "runs": runs}


class TestBenchGate:
    def test_bundle_bytes_counts_the_file_and_its_arrays(self, bench_gate,
                                                         tmp_path):
        path = str(tmp_path / "bundle.npz")
        _synthetic_bundle(dim=512, features=32, classes=6).save(path)
        # scaler mean and std as float64, projection and classes as bits
        assert bench_gate.bundle_bytes(path) == {
            "file_bytes": os.path.getsize(path),
            "array_bytes": 2 * 32 * 8 + (32 + 6) * 512 // 8}

    def test_a_file_passes_against_itself(self, bench_gate):
        record = bench_file([440.0, 445.0, 450.0])
        section = bench_gate.gate(record, record)
        assert section["skipped"] is None
        assert {row["verdict"] for row in section["rows"]} == {"unchanged"}
        assert bench_gate.print_gate(section) == 0

    def test_slower_latency_regresses_and_fails(self, bench_gate):
        base = bench_file([440.0, 445.0, 450.0])
        slowed = copy.deepcopy(base)
        for run in slowed["runs"]:
            run["metrics"]["latency_p50_ms"]["value"] *= 1.5
        section = bench_gate.gate(base, slowed)
        verdicts = {row["metric"]: row["verdict"] for row in section["rows"]}
        assert verdicts == {"setup_s": "unchanged", "rows_per_s": "unchanged",
                            "latency_p50_ms": "regressed"}
        assert bench_gate.print_gate(section) == 1

    @pytest.mark.parametrize("base", [
        None,
        {"schema_version": 1, "runs": []},
        bench_file([100.0] * 3, env={"cpu_count": 64}),
    ], ids=["no-base", "schema-1", "other-env"])
    def test_incomparable_base_skips_the_gate(self, bench_gate, base):
        section = bench_gate.gate(base, bench_file([900.0] * 3))
        assert section["skipped"] and section["rows"] == []
        assert bench_gate.print_gate(section) == 0


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "path", [SCRIPTS] + sys.path)
    import harness
    return harness


@pytest.fixture
def bundle_path(tmp_path):
    path = str(tmp_path / "bundle.npz")
    _synthetic_bundle(seed=3).save(path)
    return path


class TestHarness:
    """The live gates' load generator and serve-CLI server phase,
    against an in-process server on a synthetic bundle."""

    def test_load_generator_counts_each_phase_with_trace_ids(
            self, harness, bundle_path, tmp_path):
        with harness.server_phase(bundle_path, "", str(tmp_path),
                                  "load") as server:
            row = [[0.25] * 32]
            label = server.engine.predict_features(row).tolist()
            # Client 0 always sends the row, client 1 the bad body.
            load = harness.LoadGenerator(
                *server.address, [{"features": row}, b"not json"],
                clients=2, phase="first")
            with load:
                wait_for(lambda: len(load.responses) >= 10)
                load.phase = "second"
                wait_for(lambda: sum(r.phase == "second"
                                     for r in load.responses) >= 10)
        summary = load.summary(["first", "second", "unused"])
        for phase in ("first", "second"):
            responses = [r for r in load.responses if r.phase == phase]
            assert summary[phase]["ok"] == sum(r.status == 200
                                               for r in responses) > 0
            assert summary[phase]["fail"] == sum(r.status == 400
                                                 for r in responses) > 0
            assert summary[phase]["p99_ms"] > 0.0
        assert summary["unused"] == {"ok": 0, "fail": 0, "p50_ms": 0.0,
                                     "p95_ms": 0.0, "p99_ms": 0.0}
        for response in load.responses:
            assert response.trace_id \
                and response.body["request_id"] == response.trace_id
            if response.status == 200:
                assert response.body["labels"] == label

    def test_server_phase_stops_the_server_when_a_check_raises(
            self, harness, bundle_path):
        get_registry().inc("harness.stale")
        with pytest.raises(RuntimeError, match="check failed"):
            with harness.scratch_dir("harness_") as workdir, \
                    harness.server_phase(bundle_path, "", workdir,
                                         "raise") as server:
                assert counter("harness.stale") == 0
                address = server.address
                status, health = harness.http_json(*address, "GET",
                                                   "/healthz")
                assert status == 200 and health["status"] == "ok"
                raise RuntimeError("check failed")
        assert not os.path.exists(workdir)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1).close()
