"""The gate scripts: every one imports, and the benchmark gate's verdicts."""

import copy
import os
import subprocess
import sys

import pytest

from .conftest import _synthetic_bundle

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
