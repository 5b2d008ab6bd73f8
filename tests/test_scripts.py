"""The gate scripts: every one imports, and the benchmark gate's verdicts."""

import copy
import os
import subprocess
import sys

import pytest

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
