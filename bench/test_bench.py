"""Smoke test of the benchmark: ``python -m pytest bench -q``.

Runs every workload once untraced and once traced with ``--smoke`` (a
tiny model) and one second of load, and checks the output contract in both
directions: every metric ``BENCHMARK.json`` declares is emitted with its
unit and a finite value, and nothing undeclared is emitted.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``{(workload, trace): (last stdout line, appended record)}``."""
    out = tmp_path_factory.mktemp("bench") / "runs.json"
    results = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                 "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out) as handle:
                record = json.load(handle)[-1]
            results[workload, trace] = (last, record)
    return results


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(smoke, workload, trace):
    last, record = smoke[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(last["metrics"]) == set(declared)
    for name, metric in last["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert math.isfinite(metric["value"]), name
    assert record["metrics"] == last["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(smoke, workload):
    last, _ = smoke[workload, 0]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_run_attributes_its_time(smoke):
    for workload in WORKLOADS:
        metrics = smoke[workload, 1][0]["metrics"]
        assert 0 <= metrics["unattributed_share"]["value"] < 0.5, workload
    assert smoke["batch_eval", 1][0]["metrics"][
        "engine.predict_s"]["value"] > 0
    assert smoke["train", 1][0]["metrics"]["models.extract_s"]["value"] > 0
    assert smoke["fleet_open", 1][0]["metrics"][
        "router.latency_ms_p50"]["value"] > 0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower",
                           0.1) == "regressed"
    assert compare.verdict(base, [v * 0.7 for v in base], "lower",
                           0.1) == "improved"
    assert compare.verdict(base, [v * 1.3 for v in base], "higher",
                           0.1) == "improved"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, base[:2], "lower", 0.1) == "unresolved"
