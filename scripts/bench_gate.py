"""Benchmark runner: measure this checkout, write its BENCH file, gate it.

For every workload in ``BENCHMARK.json`` this runs ``bench/run.py`` as a
subprocess three times untraced, at the fixed seeds :data:`SEEDS` (three
is ``bench/compare.py``'s ``MIN_RUNS``; the seeds never change, so two
BENCH files compare like for like), then once with ``--trace 1`` for the
per-layer breakdown.  It writes ``results/bench/BENCH_<short sha>.json``
(schema 2, ``docs/BENCH_SCHEMA.md``) and gates every (workload,
end-to-end metric) against the base, the BENCH file added by the newest
commit that adds one under ``results/bench/``, with ``bench/compare.py``'s
verdicts.  ``regressed`` fails the gate and ``unresolved`` is printed.
The gate is skipped, with a message, when there is no schema-2 base or
the base was measured in another environment (``env_fingerprint``).

Exit status 1 when a row regressed or a run answered wrongly.

Usage (about ten minutes; no options)::

    python scripts/bench_gate.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(REPO_ROOT, "src"),
              os.path.join(REPO_ROOT, "bench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402  (bench/compare.py)

from repro.telemetry.ledger import env_fingerprint, git_info  # noqa: E402

SCHEMA_VERSION = 2
SEEDS = (1, 2, 3)
BENCH_DIR = "results/bench"


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench_path(git: Optional[dict] = None) -> str:
    """Where this checkout's BENCH file goes."""
    git = git or git_info(REPO_ROOT)
    return os.path.join(REPO_ROOT, BENCH_DIR,
                        f"BENCH_{git['short_sha']}.json")


def line_counts() -> dict:
    """Lines of the ``.py`` and ``.sh`` files under ``src/`` and
    ``scripts/``."""
    counts = {}
    for top in ("src", "scripts"):
        total = 0
        for root, _, files in os.walk(os.path.join(REPO_ROOT, top)):
            for name in files:
                if name.endswith((".py", ".sh")):
                    with open(os.path.join(root, name), "rb") as handle:
                        total += handle.read().count(b"\n")
        counts[top] = total
    return counts


def run_bench(workload: str, seed: int, trace: int, seconds: float,
              tmp: str) -> dict:
    """One ``bench/run.py`` subprocess; returns the record it wrote."""
    out = os.path.join(tmp, f"{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, os.path.join(REPO_ROOT, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True,
                          text=True)
    if not os.path.exists(out):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"bench/run.py {' '.join(cmd[2:])} wrote no "
                         f"record (exit {proc.returncode})")
    with open(out) as handle:
        record = json.load(handle)[-1]
    if "spans_dir" in record["info"]:
        # Where this checkout's traced processes wrote their spans.
        record["info"]["spans_dir"] = os.path.relpath(
            record["info"]["spans_dir"], REPO_ROOT)
    shown = (("unattributed_share", "trace_overhead") if trace
             else record["metrics"])
    state = "ok" if record["correct"] else (
        f"{record['failed']} failed" if record["failed"] else "invalid")
    print(f"{workload:<13} seed {seed} {'traced' if trace else 'untraced'}"
          f" [{state}] " + " ".join(
              f"{name}={record['metrics'][name]['value']:.5g}"
              for name in shown), flush=True)
    return record


def find_base() -> tuple:
    """``({path, commit}, record)`` of the BENCH file added by the newest
    commit that adds one under ``results/bench/``; ``(None, None)`` when
    no commit has."""
    log = subprocess.run(
        ["git", "log", "-1", "--diff-filter=A", "--format=%H",
         "--name-only", "--", BENCH_DIR], cwd=REPO_ROOT,
        capture_output=True, text=True)
    lines = log.stdout.split()
    paths = [path for path in lines[1:]
             if os.path.basename(path).startswith("BENCH_")]
    if log.returncode != 0 or not paths:
        return None, None
    base = {"path": paths[0], "commit": lines[0]}
    blob = subprocess.run(["git", "show", f"{lines[0]}:{paths[0]}"],
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          check=True)
    return base, json.loads(blob.stdout)


def gate(base: Optional[dict], head: dict) -> dict:
    """The gate section of a BENCH file: ``bench/compare.py``'s rows for
    head's untraced runs against base's, or the reason there are none."""
    skipped = None
    if base is None or base.get("schema_version") != SCHEMA_VERSION:
        skipped = "no schema-2 BENCH file committed to gate against"
    elif base["env"] != head["env"]:
        skipped = "the base was measured in another environment"
    if skipped:
        return {"skipped": skipped, "rows": []}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{side}.json") for side in ("a", "b")]
        for path, record in zip(paths, (base, head)):
            with open(path, "w") as handle:
                json.dump(record["runs"], handle)
        return {"skipped": None,
                "rows": compare.compare(*paths, load_spec())}


def print_gate(section: dict) -> int:
    """Print the verdict rows; 1 when one regressed, else 0."""
    if section["skipped"]:
        print(f"gate skipped: {section['skipped']}")
        return 0
    print(f"{'workload':<13} {'metric':<16} {'base':>11} {'head':>11} "
          f"{'change':>8}  verdict")
    for row in section["rows"]:
        change = (row["b"] - row["a"]) / abs(row["a"]) if row["a"] else 0
        print(f"{row['workload']:<13} {row['metric']:<16} "
              f"{row['a']:>11.5g} {row['b']:>11.5g} {change:>+8.1%}  "
              f"{row['verdict']}")
    verdicts = [row["verdict"] for row in section["rows"]]
    if "regressed" in verdicts:
        print(f"REGRESSION GATE FAILED: {verdicts.count('regressed')} "
              f"row(s) regressed", file=sys.stderr)
        return 1
    print(f"regression gate: PASS ({verdicts.count('unresolved')} "
          f"unresolved)")
    return 0


def main() -> int:
    spec = load_spec()
    git = git_info(REPO_ROOT)
    started = time.time()
    runs, traced = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                runs.append(run_bench(workload, seed, 0,
                                      spec["run_seconds"], tmp))
            traced.append(run_bench(workload, SEEDS[0], 1,
                                    spec["run_seconds"], tmp))
    record = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.time(),
        "wall_s": time.time() - started,
        "git": git,
        "env": env_fingerprint(),
        "lines": line_counts(),
        "seeds": list(SEEDS),
        "seconds": spec["run_seconds"],
        "runs": runs,
        "traced": traced,
    }
    base, base_record = find_base()
    record["gate"] = {"base": base, **gate(base_record, record)}
    path = bench_path(git)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {path} in {record['wall_s']:.0f} s; lines: "
          f"{record['lines']}")
    if base is not None:
        print(f"base: {base['path']} (commit {base['commit'][:10]})")
    status = print_gate(record["gate"])
    wrong = [r for r in runs + traced if r["failed"]]
    if wrong:
        print(f"{len(wrong)} run(s) answered wrongly", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
