#!/bin/bash
# Tier-2 benchmark gate: scripts/bench_gate.py runs bench/run.py (three
# untraced runs per workload at fixed seeds, one traced run), writes
# results/bench/BENCH_<short sha>.json and gates every (workload,
# end-to-end metric) against the newest committed BENCH file with
# bench/compare.py's verdicts: regressed fails (nonzero exit),
# unresolved is printed, and a base measured in another environment
# skips the gate.
# A self-check then verifies the gate's teeth on the fresh file: gated
# against itself it passes; with train latency_p50_ms x1.5 in every run
# it must come back regressed with a nonzero status.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== benchmark gate: bench/run.py vs the newest committed BENCH file =="
python scripts/bench_gate.py

echo
echo "== gate self-check: train latency x1.5 must regress =="
python - <<'EOF'
import copy
import json
import sys

sys.path.insert(0, "scripts")
import bench_gate  # noqa: E402

with open(bench_gate.bench_path()) as handle:
    fresh = json.load(handle)
assert bench_gate.print_gate(bench_gate.gate(fresh, fresh)) == 0, \
    "the fresh BENCH file fails the gate against itself"

slowed = copy.deepcopy(fresh)
for run in slowed["runs"]:
    if run["workload"] == "train":
        run["metrics"]["latency_p50_ms"]["value"] *= 1.5
section = bench_gate.gate(fresh, slowed)
verdicts = {(row["workload"], row["metric"]): row["verdict"]
            for row in section["rows"]}
assert verdicts[("train", "latency_p50_ms")] == "regressed", verdicts
assert bench_gate.print_gate(section) != 0, "a regressed row passed the gate"
print("injected x1.5 train latency correctly rejected")
EOF

echo
echo "regression checks passed"
