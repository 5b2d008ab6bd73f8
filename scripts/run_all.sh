#!/bin/bash
# Full reproduction pipeline: install, pretrain teachers (cached),
# run the test suite, then regenerate every table/figure.
set -e
cd "$(dirname "$0")/.."
pip install -e . --no-build-isolation 2>/dev/null || python setup.py develop
python scripts/pretrain_teachers.py
python scripts/warm_features.py
pytest tests/ 2>&1 | tee test_output.txt
# Benchmark smoke test (~25 s): every workload of bench/run.py, traced
# and untraced, must keep its output contract (see bench/README.md).
python3 -m pytest bench -q
# Figure/table benchmarks (pytest-benchmark).
pytest benchmarks/ --benchmark-only \
    --benchmark-json results/benchmark_run.json 2>&1 | tee bench_output.txt
# Benchmark gate: bench/run.py into results/bench/BENCH_<sha>.json, gated
# against the newest committed BENCH file (see scripts/check_regression.sh).
bash scripts/check_regression.sh
# Serving subsystem: HTTP round-trip, packed/float agreement, overload
# shedding and clean shutdown (see scripts/check_serve.sh).
bash scripts/check_serve.sh
# Stage-graph parity: train -> freeze -> checkpoint -> serve agreement on
# a freshly trained model (see scripts/check_stage_parity.sh).
bash scripts/check_stage_parity.sh
# Fleet fault tolerance: supervised workers + router chaos-tested under
# load (kill / hang / poison; see scripts/check_fleet.sh).
bash scripts/check_fleet.sh
# Request tracing: stitched cross-process span trees (router -> worker
# -> batcher -> stage, incl. failover), /tracez + /requestz, and the
# <5% tracing-disabled overhead gate (see scripts/check_trace.sh).
bash scripts/check_trace.sh
# Model quality: streaming drift monitors + alert rules engine on the
# serving path — injected covariate shift / label skew must fire their
# alerts within budget, clean traffic stays quiet, and monitors add
# <5% to serve P99 (see scripts/check_quality.sh).
bash scripts/check_quality.sh
# Online learning: guarded /feedback shadow updates + gated atomic
# promotion — label-shifted stream must recover >= 90% of clean accuracy,
# poisoned streams must never promote, class-incremental arrival serves
# with bit-exact parity for existing classes (see scripts/check_online.sh).
bash scripts/check_online.sh
# Docs/dashboards lint: every metric name registered in src/repro/ must
# be documented in docs/OBSERVABILITY.md (and vice versa), and read by a
# gate script, the bench or a test.
python scripts/check_metric_names.py
echo "Results tables are under results/, BENCH files under results/bench/"
