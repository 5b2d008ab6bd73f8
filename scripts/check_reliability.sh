#!/bin/bash
# Reliability gate: run the full unit suite, the fault-injection /
# checkpoint / guard tests on their own, and then re-run the numerics-
# sensitive tests with RuntimeWarnings promoted to errors so silent
# numpy overflow/invalid-value warnings fail loudly instead of scrolling
# by.  Intended for CI and as a pre-merge check for changes touching
# trainers, serialization, or the reliability subsystem.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full unit/property/integration suite =="
python -m pytest tests/ -x -q

echo
echo "== reliability smoke: fault injection, checkpoint/resume, guards =="
python -m pytest tests/test_reliability_faults.py \
                 tests/test_reliability_checkpoint.py \
                 tests/test_reliability_guard.py \
                 tests/test_reliability_report.py -q

echo
echo "== warnings-as-errors: numerics-sensitive paths =="
python -W error::RuntimeWarning -m pytest \
    tests/test_reliability_faults.py \
    tests/test_reliability_checkpoint.py \
    tests/test_reliability_guard.py \
    tests/test_reliability_report.py \
    tests/test_learn_trainers.py \
    tests/test_data.py \
    tests/test_telemetry_quality.py \
    tests/test_serve_quality.py -q

echo
echo "reliability checks passed"
