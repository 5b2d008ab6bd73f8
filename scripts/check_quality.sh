#!/bin/bash
# Tier-2 model-quality check: streaming drift monitors + alert rules.
#   * unit tests: PSI / baseline sketches / rolling drift windows
#     (tests/test_telemetry_quality.py), the alert predicate + state
#     machine (tests/test_telemetry_alerts.py), and the bundle →
#     engine → server → router → CLI wiring
#     (tests/test_serve_quality.py);
#   * live gate: serve a baselined bundle through the CLI config path,
#     inject a covariate shift and a label-skew fault into the load
#     generator, and assert the declared alerts reach `firing` within
#     a bounded request budget while clean traffic raises none;
#   * overhead gate: monitors-on vs monitors-off serve P99 must stay
#     within 5% (best of 3 rounds in which the two servers take turns
#     request by request);
#   * the same shift/skew budget at 1024 features and 256-row requests,
#     the shape of the bench's batch_eval calls (the default run sends
#     64-row batches of 32 features);
#   * the same budget on a bundle with a manifold stage (1024 features
#     pooled and reduced to 100), whose baseline watches the reduce
#     output, as an NSHD export's does.
# (see scripts/check_quality.py)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== quality check: drift/alert unit tests =="
python -m pytest -q tests/test_telemetry_quality.py \
    tests/test_telemetry_alerts.py tests/test_serve_quality.py

echo
echo "== quality check: live drift-injection gate (shift / skew / overhead) =="
python scripts/check_quality.py

echo
echo "== quality check: live gate on wide batches (F=1024, 256 rows) =="
python scripts/check_quality.py --features 1024 --batch 256 --skip-overhead

echo
echo "== quality check: live gate on a manifold bundle (F=1024 -> 100) =="
python scripts/check_quality.py --features 1024 --reduced 100 --skip-overhead

echo
echo "quality checks passed"
