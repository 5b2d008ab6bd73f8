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
#     within 5% (best of 3 interleaved runs).
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
echo "quality checks passed"
