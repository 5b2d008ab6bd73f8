#!/bin/bash
# Tier-2 online-learning check: guarded /feedback, shadow models, and
# gated atomic promotion on the serving path.
#   * unit tests: ShadowModel ingestion / holdout ring / rate limiting
#     (tests/test_online_shadow.py), promotion gates + bundle promotion
#     (tests/test_online_promotion.py), the HTTP /feedback | /promote |
#     /onlinez surface and [online] config parsing
#     (tests/test_serve_feedback.py), and the OnlineHD sparse-update
#     property tests (tests/test_online_and_sequences.py);
#   * live gate: serve a clustered bundle through the CLI config path,
#     apply a label shift via /feedback and require recovery to >= 90%
#     of clean accuracy within budget (with a replay-free forgetting
#     curve), feed a poisoned stream that must never promote, add a
#     brand-new class online with bit-exact parity for existing rows,
#     and hammer /predict across a promotion with zero torn responses.
# `bash scripts/check_online.sh --inject-poison` runs only the
# poison-rejection self-check (see scripts/check_online.py).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" == "--inject-poison" ]]; then
    echo "== online check: poison self-check only =="
    python scripts/check_online.py --inject-poison
    exit 0
fi

echo "== online check: shadow/promotion/feedback unit tests =="
python -m pytest -q tests/test_online_shadow.py \
    tests/test_online_promotion.py tests/test_serve_feedback.py \
    tests/test_online_and_sequences.py

echo
echo "== online check: live gate (recovery / poison / new-class / atomic) =="
python scripts/check_online.py

echo
echo "online checks passed"
