#!/bin/bash
# Tier-2 fleet check: boot a real 4-worker supervised fleet behind the
# consistent-hash router and chaos-test it under closed-loop load:
#   * SIGKILL one worker mid-load (crash/restart path);
#   * wedge another via the /slow stall so only the probe-timeout hang
#     detector can find it;
#   * serve a torn bundle to a third worker's /reload (must 409 and
#     keep the old engine);
# then assert the SLO: >= 99% request success, at least one circuit
# breaker opened and closed again, both faulted workers restarted and
# re-entered rotation, recovery P99 back near baseline, and routed
# answers bit-exact with a local engine on the same bundle
# (see scripts/chaos_serve.py).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== fleet check: chaos harness (kill / hang / poison under load) =="
python scripts/chaos_serve.py

echo
echo "fleet checks passed"
