#!/bin/bash
# Tier-2 tracing check: the end-to-end request-tracing path.
#   * unit tests: traceparent parse/propagate round-trip, cross-process
#     JSONL stitching, flight-recorder retention/eviction, exemplar
#     Prometheus round-trip, and the span code both outputs share
#     (tests/test_telemetry_reqtrace.py, tests/test_telemetry_tracing.py,
#     tests/test_serve_tracing.py);
#   * live gate: boot a traced 4-worker fleet, SIGKILL one worker
#     mid-run, and assert every request's X-Trace-Id stitches to
#     exactly one span tree with correct router -> worker -> batcher ->
#     stage parentage — including across the failover retry — plus the
#     /tracez + /requestz surface and trace-id echo on error responses;
#   * overhead gate: unified span, hub dormant, vs the aggregate-only
#     reference in scripts/ (scripts/trace_overhead.py) must cost < 5%
#     more per span (best of 3), so always-on instrumentation stays free.
# (see scripts/check_trace.py)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== trace check: tracing unit tests =="
python -m pytest -q tests/test_telemetry_reqtrace.py \
    tests/test_telemetry_tracing.py tests/test_serve_tracing.py

echo
echo "== trace check: stitched fleet gate (traceparent / failover / overhead) =="
python scripts/check_trace.py

echo
echo "trace checks passed"
