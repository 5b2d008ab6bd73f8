#!/bin/bash
# Tier-2 serving check: boot the HTTP model server on an ephemeral port,
# fire a bounded load burst at /predict, and verify:
#   * non-zero completed throughput and bit-exact labels between the
#     served (bit-packed) path and the float reference path;
#   * /healthz answers with engine facts; /metrics exposes the batcher
#     counters in Prometheus text format;
#   * overload shedding maps to HTTP 503 (watermark admission control);
#   * clean shutdown (queue drained, workers joined, port released).
# Serving throughput and latency are measured by bench/run.py
# (batch_eval, worker_mixed, fleet_open; see scripts/check_regression.sh).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== serve check: HTTP round-trip on an ephemeral port =="
python - <<'EOF'
import json
import sys
import urllib.error
import urllib.request

import numpy as np

sys.path.insert(0, "src")
sys.path.insert(0, "scripts")
from synthetic import synthetic_bundle  # noqa: E402

from repro.serve import InferenceEngine, ModelServer  # noqa: E402

bundle = synthetic_bundle(dim=1024, features=64, classes=8, seed=7)
packed = InferenceEngine(bundle, cache_size=0, build_extractor=False)
floating = InferenceEngine(bundle, use_packed=False, cache_size=0,
                           build_extractor=False)
assert packed.use_packed and not floating.use_packed

rng = np.random.default_rng(7)
features = rng.standard_normal((96, 64))

def post(url, payload, timeout=30):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return json.loads(response.read())

with ModelServer(packed, port=0, max_batch_size=32,
                 max_latency_ms=2.0, workers=2) as server:
    url = server.url
    # Bounded burst: several multi-sample posts.
    served = []
    for start in range(0, len(features), 16):
        out = post(url + "/predict",
                   {"features": features[start:start + 16].tolist()})
        served.extend(out["labels"])
    assert len(served) == len(features), "dropped requests"
    reference = [int(v) for v in floating.predict_features(features)]
    assert served == reference, "served packed path != float reference"
    print(f"served {len(served)} predictions, packed == float reference")

    health = json.loads(urllib.request.urlopen(
        url + "/healthz", timeout=10).read())
    assert health["status"] == "ok" and health["engine"]["packed"]
    assert health["batcher"]["completed"] >= len(features)
    print(f"healthz ok: {health['batcher']['completed']} completed, "
          f"{health['batcher']['batches']} batches")

    metrics = urllib.request.urlopen(url + "/metrics",
                                     timeout=10).read().decode()
    assert "serve_batcher_completed" in metrics.replace(".", "_"), \
        "batcher counters missing from /metrics"
    print("metrics endpoint exposes batcher counters")

    # Malformed request -> 400, not a crash.
    try:
        post(url + "/predict", {"features": "nope"})
    except urllib.error.HTTPError as exc:
        assert exc.code == 400, f"expected 400, got {exc.code}"
    print("malformed request correctly rejected with 400")

# Overload shedding: watermark 1 with a stalled single worker.
import threading
import time as _time

from repro.reliability import LoadShedder, OverloadShedError  # noqa: E402
from repro.serve.batching import MicroBatcher  # noqa: E402

gate = threading.Event()

def slow_predict(batch):
    gate.wait(5.0)
    return packed.predict_features(batch), None

shed = 0
with MicroBatcher(slow_predict, max_batch_size=4, max_latency_ms=1.0,
                  workers=1, shedder=LoadShedder(1),
                  default_timeout_s=10.0) as batcher:
    threads = []
    def submit_one(i):
        global shed
        try:
            batcher.submit(features[i])
        except OverloadShedError:
            shed += 1
    for i in range(8):
        t = threading.Thread(target=submit_one, args=(i,))
        t.start()
        threads.append(t)
        _time.sleep(0.02)
    gate.set()
    for t in threads:
        t.join()
assert shed > 0, "overload never shed despite watermark 1"
print(f"overload shedding engaged ({shed}/8 shed)")
print("serve HTTP round-trip: OK (clean shutdown)")
EOF

echo
echo "serve checks passed"
