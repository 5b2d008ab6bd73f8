"""Model-quality gate: injected drift must fire alerts; clean traffic
must stay quiet; the monitors must be effectively free.

Boots a real :class:`~repro.serve.server.ModelServer` through the serve
CLI's ``build_server`` path — a bundle carrying a ``quality_baseline``
section plus a TOML config declaring two alert rules — then drives the
load generator through four phases:

1. **clean**: baseline-distributed traffic fills the drift window; the
   gate asserts ``/driftz`` stays under the PSI threshold and
   ``/alertz`` reports nothing firing;
2. **covariate shift**: the generator switches to ``mean+3, 2σ``
   features; the ``feature-drift`` rule
   (``quality.feature.psi_max > 0.25``) must reach ``firing`` within a
   bounded number of requests (detection latency is printed);
3. **label skew**: a fresh server is flooded with near-duplicates of a
   single row, so every prediction lands in one class; the
   ``prediction-skew`` rule (``quality.prediction.psi > 1.0``) must
   fire within the budget;
4. **overhead**: HTTP P99 of a monitors-on vs a monitors-off server
   over the same bundle, the two taking turns request by request so
   both see the same host; the best-of-3 ratio must stay < 5%.

Wired into ``scripts/run_all.sh`` via ``scripts/check_quality.sh``.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from harness import Checks, boot, http_json  # first: puts src/ on sys.path
from synthetic import synthetic_bundle

from repro import telemetry
from repro.utils.rng import fresh_rng

ALERTS_TOML = """\
[engine]
quality_window = 256

[alerts]
interval_s = 0.1

[[alerts.rules]]
name = "feature-drift"
metric = "quality.feature.psi_max"
op = ">"
threshold = 0.25
severity = "page"
description = "windowed PSI vs the training baseline"

[[alerts.rules]]
name = "prediction-skew"
metric = "quality.prediction.psi"
op = ">"
threshold = 1.0
severity = "page"
description = "prediction distribution vs training class priors"
"""

QUIET_TOML = """\
[engine]
quality = false
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="gate the streaming drift monitors and the alert "
                    "rules engine on a live serving path")
    parser.add_argument("--dim", type=int, default=512)
    parser.add_argument("--features", type=int, default=32)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--reduced", type=int, default=0,
                        help="serve a bundle with a manifold stage that "
                             "reduces the features to this many (0: "
                             "none); its baseline watches the reduce "
                             "output")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=64,
                        help="rows per /predict request (one drift-"
                             "window refill per request)")
    parser.add_argument("--budget", type=int, default=8,
                        help="max faulty requests before the alert "
                             "must be firing")
    parser.add_argument("--baseline-rows", type=int, default=2048)
    parser.add_argument("--overhead-requests", type=int, default=600,
                        help="requests per server per overhead round")
    parser.add_argument("--overhead-limit", type=float, default=1.05,
                        help="quality-on / quality-off P99 ceiling "
                             "(best of 3 alternating rounds)")
    parser.add_argument("--skip-overhead", action="store_true",
                        help="skip the P99 comparison (loaded CI hosts)")
    return parser.parse_args(argv)


def baselined_bundle_path(workdir, args) -> str:
    """Synthetic bundle + a quality baseline captured through its own
    frozen graph, as ``from_pipeline`` captures one."""
    bundle = synthetic_bundle(args.dim, args.features, args.classes,
                              args.seed, reduced=args.reduced)
    rng = fresh_rng((args.seed, "check-quality-baseline"))
    train = rng.standard_normal((args.baseline_rows, args.features))
    bundle.capture_baseline(train, sample=args.baseline_rows)
    path = os.path.join(workdir, "bundle.npz")
    bundle.save(path)
    return path


def drive(server, rows, batch):
    """POST ``rows`` in ``batch``-row /predict requests; count them."""
    host, port = server.address
    sent = 0
    for start in range(0, len(rows), batch):
        chunk = rows[start:start + batch]
        status, _ = http_json(host, port, "POST", "/predict",
                              {"features": chunk.tolist()})
        if status != 200:
            raise SystemExit(f"/predict answered {status}")
        sent += 1
    return sent


def firing(server):
    host, port = server.address
    status, payload = http_json(host, port, "GET", "/alertz")
    if status != 200:
        raise SystemExit(f"/alertz answered {status}")
    return payload.get("firing", [])


def requests_to_firing(server, make_batch, alert, budget, batch):
    """Faulty batches until ``alert`` fires; None if budget exhausted."""
    for sent in range(1, budget + 1):
        drive(server, make_batch(), batch)
        if alert in firing(server):
            return sent
    return None


def measure_p99(servers, rows):
    """One single-row /predict per row on each server → P99 seconds per
    server.  The servers take turns request by request, the first one
    alternating, so a neighbour busy for part of the round slows both
    alike."""
    times = [[] for _ in servers]
    order = list(range(len(servers)))
    for i, row in enumerate(rows):
        payload = {"features": [row.tolist()]}
        for k in order if i % 2 else order[::-1]:
            host, port = servers[k].address
            t0 = time.perf_counter()
            status, _ = http_json(host, port, "POST", "/predict", payload)
            times[k].append(time.perf_counter() - t0)
            if status != 200:
                raise SystemExit(f"/predict answered {status}")
    return [float(np.percentile(samples, 99)) for samples in times]


def main(argv=None) -> int:
    args = parse_args(argv)
    check = Checks()

    workdir = tempfile.mkdtemp(prefix="check_quality_")
    try:
        bundle_path = baselined_bundle_path(workdir, args)
        rng = fresh_rng((args.seed, "check-quality-load"))
        clean = lambda n: rng.standard_normal((n, args.features))  # noqa: E731

        # -- phase 1: clean traffic stays quiet ----------------------
        telemetry.get_registry().reset()
        server = boot(bundle_path, ALERTS_TOML, workdir, "drift")
        host, port = server.address
        print(f"quality-monitored worker up at {server.url}")
        drive(server, clean(4 * args.batch), args.batch)
        status, drift = http_json(host, port, "GET", "/driftz")
        check(status == 200 and drift.get("enabled"),
              "/driftz live with the bundle's training baseline")
        tap = drift.get("baseline", {}).get("tap")
        check(tap == ("reduce" if args.reduced else "input"),
              f"the baseline watches what the encoder reads (tap={tap})")
        psi = drift.get("feature", {}).get("psi_max", float("inf"))
        check(psi < 0.25,
              f"clean traffic under the PSI threshold "
              f"(psi_max={psi:.3f} < 0.25)")
        check(firing(server) == [],
              "no alerts firing on clean traffic")

        # -- phase 2: covariate shift → feature-drift fires ----------
        shifted = lambda: 3.0 + 2.0 * clean(args.batch)  # noqa: E731
        detect = requests_to_firing(server, shifted, "feature-drift",
                                    args.budget, args.batch)
        check(detect is not None,
              f"covariate shift drives feature-drift to firing within "
              f"{args.budget} requests (took {detect})")
        status, drift = http_json(host, port, "GET", "/driftz")
        top = drift.get("feature", {}).get("top", [])
        check(bool(top), f"/driftz names the drifting features "
                         f"(top={top[:3]})")
        server.stop()

        # -- phase 3: label skew → prediction-skew fires -------------
        telemetry.get_registry().reset()
        server = boot(bundle_path, ALERTS_TOML, workdir, "skew")
        host, port = server.address
        pinned = clean(1)[0]  # near-duplicates → one predicted class
        skewed = lambda: pinned + 0.01 * clean(args.batch)  # noqa: E731
        detect = requests_to_firing(server, skewed, "prediction-skew",
                                    args.budget, args.batch)
        check(detect is not None,
              f"label skew drives prediction-skew to firing within "
              f"{args.budget} requests (took {detect})")
        status, alerts = http_json(host, port, "GET", "/alertz")
        states = {row["rule"]["name"]: row["state"]
                  for row in alerts.get("rules", [])}
        check(states.get("prediction-skew") == "firing",
              f"/alertz reports the state machine (states={states})")
        server.stop()
        server = None

        # -- phase 4: monitors must be effectively free --------------
        if not args.skip_overhead:
            telemetry.get_registry().reset()
            on = boot(bundle_path, ALERTS_TOML, workdir, "on")
            off = boot(bundle_path, QUIET_TOML, workdir, "off")
            try:
                rows = clean(args.overhead_requests)
                measure_p99([on, off], rows[:50])  # warm both paths
                ratios = []
                for _ in range(3):
                    a, b = measure_p99([on, off], rows)
                    ratios.append((a / b, a, b))
                ratios.sort()
                ratio, p99_on, p99_off = ratios[0]
                check(ratio < args.overhead_limit,
                      f"quality monitors add <{args.overhead_limit:.2f}x"
                      f" to serve P99 ({ratio:.4f}x; on="
                      f"{p99_on * 1e3:.2f}ms off={p99_off * 1e3:.2f}ms;"
                      f" runs: "
                      f"{', '.join(f'{r[0]:.4f}' for r in ratios)})")
            finally:
                on.stop()
                off.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return check.summary("QUALITY GATE", "quality gate passed")


if __name__ == "__main__":
    sys.exit(main())
