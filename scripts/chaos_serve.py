"""Chaos harness for the serving fleet: kill, hang, and poison workers
under load, then assert the SLO held.

Boots a real 4-worker fleet (:class:`~repro.serve.fleet.Supervisor`
spawning ``python -m repro.serve`` subprocesses with the ``/slow``
fault endpoint armed) behind a :class:`~repro.serve.router.Router`,
drives a closed-loop keep-alive load from ``--clients`` threads, and
injects three process-level faults mid-load on a fixed schedule:

1. **crash** — SIGKILL one worker (the restart path a real segfault
   takes);
2. **hang** — wedge another worker's handler threads via ``POST
   /slow`` so only the supervisor's probe-timeout hang detector can
   find it;
3. **poison** — point a third worker's ``POST /reload`` at a torn
   bundle copy; the worker must answer 409 and keep serving the old
   engine.

The harness then waits for the fleet to heal (both faulted workers
restarted and back in rotation) and measures a clean recovery window.

Asserted SLO (exit nonzero on violation):

* overall request success rate >= 99% across boot/chaos/recovery;
* at least one circuit breaker opened and closed again;
* the killed and hung workers restarted and re-entered rotation;
* the poisoned worker rejected the torn bundle (409) and kept its
  bundle fingerprint;
* recovery-window P99 back within a small multiple of baseline;
* routed answers bit-exact with a local engine on the same bundle.

Request tracing is enabled on the router for the whole run: every
response echoes an ``X-Trace-Id``, the load generator records it, and
the post-mortem prints the 10 slowest plus every failed request with
their span trees pulled from the router's flight recorder.
``scripts/check_fleet.sh`` wires this into ``run_all.sh``.

Usage::

    python scripts/chaos_serve.py                 # 4 workers, 8 clients
    python scripts/chaos_serve.py --phase-s 2.0 --clients 4
"""

import argparse
import http.client
import json
import os
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from synthetic import synthetic_bundle  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.serve import InferenceEngine, Router, Supervisor  # noqa: E402
from repro.telemetry import (disable_request_tracing,  # noqa: E402
                             enable_request_tracing, get_flight_recorder,
                             render_trace_tree)
from repro.utils.rng import fresh_rng  # noqa: E402

#: Load-phase names (also the per-phase latency buckets).
PHASES = ("baseline", "chaos", "recovery")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="chaos-test the serving fleet (kill/hang/poison "
                    "under load), assert the SLO")
    parser.add_argument("--workers", type=int, default=4,
                        help="fleet size (needs >= 4 for the schedule)")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client threads")
    parser.add_argument("--phase-s", type=float, default=3.0,
                        help="baseline/recovery window length; the "
                             "chaos window runs until the fleet heals")
    parser.add_argument("--heal-timeout-s", type=float, default=30.0,
                        help="max wait for faulted workers to rejoin")
    parser.add_argument("--dim", type=int, default=1024)
    parser.add_argument("--features", type=int, default=64)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-success", type=float, default=0.99,
                        help="overall request success-rate floor")
    parser.add_argument("--json-out", default=None)
    return parser.parse_args(argv)


def make_torn_copy(bundle_path: str, torn_path: str) -> None:
    """A truncated bundle copy: fails CRC/manifest verification, so a
    worker's ``/reload`` must 409 it and keep the old engine."""
    with open(bundle_path, "rb") as src:
        blob = src.read()
    with open(torn_path, "wb") as dst:
        dst.write(blob[: max(64, len(blob) // 2)])


class LoadGenerator:
    """Closed-loop keep-alive load against the router.

    ``--clients`` threads each hold one persistent connection and fire
    a deterministic rotation of feature payloads as fast as the router
    answers.  Outcomes are bucketed by the *current phase* (the chaos
    schedule flips :attr:`phase` from the main thread) so the three
    windows can be scored separately.

    Every response's ``X-Trace-Id`` echo is recorded alongside its
    latency so the post-mortem can pull the slowest and every failed
    request straight out of the router's flight recorder.
    """

    def __init__(self, host: str, port: int, payloads, clients: int):
        self.host = host
        self.port = int(port)
        self.payloads = payloads
        self.clients = int(clients)
        self.phase = PHASES[0]
        self.results = {name: {"ok": 0, "fail": 0, "latency_ms": []}
                        for name in PHASES}
        self._traced = []   # (latency_ms, status, trace_id) per request
        self._failed = []   # same shape, non-200 / connection errors
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = []

    def _client(self, cid: int) -> None:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=30.0)
        i = cid
        while not self._stop.is_set():
            body = self.payloads[i % len(self.payloads)]
            i += self.clients
            phase = self.phase
            status = None
            trace_id = None
            t0 = telemetry.clock()
            try:
                conn.request("POST", "/predict", body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                status = response.status
                trace_id = response.getheader("X-Trace-Id")
                ok = response.status == 200
            except (http.client.HTTPException, OSError):
                ok = False
                conn.close()
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=30.0)
            latency_ms = 1000.0 * (telemetry.clock() - t0)
            with self._lock:
                bucket = self.results[phase]
                bucket["ok" if ok else "fail"] += 1
                if ok:
                    bucket["latency_ms"].append(latency_ms)
                self._traced.append((latency_ms, status, trace_id))
                if not ok:
                    self._failed.append((latency_ms, status, trace_id))
        conn.close()

    def start(self) -> "LoadGenerator":
        self._threads = [
            threading.Thread(target=self._client, args=(cid,),
                             name=f"chaos-client-{cid}", daemon=True)
            for cid in range(self.clients)]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=35.0)

    def summary(self) -> dict:
        with self._lock:
            out = {}
            for name, bucket in self.results.items():
                lat = np.asarray(bucket["latency_ms"]) \
                    if bucket["latency_ms"] else np.array([0.0])
                out[name] = {
                    "ok": bucket["ok"],
                    "fail": bucket["fail"],
                    "p50_ms": float(np.percentile(lat, 50)),
                    "p95_ms": float(np.percentile(lat, 95)),
                    "p99_ms": float(np.percentile(lat, 99)),
                }
            return out

    def traced(self) -> dict:
        """Slowest-10 and all failed requests with their trace ids,
        in the shape :func:`report_traces` expects."""
        with self._lock:
            slowest = sorted(self._traced,
                             key=lambda r: -(r[0] or 0.0))[:10]
            return {"slowest": slowest, "failed": list(self._failed)}


def report_traces(traced: dict) -> None:
    """Print the slowest/failed requests with flight-recorder lookups."""
    recorder = get_flight_recorder()

    def describe(lat_ms, status, trace_id) -> None:
        lat = f"{lat_ms:8.2f}ms" if lat_ms is not None else "   (conn)"
        print(f"  {lat}  HTTP {status or '---'}  trace={trace_id}")
        found = recorder.lookup(trace_id) if trace_id else None
        if found is None:
            print("            (not retained by the flight recorder)")
            return
        print(f"            retained_for={','.join(found['retained_for'])} "
              f"spans={len(found['spans'])}")
        for line in render_trace_tree(found["tree"]).splitlines():
            print(f"            {line}")

    print(f"\nslowest {len(traced['slowest'])} traced requests:")
    for lat_ms, status, trace_id in traced["slowest"]:
        describe(lat_ms, status, trace_id)
    if traced["failed"]:
        print(f"\nfailed traced requests ({len(traced['failed'])}):")
        for lat_ms, status, trace_id in traced["failed"]:
            describe(lat_ms, status, trace_id)
    else:
        print("\nno failed traced requests")


def post_worker(url: str, path: str, payload: dict,
                timeout: float = 10.0):
    """Direct POST to one worker (bypassing the router) → (status, body)."""
    host_port = url.split("//", 1)[1]
    host, port = host_port.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request("POST", path, json.dumps(payload).encode("utf-8"),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def wait_until(predicate, timeout_s: float, poll_s: float = 0.1) -> bool:
    deadline = telemetry.clock() + timeout_s
    while telemetry.clock() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workers < 4:
        print("error: the chaos schedule faults 3 distinct workers; "
              "--workers must be >= 4", file=sys.stderr)
        return 2
    telemetry.get_registry().reset()
    telemetry.get_tracer().reset()
    # Router-side request tracing, in-process: every request gets a
    # trace id echoed in X-Trace-Id and lands in this process's flight
    # recorder (the workers are subprocesses; their spans stay local).
    enable_request_tracing(service="chaos-router", sample_rate=1.0)

    failures: list = []

    def check(condition: bool, label: str) -> None:
        print(("PASS" if condition else "FAIL") + f"  {label}")
        if not condition:
            failures.append(label)

    workdir = tempfile.mkdtemp(prefix="chaos_serve_")
    bundle_path = os.path.join(workdir, "bundle.npz")
    torn_path = os.path.join(workdir, "torn.npz")
    bundle = synthetic_bundle(args.dim, args.features, args.classes,
                              args.seed)
    bundle.save(bundle_path)
    make_torn_copy(bundle_path, torn_path)
    reference = InferenceEngine(bundle, cache_size=0,
                                build_extractor=False)

    rng = fresh_rng((args.seed, "chaos-serve-load"))
    features = rng.standard_normal((64, args.features))
    payloads = [json.dumps({"features": row.tolist()}).encode("ascii")
                for row in features]
    expected = [int(v) for v in reference.predict_features(features)]

    supervisor = Supervisor(
        bundle_path, workers=args.workers, chaos=True,
        probe_interval_s=0.1, probe_timeout_s=0.5, hang_probe_limit=3,
        backoff_base_s=0.2, backoff_max_s=2.0,
        crash_loop_threshold=8, crash_loop_window_s=10.0,
        worker_args=["--cache-size", "64"])
    router = Router(
        supervisor, port=0, max_attempts=3, retry_backoff_s=0.02,
        request_timeout_s=2.0,
        breaker_options={"failure_threshold": 3, "min_requests": 8,
                         "recovery_timeout_s": 0.5})

    load = None
    try:
        supervisor.start()
        router.start()
        host, port = router.address
        print(f"fleet up: {args.workers} workers behind {router.url}")

        # -- parity before anything burns: routed == local engine.
        parity = []
        for i in (0, 1, 2, 3):
            status, payload = post_worker(router.url, "/predict",
                                          {"features":
                                           features[i].tolist()})
            parity.append(status == 200
                          and payload["labels"] == [expected[i]])
        check(all(parity), "routed answers bit-exact with local engine")

        load = LoadGenerator(host, port, payloads, args.clients).start()

        # Phase 1: baseline --------------------------------------------
        time.sleep(args.phase_s)

        # Phase 2: chaos -----------------------------------------------
        load.phase = "chaos"
        kill_id, hang_id, poison_id = "w0", "w1", "w2"

        dead_pid = supervisor.kill_worker(kill_id)
        print(f"chaos: SIGKILLed {kill_id} (pid {dead_pid})")

        time.sleep(0.5)
        hang_url = next(w.url for w in supervisor.workers
                        if w.worker_id == hang_id)
        status, _ = post_worker(hang_url, "/slow", {"stall_s": 30.0},
                                timeout=5.0)
        check(status == 200, f"/slow accepted on {hang_id} "
                             f"(chaos endpoint armed)")
        print(f"chaos: wedged {hang_id} via /slow")

        time.sleep(0.5)
        poison_url = next(w.url for w in supervisor.workers
                          if w.worker_id == poison_id)
        before = next(w for w in supervisor.workers
                      if w.worker_id == poison_id).last_probe or {}
        status, payload = post_worker(poison_url, "/reload",
                                      {"bundle": torn_path}, timeout=10.0)
        check(status == 409 and not payload.get("reloaded", True),
              f"torn bundle reload rejected with 409 on {poison_id}")
        print(f"chaos: torn-bundle reload answered {status} "
              f"on {poison_id}")

        def healed() -> bool:
            description = supervisor.describe()
            by_id = {w["id"]: w for w in description["workers"]}
            return (description["up"] == args.workers
                    and by_id[kill_id]["restarts"] >= 1
                    and by_id[hang_id]["restarts"] >= 1)

        check(wait_until(healed, args.heal_timeout_s),
              f"fleet healed within {args.heal_timeout_s:.0f}s "
              f"(both faulted workers restarted, all up)")

        # Phase 3: recovery --------------------------------------------
        load.phase = "recovery"
        time.sleep(args.phase_s)
        load.stop()

        # -- post-mortem assertions ------------------------------------
        description = supervisor.describe()
        by_id = {w["id"]: w for w in description["workers"]}
        check("hung" in (by_id[hang_id]["last_failure"] or ""),
              f"{hang_id} failure classified as hang "
              f"({by_id[hang_id]['last_failure']!r})")

        health = router.health()
        opens = sum(int(b["stats"]["opens"])
                    for b in health["breakers"].values())
        closes = sum(int(b["stats"]["closes"])
                     for b in health["breakers"].values())
        check(opens >= 1, f"circuit breaker opened under chaos "
                          f"(opens={opens})")
        check(closes >= 1, f"circuit breaker closed again after "
                           f"recovery (closes={closes})")

        status, payload = post_worker(poison_url, "/predict",
                                      {"features":
                                       features[0].tolist()})
        check(status == 200 and payload["labels"] == [expected[0]],
              f"{poison_id} still serves the old bundle correctly "
              f"after the poisoned reload")
        after = next(w for w in supervisor.workers
                     if w.worker_id == poison_id).last_probe or {}
        before_fp = (before.get("bundle") or {}).get("fingerprint")
        after_fp = (after.get("bundle") or {}).get("fingerprint")
        check(bool(before_fp) and after_fp == before_fp,
              f"{poison_id} bundle fingerprint unchanged "
              f"({after_fp!r})")

        summary = load.summary()
        total_ok = sum(s["ok"] for s in summary.values())
        total = total_ok + sum(s["fail"] for s in summary.values())
        success_rate = total_ok / max(total, 1)
        check(total >= args.clients * 10,
              f"load generator actually generated load ({total} reqs)")
        check(success_rate >= args.min_success,
              f"success rate {success_rate:.4%} >= "
              f"{args.min_success:.0%} ({total - total_ok}/{total} "
              f"failed)")
        p99_floor_ms = 100.0
        check(summary["recovery"]["p99_ms"]
              <= max(10.0 * summary["baseline"]["p99_ms"], p99_floor_ms),
              f"recovery P99 {summary['recovery']['p99_ms']:.1f}ms back "
              f"near baseline {summary['baseline']['p99_ms']:.1f}ms")

        # -- flight-recorder post-mortem: slowest + every failure -----
        traced = load.traced()
        traced_ok = sum(1 for _, _, tid in traced["slowest"] if tid)
        check(traced_ok == len(traced["slowest"]),
              f"every slow request carried a trace id "
              f"({traced_ok}/{len(traced['slowest'])})")
        report_traces(traced)
    finally:
        if load is not None and not load._stop.is_set():
            load.stop()
        router.stop()
        supervisor.stop()
        disable_request_tracing()
        shutil.rmtree(workdir, ignore_errors=True)

    for name in PHASES:
        s = summary[name]
        print(f"{name:>9}: ok={s['ok']:>5} fail={s['fail']:>3}  "
              f"p50={s['p50_ms']:.1f} p95={s['p95_ms']:.1f} "
              f"p99={s['p99_ms']:.1f} ms")
    print(f"fleet: restarts={description['restarts']} "
          f"breaker opens={opens} closes={closes} "
          f"success={success_rate:.4%}")

    if args.json_out:
        config = {
            "workers": args.workers, "clients": args.clients,
            "phase_s": args.phase_s, "dim": args.dim,
            "features": args.features, "classes": args.classes,
            "seed": args.seed,
        }
        with open(args.json_out, "w") as handle:
            json.dump({"summary": summary, "config": config,
                       "success_rate": success_rate,
                       "restarts": description["restarts"],
                       "breaker_opens": opens,
                       "failures": failures,
                       "traces": traced},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if failures:
        print(f"\nCHAOS SLO FAILED: {len(failures)} assertion(s):",
              file=sys.stderr)
        for label in failures:
            print(f"  - {label}", file=sys.stderr)
        return 1
    print("\nchaos SLO held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
