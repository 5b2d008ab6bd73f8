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
import json
import os
import sys
import time

from harness import (Checks, LoadGenerator, http_json,  # first: src/ on path
                     scratch_dir, traced_fleet)
from synthetic import synthetic_bundle

from repro import telemetry
from repro.serve import InferenceEngine
from repro.telemetry import get_flight_recorder, render_trace_tree
from repro.utils.rng import fresh_rng

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


def traced(responses) -> dict:
    """The 10 slowest and every failed request with their trace ids,
    as ``(latency_ms, status, trace_id)``, for :func:`report_traces`."""
    rows = [(r.latency_ms, r.status, r.trace_id) for r in responses]
    return {"slowest": sorted(rows, key=lambda r: -r[0])[:10],
            "failed": [row for row in rows if row[1] != 200]}


def report_traces(traces: dict) -> None:
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

    print(f"\nslowest {len(traces['slowest'])} traced requests:")
    for lat_ms, status, trace_id in traces["slowest"]:
        describe(lat_ms, status, trace_id)
    if traces["failed"]:
        print(f"\nfailed traced requests ({len(traces['failed'])}):")
        for lat_ms, status, trace_id in traces["failed"]:
            describe(lat_ms, status, trace_id)
    else:
        print("\nno failed traced requests")


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
    check = Checks()

    with scratch_dir("chaos_serve_") as workdir:
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

        # Router-side request tracing, in-process: every request gets a
        # trace id echoed in X-Trace-Id and lands in this process's
        # flight recorder (the workers are subprocesses; their spans
        # stay local).
        with traced_fleet(
                bundle_path, "chaos-router",
                dict(workers=args.workers, probe_interval_s=0.1,
                     probe_timeout_s=0.5, hang_probe_limit=3,
                     backoff_base_s=0.2, backoff_max_s=2.0,
                     crash_loop_threshold=8, crash_loop_window_s=10.0,
                     worker_args=["--cache-size", "64", "--chaos"]),
                dict(max_attempts=3, retry_backoff_s=0.02,
                     request_timeout_s=2.0,
                     breaker_options={"failure_threshold": 3,
                                      "min_requests": 8,
                                      "recovery_timeout_s": 0.5})
        ) as (supervisor, router):
            host, port = router.address
            print(f"fleet up: {args.workers} workers behind {router.url}")

            # -- parity before anything burns: routed == local engine.
            parity = []
            for i in (0, 1, 2, 3):
                status, payload = http_json(
                    host, port, "POST", "/predict",
                    {"features": features[i].tolist()}, timeout=10.0)
                parity.append(status == 200
                              and payload["labels"] == [expected[i]])
            check(all(parity), "routed answers bit-exact with local engine")

            with LoadGenerator(host, port, payloads, args.clients,
                               phase=PHASES[0]) as load:
                # Phase 1: baseline ------------------------------------
                time.sleep(args.phase_s)

                # Phase 2: chaos ---------------------------------------
                load.phase = "chaos"
                kill_id, hang_id, poison_id = "w0", "w1", "w2"

                dead_pid = supervisor.kill_worker(kill_id)
                print(f"chaos: SIGKILLed {kill_id} (pid {dead_pid})")

                time.sleep(0.5)
                hang = next(w.address for w in supervisor.workers
                            if w.worker_id == hang_id)
                status, _ = http_json(*hang, "POST", "/slow",
                                      {"stall_s": 30.0}, timeout=5.0)
                check(status == 200, f"/slow accepted on {hang_id} "
                                     f"(chaos endpoint armed)")
                print(f"chaos: wedged {hang_id} via /slow")

                time.sleep(0.5)
                poison = next(w.address for w in supervisor.workers
                              if w.worker_id == poison_id)
                before = next(w for w in supervisor.workers
                              if w.worker_id == poison_id).last_probe or {}
                status, payload = http_json(*poison, "POST", "/reload",
                                            {"bundle": torn_path},
                                            timeout=10.0)
                check(status == 409 and not payload.get("reloaded", True),
                      f"torn bundle reload rejected with 409 on "
                      f"{poison_id}")
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

                # Phase 3: recovery ------------------------------------
                load.phase = "recovery"
                time.sleep(args.phase_s)
                load.stop()

            # -- post-mortem assertions --------------------------------
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

            status, payload = http_json(*poison, "POST", "/predict",
                                        {"features": features[0].tolist()},
                                        timeout=10.0)
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

            summary = load.summary(PHASES)
            total_ok = sum(s["ok"] for s in summary.values())
            total = total_ok + sum(s["fail"] for s in summary.values())
            success_rate = total_ok / max(total, 1)
            check(total >= args.clients * 10,
                  f"load generator actually generated load ({total} reqs)")
            check(success_rate >= args.min_success,
                  f"success rate {success_rate:.4%} >= "
                  f"{args.min_success:.0%} ({total - total_ok}/{total} "
                  f"failed)")
            # An empty window reads P99 0 ms: both must have answers.
            baseline, recovery = summary["baseline"], summary["recovery"]
            p99_floor_ms = 100.0
            check(baseline["ok"] > 0 and recovery["ok"] > 0
                  and recovery["p99_ms"]
                  <= max(10.0 * baseline["p99_ms"], p99_floor_ms),
                  f"recovery P99 {recovery['p99_ms']:.1f}ms back "
                  f"near baseline {baseline['p99_ms']:.1f}ms "
                  f"(ok: {baseline['ok']} baseline, {recovery['ok']} "
                  f"recovery)")

            # -- flight-recorder post-mortem: slowest + every failure -
            traces = traced(load.responses)
            traced_ok = sum(1 for _, _, tid in traces["slowest"] if tid)
            check(traced_ok == len(traces["slowest"]),
                  f"every slow request carried a trace id "
                  f"({traced_ok}/{len(traces['slowest'])})")
            report_traces(traces)

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
                       "failures": check.failures,
                       "traces": traces},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    return check.summary("CHAOS SLO", "chaos SLO held")


if __name__ == "__main__":
    sys.exit(main())
