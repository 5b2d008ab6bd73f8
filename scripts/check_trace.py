"""Tracing gate: boot a traced fleet, stitch every request's spans
across processes, and assert the tree is shaped right.

Boots a real 4-worker fleet (each worker a ``python -m repro.serve``
subprocess armed with ``--trace-dir``) behind an in-process
:class:`~repro.serve.router.Router` with request tracing on, fires
distinct ``/predict`` requests, then SIGKILLs one worker mid-run —
the supervisor's probes are deliberately slowed so the dead worker
stays in rotation and the router *must* take the failover-retry path.

Every process exports its spans as JSONL (``trace-<service>-<pid>
.jsonl``); the gate stitches them with
:func:`~repro.telemetry.stitch_traces` and asserts, per request:

* the trace id echoed in the response's ``X-Trace-Id`` is present and
  stitches to **exactly one** root (``complete=True``);
* the root is the router's ``router.request`` span and each worker-side
  ``server.request`` span's parent is one of the router's
  ``router.attempt`` spans (the traceparent hop worked);
* the tree reaches through the batcher into the stage graph:
  ``serve.batcher.queue`` / ``serve.batcher.dispatch`` /
  ``serve.predict`` plus at least one ``stage.*`` span;
* at least one post-kill request shows a real failover: >= 2 attempts
  on distinct workers, a ``router.retry_backoff`` span, and an errored
  first attempt.

It also exercises the live observability surface (``/tracez`` lookup,
``/requestz`` log, trace-id echo on 404/400 errors) and gates the
tracing-**disabled** span overhead at < 5% (best of 3): the unified
span with the hub dormant against the aggregate-only reference span in
``scripts/trace_overhead.py``, so the request side of every span stays
effectively free when tracing is off.

Wired into ``scripts/run_all.sh`` via ``scripts/check_trace.sh``.
"""

import argparse
import glob
import os
import shutil
import sys
import tempfile
import time

from harness import Checks, http_request  # first: puts src/ on sys.path
from synthetic import synthetic_bundle
from trace_overhead import disabled_request_trace_overhead

from repro.serve import Router, Supervisor
from repro.telemetry import (disable_request_tracing, enable_request_tracing,
                             read_trace_jsonl, render_trace_tree,
                             stitch_traces)
from repro.utils.rng import fresh_rng


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="gate the end-to-end request tracing path "
                    "(stitched parentage, failover spans, overhead)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--requests", type=int, default=12,
                        help="traced requests per half (before/after "
                             "the worker kill)")
    parser.add_argument("--dim", type=int, default=512)
    parser.add_argument("--features", type=int, default=32)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--overhead-limit", type=float, default=1.05,
                        help="tracing-disabled span cost ceiling "
                             "(unified/aggregate-only, best of 3)")
    parser.add_argument("--skip-overhead", action="store_true",
                        help="skip the microbenchmark (loaded CI hosts)")
    return parser.parse_args(argv)


def span_names(entry) -> set:
    return {str(s.get("name", "")) for s in entry["spans"]}


def spans_named(entry, name):
    return [s for s in entry["spans"] if s.get("name") == name]


def main(argv=None) -> int:
    args = parse_args(argv)
    check = Checks()

    # -- overhead gate first, while the hub is still dormant ----------
    if not args.skip_overhead:
        # Gate on the best of 3 calls: the dormant request side's true
        # cost is a lower bound of every run — noise only inflates.
        ratios = sorted(disabled_request_trace_overhead()
                        for _ in range(3))
        check(ratios[0] < args.overhead_limit,
              f"tracing-disabled span overhead {ratios[0]:.4f}x < "
              f"{args.overhead_limit}x (runs: "
              f"{', '.join(f'{r:.4f}' for r in ratios)})")

    workdir = tempfile.mkdtemp(prefix="check_trace_")
    trace_dir = os.path.join(workdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    bundle_path = os.path.join(workdir, "bundle.npz")
    synthetic_bundle(args.dim, args.features, args.classes,
                     args.seed).save(bundle_path)

    rng = fresh_rng((args.seed, "check-trace-load"))
    features = rng.standard_normal((2 * args.requests, args.features))

    # Slow probes on purpose: after the SIGKILL the supervisor does not
    # notice for ~probe_interval_s, so the dead worker stays in rotation
    # and the router is guaranteed to hit connect errors → retries.
    # Breakers are parked wide open-thresholded so every failover is a
    # real errored attempt span, not a breaker skip.
    supervisor = Supervisor(
        bundle_path, workers=args.workers,
        probe_interval_s=5.0, probe_timeout_s=1.0,
        startup_timeout_s=60.0,
        worker_args=["--cache-size", "0", "--trace-dir", trace_dir])
    router = Router(
        supervisor, port=0, max_attempts=3, retry_backoff_s=0.02,
        request_timeout_s=5.0,
        breaker_options={"failure_threshold": 10_000,
                         "min_requests": 10_000})
    enable_request_tracing(service="check-router", trace_dir=trace_dir)
    try:
        supervisor.start()
        router.start()
        host, port = router.address
        print(f"fleet up: {args.workers} traced workers behind "
              f"{router.url} (spans → {trace_dir})")

        # -- phase 1: clean requests, all workers healthy -------------
        clean_ids = []
        for row in features[:args.requests]:
            status, payload, headers = http_request(
                host, port, "POST", "/predict",
                {"features": row.tolist()})
            if status != 200:
                check(False, f"clean /predict answered {status}")
                continue
            clean_ids.append(headers.get("X-Trace-Id"))
            if payload.get("request_id") != headers.get("X-Trace-Id"):
                check(False, "response request_id matches X-Trace-Id")
        check(len(clean_ids) == args.requests
              and all(clean_ids),
              f"all {args.requests} clean requests answered 200 with "
              f"a trace id")

        # -- phase 2: SIGKILL w0, keep firing → failover retries ------
        supervisor.kill_worker("w0")
        print("killed w0; supervisor probes are slow, so the router "
              "must discover it the hard way")
        failover_ids = []
        for row in features[args.requests:]:
            status, payload, headers = http_request(
                host, port, "POST", "/predict",
                {"features": row.tolist()})
            check(status == 200,
                  f"post-kill /predict answered {status} "
                  f"(trace {headers.get('X-Trace-Id')})")
            failover_ids.append(headers.get("X-Trace-Id"))

        # -- satellite: ids echo on error responses too ---------------
        status, payload, headers = http_request(host, port,
                                                "GET", "/nope")
        check(status == 404 and headers.get("X-Trace-Id"),
              "router 404 still echoes X-Trace-Id")
        status, payload, headers = http_request(
            host, port, "POST", "/predict", b"not json")
        check(status == 400 and headers.get("X-Trace-Id")
              and payload.get("request_id"),
              "router 400 carries X-Trace-Id header and request_id "
              "in the payload")
        worker = next(w.address for w in supervisor.workers
                      if w.worker_id != "w0")
        status, payload, headers = http_request(*worker, "GET", "/nope")
        check(status == 404 and headers.get("X-Trace-Id"),
              "worker 404 still echoes X-Trace-Id")

        # -- live observability surface on the router -----------------
        status, payload, _ = http_request(host, port, "GET", "/tracez")
        retained = [t.get("trace_id")
                    for t in payload.get("retained", [])] \
            if status == 200 else []
        check(status == 200 and retained,
              f"/tracez snapshot lists retained traces "
              f"({len(retained)})")
        probe_id = retained[0] if retained else (clean_ids or [""])[0]
        status, payload, _ = http_request(
            host, port, "GET", f"/tracez?trace_id={probe_id}")
        check(status == 200 and payload.get("trace_id") == probe_id
              and payload.get("spans"),
              f"/tracez?trace_id= returns the retained trace "
              f"({probe_id})")
        status, payload, _ = http_request(host, port, "GET",
                                          "/requestz?limit=5")
        check(status == 200
              and payload.get("appended", 0) >= 2 * args.requests
              and all(r.get("trace_id")
                      for r in payload.get("requests", [])),
              f"/requestz logged every request with its trace id "
              f"(appended={payload.get('appended')})")
        status, payload, _ = http_request(
            host, port, "GET", f"/requestz?trace_id={clean_ids[0]}")
        check(status == 200 and len(payload.get("requests", [])) == 1,
              "/requestz?trace_id= pulls one request's record")

        # -- stitch the JSONL exports across all processes ------------
        time.sleep(0.5)  # let the last spans hit their files
        files = sorted(glob.glob(os.path.join(trace_dir,
                                              "trace-*.jsonl")))
        check(len(files) >= args.workers + 1,
              f"router + every worker exported a trace file "
              f"({len(files)} files)")
        stitched = stitch_traces(read_trace_jsonl(*files))

        required = {"router.request", "router.attempt",
                    "server.request", "serve.batcher.queue",
                    "serve.batcher.dispatch", "serve.predict"}
        all_ids = [t for t in clean_ids + failover_ids if t]
        bad_shape = []
        for trace_id in all_ids:
            entry = stitched.get(trace_id)
            if entry is None:
                bad_shape.append((trace_id, "missing from export"))
                continue
            names = span_names(entry)
            attempts = spans_named(entry, "router.attempt")
            attempt_ids = {s["span_id"] for s in attempts}
            root_name = entry["roots"][0]["span"]["name"] \
                if entry["roots"] else "?"
            if not entry["complete"]:
                bad_shape.append((trace_id,
                                  f"{len(entry['roots'])} roots"))
            elif root_name != "router.request":
                bad_shape.append((trace_id, f"root={root_name}"))
            elif not required <= names:
                bad_shape.append(
                    (trace_id,
                     f"missing {sorted(required - names)}"))
            elif not any(n.startswith("stage.") for n in names):
                bad_shape.append((trace_id, "no stage.* span"))
            elif any(s.get("parent_id") not in attempt_ids
                     for s in spans_named(entry, "server.request")):
                bad_shape.append(
                    (trace_id, "server.request not parented to a "
                               "router.attempt"))
            elif len({str(s.get("service")) for s in entry["spans"]
                      if str(s.get("service")).startswith("worker-")}
                     ) < 1:
                bad_shape.append((trace_id, "no worker-side service"))
        for trace_id, why in bad_shape[:5]:
            print(f"  bad trace {trace_id}: {why}")
        check(not bad_shape,
              f"every request stitched to one well-formed "
              f"router→worker→batcher→stage tree "
              f"({len(all_ids) - len(bad_shape)}/{len(all_ids)})")

        retried = []
        for trace_id in failover_ids:
            entry = stitched.get(trace_id)
            if entry is None:
                continue
            attempts = spans_named(entry, "router.attempt")
            workers_hit = {str((s.get("attrs") or {}).get("worker"))
                           for s in attempts}
            if (len(attempts) >= 2 and len(workers_hit) >= 2
                    and spans_named(entry, "router.retry_backoff")
                    and any(s.get("status") == "error"
                            for s in attempts)):
                retried.append(trace_id)
        check(len(retried) >= 1,
              f"failover retry visible in the stitched trees "
              f"({len(retried)} trace(s) with an errored attempt, "
              f"backoff, and a second worker)")

        if retried:
            entry = stitched[retried[0]]
            print(f"\nstitched failover trace {retried[0]} "
                  f"(services: {', '.join(entry['services'])}):")
            for line in render_trace_tree(entry["roots"]).splitlines():
                print(f"  {line}")
        elif all_ids and stitched.get(all_ids[0]):
            entry = stitched[all_ids[0]]
            print(f"\nstitched trace {all_ids[0]}:")
            for line in render_trace_tree(entry["roots"]).splitlines():
                print(f"  {line}")
    finally:
        router.stop()
        supervisor.stop()
        disable_request_tracing()
        shutil.rmtree(workdir, ignore_errors=True)

    return check.summary("TRACE GATE", "trace gate passed")


if __name__ == "__main__":
    sys.exit(main())
