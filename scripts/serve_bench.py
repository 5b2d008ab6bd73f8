"""Serving benchmark: closed-loop load generator over the micro-batcher.

Measures three ways of answering the same prediction stream with one
:class:`~repro.serve.engine.InferenceEngine`:

1. **single** — the naive per-request loop: one ``predict_features``
   call per sample (the baseline every serving stack is judged
   against);
2. **batched** — engine calls at ``--batch`` samples per GEMM (the
   upper bound micro-batching can reach);
3. **closed-loop** — ``--clients`` generator threads submitting
   samples through the :class:`~repro.serve.batching.MicroBatcher`,
   recording per-request latency; reports throughput and latency
   P50/P95/P99;
4. **http** — the same closed loop over a real
   :class:`~repro.serve.server.ModelServer` socket, each client thread
   holding one persistent keep-alive ``http.client.HTTPConnection``
   (a stale pooled connection is replayed once on a fresh one, and
   both reconnects and hard connection errors are counted — a healthy
   run reuses every connection and reports zero of each).

The run is appended to the run ledger (``kind="serve"``) with the
latency quantiles, connection-error counts, and the batcher's
telemetry snapshot, and gated
against the rolling median+MAD baseline exactly like the training smoke
runs (``scripts/check_regression.sh``).  ``--min-speedup`` turns the
batched-vs-single ratio into an exit status for CI; the ratio is the
median of three interleaved single/batched passes, with BLAS pinned to
one thread.

``--compile`` repeats the single/batched phases on a **compiled**
engine (all fusion passes; same bundle, same samples), asserts the
predictions stay bit-exact, and ledgers the compiled-vs-interpreted
delta as a second ``kind="compile"`` record gated against its own
median+MAD baseline.

By default the engine runs a **synthetic bundle** (random bipolar
projection + class hypervectors, identity scaler): throughput is a
function of shapes and dtypes, not weight values, and synthesizing
skips a minute of CNN smoke training.  Pass ``--bundle PATH`` to bench
a real exported bundle instead.

Usage::

    python scripts/serve_bench.py                       # synthetic, D=2048
    python scripts/serve_bench.py --requests 2000 --clients 8
    python scripts/serve_bench.py --bundle results/nshd.bundle.npz
"""

import argparse
import http.client
import json
import os
import sys
import threading
import time

# Single-threaded BLAS, as in bench/run.py: on a small shared machine a
# multi-threaded GEMM waits for its slowest core, which made the batched
# phase read slower than the single-sample loop in some runs.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import telemetry  # noqa: E402
from repro.serve import InferenceEngine, ModelBundle, ModelServer  # noqa: E402
from repro.serve.batching import MicroBatcher  # noqa: E402
from repro.serve.bundle import BUNDLE_VERSION  # noqa: E402
from repro.telemetry import (disable_request_tracing,  # noqa: E402
                             enable_request_tracing, get_flight_recorder,
                             render_trace_tree)
from repro.telemetry import regress  # noqa: E402
from repro.telemetry.ledger import (RunLedger, RunRecord,  # noqa: E402
                                    config_fingerprint, git_info)
from repro.utils.rng import fresh_rng  # noqa: E402
from trace_overhead import disabled_request_trace_overhead  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="benchmark the serving engine and micro-batcher, "
                    "ledger the result, gate against the rolling baseline")
    parser.add_argument("--bundle", default=None,
                        help="path to an exported bundle (default: "
                             "synthesize a random binarized bundle)")
    parser.add_argument("--dim", type=int, default=2048,
                        help="hypervector dimensionality (synthetic)")
    parser.add_argument("--features", type=int, default=128,
                        help="input feature count (synthetic)")
    parser.add_argument("--classes", type=int, default=10,
                        help="class count (synthetic)")
    parser.add_argument("--requests", type=int, default=1024,
                        help="requests per measurement phase")
    parser.add_argument("--batch", type=int, default=32,
                        help="micro-batch size (acceptance floor: >= 32)")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client threads")
    parser.add_argument("--workers", type=int, default=2,
                        help="micro-batcher worker threads")
    parser.add_argument("--max-latency-ms", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-http", action="store_true",
                        help="skip the HTTP keep-alive phase (sockets "
                             "through a real ModelServer)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced HTTP phase (per-request "
                             "tracing A/B, slowest-trace report, "
                             "tracing-overhead ledger fields)")
    parser.add_argument("--float-path", action="store_true",
                        help="bench the float cosine path instead of the "
                             "bit-packed fast path")
    parser.add_argument("--compile", action="store_true",
                        help="also bench a compiled engine (all fusion "
                             "passes) against the interpreted one and "
                             "ledger the delta as kind=\"compile\"")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit nonzero unless batched/single "
                             "throughput ratio >= this")
    parser.add_argument("--ledger-dir",
                        default=os.path.join(REPO_ROOT, "results", "ledger"))
    parser.add_argument("--no-append", action="store_true")
    parser.add_argument("--no-gate", action="store_true")
    parser.add_argument("--json-out", default=None,
                        help="optional path for the raw result JSON")
    return parser.parse_args(argv)


def synthetic_bundle(dim: int, features: int, classes: int,
                     seed: int) -> ModelBundle:
    """A structurally-valid random bundle (throughput depends only on
    shapes, so random weights bench the same code path as real ones)."""
    rng = fresh_rng((seed, "serve-bench"))
    projection = np.where(rng.random((features, dim)) < 0.5, -1.0, 1.0)
    class_matrix = np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)
    config = {"synthetic": True, "dim": dim, "features": features,
              "classes": classes, "seed": seed}
    arrays = {
        "scaler.mean": np.zeros(features),
        "scaler.std": np.ones(features),
        "encoder.projection": projection,
        "classes": class_matrix,
    }
    info = {
        "bundle_version": BUNDLE_VERSION,
        "pipeline": "SyntheticHD",
        "dim": dim, "num_classes": classes,
        "created_at": float(time.time()),
        "git": git_info(REPO_ROOT),
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "binarized": True, "quantize_bits": None,
        "encoder": {"type": "random_projection", "in_features": features,
                    "dim": dim, "quantize": True},
        "extractor": None, "manifold": None,
        "arrays": sorted(arrays),
    }
    return ModelBundle(arrays, info)


def bench_single(engine: InferenceEngine, samples: np.ndarray) -> dict:
    """Naive per-request loop: one predict call per sample."""
    t0 = telemetry.clock()
    for row in samples:
        engine.predict_features(row)
    elapsed = telemetry.clock() - t0
    return {"wall_s": elapsed,
            "throughput_rps": len(samples) / max(elapsed, 1e-9)}


def bench_batched(engine: InferenceEngine, samples: np.ndarray,
                  batch: int) -> dict:
    """Engine-level batching at ``batch`` samples per call."""
    t0 = telemetry.clock()
    for start in range(0, len(samples), batch):
        engine.predict_features(samples[start:start + batch])
    elapsed = telemetry.clock() - t0
    return {"wall_s": elapsed,
            "throughput_rps": len(samples) / max(elapsed, 1e-9)}


def speedup_passes(engine: InferenceEngine, samples: np.ndarray,
                   batch: int) -> tuple:
    """Three interleaved single/batched passes.

    Returns ``(speedup, single, batched)`` of the pass with the median
    batched/single ratio, so one pass slowed by a busy neighbour cannot
    decide the gate.
    """
    runs = []
    for _ in range(3):
        single = bench_single(engine, samples)
        batched = bench_batched(engine, samples, batch)
        runs.append((batched["throughput_rps"]
                     / max(single["throughput_rps"], 1e-9), single, batched))
    runs.sort(key=lambda run: run[0])
    return runs[1]


def bench_closed_loop(engine: InferenceEngine, samples: np.ndarray,
                      batch: int, clients: int, workers: int,
                      max_latency_ms: float) -> dict:
    """Closed-loop generator: ``clients`` threads, per-request latency."""
    latencies: list = [[] for _ in range(clients)]
    errors = [0] * clients
    shares = np.array_split(np.arange(len(samples)), clients)
    with MicroBatcher(engine.predict_features, max_batch_size=batch,
                      max_latency_ms=max_latency_ms, workers=workers,
                      default_timeout_s=30.0) as batcher:
        def client(cid: int) -> None:
            for i in shares[cid]:
                t0 = telemetry.clock()
                try:
                    batcher.submit(samples[i])
                except Exception:
                    errors[cid] += 1
                    continue
                latencies[cid].append(
                    1000.0 * (telemetry.clock() - t0))

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(clients)]
        t0 = telemetry.clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = telemetry.clock() - t0
        stats = dict(batcher.stats)
    lat = np.concatenate([np.asarray(chunk) for chunk in latencies]) \
        if any(latencies) else np.array([0.0])
    completed = int(stats.get("completed", 0))
    return {
        "wall_s": elapsed,
        "throughput_rps": completed / max(elapsed, 1e-9),
        "completed": completed,
        "errors": int(sum(errors)),
        "batches": int(stats.get("batches", 0)),
        "mean_batch": completed / max(1, int(stats.get("batches", 1))),
        "latency_ms": {
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat.max()),
        },
    }


def bench_http(engine: InferenceEngine, samples: np.ndarray,
               batch: int, clients: int, workers: int,
               max_latency_ms: float,
               capture_traces: bool = False) -> dict:
    """Closed loop over a real socket with keep-alive reuse.

    Each client thread owns one persistent
    :class:`http.client.HTTPConnection` for its whole request share; a
    request that dies on a stale/broken connection is replayed once on
    a fresh one (counted as a reconnect) before it becomes a hard
    connection error.  Under normal operation both counts are zero —
    they are recorded in the ledger so a regression back to
    connection-per-request (or a server that starts dropping keep-alive)
    shows up in the baseline gate.

    ``capture_traces=True`` (the traced A/B phase) records each
    response's ``X-Trace-Id`` next to its latency, and the result gains
    ``slowest`` (10 slowest requests, slowest first) and ``failed``
    (every non-200/errored request) lists of ``(latency_ms, status,
    trace_id)`` for flight-recorder lookups.
    """
    latencies: list = [[] for _ in range(clients)]
    conn_errors = [0] * clients
    http_errors = [0] * clients
    reconnects = [0] * clients
    completed = [0] * clients
    records: list = [[] for _ in range(clients)]
    failed: list = [[] for _ in range(clients)]
    shares = np.array_split(np.arange(len(samples)), clients)
    bodies = [json.dumps({"features": samples[i].tolist()}).encode("ascii")
              for i in range(len(samples))]
    headers = {"Content-Type": "application/json"}

    server = ModelServer(engine, port=0, max_batch_size=batch,
                         max_latency_ms=max_latency_ms, workers=workers,
                         high_watermark=None, timeout_s=30.0).start()
    host, port = server.address
    try:
        def once(conn: http.client.HTTPConnection, i: int) -> tuple:
            conn.request("POST", "/predict", bodies[i], headers)
            response = conn.getresponse()
            response.read()
            return response.status, response.getheader("X-Trace-Id")

        def client(cid: int) -> None:
            conn = http.client.HTTPConnection(host, port, timeout=30.0)
            for i in shares[cid]:
                t0 = telemetry.clock()
                try:
                    status, trace_id = once(conn, int(i))
                except (http.client.HTTPException, OSError):
                    # Stale keep-alive connection: replay once, fresh.
                    conn.close()
                    reconnects[cid] += 1
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=30.0)
                    try:
                        status, trace_id = once(conn, int(i))
                    except (http.client.HTTPException, OSError):
                        conn_errors[cid] += 1
                        if capture_traces:
                            failed[cid].append((None, None, None))
                        conn.close()
                        conn = http.client.HTTPConnection(host, port,
                                                          timeout=30.0)
                        continue
                lat_ms = 1000.0 * (telemetry.clock() - t0)
                if status != 200:
                    http_errors[cid] += 1
                    if capture_traces:
                        failed[cid].append((lat_ms, status, trace_id))
                    continue
                completed[cid] += 1
                latencies[cid].append(lat_ms)
                if capture_traces:
                    records[cid].append((lat_ms, status, trace_id))
            conn.close()

        threads = [threading.Thread(target=client, args=(cid,))
                   for cid in range(clients)]
        t0 = telemetry.clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = telemetry.clock() - t0
    finally:
        server.stop()
    lat = np.concatenate([np.asarray(chunk) for chunk in latencies]) \
        if any(latencies) else np.array([0.0])
    done = int(sum(completed))
    out = {
        "wall_s": elapsed,
        "throughput_rps": done / max(elapsed, 1e-9),
        "completed": done,
        "connection_errors": int(sum(conn_errors)),
        "reconnects": int(sum(reconnects)),
        "http_errors": int(sum(http_errors)),
        "latency_ms": {
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat.max()),
        },
    }
    if capture_traces:
        all_records = [r for chunk in records for r in chunk]
        all_records.sort(key=lambda r: -r[0])
        out["slowest"] = all_records[:10]
        out["failed"] = [r for chunk in failed for r in chunk]
    return out


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


def main(argv=None) -> int:
    args = parse_args(argv)
    telemetry.get_registry().reset()
    telemetry.get_tracer().reset()

    if args.bundle:
        bundle = ModelBundle.load(args.bundle)
    else:
        bundle = synthetic_bundle(args.dim, args.features, args.classes,
                                  args.seed)
    engine = InferenceEngine(
        bundle, use_packed=(False if args.float_path else None),
        cache_size=0, build_extractor=False)
    in_features = int(bundle.info["encoder"]["in_features"])
    rng = fresh_rng((args.seed, "serve-bench-load"))
    samples = rng.standard_normal((args.requests, in_features))

    # Warm-up: page in BLAS kernels and the packed class matrix.
    engine.predict_features(samples[: min(64, len(samples))])

    t_start = telemetry.clock()
    speedup, single, batched = speedup_passes(engine, samples, args.batch)
    loop = bench_closed_loop(engine, samples, args.batch, args.clients,
                             args.workers, args.max_latency_ms)
    http_loop = None
    if not args.no_http:
        http_loop = bench_http(engine, samples, args.batch, args.clients,
                               args.workers, args.max_latency_ms)
    traced_loop = None
    if not args.no_http and not args.no_trace:
        # Same phase with per-request tracing armed: the rps delta vs
        # the untraced phase is the tracing tax, and every response's
        # X-Trace-Id can be chased into the in-process flight recorder.
        enable_request_tracing(service="bench-worker", sample_rate=1.0)
        try:
            traced_loop = bench_http(engine, samples, args.batch,
                                     args.clients, args.workers,
                                     args.max_latency_ms,
                                     capture_traces=True)
        finally:
            disable_request_tracing()
    wall_s = telemetry.clock() - t_start
    loop_speedup = loop["throughput_rps"] / max(single["throughput_rps"],
                                                1e-9)

    print(f"engine: {engine!r}")
    print(f"single      : {single['throughput_rps']:>10.1f} req/s")
    print(f"batched({args.batch:>3}) : {batched['throughput_rps']:>10.1f} "
          f"req/s   ({speedup:.2f}x single)")
    print(f"closed-loop : {loop['throughput_rps']:>10.1f} req/s   "
          f"({loop_speedup:.2f}x single, {args.clients} clients, "
          f"mean batch {loop['mean_batch']:.1f})")
    print(f"latency ms  : p50={loop['latency_ms']['p50']:.2f} "
          f"p95={loop['latency_ms']['p95']:.2f} "
          f"p99={loop['latency_ms']['p99']:.2f}")
    if loop["errors"]:
        print(f"closed-loop errors: {loop['errors']}")
    if http_loop is not None:
        print(f"http        : {http_loop['throughput_rps']:>10.1f} req/s   "
              f"(keep-alive, p50={http_loop['latency_ms']['p50']:.2f} "
              f"p99={http_loop['latency_ms']['p99']:.2f} ms, "
              f"reconnects={http_loop['reconnects']}, "
              f"conn errors={http_loop['connection_errors']})")
    tracing_overhead = None
    if traced_loop is not None:
        tracing_overhead = (http_loop["throughput_rps"]
                            / max(traced_loop["throughput_rps"], 1e-9))
        disabled_ratio = disabled_request_trace_overhead()
        print(f"http traced : {traced_loop['throughput_rps']:>10.1f} "
              f"req/s   (tracing on, {tracing_overhead:.3f}x untraced "
              f"rps; dormant-hub span overhead "
              f"{disabled_ratio:.3f}x)")
        report_traces(traced_loop)

    config = {
        "bundle": os.path.basename(args.bundle) if args.bundle else None,
        "synthetic": args.bundle is None,
        "dim": int(bundle.info["dim"]),
        "features": in_features,
        "classes": int(bundle.info["num_classes"]),
        "requests": args.requests, "batch": args.batch,
        "clients": args.clients, "workers": args.workers,
        "packed": engine.use_packed, "seed": args.seed,
    }
    record = RunRecord.capture(
        pipeline="serve", kind="serve", config=config, seed=args.seed,
        wall_s=wall_s)
    record.stage_times.update({
        "serve.single": single["wall_s"],
        "serve.batched": batched["wall_s"],
        "serve.closed_loop": loop["wall_s"],
    })
    record.extra["serve"] = {
        "single_rps": single["throughput_rps"],
        "batched_rps": batched["throughput_rps"],
        "closed_loop_rps": loop["throughput_rps"],
        "speedup_batched": speedup,
        "speedup_closed_loop": loop_speedup,
        "latency_ms": loop["latency_ms"],
        "mean_batch": loop["mean_batch"],
        "errors": loop["errors"],
    }
    if http_loop is not None:
        record.stage_times["serve.http"] = http_loop["wall_s"]
        record.extra["serve"]["http"] = {
            "rps": http_loop["throughput_rps"],
            "latency_ms": http_loop["latency_ms"],
            "connection_errors": http_loop["connection_errors"],
            "reconnects": http_loop["reconnects"],
            "http_errors": http_loop["http_errors"],
        }
    if traced_loop is not None:
        record.extra["serve"]["tracing"] = {
            "rps_untraced": http_loop["throughput_rps"],
            "rps_traced": traced_loop["throughput_rps"],
            "overhead_ratio": tracing_overhead,
            "disabled_overhead_ratio": disabled_ratio,
            "latency_ms_traced": traced_loop["latency_ms"],
            "slowest_trace_ids": [tid for _, _, tid
                                  in traced_loop["slowest"]],
            "failed": len(traced_loop["failed"]),
        }

    ledger = RunLedger(args.ledger_dir)
    failed = False
    if not args.no_gate:
        report = regress.gate_run(ledger, record)
        print()
        print(report.to_markdown())
        failed = not report.passed
    if not args.no_append:
        ledger.append(record)
        print(f"\nappended serve record to {ledger.path}")

    if args.compile:
        # Compiled-vs-interpreted A/B on the same bundle + samples;
        # the delta is its own ledgered series (kind="compile").
        compiled = InferenceEngine(
            bundle, use_packed=(False if args.float_path else None),
            cache_size=0, build_extractor=False, passes="all")
        compiled.predict_features(samples[: min(64, len(samples))])
        if not np.array_equal(compiled.predict_features(samples),
                              engine.predict_features(samples)):
            print("COMPILE PARITY FAILED: compiled engine disagrees "
                  "with interpreted", file=sys.stderr)
            return 1
        c_single = bench_single(compiled, samples)
        c_batched = bench_batched(compiled, samples, args.batch)
        delta_single = (single["throughput_rps"] /
                        max(c_single["throughput_rps"], 1e-9))
        delta_batched = (batched["throughput_rps"] /
                         max(c_batched["throughput_rps"], 1e-9))
        print(f"compiled    : single "
              f"{c_single['throughput_rps']:>10.1f} req/s "
              f"({1 / max(delta_single, 1e-9):.2f}x interpreted), "
              f"batched {c_batched['throughput_rps']:>10.1f} req/s "
              f"({1 / max(delta_batched, 1e-9):.2f}x interpreted) "
              f"[passes={compiled.compile_passes}, "
              f"executors={compiled.executor_plan}]")
        compile_record = RunRecord.capture(
            pipeline="serve", kind="compile", config=config,
            seed=args.seed,
            wall_s=c_single["wall_s"] + c_batched["wall_s"])
        compile_record.stage_times.update({
            "serve.compiled_single": c_single["wall_s"],
            "serve.compiled_batched": c_batched["wall_s"],
            "serve.interpreted_single": single["wall_s"],
            "serve.interpreted_batched": batched["wall_s"],
        })
        compile_record.extra["compile"] = {
            "passes_applied": compiled.compile_passes,
            "executor_plan": compiled.executor_plan,
            "compiled_single_rps": c_single["throughput_rps"],
            "compiled_batched_rps": c_batched["throughput_rps"],
            "interpreted_single_rps": single["throughput_rps"],
            "interpreted_batched_rps": batched["throughput_rps"],
            "speedup_single": 1 / max(delta_single, 1e-9),
            "speedup_batched": 1 / max(delta_batched, 1e-9),
        }
        if not args.no_gate:
            compile_report = regress.gate_run(ledger, compile_record)
            print()
            print(compile_report.to_markdown())
            failed = failed or not compile_report.passed
        if not args.no_append:
            ledger.append(compile_record)
            print(f"\nappended compile record to {ledger.path}")

    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"single": single, "batched": batched,
                       "closed_loop": loop, "http": http_loop,
                       "traced_http": traced_loop,
                       "speedup_batched": speedup,
                       "speedup_closed_loop": loop_speedup,
                       "config": config},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"SPEEDUP GATE FAILED: batched {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if failed:
        print("REGRESSION GATE FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
