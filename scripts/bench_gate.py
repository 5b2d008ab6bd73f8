"""Perf-regression gate: run smoke pipelines, ledger them, gate vs history.

For each requested pipeline (NSHD / BaselineHD / VanillaHD) this script:

1. runs a small end-to-end smoke training run with the HD
   :class:`~repro.telemetry.DiagnosticsCallback` attached,
2. captures a :class:`~repro.telemetry.RunRecord` (git SHA, config
   fingerprint, env/BLAS info, per-stage wall time from the ``stage.*``
   spans, final/test accuracy, guard counters, drift/saturation/
   confusability diagnostics),
3. gates it against the rolling ledger baseline
   (:func:`~repro.telemetry.gate_run`: median + MAD bands; fewer than
   ``min_history`` prior runs → bootstrap pass),
4. appends it to the append-only ledger under ``results/ledger/``, and
5. writes a per-commit ``BENCH_<shortsha>.json`` trajectory file under
   ``results/bench/`` (all records + the gate verdict).

Exit status is nonzero when any gate fails, so CI can block the merge.
``--ingest-benchmark-json`` additionally converts a pytest-benchmark
``--benchmark-json`` output into ledger entries (kind ``benchmark``) so
the figure benchmarks share the same trajectory.

``--inject-slowdown STAGE:FACTOR`` is a **test fixture**: it multiplies
the measured time of one stage before gating (and skips the ledger
append so the poisoned sample never becomes baseline).  A 3× injection
against an established baseline must fail the gate — that is the
acceptance check in ``tests/test_telemetry_regress.py`` and
``scripts/check_regression.sh``.

Usage (fresh checkout, CPU, well under a minute)::

    python scripts/bench_gate.py                    # all three pipelines
    python scripts/bench_gate.py --pipelines nshd --hd-epochs 5
    python scripts/bench_gate.py --inject-slowdown encode:3.0  # must fail
    python scripts/bench_gate.py --compile          # compiler A/B gate

``--compile`` adds a graph-compiler A/B run (``kind="compile"``): an
exported bundle is served interpreted vs compiled (all fusion passes),
the two must agree bit-exactly, and both timings go through the usual
median+MAD ledger gate.
"""

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import telemetry  # noqa: E402
from repro.data import make_dataset, normalize_images  # noqa: E402
from repro.learn import NSHD, BaselineHD, VanillaHD  # noqa: E402
from repro.models import create_model, train_cnn  # noqa: E402
from repro.telemetry import regress  # noqa: E402
from repro.telemetry.ledger import (RunLedger, RunRecord,  # noqa: E402
                                    env_fingerprint, git_info)

PIPELINES = ("nshd", "baselinehd", "vanillahd")

#: Schema version of the BENCH_<shortsha>.json trajectory file.
BENCH_SCHEMA_VERSION = 1

#: Where per-commit trajectory files live.
BENCH_DIR = os.path.join(REPO_ROOT, "results", "bench")


def find_bench_trajectory(short_sha: str):
    """Path of a commit's ``results/bench/`` trajectory file; None if
    absent."""
    path = os.path.join(BENCH_DIR, f"BENCH_{short_sha}.json")
    return path if os.path.exists(path) else None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="run smoke pipelines, append run ledger entries, "
                    "gate against the rolling perf/accuracy baseline")
    parser.add_argument("--pipelines", default=",".join(PIPELINES),
                        help=f"comma list from {PIPELINES}")
    parser.add_argument("--classes", type=int, default=5)
    parser.add_argument("--train", type=int, default=150)
    parser.add_argument("--test", type=int, default=80)
    parser.add_argument("--dim", type=int, default=400)
    parser.add_argument("--reduced", type=int, default=24)
    parser.add_argument("--cnn-epochs", type=int, default=1)
    parser.add_argument("--hd-epochs", type=int, default=3)
    parser.add_argument("--model", default="vgg16")
    parser.add_argument("--width", type=float, default=0.125)
    parser.add_argument("--layer-index", type=int, default=21)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ledger-dir",
                        default=os.path.join(REPO_ROOT, "results", "ledger"))
    parser.add_argument("--bench-out", default=None,
                        help="trajectory JSON path (default: "
                             "results/bench/BENCH_<shortsha>.json)")
    parser.add_argument("--markdown-out", default=None,
                        help="optional path for the markdown gate report")
    parser.add_argument("--no-gate", action="store_true",
                        help="record only; skip regression detection")
    parser.add_argument("--no-append", action="store_true",
                        help="gate only; do not grow the ledger")
    parser.add_argument("--inject-slowdown", default=None,
                        metavar="STAGE:FACTOR",
                        help="test fixture: multiply one stage's measured "
                             "time before gating (record is NOT appended)")
    parser.add_argument("--compile", action="store_true",
                        help="add a graph-compiler A/B run (compiled vs "
                             "interpreted serve engine), ledgered as "
                             "kind=\"compile\"")
    parser.add_argument("--compile-iters", type=int, default=3,
                        help="evaluation repetitions per arm of the "
                             "--compile A/B (default 3)")
    parser.add_argument("--ingest-benchmark-json", default=None,
                        help="pytest-benchmark --benchmark-json output to "
                             "convert into ledger entries")
    parser.add_argument("--no-run", action="store_true",
                        help="skip the smoke pipelines (ingest/compact "
                             "only; used by scripts/run_all.sh after the "
                             "benchmark suite already ran)")
    parser.add_argument("--compact", action="store_true",
                        help="after appending, drop the full metrics/"
                             "diagnostics snapshots from records older "
                             "than the gate window (per pipeline+config"
                             "+kind group); scalar series survive")
    parser.add_argument("--compact-window", type=int, default=10,
                        help="newest runs per group kept intact by "
                             "--compact (default matches the gate window)")
    return parser.parse_args(argv)


def _parse_injection(spec):
    if spec is None:
        return None
    try:
        stage, factor = spec.split(":", 1)
        return stage.strip(), float(factor)
    except ValueError:
        raise SystemExit(f"--inject-slowdown expects STAGE:FACTOR, "
                         f"got {spec!r}")


def run_pipeline(name: str, args: argparse.Namespace, data, model
                 ) -> RunRecord:
    """One smoke run → a ledger-ready :class:`RunRecord`."""
    x_tr, y_tr, x_te, y_te = data
    telemetry.get_registry().reset()
    telemetry.get_tracer().reset()
    diag = telemetry.DiagnosticsCallback()
    t0 = telemetry.clock()

    if name == "nshd":
        pipeline = NSHD(model, layer_index=args.layer_index, dim=args.dim,
                        reduced_features=args.reduced, seed=args.seed)
        history = pipeline.fit(x_tr, y_tr, epochs=args.hd_epochs,
                               callbacks=[diag])
    elif name == "baselinehd":
        pipeline = BaselineHD(model, layer_index=args.layer_index,
                              dim=args.dim, seed=args.seed)
        history = pipeline.fit(x_tr, y_tr, epochs=args.hd_epochs,
                               callbacks=[diag])
    elif name == "vanillahd":
        pipeline = VanillaHD(num_classes=args.classes,
                             image_size=x_tr.shape[-1], dim=args.dim,
                             seed=args.seed)
        history = pipeline.fit(x_tr, y_tr, epochs=args.hd_epochs,
                               callbacks=[diag])
    else:
        raise SystemExit(f"unknown pipeline {name!r} "
                         f"(choose from {PIPELINES})")

    test_acc = pipeline.accuracy(x_te, y_te)
    wall_s = telemetry.clock() - t0

    config = {
        "pipeline": name, "classes": args.classes, "train": args.train,
        "test": args.test, "dim": args.dim, "reduced": args.reduced,
        "cnn_epochs": args.cnn_epochs, "hd_epochs": args.hd_epochs,
        "model": args.model, "width": args.width,
        "layer_index": args.layer_index, "seed": args.seed,
    }
    return RunRecord.capture(
        pipeline=name, config=config, seed=args.seed, wall_s=wall_s,
        final_accuracy=history["train_acc"][-1], test_accuracy=test_acc,
        history=history, diagnostics=diag.summary())


def run_compile_bench(args: argparse.Namespace, data, model):
    """Graph-compiler A/B → a ``kind="compile"`` ledger record.

    Trains one NSHD pipeline, exports it, and times
    ``--compile-iters`` evaluations of the test batch on the bundle
    served interpreted vs compiled (all fusion passes).  The compiled
    engine must agree bit-exactly with the interpreted one.
    """
    from repro.serve import InferenceEngine, ModelBundle  # noqa: E402

    x_tr, y_tr, x_te, y_te = data
    telemetry.get_registry().reset()
    telemetry.get_tracer().reset()
    t0 = telemetry.clock()

    pipeline = NSHD(model, layer_index=args.layer_index, dim=args.dim,
                    reduced_features=args.reduced, seed=args.seed)
    history = pipeline.fit(x_tr, y_tr, epochs=args.hd_epochs)
    iters = max(1, int(args.compile_iters))

    def timed(fn):
        start = telemetry.clock()
        for _ in range(iters):
            fn()
        return telemetry.clock() - start

    raw = pipeline.extractor.extract(x_te)
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = os.path.join(tmp, "compile_bench.npz")
        ModelBundle.from_pipeline(
            pipeline, config={"gate": "bench_compile"}).save(bundle_path)
        interpreted = InferenceEngine.from_path(bundle_path, cache_size=0,
                                                passes="none")
        compiled = InferenceEngine.from_path(bundle_path, cache_size=0,
                                             passes="all")
        if not np.array_equal(compiled.predict_features(raw),
                              interpreted.predict_features(raw)):
            raise SystemExit("compiled engine != interpreted engine")
        interp_s = timed(lambda: interpreted.predict_features(raw))
        compiled_s = timed(lambda: compiled.predict_features(raw))

    test_acc = pipeline.accuracy(x_te, y_te)
    wall_s = telemetry.clock() - t0
    config = {
        "pipeline": "nshd", "classes": args.classes, "train": args.train,
        "test": args.test, "dim": args.dim, "reduced": args.reduced,
        "cnn_epochs": args.cnn_epochs, "hd_epochs": args.hd_epochs,
        "model": args.model, "width": args.width,
        "layer_index": args.layer_index, "seed": args.seed,
        "compile_iters": iters,
    }
    record = RunRecord.capture(
        pipeline="nshd", kind="compile", config=config, seed=args.seed,
        wall_s=wall_s, final_accuracy=history["train_acc"][-1],
        test_accuracy=test_acc, history=history)
    record.stage_times.update({
        "serve_interpreted": interp_s, "serve_compiled": compiled_s,
    })
    record.extra["compile"] = {
        "serve_speedup": interp_s / max(compiled_s, 1e-9),
        "passes_applied": compiled.compile_passes,
        "executor_plan": compiled.executor_plan,
    }
    return record


def ingest_benchmark_json(path: str, ledger: RunLedger, append: bool
                          ) -> list:
    """pytest-benchmark JSON → one ``kind="benchmark"`` record each."""
    with open(path) as handle:
        payload = json.load(handle)
    records = []
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        extra = dict(bench.get("extra_info", {}))
        config = {"benchmark": bench.get("fullname", bench.get("name")),
                  "group": bench.get("group"),
                  "params": bench.get("params")}
        record = RunRecord(
            pipeline=bench.get("name", "benchmark"), kind="benchmark",
            config=config, seed=extra.get("seed"),
            wall_s=stats.get("median"),
            stage_times={"benchmark": float(stats["median"])}
            if "median" in stats else {},
            metrics={"stats": {"type": "gauge", **{
                key: stats[key] for key in
                ("min", "max", "mean", "median", "stddev", "rounds")
                if key in stats}}},
            extra={"extra_info": extra})
        records.append(record)
        if append:
            ledger.append(record)
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    injection = _parse_injection(args.inject_slowdown)
    names = ([] if args.no_run else
             [n.strip() for n in args.pipelines.split(",") if n.strip()])
    # An injection run is a synthetic self-check of the gate's teeth: it
    # must neither become baseline (no ledger append, handled below) nor
    # clobber the real per-commit trajectory file.
    if injection is not None and args.bench_out is None:
        args.bench_out = os.path.join(
            tempfile.gettempdir(), f"BENCH_injected_{os.getpid()}.json")

    git = git_info(REPO_ROOT)
    short_sha = git.get("short_sha") or "unknown"
    bench_out = args.bench_out
    if bench_out is None:
        os.makedirs(BENCH_DIR, exist_ok=True)
        bench_out = os.path.join(BENCH_DIR, f"BENCH_{short_sha}.json")
    ledger = RunLedger(args.ledger_dir)

    # Shared dataset + (optionally trained) teacher model for the runs.
    data = model = None
    if names or args.compile:
        x_tr, y_tr, x_te, y_te = make_dataset(
            num_classes=args.classes, num_train=args.train,
            num_test=args.test, seed=args.seed)
        x_tr, mean, std = normalize_images(x_tr)
        x_te, _, _ = normalize_images(x_te, mean, std)
        data = (x_tr, y_tr, x_te, y_te)
        if args.compile or any(n in ("nshd", "baselinehd") for n in names):
            model = create_model(args.model, num_classes=args.classes,
                                 width_mult=args.width, seed=args.seed)
            train_cnn(model, x_tr, y_tr, epochs=args.cnn_epochs,
                      verbose=False, seed=args.seed)
            model.eval()

    records, reports, markdown = [], [], []
    failed = False
    for name in names:
        record = run_pipeline(name, args, data, model)
        injected = False
        if injection is not None:
            stage, factor = injection
            if stage in record.stage_times:
                record.stage_times[stage] *= factor
                record.extra["injected_slowdown"] = {"stage": stage,
                                                     "factor": factor}
                injected = True
        if not args.no_gate:
            report = regress.gate_run(ledger, record)
            reports.append(report)
            markdown.append(report.to_markdown())
            print(report.to_markdown())
            print()
            failed = failed or not report.passed
        if not args.no_append and not injected:
            ledger.append(record)
        records.append(record)
        acc = ("-" if record.test_accuracy is None
               else f"{record.test_accuracy:.3f}")
        stages = ", ".join(f"{k}={v:.3f}s"
                           for k, v in sorted(record.stage_times.items()))
        print(f"[{name}] test_acc={acc} wall={record.wall_s:.2f}s {stages}")

    if args.compile:
        record = run_compile_bench(args, data, model)
        if not args.no_gate:
            report = regress.gate_run(ledger, record)
            reports.append(report)
            markdown.append(report.to_markdown())
            print(report.to_markdown())
            print()
            failed = failed or not report.passed
        if not args.no_append:
            ledger.append(record)
        records.append(record)
        info = record.extra["compile"]
        stages = ", ".join(
            f"{k}={record.stage_times[k]:.3f}s" for k in
            ("serve_interpreted", "serve_compiled"))
        print(f"[compile] serve_speedup={info['serve_speedup']:.2f}x "
              f"{stages}")

    if args.ingest_benchmark_json:
        bench_records = ingest_benchmark_json(
            args.ingest_benchmark_json, ledger, append=not args.no_append)
        records.extend(bench_records)
        print(f"ingested {len(bench_records)} pytest-benchmark records "
              f"from {args.ingest_benchmark_json}")

    trajectory = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": time.time(),
        "git": git,
        "env": env_fingerprint(),
        "config": {key: getattr(args, key) for key in
                   ("classes", "train", "test", "dim", "reduced",
                    "cnn_epochs", "hd_epochs", "model", "width",
                    "layer_index", "seed")},
        "runs": [telemetry.encode_non_finite(r.to_dict()) for r in records],
        "gate": {
            "enabled": not args.no_gate,
            "passed": not failed,
            "reports": [telemetry.encode_non_finite(r.to_dict())
                        for r in reports],
        },
    }
    with open(bench_out, "w") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")
    print(f"\nwrote {bench_out} ({len(records)} runs) and ledger entries "
          f"under {ledger.path}")

    if args.compact:
        stripped = ledger.compact(args.compact_window)
        print(f"compacted {stripped} ledger record(s) outside the "
              f"{args.compact_window}-run window")

    if args.markdown_out and markdown:
        with open(args.markdown_out, "w") as handle:
            handle.write("\n\n".join(markdown) + "\n")
        print(f"wrote {args.markdown_out}")

    if failed:
        print("REGRESSION GATE FAILED", file=sys.stderr)
        return 1
    print("regression gate: PASS" if not args.no_gate else "gate skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
