"""Profile one NSHD training run end to end and write a run report.

Trains the paper's full pipeline (truncated CNN → manifold learner →
random projection → distilled MASS) on the synthetic dataset with the
telemetry profiler enabled, then prints the Fig. 5-style stage-level
wall-time breakdown (extract → manifold → encode → similarity → update)
and the top-k hottest autograd ops, and writes three artifacts:

* ``report.md`` — the rendered console/markdown run report, including
  the per-epoch HD drift/saturation sparkline trends;
* ``run.jsonl`` — every metric, span and profiler record as JSONL;
* ``metrics.prom`` — Prometheus-style text exposition.

Usage (CPU, well under a minute at the default small scale)::

    PYTHONPATH=src python scripts/profile_run.py
    PYTHONPATH=src python scripts/profile_run.py \
        --dim 2000 --hd-epochs 8 --out results/profile
"""

import argparse
import os
import time

from repro import telemetry
from repro.data import make_dataset, normalize_images
from repro.learn import NSHD
from repro.models import create_model, train_cnn


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="profiled NSHD training run + telemetry report")
    parser.add_argument("--classes", type=int, default=5)
    parser.add_argument("--train", type=int, default=300)
    parser.add_argument("--test", type=int, default=150)
    parser.add_argument("--dim", type=int, default=1000,
                        help="hypervector dimensionality D")
    parser.add_argument("--reduced", type=int, default=64,
                        help="manifold output size F̂")
    parser.add_argument("--cnn-epochs", type=int, default=3)
    parser.add_argument("--hd-epochs", type=int, default=5)
    parser.add_argument("--model", default="vgg16")
    parser.add_argument("--width", type=float, default=0.125)
    parser.add_argument("--layer-index", type=int, default=21,
                        help="extractor cut point (Sec. IV-A)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=os.path.join("results", "profile"),
                        help="output directory for report/JSONL/Prometheus")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    t0 = time.time()

    # Fresh telemetry state so the artifacts describe exactly this run.
    telemetry.get_registry().reset()
    telemetry.get_tracer().reset()

    x_tr, y_tr, x_te, y_te = make_dataset(
        num_classes=args.classes, num_train=args.train, num_test=args.test,
        seed=args.seed)
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)

    model = create_model(args.model, num_classes=args.classes,
                         width_mult=args.width, seed=args.seed)
    with telemetry.Profiler() as profiler:
        train_cnn(model, x_tr, y_tr, epochs=args.cnn_epochs, verbose=False,
                  seed=args.seed)
        model.eval()

        nshd = NSHD(model, layer_index=args.layer_index, dim=args.dim,
                    reduced_features=args.reduced, seed=args.seed)
        diag = telemetry.DiagnosticsCallback()
        history = nshd.fit(x_tr, y_tr, epochs=args.hd_epochs,
                           callbacks=[diag])
        test_acc = nshd.accuracy(x_te, y_te)

    registry = telemetry.get_registry()
    registry.set_gauge("run.test_acc", test_acc)
    registry.set_gauge("run.wall_s", time.time() - t0)

    report = telemetry.render_report(
        profiler=profiler, top_k=args.top_k,
        title="Profiled NSHD training run",
        diagnostics=diag.summary())
    print(report)
    print(f"final train_acc={history['train_acc'][-1]:.3f} "
          f"test_acc={test_acc:.3f} wall={time.time() - t0:.1f}s")

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.md")
    with open(report_path, "w") as fh:
        fh.write(report + "\n")
    jsonl_path = os.path.join(args.out, "run.jsonl")
    telemetry.export_jsonl(jsonl_path, profiler=profiler,
                           meta={"script": "profile_run",
                                 "dim": args.dim,
                                 "hd_epochs": args.hd_epochs,
                                 "test_acc": test_acc})
    prom_path = os.path.join(args.out, "metrics.prom")
    telemetry.export_prometheus(prom_path)
    print(f"wrote {report_path}, {jsonl_path}, {prom_path}")


if __name__ == "__main__":
    main()
