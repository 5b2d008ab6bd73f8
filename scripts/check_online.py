"""Online-learning gate: feedback must recover a label shift, poison
must never promote, promotion must be atomic, new classes must serve.

Boots real :class:`~repro.serve.server.ModelServer` instances through
the serve CLI's ``build_server`` path with an ``[online]`` config
section and drives five phases:

1. **clean**: a clustered synthetic bundle (class hypervectors are the
   quantized centroids of well-separated feature clusters) must serve
   its own distribution accurately — the reference accuracy;
2. **label-shift recovery**: two of the classes swap semantics; served
   accuracy drops to ≈ (k−2)/k; a stream of corrected ``POST
   /feedback`` samples (shadow learning + auto-promotion through the
   existing ``/reload`` hot swap) must bring served accuracy back to
   ≥ 90% of the clean reference within a bounded feedback budget.  The
   per-generation retention of the *untouched* classes is the
   replay-free forgetting curve (printed, lands in EXPERIMENTS.md);
3. **poison**: a stream with random wrong labels must NEVER promote —
   the shadow cannot beat the live model on the equally-mislabelled
   validation ring, so the accuracy gate rejects every evaluation and
   the live fingerprint stays put (``--inject-poison`` runs only this
   phase as a self-check);
4. **class-incremental**: feedback with a previously unseen label
   allocates a new class hypervector with no retrain; after promotion
   the new class is served, pre-existing class rows are **bit-exact**
   (the new-class path only ever touches the new row, and
   ``hard_quantize`` is the identity on ±1 rows), and the promoted
   bundle's recomputed quality-baseline priors cover the new class so
   ``/driftz`` prediction-skew cannot permanently fire;
5. **atomic promotion under load**: concurrent single-row ``/predict``
   clients hammer the server across a promotion; every response must
   be 200 and carry a model fingerprint that is exactly the old or the
   new one — zero torn responses.

Wired into ``scripts/run_all.sh`` via ``scripts/check_online.sh``.
"""

import argparse
import os
import sys

import numpy as np

from harness import (Checks, LoadGenerator,  # first: puts src/ on sys.path
                     http_json, scratch_dir, server_phase)
from synthetic import synthetic_bundle

from repro.hd.backend import unpack_bipolar
from repro.hd.hypervector import hard_quantize
from repro.serve import InferenceEngine
from repro.utils.rng import fresh_rng

# Auto-promoting config: the recovery phase exercises the full loop —
# feedback → shadow → gates → export → /reload — with no operator.
AUTO_TOML = """\
[online]
lr = 8.0
max_update_norm = 8.0
holdout_every = 4
promote_every = 25
auto_promote = true
min_feedback = 20
min_validation = 8
min_accuracy_gain = 0.02
min_shadow_accuracy = 0.6
max_confusability_increase = 0.25
max_saturation = 0.25
"""

# Manual config: phases that need a controlled POST /promote.
MANUAL_TOML = AUTO_TOML.replace("auto_promote = true",
                                "auto_promote = false")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="gate the serve-path online-learning loop: "
                    "recovery, poison rejection, class-incremental "
                    "arrival, atomic promotion")
    parser.add_argument("--dim", type=int, default=1024)
    parser.add_argument("--features", type=int, default=24)
    parser.add_argument("--classes", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.35,
                        help="cluster noise (σ around each class center)")
    parser.add_argument("--eval-rows", type=int, default=60,
                        help="eval rows per class for served accuracy")
    parser.add_argument("--feedback-budget", type=int, default=600,
                        help="max feedback samples to recover the shift")
    parser.add_argument("--recovery-floor", type=float, default=0.9,
                        help="required served/clean accuracy ratio")
    parser.add_argument("--poison-rounds", type=int, default=4,
                        help="poisoned promote attempts that must all "
                             "be rejected")
    parser.add_argument("--load-threads", type=int, default=4)
    parser.add_argument("--load-requests", type=int, default=40,
                        help="per-thread /predict calls across the "
                             "promotion")
    parser.add_argument("--inject-poison", action="store_true",
                        help="self-check: run ONLY the poison phase and "
                             "require it to be rejected")
    return parser.parse_args(argv)


class Clusters:
    """Well-separated Gaussian feature clusters, one per class."""

    def __init__(self, args, extra_classes: int = 1):
        rng = fresh_rng((args.seed, "check-online-clusters"))
        # 3σ-separated centers so the quantized-centroid model is
        # near-perfect on its own distribution.
        self.centers = 3.0 * rng.standard_normal(
            (args.classes + extra_classes, args.features))
        self.noise = args.noise
        self.rng = fresh_rng((args.seed, "check-online-stream"))

    def sample(self, label: int, n: int) -> np.ndarray:
        return self.centers[label] + self.noise * \
            self.rng.standard_normal((n, self.centers.shape[1]))

    def mixed(self, labels, per_class: int):
        """(rows, labels) drawn round-robin from ``labels``."""
        rows, ys = [], []
        for label in labels:
            rows.append(self.sample(label, per_class))
            ys.extend([label] * per_class)
        rows = np.concatenate(rows)
        order = self.rng.permutation(len(rows))
        return rows[order], np.asarray(ys)[order]


def clustered_bundle_path(workdir, args, clusters) -> str:
    """Synthetic bundle whose class hypervectors are the quantized
    centroids of the encoded clusters (accurate, unlike random HVs),
    plus a quality baseline captured through its own frozen graph."""
    bundle = synthetic_bundle(args.dim, args.features, args.classes,
                              args.seed)
    engine = InferenceEngine(bundle, build_extractor=False)
    classes = np.vstack([
        hard_quantize(unpack_bipolar(engine.encode_features(
            clusters.sample(label, 64)), engine.dim).mean(axis=0))
        for label in range(args.classes)])
    bundle.arrays["classes"] = classes
    # Captured after the swap, so the baseline sees the *clustered*
    # class matrix.
    train, _ = clusters.mixed(range(args.classes), 64)
    bundle.capture_baseline(train)
    path = os.path.join(workdir, "bundle.npz")
    bundle.save(path)
    return path


def served_accuracy(server, rows, labels) -> float:
    host, port = server.address
    status, body = http_json(host, port, "POST", "/predict",
                             {"features": rows.tolist()})
    if status != 200:
        raise SystemExit(f"/predict answered {status}")
    return float(np.mean(np.asarray(body["labels"]) ==
                         np.asarray(labels)))


def send_feedback(server, row, label):
    host, port = server.address
    return http_json(host, port, "POST", "/feedback",
                     {"features": row.tolist(), "label": int(label)})


def onlinez(server):
    host, port = server.address
    status, body = http_json(host, port, "GET", "/onlinez")
    if status != 200:
        raise SystemExit(f"/onlinez answered {status}")
    return body


def main(argv=None) -> int:
    args = parse_args(argv)
    check = Checks()

    k = args.classes
    with scratch_dir("check_online_") as workdir:
        clusters = Clusters(args)
        bundle_path = clustered_bundle_path(workdir, args, clusters)
        eval_rows, eval_labels = clusters.mixed(range(k), args.eval_rows)

        # The label shift: classes 0 and 1 swap semantics; the rest are
        # untouched and measure replay-free retention (forgetting).
        shift = {0: 1, 1: 0}
        shifted_labels = np.array([shift.get(int(y), int(y))
                                   for y in eval_labels])
        untouched = np.isin(eval_labels, range(2, k))

        if not args.inject_poison:
            # -- phase 1: clean reference accuracy -------------------
            with server_phase(bundle_path, AUTO_TOML, workdir,
                              "recover") as server:
                print(f"online-learning worker up at {server.url}")
                clean_acc = served_accuracy(server, eval_rows, eval_labels)
                check(clean_acc >= 0.95,
                      f"clustered bundle serves its own distribution "
                      f"(clean accuracy {clean_acc:.3f} >= 0.95)")

                # feedback can reference a served request by id
                host, port = server.address
                status, body = http_json(
                    host, port, "POST", "/predict",
                    {"features": [clusters.sample(2, 1)[0].tolist()]})
                status, fb = http_json(
                    host, port, "POST", "/feedback",
                    {"request_id": body["request_id"], "label": 2})
                check(status == 200 and fb["status"] in ("applied",
                                                         "held_out"),
                      f"feedback by request_id resolves remembered "
                      f"features (status={fb.get('status')})")

                # -- phase 2: label-shift recovery via feedback ------
                pre_acc = served_accuracy(server, eval_rows, shifted_labels)
                check(pre_acc < 0.8,
                      f"label shift actually hurts the live model "
                      f"(shifted accuracy {pre_acc:.3f} < 0.8)")
                floor = args.recovery_floor * clean_acc
                sent = 0
                recovered_at = None
                curve = []  # (feedback_sent, generation, overall, untouched)
                last_gen = 0
                while sent < args.feedback_budget:
                    true = int(sent % k)
                    row = clusters.sample(true, 1)[0]
                    status, body = send_feedback(server, row,
                                                 shift.get(true, true))
                    if status not in (200, 429):
                        raise SystemExit(f"/feedback answered {status}: "
                                         f"{body}")
                    sent += 1
                    gen = body.get("generation", last_gen)
                    # Checkpoint on every promotion and every 25 samples —
                    # served accuracy only moves on promotion, so the fixed
                    # checkpoints chart the pre-promotion plateau.
                    if gen != last_gen or sent % 25 == 0:
                        last_gen = gen
                        overall = served_accuracy(server, eval_rows,
                                                  shifted_labels)
                        retained = served_accuracy(
                            server, eval_rows[untouched],
                            shifted_labels[untouched])
                        curve.append({"feedback": sent, "generation": gen,
                                      "accuracy": overall,
                                      "untouched_accuracy": retained})
                        if overall >= floor and recovered_at is None:
                            recovered_at = sent
                            break
                post_acc = served_accuracy(server, eval_rows, shifted_labels)
                check(recovered_at is not None and post_acc >= floor,
                      f"feedback recovers >= {args.recovery_floor:.0%} of "
                      f"clean accuracy within {args.feedback_budget} "
                      f"samples (acc {post_acc:.3f} vs floor {floor:.3f}, "
                      f"recovered at {recovered_at})")
                retained = served_accuracy(server, eval_rows[untouched],
                                           shifted_labels[untouched])
                check(retained >= floor,
                      f"untouched classes are not forgotten (replay-free "
                      f"retention {retained:.3f} >= {floor:.3f})")
                status_body = onlinez(server)
                check(status_body["generation"] >= 1
                      and status_body["promotions"] >= 1,
                      f"recovery went through real promotions "
                      f"(generation={status_body['generation']})")
                print("forgetting curve (checkpoints + promotions):")
                for point in curve:
                    print(f"  after {point['feedback']:4d} feedback "
                          f"(gen {point['generation']}): overall "
                          f"{point['accuracy']:.3f}, untouched "
                          f"{point['untouched_accuracy']:.3f}")

        # -- phase 3: poisoned stream must never promote -------------
        with server_phase(bundle_path, MANUAL_TOML, workdir,
                          "poison") as server:
            host, port = server.address
            before_fp = server.engine.bundle.info["config_fingerprint"]
            rng = fresh_rng((args.seed, "check-online-poison"))
            rejections = 0
            for round_no in range(args.poison_rounds):
                for _ in range(80):
                    true = int(rng.integers(0, k))
                    wrong = int((true + 1 + rng.integers(0, k - 1)) % k)
                    status, body = send_feedback(
                        server, clusters.sample(true, 1)[0], wrong)
                    if status not in (200, 422, 429):
                        raise SystemExit(f"/feedback answered {status}: "
                                         f"{body}")
                status, decision = http_json(host, port, "POST", "/promote")
                if status != 200:
                    raise SystemExit(f"/promote answered {status}")
                if not decision["promote"]:
                    rejections += 1
            after_fp = server.engine.bundle.info["config_fingerprint"]
            check(rejections == args.poison_rounds,
                  f"poisoned feedback rejected on all "
                  f"{args.poison_rounds} promote attempts "
                  f"(reasons={decision['reasons']})")
            check(before_fp == after_fp and onlinez(server)["generation"] == 0,
                  "live model fingerprint untouched by the poison stream")
        if args.inject_poison:
            print("\n--inject-poison self-check: poisoned stream was "
                  + ("rejected" if not check.failures
                     else "NOT rejected"))
            return 1 if check.failures else 0

        # -- phase 4: class-incremental arrival ----------------------
        with server_phase(bundle_path, MANUAL_TOML, workdir,
                          "newclass") as server:
            host, port = server.address
            old_rows = np.array(server.engine.class_matrix, copy=True)
            for _ in range(120):
                status, body = send_feedback(
                    server, clusters.sample(k, 1)[0], k)
                if status not in (200, 429):
                    raise SystemExit(f"/feedback answered {status}: {body}")
            status, decision = http_json(host, port, "POST", "/promote")
            check(status == 200 and decision.get("promoted"),
                  f"new-class feedback promotes "
                  f"(reasons={decision.get('reasons')})")
            new_matrix = np.asarray(server.engine.class_matrix)
            check(new_matrix.shape[0] == k + 1,
                  f"promoted model grew to {k + 1} classes "
                  f"(got {new_matrix.shape[0]})")
            check(np.array_equal(new_matrix[:k], old_rows),
                  "pre-existing class hypervectors are bit-exact after "
                  "class-incremental promotion")
            new_eval = clusters.sample(k, args.eval_rows)
            new_acc = served_accuracy(server, new_eval,
                                      [k] * len(new_eval))
            check(new_acc >= 0.95,
                  f"the new class is served without retraining "
                  f"(accuracy {new_acc:.3f} >= 0.95)")
            old_acc = served_accuracy(server, eval_rows, eval_labels)
            check(old_acc >= 0.95,
                  f"old classes still serve accurately "
                  f"(accuracy {old_acc:.3f} >= 0.95)")
            priors = (server.engine.bundle.info["quality_baseline"]
                      ["class_priors"])
            check(len(priors) == k + 1,
                  f"promoted baseline priors cover the new class "
                  f"({len(priors)} == {k + 1}) so /driftz skew cannot "
                  f"permanently fire")

        # -- phase 5: atomic promotion under concurrent load ---------
        with server_phase(bundle_path, MANUAL_TOML, workdir,
                          "atomic") as server:
            host, port = server.address
            old_fp = server.engine.bundle.info["config_fingerprint"]
            for sent in range(200):  # build a promotable shadow
                true = int(sent % k)
                status, _ = send_feedback(server, clusters.sample(true, 1)[0],
                                          shift.get(true, true))
                if status not in (200, 429):
                    raise SystemExit(f"/feedback answered {status}")
            rng = fresh_rng((args.seed, "check-online-load"))
            labels = rng.integers(0, k, args.load_threads
                                  * args.load_requests)
            rows = clusters.centers[labels] + args.noise * \
                rng.standard_normal((len(labels), args.features))
            load = LoadGenerator(host, port,
                                 [{"features": [row.tolist()]}
                                  for row in rows],
                                 args.load_threads,
                                 requests=args.load_requests).start()
            status, decision = http_json(host, port, "POST", "/promote",
                                         timeout=60.0)
            promoted = status == 200 and decision.get("promoted", False)
            load.join()
            new_fp = server.engine.bundle.info["config_fingerprint"]
            check(promoted, f"promotion landed during the load "
                            f"(reasons={decision.get('reasons')})")
            torn, fingerprints = [], set()
            for response in load.responses:
                if response.status != 200 \
                        or len(response.body.get("labels", ())) != 1:
                    torn.append((response.status, response.body))
                else:
                    fingerprints.add(response.body["model"])
            check(not torn,
                  f"zero torn responses across {len(load.responses)} "
                  f"concurrent /predict calls (bad={torn[:3]})")
            check(fingerprints <= {old_fp, new_fp},
                  f"every response fingerprint is exactly the old or new "
                  f"model ({len(fingerprints)} distinct)")

    return check.summary("ONLINE GATE", "online gate passed")


if __name__ == "__main__":
    sys.exit(main())
