"""The benchmark's shared fixture and generated inputs.

The fixture is the deployed model every serving workload queries: data,
a VGG16 teacher, one trained NSHD, and its bundle exported with
``binarize=True`` and a drift baseline taken from the training features.
It is built once per checkout (with a fixed seed, so it is the same model
on every run) and cached under ``bench/out/``; its cost is not part of
any workload's ``setup_s``.  The cache key covers the fixture sizes and
the bytes of every source file under ``src/repro``, so a code change
rebuilds it.

Everything a workload sends to the program is made here from the
workload seed: jittered copies of the fixture's test features, request
mixes and arrival schedules.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

from repro.data import make_dataset, normalize_images
from repro.learn import NSHD
from repro.models import create_model, train_cnn
from repro.serve import InferenceEngine, ModelBundle

#: Seed of the deployed model (workload inputs use ``--seed``).
FIXTURE_SEED = 0

MODEL = {"model": "vgg16", "width": 0.125, "cnn_epochs": 1,
         "layer_index": 21}

SIZES = {
    "full": {
        "fixture": {"classes": 10, "train": 1000, "test": 400,
                    "dim": 3000, "reduced": 100, "hd_epochs": 10},
        # The train workload trains its own teacher in every set-up, so
        # its data set is smaller than the fixture's; small enough for
        # 10-18 fits in a 20 s run, so that their median is not that of
        # a handful.
        "train": {"classes": 10, "train": 150, "test": 50,
                  "dim": 3000, "reduced": 100, "hd_epochs": 10},
        "eval_rows": 8192, "call_rows": 256,
        "mixed_rows": 1024, "predicts_per_feedback": 7,
        "rate_per_s": 20.0, "hot_rows": 64, "big_rows": 16,
        "big_share": 0.2, "zipf": 1.2,
        # Set-ups per run (``setup_s`` is their median): more where one
        # is quick, and where it varies most (a fleet is ready at a
        # supervisor probe tick, every 0.25 s).
        "setup_reps": {"train": 5, "batch_eval": 15, "worker_mixed": 7,
                       "fleet_open": 5},
    },
    "smoke": {
        "fixture": {"classes": 4, "train": 64, "test": 32,
                    "dim": 512, "reduced": 16, "hd_epochs": 2},
        "train": {"classes": 4, "train": 48, "test": 16,
                  "dim": 512, "reduced": 16, "hd_epochs": 2},
        "eval_rows": 512, "call_rows": 64,
        "mixed_rows": 64, "predicts_per_feedback": 7,
        "rate_per_s": 20.0, "hot_rows": 16, "big_rows": 4,
        "big_share": 0.2, "zipf": 1.2,
        "setup_reps": {"train": 1, "batch_eval": 1, "worker_mixed": 1,
                       "fleet_open": 1},
    },
}


def make_data(config: dict, seed: int):
    """Normalized ``(x_train, y_train, x_test, y_test)``."""
    x_tr, y_tr, x_te, y_te = make_dataset(
        num_classes=config["classes"], num_train=config["train"],
        num_test=config["test"], seed=seed)
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)
    return x_tr, y_tr, x_te, y_te


def train_teacher(config: dict, x_train, y_train, seed: int):
    model = create_model(MODEL["model"], num_classes=config["classes"],
                         width_mult=MODEL["width"], seed=seed)
    train_cnn(model, x_train, y_train, epochs=MODEL["cnn_epochs"],
              seed=seed)
    model.eval()
    return model


def make_nshd(config: dict, model) -> NSHD:
    return NSHD(model, layer_index=MODEL["layer_index"],
                dim=config["dim"], reduced_features=config["reduced"],
                seed=FIXTURE_SEED)


def _source_digest(root: str) -> str:
    digest = hashlib.sha1()
    src = os.path.join(root, "src", "repro")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


class Fixture:
    """Paths and arrays of one built fixture."""

    def __init__(self, folder: str):
        self.bundle_path = os.path.join(folder, "bundle.npz")
        with np.load(os.path.join(folder, "rows.npz")) as rows:
            self.features = rows["features"]
            self.labels = rows["labels"]
        # The reference answer for every row: the float path with no
        # cache and no drift monitor.
        self.reference = InferenceEngine(
            ModelBundle.load(self.bundle_path), use_packed=False,
            cache_size=0, quality=False, build_extractor=False)

    def reference_labels(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(self.reference.predict_features(rows))


def _build(folder: str, config: dict) -> None:
    x_tr, y_tr, x_te, y_te = make_data(config, FIXTURE_SEED)
    model = train_teacher(config, x_tr, y_tr, FIXTURE_SEED)
    nshd = make_nshd(config, model)
    train_features = nshd.extractor.extract(x_tr)
    nshd.fit_features(train_features, y_tr, nshd.teacher.logits(x_tr),
                      epochs=config["hd_epochs"])
    bundle = ModelBundle.from_pipeline(
        nshd, config={"bench_fixture": config, **MODEL}, binarize=True,
        baseline_features=train_features, baseline_labels=y_tr)
    bundle.save(os.path.join(folder, "bundle.npz"))
    np.savez(os.path.join(folder, "rows.npz"),
             features=nshd.extractor.extract(x_te), labels=y_te)


def load_fixture(root: str, sizes: dict) -> Fixture:
    """Build the fixture on first use in this checkout, then reuse it."""
    config = sizes["fixture"]
    key = hashlib.sha1(json.dumps(
        [config, MODEL, _source_digest(root)], sort_keys=True).encode()
    ).hexdigest()[:12]
    folder = os.path.join(root, "bench", "out", f"fixture-{key}")
    if not os.path.isdir(folder):
        staging = f"{folder}.tmp-{os.getpid()}"
        os.makedirs(staging, exist_ok=True)
        try:
            _build(staging, config)
            os.replace(staging, folder)
        except OSError:
            if not os.path.isdir(folder):  # not a lost race: a real error
                raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return Fixture(folder)


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def jittered_rows(fixture: Fixture, count: int, rng: np.random.Generator
                  ) -> tuple:
    """``count`` unique rows near the fixture's test features.

    Each row is a test feature row plus Gaussian noise at 5 % of the
    feature's spread, rounded to 5 decimals so that its JSON text parses
    back to exactly the array the reference labels were computed on.
    Returns ``(rows, true_labels)``.
    """
    base = rng.integers(0, len(fixture.features), size=count)
    spread = fixture.features.std(axis=0) + 1e-3
    rows = fixture.features[base] + 0.05 * spread * rng.standard_normal(
        (count, fixture.features.shape[1]))
    return np.round(rows, 5), fixture.labels[base]


def zipf_choice(count: int, size: int, exponent: float,
                rng: np.random.Generator) -> np.ndarray:
    """``size`` draws from ranks ``0..count-1`` with P(k) ∝ (k+1)^-s."""
    weights = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return rng.choice(count, size=size, p=weights / weights.sum())
