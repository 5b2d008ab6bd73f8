#!/bin/bash
# Tier-2 stage-graph parity gate: prove on a freshly trained model that
# the single stage-graph program serves every consumer identically.
#   * train a small NSHD end-to-end (fresh CNN, fresh HD fit);
#   * single-pass fit (teacher continues from the cut-layer features)
#     == fit_features(extract(x), y, model.logits(x)), bit-exactly;
#   * checkpoint round-trip: a fresh pipeline restored from
#     save_checkpoint predicts bit-exactly;
#   * serve round-trip: exported float bundle served by InferenceEngine
#     (its graph built from the bundle's provenance fields) ==
#     pipeline.predict, from raw features and from images;
#   * packed round-trip: binarized bundle's XOR-popcount path == its own
#     float path bit-exactly (same bipolar operands, same ranking), from
#     raw features and from images, and from images served three times
#     by a cached packed engine (the third pass all LRU hits);
#   * packed encode: the packed engine's sign words (certified float32
#     GEMM) == pack_signs(encode_raw >= 0) of the float graph's float64
#     GEMM on every test row, for this NSHD (K = 16) and for a BaselineHD
#     packed export of the same CNN (K = 1024, the widest error bound).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage parity: train -> checkpoint -> serve =="
python - <<'EOF'
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, "src")

from repro.data import make_dataset, normalize_images  # noqa: E402
from repro.hd.backend import pack_signs  # noqa: E402
from repro.learn import NSHD, BaselineHD  # noqa: E402
from repro.models import create_model, train_cnn  # noqa: E402
from repro.serve import InferenceEngine, ModelBundle  # noqa: E402

x_tr, y_tr, x_te, y_te = make_dataset(num_classes=4, num_train=96,
                                      num_test=40, seed=11)
x_tr, mean, std = normalize_images(x_tr)
x_te, _, _ = normalize_images(x_te, mean, std)

model = create_model("vgg16", num_classes=4, width_mult=0.125, seed=5)
train_cnn(model, x_tr, y_tr, epochs=1, batch_size=32, lr=2e-3, seed=5,
          augment=False)

pipeline = NSHD(model, layer_index=21, dim=256, reduced_features=16,
                seed=0)
pipeline.fit(x_tr, y_tr, epochs=2)
labels = np.asarray(pipeline.predict(x_te))
raw = pipeline.extractor.extract(x_te)
print(f"trained NSHD: {pipeline.graph.describe()}")

# 0. One trunk pass == two-pass reference: fit's teacher continues from
#    the cut-layer features; the model must equal one trained on the
#    full-pass teacher logits.
reference = NSHD(model, layer_index=21, dim=256, reduced_features=16,
                 seed=0)
reference.fit_features(reference.extractor.extract(x_tr), y_tr,
                       model.logits(x_tr), epochs=2)
np.testing.assert_array_equal(pipeline.trainer.class_matrix,
                              reference.trainer.class_matrix)
fitted, expected = (pipeline.manifold.state_dict(),
                    reference.manifold.state_dict())
assert fitted.keys() == expected.keys()
for key in fitted:
    np.testing.assert_array_equal(fitted[key], expected[key], err_msg=key)
print("single-pass fit == extract + full-pass teacher reference "
      "(bit-exact)")

with tempfile.TemporaryDirectory() as tmp:
    # 1. Checkpoint round-trip restores the trained model.
    ckpt = os.path.join(tmp, "parity_ckpt.npz")
    pipeline.save_checkpoint(ckpt, epoch=2)
    restored = NSHD(model, layer_index=21, dim=256, reduced_features=16,
                    seed=0)
    restored.load_checkpoint(ckpt)
    np.testing.assert_array_equal(restored.predict(x_te), labels)
    print("checkpoint round-trip == trained model")

    # 2. Serve round-trip: float bundle through the graph executor.
    float_path = os.path.join(tmp, "parity_bundle.npz")
    ModelBundle.from_pipeline(pipeline,
                              config={"gate": "stage_parity"}).save(
                                  float_path)
    engine = InferenceEngine.from_path(float_path, cache_size=0)
    assert engine.graph.names == pipeline.graph.names, \
        "served stages != training stages"
    np.testing.assert_array_equal(engine.predict_features(raw), labels)
    np.testing.assert_array_equal(engine.predict(x_te), labels)
    print("served float bundle == pipeline.predict (features and images)")

    # 3. Packed round-trip: XOR-popcount path == the same bundle's
    #    float path, bit-exactly.
    packed_path = os.path.join(tmp, "parity_bundle_packed.npz")
    ModelBundle.from_pipeline(pipeline, config={"gate": "stage_parity"},
                              binarize=True).save(packed_path)
    packed = InferenceEngine.from_path(packed_path, cache_size=0)
    assert packed.use_packed, "binarized bundle did not select packed path"
    floating = InferenceEngine.from_path(packed_path, use_packed=False,
                                         cache_size=0)
    np.testing.assert_array_equal(packed.predict_features(raw),
                                  floating.predict_features(raw))
    want = floating.predict(x_te)
    np.testing.assert_array_equal(packed.predict(x_te), want)
    # A cached packed engine serves the images three times: the first
    # pass is seen once, the second fills its LRU with sign words, the
    # third reads every row from it.
    cached = InferenceEngine.from_path(packed_path)
    for expected_hits in (0, 0, len(x_te)):
        np.testing.assert_array_equal(cached.predict(x_te), want)
        assert cached.cache_info()["hits"] == expected_hits, \
            cached.cache_info()
    print("packed XOR-popcount path == float path on binarized bundle "
          "(features, images, and images three times through the LRU)")

    # 4. Packed encode: sign words == the float64 GEMM's signs.
    def assert_packed_words(path, name):
        engine = InferenceEngine.from_path(path, cache_size=0)
        assert engine.use_packed, f"{name} bundle is not packed"
        graph = ModelBundle.load(path).build_graph(build_extractor=False)
        encoder = graph.stage("encode").encoder
        want = pack_signs(
            encoder.encode_raw(graph.run(raw, stop="encode")) >= 0)
        np.testing.assert_array_equal(engine.encode_features(raw), want)
        print(f"packed encode words == float64 signs on {len(raw)} rows "
              f"({name}, K = {encoder.in_features})")

    assert_packed_words(packed_path, "nshd")
    baseline = BaselineHD(model, layer_index=21, dim=256, seed=0)
    baseline.fit(x_tr, y_tr, epochs=2)
    baseline_path = os.path.join(tmp, "parity_baselinehd_packed.npz")
    ModelBundle.from_pipeline(baseline, config={"gate": "stage_parity"},
                              binarize=True).save(baseline_path)
    assert_packed_words(baseline_path, "baselinehd")

print("stage parity: OK")
EOF

echo
echo "stage parity checks passed"
