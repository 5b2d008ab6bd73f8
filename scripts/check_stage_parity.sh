#!/bin/bash
# Tier-2 stage-graph parity gate: prove on a freshly trained model that
# the single stage-graph program serves every consumer identically.
#   * train a small NSHD end-to-end (fresh CNN, fresh HD fit);
#   * single-pass fit (teacher continues from the cut-layer features)
#     == fit_features(extract(x), y, model.logits(x)), bit-exactly;
#   * pipeline.predict (live graph) == frozen-topology replay
#     (graph.topology() + state_arrays() -> StageGraph.from_topology);
#   * checkpoint round-trip: save_checkpoint persists the graph section,
#     a fresh pipeline restored from it predicts bit-exactly;
#   * serve round-trip: exported float bundle served by InferenceEngine
#     == pipeline.predict, from raw features and from images;
#   * packed round-trip: binarized bundle's XOR-popcount path == its own
#     float path bit-exactly (same bipolar operands, same ranking), from
#     raw features and from images.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage parity: train -> freeze -> checkpoint -> serve =="
python - <<'EOF'
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, "src")

from repro.data import make_dataset, normalize_images  # noqa: E402
from repro.learn import NSHD  # noqa: E402
from repro.models import create_model, train_cnn  # noqa: E402
from repro.nn.serialize import (GRAPH_SECTION, load_manifest,  # noqa: E402
                                manifest_section)
from repro.pipeline import StageGraph  # noqa: E402
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

# 1. Frozen-topology replay == live graph.
frozen = StageGraph.from_topology(pipeline.graph.topology(),
                                  pipeline.graph.state_arrays())
np.testing.assert_array_equal(frozen.run(np.asarray(x_te)), labels)
print("frozen topology replay == live pipeline (bit-exact)")

with tempfile.TemporaryDirectory() as tmp:
    # 2. Checkpoint round-trip carries the graph section and restores.
    ckpt = os.path.join(tmp, "parity_ckpt.npz")
    pipeline.save_checkpoint(ckpt, epoch=2)
    section = manifest_section(load_manifest(ckpt), GRAPH_SECTION)
    assert section is not None, "checkpoint missing graph topology"
    restored = NSHD(model, layer_index=21, dim=256, reduced_features=16,
                    seed=0)
    restored.load_checkpoint(ckpt)
    np.testing.assert_array_equal(restored.predict(x_te), labels)
    print("checkpoint round-trip (with graph section) == trained model")

    # 3. Serve round-trip: float bundle through the graph executor.
    float_path = os.path.join(tmp, "parity_bundle.npz")
    ModelBundle.from_pipeline(pipeline,
                              config={"gate": "stage_parity"}).save(
                                  float_path)
    engine = InferenceEngine.from_path(float_path, cache_size=0)
    assert engine.graph.names == pipeline.graph.names, \
        "served topology != training topology"
    np.testing.assert_array_equal(engine.predict_features(raw), labels)
    np.testing.assert_array_equal(engine.predict(x_te), labels)
    print("served float bundle == pipeline.predict (features and images)")

    # 4. Packed round-trip: XOR-popcount path == the same bundle's
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
    np.testing.assert_array_equal(packed.predict(x_te),
                                  floating.predict(x_te))
    print("packed XOR-popcount path == float path on binarized bundle "
          "(features and images)")

print("stage parity: OK")
EOF

echo
echo "stage parity checks passed"
