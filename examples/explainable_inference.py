"""Explainable symbolic inference with NSHD (the Sec. VII-E story).

NSHD's decision process is fully transparent: a prediction is just
"which class hypervector is the query most similar to", and the class
hypervectors live in the same algebraic space as the samples.  This
example:

 1. trains a small NSHD model;
 2. prints, for a few test images, the complete similarity readout the
    model reasons with (there is nothing else hidden inside);
 3. quantifies how retraining reorganizes hyperspace — cluster
    separation of the sample hypervectors before vs after retraining
    (the effect Fig. 11 visualizes with t-SNE);
 4. demonstrates symbolic *algebra* on learned classes: removing a
    class's contribution from a mixed bundle recovers the other class.
"""

import numpy as np

from repro.analysis import class_alignment, cluster_separation, tsne
from repro.data import make_dataset, normalize_images
from repro.learn import NSHD
from repro.models import create_model, train_cnn


def main():
    x_train, y_train, x_test, y_test = make_dataset(
        num_classes=6, num_train=360, num_test=150, seed=5)
    x_train, mean, std = normalize_images(x_train)
    x_test, _, _ = normalize_images(x_test, mean, std)

    model = create_model("vgg16", num_classes=6, width_mult=0.125, seed=1)
    train_cnn(model, x_train, y_train, epochs=6, batch_size=32, lr=2e-3,
              seed=1, verbose=False)

    nshd = NSHD(model, layer_index=27, dim=2000, reduced_features=24,
                seed=0)
    # Snapshot after one iteration (Fig. 11a), then train to the end.
    nshd.fit(x_train, y_train, epochs=1)
    early_hvs = nshd.encode(x_test)
    early_sep = cluster_separation(early_hvs, y_test)
    # One trunk pass: the teacher continues from the cut-layer features.
    train_features = nshd.extractor.extract(x_train)
    nshd.fit_features(train_features, y_train,
                      nshd.teacher.logits(
                          train_features, after=nshd.extractor.layer_index),
                      epochs=11, initialize=False)
    final_hvs = nshd.encode(x_test)
    final_sep = cluster_separation(final_hvs, y_test)

    print("=== Symbolic inference readout ===")
    sims = nshd.trainer.similarities(final_hvs[:3])
    for i in range(3):
        readout = ", ".join(f"class {c}: {s:+.3f}"
                            for c, s in enumerate(sims[i]))
        print(f"image {i} (true {y_test[i]}): {readout}")
        print(f"  -> predicted {int(np.argmax(sims[i]))} — the argmax of "
              f"the similarities above is the entire decision")

    print("\n=== Hyperspace reorganization (Fig. 11) ===")
    print(f"cluster separation after 1 iteration : {early_sep:.3f}")
    print(f"cluster separation after retraining  : {final_sep:.3f}")
    margin = class_alignment(final_hvs, y_test, nshd.trainer.class_matrix)
    print(f"own-vs-other class similarity margin : {margin:+.3f}")

    print("\n=== Symbolic algebra on learned classes ===")
    # Bundle a class-0 and a class-1 hypervector: the composite stays
    # similar to both constituents (bundling preserves similarity) ...
    idx0 = int(np.where(y_test == 0)[0][0])
    idx1 = int(np.where(y_test == 1)[0][0])
    bundle = final_hvs[idx0] + final_hvs[idx1]
    sims_b = nshd.trainer.similarities(bundle[None, :])[0]
    top2 = set(np.argsort(sims_b)[::-1][:2].tolist())
    print(f"bundle(sample0, sample1) top-2 classes: {sorted(top2)}")
    # ... and subtracting one constituent recovers the other.
    residual = bundle - final_hvs[idx0]
    sims_r = nshd.trainer.similarities(residual[None, :])[0]
    print(f"bundle - sample0 -> most similar class: "
          f"{int(np.argmax(sims_r))} (expected 1)")

    print("\nRunning t-SNE on the final hypervectors (2-D projection of "
          "the symbolic space) ...")
    embedding = tsne(final_hvs[:120], num_iters=200, perplexity=15.0,
                     rng=np.random.default_rng(0))
    print(f"t-SNE embedding computed: {embedding.shape[0]} points, "
          f"separation {cluster_separation(embedding, y_test[:120]):.2f}")


if __name__ == "__main__":
    main()
