"""Synthetic CIFAR-style dataset and loading utilities.

The procedural :class:`SyntheticCIFAR` benchmark stands in for
CIFAR-10/100 (see DESIGN.md §1 for the substitution rationale).

The exports are lazy (:mod:`repro._lazy`), so a name's submodule is
imported only when the name is read: serving never generates data.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "synthetic": ["SyntheticCIFAR", "ClassPrototype", "make_dataset"],
    "loader": ["iterate_batches", "normalize_images", "train_val_split",
               "one_hot"],
    "augment": ["random_horizontal_flip", "random_crop",
                "add_gaussian_noise", "augment_batch"],
})
