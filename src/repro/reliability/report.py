"""Noise-robustness sweeps: the HD accuracy-vs-bit-flip-rate curve.

The paper's deployability claim (Sec. II/VII) is that binary hypervector
classifiers *degrade gracefully* under bit-level noise — flipping a
fraction ``p`` of hypervector components shifts cosine similarities
smoothly instead of breaking the classifier, all the way to chance at
``p = 0.5``.  This module reproduces that curve for any trained pipeline
(NSHD / BaselineHD / VanillaHD) or bare :class:`repro.learn.MassTrainer`.

Two corruption targets are supported, matching the two memories a
hardware deployment actually has: ``"query"`` flips bits of the encoded
query hypervectors (transmission/encoder noise) and ``"memory"`` flips
signs of the class-hypervector item memory (storage faults).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hd.similarity import cosine_similarity
from ..learn.mass import MassTrainer
from ..utils.tables import format_table
from .faults import BitFlipInjector

__all__ = ["DEFAULT_RATES", "bit_flip_curve", "bit_flip_sweep",
           "sweep_systems", "format_sweep"]

#: Default sweep grid: the paper-relevant regime plus the chance anchor.
DEFAULT_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

_TARGETS = ("query", "memory", "both")


def _corrupted_accuracy(class_matrix: np.ndarray, encoded: np.ndarray,
                        labels: np.ndarray, rate: float, target: str,
                        seed) -> float:
    seed = tuple(seed) if isinstance(seed, tuple) else (seed,)
    queries = encoded
    memory = class_matrix
    if target in ("query", "both"):
        queries = BitFlipInjector(rate, seed=seed + ("query",)
                                  ).apply(encoded)
    if target in ("memory", "both"):
        memory = BitFlipInjector(rate, seed=seed + ("memory",)
                                 ).apply(class_matrix)
    predictions = cosine_similarity(memory, queries).argmax(axis=1)
    return float((predictions == labels).mean())


def bit_flip_curve(trainer: MassTrainer, encoded: np.ndarray,
                   labels: np.ndarray,
                   rates: Sequence[float] = DEFAULT_RATES,
                   target: str = "query", trials: int = 3,
                   seed: int = 0) -> List[Dict[str, float]]:
    """Accuracy vs bit-flip rate for a trained trainer on encoded HVs.

    Each rate is evaluated over ``trials`` independent corruption seeds
    and averaged, which smooths the curve enough for the monotone-shape
    assertions of the test suite.  Returns a list of
    ``{"rate": p, "accuracy": mean, "min": ..., "max": ...}`` rows.
    """
    if target not in _TARGETS:
        raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    encoded = np.atleast_2d(np.asarray(encoded, dtype=np.float64))
    labels = np.asarray(labels)
    rows: List[Dict[str, float]] = []
    for rate_index, rate in enumerate(rates):
        accuracies = [
            _corrupted_accuracy(trainer.class_matrix, encoded, labels,
                                float(rate), target,
                                (seed, "sweep", rate_index, trial))
            for trial in range(trials)
        ]
        rows.append({
            "rate": float(rate),
            "accuracy": float(np.mean(accuracies)),
            "min": float(np.min(accuracies)),
            "max": float(np.max(accuracies)),
        })
    return rows


def bit_flip_sweep(pipeline, images: np.ndarray, labels: np.ndarray,
                   rates: Sequence[float] = DEFAULT_RATES,
                   target: str = "query", trials: int = 3,
                   seed: int = 0) -> List[Dict[str, float]]:
    """Like :func:`bit_flip_curve` for a fitted pipeline on raw images.

    The clean encoding runs once; only the cheap corrupt-and-classify
    inner loop repeats per (rate, trial), so sweeping is O(rates·trials)
    similarity products — no CNN re-runs.
    """
    encoded = pipeline.encode(images)
    return bit_flip_curve(pipeline.trainer, encoded, labels, rates=rates,
                          target=target, trials=trials, seed=seed)


def sweep_systems(systems: Dict[str, object], images: np.ndarray,
                  labels: np.ndarray,
                  rates: Sequence[float] = DEFAULT_RATES,
                  target: str = "query", trials: int = 3,
                  seed: int = 0) -> Dict[str, List[Dict[str, float]]]:
    """Run :func:`bit_flip_sweep` for several fitted systems.

    ``systems`` maps display names (e.g. ``"NSHD"``) to fitted pipelines;
    the result maps the same names to their sweep rows, ready for
    :func:`format_sweep`.
    """
    return {name: bit_flip_sweep(system, images, labels, rates=rates,
                                 target=target, trials=trials, seed=seed)
            for name, system in systems.items()}


def format_sweep(results: Dict[str, List[Dict[str, float]]],
                 title: str = "Accuracy vs hypervector bit-flip rate"
                 ) -> str:
    """Render sweep results as the EXPERIMENTS.md-style ASCII table."""
    if not results:
        raise ValueError("no sweep results to format")
    names = list(results)
    rates: Optional[List[float]] = None
    for name in names:
        row_rates = [row["rate"] for row in results[name]]
        if rates is None:
            rates = row_rates
        elif row_rates != rates:
            raise ValueError("all systems must be swept on the same rates")
    assert rates is not None
    headers = ["flip rate p"] + names
    rows = []
    for index, rate in enumerate(rates):
        rows.append([f"{rate:.2f}"] +
                    [f"{results[name][index]['accuracy']:.3f}"
                     for name in names])
    return format_table(headers, rows, title=title)
