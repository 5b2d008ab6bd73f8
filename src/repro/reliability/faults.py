"""Seeded bit-flip fault injection for robustness experiments.

The paper's deployment argument rests on the fault tolerance of binary
hypervectors: flipping a fraction of a hypervector's components degrades
similarity gracefully instead of catastrophically, which is what makes
HD classifiers attractive on noisy edge accelerators.  The injector here
makes that claim *testable*: it corrupts hypervectors (queries or the
class item memory) in a controlled, seeded, reproducible way, and the
robustness sweep of :mod:`repro.reliability.report` is built on it.

The injector is deterministic given its ``seed``: applying it to the
same array always produces the same corruption (the generator is
re-derived per call), so sweeps and property tests are exactly
reproducible.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..utils.rng import fresh_rng

__all__ = ["BitFlipInjector", "flip_bits"]

Seed = Union[int, tuple]


def flip_bits(hypervectors: np.ndarray, rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """Flip the sign of each component independently with probability
    ``rate`` (the HD literature's bit-flip noise model for bipolar HVs)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"flip rate must be in [0, 1], got {rate}")
    data = np.array(hypervectors, dtype=np.float64, copy=True)
    if rate == 0.0 or data.size == 0:
        return data
    mask = rng.random(data.shape) < rate
    data[mask] = -data[mask]
    return data


class BitFlipInjector:
    """Hypervector / item-memory bit flips at rate ``p``.

    Properties (enforced by the hypothesis suite): ``rate=0`` is the
    identity, ``rate=1`` is full sign inversion, and the corruption is a
    pure function of ``(seed, array shape)``.
    """

    def __init__(self, rate: float, seed: Seed = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = seed

    def apply(self, array: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return a corrupted copy of ``array`` (never mutates input)."""
        if rng is None:
            key = self.seed if isinstance(self.seed, tuple) else (self.seed,)
            rng = fresh_rng(tuple(key) + ("bitflip",))
        return flip_bits(array, self.rate, rng)

    def __repr__(self) -> str:
        return f"BitFlipInjector(rate={self.rate}, seed={self.seed!r})"
