"""Deterministic random number generation.

All randomness in the package flows through SeededRng, which wraps numpy's
Philox bit generator. Philox is a named counter-based generator with a
fixed, platform-independent stream, so a seed fully determines every draw
on every machine. Seed derivation for substreams goes through
numpy.random.SeedSequence, which is likewise documented and stable.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeededRng", "derive_seed", "string_seed"]


def string_seed(text: str) -> int:
    """Map a string to a stable 64-bit seed (SHA-256, first 8 bytes)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(base: int, *keys) -> int:
    """Derive a child seed from a base seed and a tuple of mixing keys.

    Keys may be ints or strings; strings are hashed with string_seed first.
    The derivation uses SeedSequence spawning semantics, so distinct key
    tuples give statistically independent streams.
    """
    entropy = [int(base) & 0xFFFFFFFFFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            entropy.append(string_seed(key))
        else:
            entropy.append(int(key) & 0xFFFFFFFFFFFFFFFF)
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, np.uint64)[0])


class SeededRng:
    """Philox-backed generator with the few draw shapes the package needs."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def normal(self, shape):
        """An array of standard normal draws."""
        return self._gen.normal(0.0, 1.0, size=shape)

    def uniform(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.uniform(0.0, 1.0))

    def bernoulli(self, p: float) -> bool:
        return bool(self._gen.random() < p)

    def integers(self, n: int) -> int:
        """One uniform integer in [0, n)."""
        return int(self._gen.integers(0, n))
