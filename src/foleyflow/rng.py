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

    def normal(self, shape=None):
        """Standard normal draws."""
        if shape is None:
            return float(self._gen.normal(0.0, 1.0))
        return self._gen.normal(0.0, 1.0, size=shape)

    def uniform(self, shape=None):
        """Uniform draws in [0, 1)."""
        if shape is None:
            return float(self._gen.uniform(0.0, 1.0))
        return self._gen.uniform(0.0, 1.0, size=shape)

    def bernoulli(self, p: float, shape=None):
        if shape is None:
            return bool(self._gen.random() < p)
        return self._gen.random(size=shape) < p

    def integers(self, n: int, shape=None):
        """Uniform integers in [0, n)."""
        if shape is None:
            return int(self._gen.integers(0, n))
        return self._gen.integers(0, n, size=shape)
