"""Deterministic named random streams.

A simulation draws randomness from several logically independent sources —
message latency, workload think time, failure injection, schedule
exploration.  Giving each its own :class:`RandomStream`, seeded by hashing
the root seed with the stream name, keeps them independent: adding a draw
to one stream cannot perturb another, so experiments stay comparable
across code changes.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from the root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A named, independently seeded PRNG stream."""

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.seed = derive_seed(root_seed, name)
        self._rng = random.Random(self.seed)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self._rng.random() < p


class RandomStreams:
    """A factory of named :class:`RandomStream` objects under one root seed.

    Requesting the same name twice returns the same stream instance.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        existing = self._streams.get(name)
        if existing is None:
            existing = RandomStream(self.root_seed, name)
            self._streams[name] = existing
        return existing

    def __getitem__(self, name: str) -> RandomStream:
        return self.stream(name)
