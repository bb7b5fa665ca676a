"""Deterministic random-number streams.

Every sampler takes an explicit RngState; identical (seed, stream) pairs
reproduce identical sample sequences, and replicate-level parallelism uses
independent streams of the same seed.
"""

from __future__ import annotations

import numpy as np


class RngState:
    """A (seed, stream) pair wrapping a numpy Generator.

    The underlying generator is stateful: successive draws from the same
    RngState advance one deterministic sequence.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.default_rng((self.seed, self.stream))

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def child(self, k: int) -> "RngState":
        """Derive an independent stream, deterministic in (seed, stream, k)."""
        return RngState(self.seed, (self.stream << 20) ^ (k + 1))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"

