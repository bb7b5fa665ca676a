"""Deterministic random-number streams.

Every sampler takes an explicit RngState; identical (seed, spawn key) pairs
reproduce identical sample sequences.  `child` derives independent streams
of one seed through numpy's spawn keys: distinct keys never share a stream.
"""

from __future__ import annotations

import numpy as np


class RngState:
    """A seed and a spawn key, wrapping a numpy Generator.

    The underlying generator is stateful: successive draws from the same
    RngState advance one deterministic sequence.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(spawn_key)
        # entropy (seed, 0), not seed alone: the pinned sample outputs and
        # suite reports were drawn from it
        self._gen = np.random.default_rng(
            np.random.SeedSequence((self.seed, 0), spawn_key=self.spawn_key))

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def child(self, *key: int) -> "RngState":
        """The independent stream named by this state's spawn key followed
        by `key`.  Entries lie in [0, 2**32): numpy splits a larger integer
        into 32-bit words, so (2**32,) would name the stream of (0, 1)."""
        if not all(0 <= k < 2 ** 32 for k in key):
            raise ValueError(f"spawn key entries must lie in [0, 2**32), got {key}")
        return RngState(self.seed, self.spawn_key + key)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, spawn_key={self.spawn_key})"
