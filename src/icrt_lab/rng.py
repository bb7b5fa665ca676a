"""Deterministic random-number streams.

Every sampler takes an explicit RngState; identical (seed, spawn key) pairs
reproduce identical sample sequences.  `child` derives independent streams
of one seed through numpy's spawn keys: distinct keys never share a stream.

A stream's PCG64 is seeded from four 64-bit words, numpy's seed hash of the
entropy (seed, 0) and the spawn key: the pool mixing of numpy's seed
sequence followed by its `generate_state(4, uint64)`, reproduced bit for
bit by `_state_words`.  The hash runs once for one key (`child`) and
once for a whole block of keys (`children`), so opening the streams of
many replicates costs one pass of array arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
# numpy's hash constants: the pool hash, the output hash and the pool mix
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words32(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    as numpy splits entropy: [0] for 0."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


def _state_words(seed: int, key):
    """The four 64-bit PCG64 seed words of the seed and a spawn key.

    `key` is a sequence of 32-bit words: Python ints for one stream, or
    entries that are uint64 arrays, one value per stream of a block (Python
    ints broadcast).  Every value lies in [0, 2**32) and every product in
    [0, 2**64), so uint32 arithmetic is uint64 arithmetic masked to 32 bits,
    in Python ints and uint64 arrays alike.  Returns four ints or four
    arrays.
    """
    entropy = _words32(seed) + [0]
    if len(key):
        # a spawned stream's key words start after the whole pool
        entropy += [0] * (POOL_SIZE - len(entropy))
    entropy += list(key)
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * MULT_A & MASK32
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = INIT_B
    state = []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        state.append(value ^ value >> 16)
    # two 32-bit words make one 64-bit word, the lower first
    return [state[2 * j] | state[2 * j + 1] << 32 for j in range(POOL_SIZE)]


class _Words(ISeedSequence):
    """Hands PCG64 its four precomputed seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


class RngState:
    """A seed and a spawn key, wrapping a numpy Generator.

    The underlying generator is stateful: successive draws from the same
    RngState advance one deterministic sequence.  Spawn key entries lie in
    [0, 2**32): numpy would split a larger integer into 32-bit words, so
    (2**32,) would name the stream of (0, 1).
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        spawn_key = tuple(int(k) for k in spawn_key)
        if not all(0 <= k <= MASK32 for k in spawn_key):
            raise ValueError(f"spawn key entries must lie in [0, 2**32), got {spawn_key}")
        # entropy (seed, 0), not seed alone: the pinned sample outputs and
        # suite reports were drawn from it
        self._open(int(seed), spawn_key,
                   np.array(_state_words(int(seed), spawn_key), dtype=np.uint64))

    def _open(self, seed: int, spawn_key: tuple[int, ...], words: np.ndarray) -> None:
        self.seed = seed
        self.spawn_key = spawn_key
        self._gen = np.random.Generator(np.random.PCG64(_Words(words)))

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def child(self, *key: int) -> "RngState":
        """The independent stream named by this state's spawn key followed
        by `key`."""
        return RngState(self.seed, self.spawn_key + key)

    def children(self, keys) -> Iterator["RngState"]:
        """`self.child(*row)` for each row of a (streams, key length) integer
        array in turn.  The keys are checked and hashed in one pass over the
        block at once; each stream is opened when it is taken, so a block
        holds four words per stream, not its generator."""
        keys = np.asarray(keys)
        if keys.ndim != 2 or keys.dtype.kind not in "ui":
            raise ValueError(f"keys must be a 2-d integer array, got {keys.dtype} "
                             f"of shape {keys.shape}")
        if keys.size and (keys.min() < 0 or keys.max() > MASK32):
            raise ValueError("spawn key entries must lie in [0, 2**32)")
        keys = keys.astype(np.uint64)
        words = np.empty((len(keys), POOL_SIZE), dtype=np.uint64)
        for j, column in enumerate(_state_words(self.seed, self.spawn_key + tuple(keys.T))):
            words[:, j] = column

        def opened():
            for row, seed_words in zip(keys.tolist(), words):
                state = RngState.__new__(RngState)
                state._open(self.seed, self.spawn_key + tuple(row), seed_words)
                yield state

        return opened()

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, spawn_key={self.spawn_key})"
