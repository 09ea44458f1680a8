"""Deterministic random-stream derivation for reproducible replications.

Every stream is a pure function of (master_seed, replicate, role).  A
replicate therefore produces bit-identical output no matter which worker
process runs it or in what order replicates are scheduled.  Streams use the
counter-based Philox bit generator, whose state is cheap to construct from a
seed without a warm-up pass.

Stream (s, r, role) is keyed by np.random.SeedSequence(s, spawn_key=(r,
role)) and derive_seed(s, r) is the first uint64 word of SeedSequence(s,
spawn_key=(r,)), bit for bit, but no SeedSequence is built: constructing one
costs more than its hash, and a short replicate needs four.  This module
runs the hash in Python integers instead.  It caches the state left after
hashing a master seed, and after hashing a replicate too, so derive_seed and
each stream of a replicate hash only their own last word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Role indices keyed into the seed derivation.  Renumbering them changes
# every derived stream, so treat the values as frozen.
ROLE_GRID = 0
ROLE_INIT = 1
ROLE_MOVEMENT = 2
ROLE_TRANSMISSION = 3

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).  Its
# arithmetic is on uint32, so every product and difference here is masked to
# 32 bits.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MIX_NEG_R = -_MIX_MULT_R & _MASK32
_POOL_SIZE = 4
_UINT32 = np.dtype(np.uint32)
_UINT64 = np.dtype(np.uint64)
# Philox's counter starts at 0, and numpy converts this array faster than the int 0
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


def _words(value: int) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed word and the advanced hash constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix; adding _MIX_NEG_R * y is subtracting _MIX_MULT_R * y."""
    result = (_MIX_MULT_L * x + _MIX_NEG_R * y) & _MASK32
    return result ^ result >> 16


def _absorb(pool: tuple, hash_const: int, words) -> tuple[tuple, int]:
    """Mix each word into every pool word, as SeedSequence does past the pool size."""
    # _hashmix and _mix inlined: this loop is most of a stream's hashing
    for word in words:
        mixed_pool = []
        for value in pool:
            hashed = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            hashed = hashed * hash_const & _MASK32
            mixed = (_MIX_MULT_L * value + _MIX_NEG_R * (hashed ^ hashed >> 16)) & _MASK32
            mixed_pool.append(mixed ^ mixed >> 16)
        pool = tuple(mixed_pool)
    return pool, hash_const


@lru_cache(maxsize=64)
def _master_pool(master_seed: int) -> tuple[tuple, int]:
    """The pool and hash constant once SeedSequence has absorbed a master seed.

    A spawn key always follows, so the seed's words are zero-padded to the
    pool size, as SeedSequence pads them.
    """
    words = _words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = []
    hash_const = _INIT_A
    for word in words[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    return _absorb(tuple(pool), hash_const, words[_POOL_SIZE:])


@lru_cache(maxsize=16)
def _replicate_pool(master_seed: int, replicate: int) -> tuple[tuple, int]:
    """The pool and hash constant once a replicate's words are absorbed too.

    The pool is SeedSequence(master_seed, spawn_key=(replicate,)).pool, and
    absorbing a role word next gives that of spawn_key=(replicate, role); a
    replicate's four lookups (derive_seed and three streams) come together.
    """
    return _absorb(*_master_pool(master_seed), _words(replicate))


def _state_words(pool: tuple, n_words: int) -> list[int]:
    """SeedSequence.generate_state(n_words) as a list of uint32 words."""
    words = []
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


class _SpawnedPool:
    """The seed_seq of a substream: SeedSequence's pool, without SeedSequence.

    generate_state answers as the SeedSequence it stands for would.  It is
    registered as a numpy ISeedSequence, so a bit generator seeds from it,
    but not as a spawnable one: the generator's spawn() raises TypeError.
    """

    __slots__ = ("pool",)

    def __init__(self, pool: tuple) -> None:
        self.pool = pool

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # dtype against dtype objects: against the scalar types it costs more
        # than the hash
        dtype = np.dtype(dtype)
        if dtype == _UINT64:
            words = _state_words(self.pool, 2 * n_words)
            return np.array(
                [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)], dtype=dtype
            )
        if dtype != _UINT32:
            raise ValueError("only support uint32 or uint64")
        return np.array(_state_words(self.pool, n_words), dtype=dtype)


@lru_cache(maxsize=None)
def _generator_types() -> tuple[type, type]:
    """numpy.random's Generator and Philox, imported on first use.

    Importing numpy.random with this module would raise the memory of every
    process that imports epimob; first use also registers _SpawnedPool.
    """
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SpawnedPool)
    return Generator, Philox


def derive_seed(master_seed: int, replicate: int) -> int:
    """Return the 64-bit per-replicate seed recorded in run summaries."""
    lo, hi = _state_words(_replicate_pool(master_seed, replicate)[0], 2)
    return lo | hi << 32


def substream(master_seed: int, replicate: int, role: int) -> np.random.Generator:
    """Return an independent generator for one (replicate, role) pair."""
    pool, _ = _absorb(*_replicate_pool(master_seed, replicate), _words(role))
    generator, philox = _generator_types()
    return generator(philox(_SpawnedPool(pool), counter=_ZERO_COUNTER))


def _stream(role: int) -> cached_property:
    return cached_property(lambda self: substream(self.master_seed, self.replicate, role))


@dataclass
class ReplicateStreams:
    """The four independent random streams consumed by one replicate.

    Each is substream(master_seed, replicate, role), built on first access:
    the count-level engine never builds init.

    grid:         cell attractiveness draws, including rebuilds after a
                  parameter change mid-run
    init:         initial infected selection
    movement:     per-step relocation draws
    transmission: per-exposure infection draws (untouched when the
                  transmission probability is 1)
    """

    master_seed: int
    replicate: int

    grid = _stream(ROLE_GRID)
    init = _stream(ROLE_INIT)
    movement = _stream(ROLE_MOVEMENT)
    transmission = _stream(ROLE_TRANSMISSION)

    @classmethod
    def from_seed(cls, master_seed: int, replicate: int) -> "ReplicateStreams":
        return cls(master_seed, replicate)
