"""Deterministic random-stream derivation for reproducible replications.

Every stream is a pure function of (master_seed, replicate, role), so a
replicate produces bit-identical output whichever worker process runs it
and in whatever order.  Stream (s, r, role) is the counter-based Philox
with key (s, 0) and 256-bit counter (0, 0, r, role), least significant
word first: numpy's Philox(key=s).jumped(r + 2**64 * role).  Philox's
output is a keyed bijection of its counter, so no hash is needed: streams
of one master seed start 2**128 blocks apart, and master seeds differ in
key.  derive_seed(s, r) is the first raw word at counter
(0, 0, r, ROLE_SEED).  Every word must lie in [0, 2**64).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Role indices: the top counter word of a stream.  Renumbering them changes
# every derived stream, so treat the values as frozen.
ROLE_GRID = 0
ROLE_INIT = 1
ROLE_MOVEMENT = 2
ROLE_TRANSMISSION = 3
ROLE_SEED = 4

def _word(value: int) -> int:
    value = operator.index(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"stream words must lie in [0, 2**64), got {value}")
    return value


class _Key:
    """The Philox key (word, 0), passed where Philox takes a seed sequence.

    Philox(key=word) would first build a SeedSequence from OS entropy, at
    several times the cost of the generator.  _Key is registered as an
    ISeedSequence but not a spawnable one, so a stream's spawn() raises
    TypeError.
    """

    __slots__ = ("word",)

    def __init__(self, word: int) -> None:
        self.word = word

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox asks only for its two uint64 key words
        return np.array([self.word, 0], dtype=np.uint64)


@lru_cache(maxsize=None)
def _generator_types() -> tuple[type, type]:
    """numpy.random's Generator and Philox, imported on first use.

    Importing numpy.random with this module would raise the memory of every
    process that imports epimob; first use also registers _Key.
    """
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Key)
    return Generator, Philox


def _philox(master_seed: int, replicate: int, role: int):
    # an array counter converts faster than the int r * 2**128 + role * 2**192
    counter = np.array([0, 0, _word(replicate), _word(role)], dtype=np.uint64)
    return _generator_types()[1](_Key(_word(master_seed)), counter=counter)


def derive_seed(master_seed: int, replicate: int) -> int:
    """Return the 64-bit per-replicate seed recorded in run summaries."""
    return _philox(master_seed, replicate, ROLE_SEED).random_raw()


def substream(master_seed: int, replicate: int, role: int) -> np.random.Generator:
    """Return an independent generator for one (replicate, role) pair."""
    return _generator_types()[0](_philox(master_seed, replicate, role))


@dataclass
class ReplicateStreams:
    """The four independent random streams consumed by one replicate.

    Each is substream(master_seed, replicate, role).  A run reads grid,
    movement and transmission in every replicate that takes a step, so they
    are built with the bundle; init is built on first access, as the
    count-level engine never reads it.

    grid:         cell attractiveness draws, including rebuilds after a
                  parameter change mid-run
    init:         initial infected selection
    movement:     per-step relocation draws
    transmission: per-exposure infection draws (untouched when the
                  transmission probability is 1)
    """

    master_seed: int
    replicate: int

    init = cached_property(lambda self: substream(self.master_seed, self.replicate, ROLE_INIT))

    def __post_init__(self) -> None:
        seed, replicate = self.master_seed, self.replicate
        self.grid = substream(seed, replicate, ROLE_GRID)
        self.movement = substream(seed, replicate, ROLE_MOVEMENT)
        self.transmission = substream(seed, replicate, ROLE_TRANSMISSION)

    @classmethod
    def from_seed(cls, master_seed: int, replicate: int) -> "ReplicateStreams":
        return cls(master_seed, replicate)
