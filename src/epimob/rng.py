"""Deterministic random-stream derivation for reproducible replications.

Every stream is a pure function of (master_seed, replicate, role).  A
replicate therefore produces bit-identical output no matter which worker
process runs it or in what order replicates are scheduled.  Streams use the
counter-based Philox bit generator, whose state is cheap to construct from a
seed without a warm-up pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Role indices keyed into the seed derivation.  Renumbering them changes
# every derived stream, so treat the values as frozen.
ROLE_GRID = 0
ROLE_INIT = 1
ROLE_MOVEMENT = 2
ROLE_TRANSMISSION = 3


def derive_seed(master_seed: int, replicate: int) -> int:
    """Return the 64-bit per-replicate seed recorded in run summaries."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))
    return int(ss.generate_state(1, np.uint64)[0])


def substream(master_seed: int, replicate: int, role: int) -> np.random.Generator:
    """Return an independent generator for one (replicate, role) pair."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate, role))
    return np.random.Generator(np.random.Philox(ss))


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
