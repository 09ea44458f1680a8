"""Cell grid with power-law attractiveness and constant-time location choice.

The population moves over K = round(kappa * n) cells.  Each cell v carries an
integer attractiveness d_v drawn from a truncated power law: support
{2, ..., m} with m = floor((kappa * n) ** (1 / alpha)) and probabilities
proportional to 1 / d ** alpha.  At every step each node independently picks
a cell with probability d_v / W, where W is the summed attractiveness.

Sampling a cell must not cost O(K) per draw, so the grid groups cells into
classes of equal attractiveness.  A draw picks a class from an alias table
weighted by (class count * class value) / W, then a uniform member of that
class through a permutation of cell ids grouped by class.  Both lookups are
O(1) and the whole path vectorises.

The classes come from one stable argsort of the weights, cast to the
narrowest unsigned type that holds m.  For m < 2**16, which covers every
preset, numpy runs that sort as a radix sort, so a grid builds in O(K).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ConfigError


def attractiveness_cutoff(n: int, kappa: float, alpha: float) -> int:
    """Largest integer m with m ** alpha <= kappa * n.

    Computed from the float root and then corrected against the exact
    power so that boundary cases (kappa * n an exact alpha-th power) land
    on the boundary instead of one below it.
    """
    kn = float(kappa) * float(n)
    if kn <= 0:
        raise ConfigError("kappa * n must be positive")
    m = max(int(kn ** (1.0 / alpha) * (1.0 + 1e-12)), 1)
    # float root can be off by one in either direction; walk to the edge
    while (m + 1) ** alpha <= kn * (1.0 + 1e-12):
        m += 1
    while m > 1 and m**alpha > kn * (1.0 + 1e-12):
        m -= 1
    return m


_TYPES = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}
_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}


@dataclass(frozen=True)
class Field:
    """One row of the parameter schema, read by validation, config text and flags.

    type is int, float, bool or str, and only a bool row accepts a bool;
    default is what a config file falls back to (None: required, or may
    stay unset); message is the ConfigError text for a value of the wrong
    type or outside the range that ok accepts; help is the flag's help.
    """

    name: str
    type: type
    default: object
    ok: Callable[[Any], bool]
    message: str
    help: str

    def check(self, value) -> None:
        """Raise ConfigError with this row's message unless value fits the row."""
        typed = isinstance(value, _TYPES[self.type])
        if not (typed and (self.type is bool) == isinstance(value, bool) and self.ok(value)):
            raise ConfigError(self.message)

    def parse(self, text: str):
        """Checked value of this row's type from config text."""
        try:
            value = _BOOLS[text.lower()] if self.type is bool else self.type(text)
        except (KeyError, ValueError):
            kind = "boolean" if self.type is bool else "value"
            raise ConfigError(f"bad {kind} {text!r} for {self.name}") from None
        self.check(value)
        return value

    def format(self, value) -> str:
        """Config text that parse() reads back as an equal value."""
        if self.type is bool:
            return "true" if value else "false"
        return repr(float(value)) if self.type is float else str(value)


PARAM_FIELDS = (
    Field("n", int, None, lambda v: v >= 1,
          "n must be a positive integer", "population size"),
    Field("alpha", float, 2.8, lambda v: math.isfinite(v) and v > 2,
          "alpha must exceed 2", "attractiveness exponent, strictly greater than 2"),
    Field("kappa", float, 1.0, lambda v: math.isfinite(v) and v > 0,
          "kappa must be positive", "cells per node; the grid has round(kappa * n) cells"),
    Field("tau", int, 1, lambda v: v >= 1,
          "tau must be a positive integer", "steps a node stays infected before retiring"),
    Field("beta", float, 1.0, lambda v: 0.0 <= v <= 1.0,
          "beta must lie in [0, 1]", "per-exposure infection probability (1 = certain)"),
    Field("initial_infected", int, 1, lambda v: v >= 1,
          "initial_infected must be at least 1", "nodes infected at step 0"),
    Field("max_steps", int, 10_000, lambda v: v >= 1,
          "max_steps must be a positive integer", "hard cap on simulated steps"),
)


@dataclass(frozen=True)
class EpidemicParams:
    """Validated parameter set for one simulation run.

    Each field's meaning (help), config default and range is its row of
    PARAM_FIELDS; __post_init__ adds the checks that span fields.
    """

    n: int
    alpha: float
    kappa: float
    tau: int
    beta: float = 1.0
    initial_infected: int = 1
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        for f in PARAM_FIELDS:
            f.check(getattr(self, f.name))
        if self.initial_infected > self.n:
            raise ConfigError("initial_infected must not exceed n")
        if self.num_cells < 1:
            raise ConfigError("kappa * n rounds to zero cells")
        if self.max_attractiveness < 2:
            raise ConfigError(
                "attractiveness support is empty: floor((kappa * n) ** (1 / alpha)) "
                f"= {self.max_attractiveness}, need at least 2; increase n or kappa"
            )

    @property
    def num_cells(self) -> int:
        return int(round(self.kappa * self.n))

    @property
    def max_attractiveness(self) -> int:
        return attractiveness_cutoff(self.n, self.kappa, self.alpha)


def power_law_pmf(alpha: float, max_attr: int) -> np.ndarray:
    """Probability table for attractiveness values 2..max_attr.

    Entry i holds P(d = i + 2), proportional to 1 / (i + 2) ** alpha and
    normalised over the truncated support.  Accepts any finite exponent;
    the support is finite so the sum always converges.
    """
    if not isinstance(max_attr, (int, np.integer)) or max_attr < 2:
        raise ValueError("max_attr must be an integer >= 2")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    d = np.arange(2, max_attr + 1, dtype=np.float64)
    w = d**-float(alpha)
    return w / w.sum()


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table: returns (alias, accept) for an O(1) categorical."""
    k = probs.size
    accept = probs * k
    alias = np.arange(k, dtype=np.int64)
    small = [i for i in range(k) if accept[i] < 1.0]
    large = [i for i in range(k) if accept[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        alias[s] = g
        accept[g] = (accept[g] + accept[s]) - 1.0
        if accept[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # leftovers are 1 up to rounding
    for i in small + large:
        accept[i] = 1.0
    return alias, accept


@dataclass
class CellGrid:
    """Immutable cell layout plus the precomputed choice distribution.

    Attributes set by the constructor:

    attractiveness:     int array, one weight per cell, each in
                        [2, max_attractiveness]
    max_attractiveness: admissible upper bound for cell weights
    alpha:              exponent the weights were drawn with, or None for
                        hand-built grids

    Derived fields (built once, reused by every draw):

    total_weight: W, the summed attractiveness
    cell_group:   per-cell group index floor(log2(d)), used to bucket new
                  infections by the attractiveness band they occurred in
    _class_values, _class_counts, _class_start:
                  the distinct weights in increasing order, how many cells
                  carry each, and where each class begins in _perm
    _perm:        cell ids sorted stably by weight, so each class's cells
                  sit together in increasing id order
    _alias, _accept:
                  Vose alias table over the classes, weighted by
                  value * count / W
    """

    attractiveness: np.ndarray
    max_attractiveness: int
    alpha: float | None = None

    total_weight: int = field(init=False)
    cell_group: np.ndarray = field(init=False, repr=False)
    _class_values: np.ndarray = field(init=False, repr=False)
    _class_counts: np.ndarray = field(init=False, repr=False)
    _class_start: np.ndarray = field(init=False, repr=False)
    _perm: np.ndarray = field(init=False, repr=False)
    _alias: np.ndarray = field(init=False, repr=False)
    _accept: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(self.attractiveness, dtype=np.int64)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("attractiveness must be a non-empty 1-d array")
        if d.min() < 2 or d.max() > self.max_attractiveness:
            raise ValueError(
                "cell attractiveness must lie in [2, max_attractiveness]"
            )
        self.attractiveness = d
        self.total_weight = int(d.sum())

        # numpy's stable sort is an O(K) radix sort for keys of 16 bits or fewer
        keys = d.astype(np.min_scalar_type(self.max_attractiveness))
        perm = np.argsort(keys, kind="stable")
        ordered = keys[perm]
        start = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1))
        values = ordered[start].astype(np.int64)
        counts = np.diff(start, append=d.size)
        self._class_values = values
        self._class_counts = counts
        self._class_start = start
        self._perm = perm
        groups = np.array([int(v).bit_length() - 1 for v in values], dtype=np.int16)
        self.cell_group = np.empty(d.size, dtype=np.int16)
        self.cell_group[perm] = np.repeat(groups, counts)
        class_probs = values * counts / self.total_weight
        self._alias, self._accept = _build_alias(class_probs)

    @classmethod
    def from_weights(cls, weights, alpha: float | None = None) -> "CellGrid":
        """Build a grid from explicit integer weights (each >= 2)."""
        w = np.asarray(weights, dtype=np.int64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if w.min() < 2:
            raise ValueError("cell weights must be at least 2")
        return cls(w, int(w.max()), alpha=alpha)

    @property
    def num_cells(self) -> int:
        return int(self.attractiveness.size)

    @property
    def max_group(self) -> int:
        """Largest admissible group index floor(log2(max_attractiveness))."""
        return int(self.max_attractiveness).bit_length() - 1

    def choice_probabilities(self) -> np.ndarray:
        """Exact per-cell choice probabilities d_v / W (sums to 1)."""
        return self.attractiveness / self.total_weight

    def class_occupancy(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aggregate a cell assignment by attractiveness class.

        Returns (class_values, cells_per_class, nodes_per_class) for the
        given per-node cell ids.  Handy for checking that occupancy tracks
        attractiveness.
        """
        nodes = np.bincount(
            np.searchsorted(self._class_values, self.attractiveness[cells]),
            minlength=self._class_values.size,
        )
        return self._class_values, self._class_counts.copy(), nodes


def build_grid(params: EpidemicParams, rng: np.random.Generator) -> CellGrid:
    """Draw a fresh grid of round(kappa * n) cells from the power law."""
    cutoff = params.max_attractiveness
    pmf = power_law_pmf(params.alpha, cutoff)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # guard against cumsum round-off
    u = rng.random(params.num_cells)
    d = np.searchsorted(cdf, u, side="right") + 2
    return CellGrid(d, cutoff, alpha=params.alpha)


def choose_cells(grid: CellGrid, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample `size` cell ids, each independently with probability d_v / W.

    Consumes exactly 3 * size uniforms (class pick, alias accept, member
    offset) regardless of the grid, which keeps replay deterministic.
    """
    u = rng.random((3, size))
    nclass = grid._class_values.size
    c = (u[0] * nclass).astype(np.int64)
    np.minimum(c, nclass - 1, out=c)  # u < 1 but float round-up can hit nclass
    c = np.where(u[1] < grid._accept[c], c, grid._alias[c])
    counts = grid._class_counts[c]
    off = (u[2] * counts).astype(np.int64)
    np.minimum(off, counts - 1, out=off)
    return grid._perm[grid._class_start[c] + off]

