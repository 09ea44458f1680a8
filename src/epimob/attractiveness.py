"""Cell grid with power-law attractiveness and table-driven location choice.

The population moves over K = round(kappa * n) cells.  Each cell v carries an
integer attractiveness d_v drawn from a truncated power law: support
{2, ..., m} with m = floor((kappa * n) ** (1 / alpha)) and probabilities
proportional to 1 / d ** alpha.  At every step each node independently picks
a cell with probability d_v / W, where W is the summed attractiveness.

Sampling a cell must not cost O(K) per draw, so a CellGrid is its class
histogram: the distinct weights in increasing order and the number of cells
at each, with cells numbered in class order.  A draw is one exact integer x
uniform on [0, W): class c owns the v_c * n_c integers from the total weight
of the classes before it, and each of its cells owns v_c of them, so finding
x's class and one division find the cell.  When W is at most
DIRECT_PER_CLASS integers a class, a table of the cell of every integer of
[0, W) gives x's cell at once; otherwise a binary search over the class
boundaries finds x's class.  Per-cell views and the table are built on first
use, so the count-level engine, which reads only the class tables, never
holds anything of length K.

build_grid draws the histogram as Multinomial(K, power-law pmf) in O(m).
CellGrid.from_weights counts the distinct values of explicit weights, so
its cells are numbered in class order too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Callable, NamedTuple

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
    message is the ConfigError text for a value of the wrong type or
    outside the range that ok accepts; help is the flag's help.  A key's
    default is that of the dataclass field it sets.
    """

    name: str
    type: type
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
    Field("n", int, lambda v: 1 <= v < 2**63,
          "n must be a positive integer below 2**63", "population size"),
    Field("alpha", float, lambda v: math.isfinite(v) and v > 2,
          "alpha must exceed 2", "attractiveness exponent, strictly greater than 2"),
    Field("kappa", float, lambda v: math.isfinite(v) and v > 0,
          "kappa must be positive", "cells per node; the grid has round(kappa * n) cells"),
    Field("tau", int, lambda v: v >= 1,
          "tau must be a positive integer", "steps a node stays infected before retiring"),
    Field("beta", float, lambda v: 0.0 <= v <= 1.0,
          "beta must lie in [0, 1]", "per-exposure infection probability (1 = certain)"),
    Field("initial_infected", int, lambda v: v >= 1,
          "initial_infected must be at least 1", "nodes infected at step 0"),
    Field("max_steps", int, lambda v: v >= 1,
          "max_steps must be a positive integer", "hard cap on simulated steps"),
)


@dataclass(frozen=True)
class EpidemicParams:
    """Validated parameter set for one simulation run.

    Each field's meaning (help) and range is its row of PARAM_FIELDS;
    __post_init__ adds the checks that span fields.  The grid must fit
    int64: fewer than 2**63 cells, and K * max_attractiveness, which bounds
    the total weight W, below 2**63.  kappa * n is a float product, as in
    config text, whatever kappa's type.  num_cells and max_attractiveness
    are computed once, by that validation.
    """

    n: int
    alpha: float = 2.8
    kappa: float = 1.0
    tau: int = 1
    beta: float = 1.0
    initial_infected: int = 1
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        for f in PARAM_FIELDS:
            f.check(getattr(self, f.name))
        if self.initial_infected > self.n:
            raise ConfigError("initial_infected must not exceed n")
        # checked before the cutoff, whose one-step walk to the edge never
        # ends once m outgrows float precision
        kn = float(self.kappa) * self.n
        if not (math.isfinite(kn) and round(kn) < 2**63):
            raise ConfigError("grid too large: kappa * n must round to fewer than 2**63 cells")
        if self.num_cells < 1:
            raise ConfigError("kappa * n rounds to zero cells")
        if self.max_attractiveness < 2:
            raise ConfigError(
                "attractiveness support is empty: floor((kappa * n) ** (1 / alpha)) "
                f"= {self.max_attractiveness}, need at least 2; increase n or kappa"
            )
        if self.num_cells * self.max_attractiveness >= 2**63:
            raise ConfigError(
                "grid too large: round(kappa * n) * max_attractiveness, which bounds "
                "the total weight, must be below 2**63"
            )

    @cached_property
    def num_cells(self) -> int:
        return int(round(float(self.kappa) * self.n))

    @cached_property
    def max_attractiveness(self) -> int:
        return attractiveness_cutoff(self.n, self.kappa, self.alpha)

    @property
    def max_band(self) -> int:
        """Band of max_attractiveness, the highest band a grid of these params can hold."""
        return self.max_attractiveness.bit_length() - 1


@lru_cache(maxsize=16)
def power_law_pmf(alpha: float, max_attr: int) -> np.ndarray:
    """Probability table for attractiveness values 2..max_attr.

    Entry i holds P(d = i + 2), proportional to 1 / (i + 2) ** alpha and
    normalised over the truncated support.  Accepts any finite exponent;
    the support is finite so the sum always converges.  Every grid build
    reads the table, so it is cached, and read-only because it is shared.
    """
    if not isinstance(max_attr, (int, np.integer)) or max_attr < 2:
        raise ValueError("max_attr must be an integer >= 2")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    d = np.arange(2, max_attr + 1, dtype=np.float64)
    w = d**-float(alpha)
    pmf = w / w.sum()
    pmf.flags.writeable = False
    return pmf


# A dense count step (see dynamics.count_step) places nodes one block of
# BLOCK_CELLS cells at a time, so its per-cell buffers stay cache-resident; at
# most 2**16 cells a block, so one 16-bit lane addresses any piece of a block.
BLOCK_CELLS = 2**16


class Pieces(NamedTuple):
    """The cells of a CellGrid cut into power-of-two pieces for dense count steps.

    Cutting the cell ids at every class start and every multiple of
    BLOCK_CELLS gives segments, each inside one class and one block.  Each
    segment is split along the binary digits of its length, largest piece
    first, so a piece is a run of 2**k cells of one class inside one block,
    and there are at most 16 pieces a segment.  The pieces tile the cells in
    order, so those of block b tile cells b * BLOCK_CELLS onwards.

    pick:        probability that a node picks piece p, v_c * length / W
    offset:      first cell of piece p, counted from the start of its block,
                 as uint16
    mask:        length of piece p minus one, as uint16
    class_first: first piece of each class
    block_first: first piece of each block
    """

    pick: np.ndarray
    offset: np.ndarray
    mask: np.ndarray
    class_first: np.ndarray
    block_first: np.ndarray


# 2**0 .. 2**62: one less than how many of them are at most v is
# floor(log2(v)), exact for every positive int64 v
_POWERS_OF_TWO = np.left_shift(1, np.arange(63))

_TOO_LARGE = "grid too large: num_cells * the largest weight must be below 2**63"

# choose_cells reads CellGrid.cell_of, which has W entries, only on grids of
# W <= DIRECT_PER_CLASS * m for m classes, so that table never grows with K.
DIRECT_PER_CLASS = 32


@dataclass(eq=False)
class CellGrid:
    """A grid as its class histogram, plus the tables both engines reuse.

    values, sizes: the distinct weights in increasing order, each at least
                   2, and the number of cells at each; K times the largest
                   weight must be below 2**63, so that W and every integer
                   place() computes fit int64

    Cells are numbered in class order.  Built once, by one running total
    over the classes: num_cells K; total_weight W; band[c] = floor(log2(v_c));
    num_bands, the band columns of a StepReport; start[c], where class c
    begins; weight_bounds, the total weight of the classes before each class,
    with W appended, so class c owns the integers weight_bounds[c] up to
    weight_bounds[c + 1]; base[c] = start[c] * v_c - weight_bounds[c], so the
    integer x of class c belongs to cell (x + base[c]) // v_c.

    Built on first use, so the count-level engine never holds anything of
    length K: per cell, attractiveness and cell_group (int16 band); pieces,
    for dense count steps; cell_of, the cell of every integer of [0, W),
    which choose_cells reads on grids of W <= DIRECT_PER_CLASS * m for m
    classes.
    """

    values: np.ndarray
    sizes: np.ndarray

    num_cells: int = field(init=False)
    total_weight: int = field(init=False)
    band: np.ndarray = field(init=False, repr=False)
    num_bands: int = field(init=False)
    start: np.ndarray = field(init=False, repr=False)
    weight_bounds: np.ndarray = field(init=False, repr=False)
    base: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = self.values = np.asarray(self.values, dtype=np.int64)
        sizes = self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if values.ndim != 1 or values.size == 0 or sizes.shape != values.shape:
            raise ValueError("values and sizes must be non-empty 1-d arrays of one length")
        # running totals of cells (row 0) and of weight (row 1), each led by
        # a 0: a class starts where the totals before it end
        table = np.zeros((2, values.size + 1), dtype=np.int64)
        table[0, 1:] = sizes
        np.multiply(values, sizes, table[1, 1:])
        np.add.accumulate(table, 1, None, table)
        cells = table[0]
        if values[0] < 2 or np.count_nonzero(values[1:] <= values[:-1]):
            raise ValueError("values must increase from at least 2")
        # the cell total rises at every class unless a size is below 1 or
        # the int64 sum wraps, which makes it fall
        if np.count_nonzero(cells[1:] <= cells[:-1]):
            if sizes.min() < 1:
                raise ValueError("every class must hold at least one cell")
            raise ValueError(_TOO_LARGE)
        self.num_cells, self.total_weight = table[:, -1].tolist()
        top = int(values[-1])
        # below 2**63, so W, which is at most K * top, did not wrap either
        if self.num_cells * top >= 2**63:
            raise ValueError(_TOO_LARGE)
        self.start = cells[:-1]
        self.weight_bounds = table[1]
        self.num_bands = top.bit_length()
        # np.frexp would round v to a double, one band too high for some v >= 2**53
        self.band = np.subtract(_POWERS_OF_TWO.searchsorted(values, "right"), 1, dtype=np.int32)
        # below 2**63: start * v < K * values[-1], checked above
        self.base = self.start * values - self.weight_bounds[:-1]

    @classmethod
    def from_weights(cls, weights) -> "CellGrid":
        """Build a grid from explicit integer weights, each >= 2.

        The grid keeps the multiset of weights, numbering its cells in class
        order, not in the order of `weights`.
        """
        w = np.asarray(weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.issubdtype(w.dtype, np.integer):
            raise ValueError("cell weights must be integers")
        return cls(*np.unique(w, return_counts=True))

    @cached_property
    def attractiveness(self) -> np.ndarray:
        return np.repeat(self.values, self.sizes)

    @cached_property
    def cell_group(self) -> np.ndarray:
        return np.repeat(self.band.astype(np.int16), self.sizes)

    @cached_property
    def pieces(self) -> Pieces:
        seg_start = np.union1d(self.start, np.arange(0, self.num_cells, BLOCK_CELLS))
        seg_length = np.diff(seg_start, append=self.num_cells)
        # a segment's pieces are the binary digits of its length, highest
        # first; read row by row, the masked digits keep the segments in
        # order, and the pieces tile the cells, so each starts where the last ends
        digits = 1 << np.arange(BLOCK_CELLS.bit_length())[::-1]
        length = (seg_length[:, None] & digits).ravel()
        length = length[length != 0]
        start = np.cumsum(length) - length
        cls = np.searchsorted(self.start, start, side="right") - 1
        block = start // BLOCK_CELLS
        return Pieces(
            pick=self.values[cls] * length / self.total_weight,
            offset=(start - block * BLOCK_CELLS).astype(np.uint16),
            mask=(length - 1).astype(np.uint16),
            class_first=np.searchsorted(start, self.start),
            block_first=np.flatnonzero(np.diff(block, prepend=-1)),
        )

    @cached_property
    def cell_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_cells, dtype=np.int64), self.attractiveness)

    def choice_probabilities(self) -> np.ndarray:
        """Exact per-cell choice probabilities d_v / W (sums to 1)."""
        return self.attractiveness / self.total_weight


def draw_class_counts(params: EpidemicParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw a grid's class histogram: (distinct weights, cells carrying each).

    The K = round(kappa * n) weights are i.i.d. power-law draws, so the
    number of cells at each value 2..m is Multinomial(K, power_law_pmf).
    One multinomial draw costs O(m) whatever K is.  Empty classes are
    dropped, so values is increasing and every count is positive.
    """
    counts = rng.multinomial(params.num_cells, power_law_pmf(params.alpha, params.max_attractiveness))
    # count i is of the value i + 2
    keep = counts.nonzero()[0]
    return keep + 2, counts[keep]


def build_grid(params: EpidemicParams, rng: np.random.Generator) -> CellGrid:
    """Draw a fresh grid of round(kappa * n) cells from the power law, in O(m).

    Cells are numbered in class order.  The multiset of weights has the law
    of K i.i.d. power-law draws; only the cell ids, which are labels, differ.
    """
    return CellGrid(*draw_class_counts(params, rng))


def place(grid: CellGrid, x: np.ndarray, cls: np.ndarray) -> None:
    """Turn integers x of [0, W), of classes cls, into their cells, in place.

    Class c owns the v_c * n_c integers from weight_bounds[c], and each of
    its cells owns v_c of them in turn, so x of class c lands on cell
    start[c] + (x - weight_bounds[c]) // v_c = (x + base[c]) // v_c.
    """
    x += grid.base[cls]
    x //= grid.values[cls]


def choose_cells(grid: CellGrid, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample `size` cell ids, each independently with probability d_v / W.

    Exact in law: each draw is one integer x uniform on [0, W), placed on
    its cell.  The grid alone picks one of two paths, which give each x the
    same cell, so the path taken moves no draw.  On a grid of m classes and
    W <= DIRECT_PER_CLASS * m, grid.cell_of, built on the first call, gives
    the cell of x directly.  Otherwise x's class, the number of classes
    after the first that start at or below it, is binary searched over the
    class boundaries, and place finds the cell.
    """
    x = rng.integers(0, grid.total_weight, size)
    if grid.total_weight <= DIRECT_PER_CLASS * grid.values.size:
        return grid.cell_of[x]
    place(grid, x, grid.weight_bounds[1:-1].searchsorted(x, side="right"))
    return x
