"""Exact small-instance computations that validate the stochastic engine.

Everything here is deliberately brute force: closed forms are avoided where
an exhaustive computation exists, so that these results are independent of
the engine's sampling shortcuts.  All quantities refer to the realized grid
(the weights actually drawn), not to the attractiveness law's expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attractiveness import CellGrid, choose_cells
from .dynamics import INFECTED, RECOVERED, UNINFECTED
from .scenario import FIELDS

# K ** (i + u) placements are enumerated outright; 8 x 8 is ~16.7M states,
# still fast, and anything larger is misuse of an exhaustive oracle.
MAX_ENUM_NODES = 8
MAX_ENUM_CELLS = 8

_CHUNK = 1 << 16


def exact_meeting_probability(grid: CellGrid) -> float:
    """Probability two independent nodes pick the same cell: sum of (d_v / W) ** 2.

    Summed per class, as n_c * (v_c / W) ** 2, so it costs O(m), not O(K).
    """
    p = grid.values / grid.total_weight
    return float(grid.sizes @ (p * p))


def expected_new_infections_bound(grid: CellGrid, i_count: int, u_count: int) -> float:
    """Union upper bound on expected new infections in one step.

    mu = u_count * i_count * exact_meeting_probability(grid): each of the
    |I| x |U| pairs meets with the same exact probability, and a meeting is
    at most one infection.
    """
    if i_count < 0 or u_count < 0:
        raise ValueError("i_count and u_count must be non-negative")
    return float(u_count) * float(i_count) * exact_meeting_probability(grid)


def infection_probability_from_exposures(beta: float, m: int) -> float:
    """P(at least one of m independent beta-exposures lands), by enumeration.

    Sums over all 2**m exposure outcome vectors instead of evaluating the
    closed form, so it can serve as an independent check of the engine's
    1 - (1 - beta) ** m rule.
    """
    FIELDS["beta"].check(beta)
    if m < 0:
        raise ValueError("m must be non-negative")
    total = 0.0
    for outcome in range(1, 1 << m):
        hits = bin(outcome).count("1")
        total += beta**hits * (1.0 - beta) ** (m - hits)
    return total


def enumerate_step(grid: CellGrid, statuses, beta: float = 1.0) -> np.ndarray:
    """Exact PMF of the number of new infections in one move-and-transmit step.

    Iterates every placement of the infected and uninfected nodes over the
    grid's cells, weights each placement by the product of its cells' choice
    probabilities, and applies the transmission rule exactly: an uninfected
    node with m infectious cellmates is infected with the probability given
    by infection_probability_from_exposures(beta, m).  Recovered nodes are
    inert for transmission, so their placements are marginalized out.

    Matches the engine's single-round transmission (nodes infected within
    the step do not transmit in it).  Returns an array of length
    |U| + 1 whose entry c is P(exactly c new infections).
    """
    statuses = np.asarray(statuses)
    n = statuses.size
    k = grid.num_cells
    if n == 0:
        raise ValueError("population must be non-empty")
    if n > MAX_ENUM_NODES or k > MAX_ENUM_CELLS:
        raise ValueError(
            f"instance too large to enumerate: {n} nodes x {k} cells "
            f"(limit {MAX_ENUM_NODES} x {MAX_ENUM_CELLS})"
        )
    FIELDS["beta"].check(beta)
    known = np.isin(statuses, (UNINFECTED, INFECTED, RECOVERED))
    if not known.all():
        raise ValueError("statuses must use the UNINFECTED/INFECTED/RECOVERED codes")

    i_count = int(np.count_nonzero(statuses == INFECTED))
    u_count = int(np.count_nonzero(statuses == UNINFECTED))
    if u_count == 0:
        return np.array([1.0])
    pmf = np.zeros(u_count + 1)
    if i_count == 0:
        pmf[0] = 1.0
        return pmf

    probs = grid.choice_probabilities()
    ptable = np.array(
        [infection_probability_from_exposures(beta, m) for m in range(i_count + 1)]
    )
    active = i_count + u_count
    total = k**active
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        cells = np.empty((idx.size, active), dtype=np.int64)
        rem = idx
        for col in range(active):
            cells[:, col] = rem % k
            rem = rem // k
        weight = probs[cells].prod(axis=1)
        icells = cells[:, :i_count]
        ucells = cells[:, i_count:]
        m = (ucells[:, :, None] == icells[:, None, :]).sum(axis=2)
        q = ptable[m]
        # convolve the per-node Bernoulli infection indicators
        dist = np.zeros((idx.size, u_count + 1))
        dist[:, 0] = 1.0
        for t in range(u_count):
            qt = q[:, t]
            for c in range(t + 1, 0, -1):
                dist[:, c] = dist[:, c] * (1.0 - qt) + dist[:, c - 1] * qt
            dist[:, 0] *= 1.0 - qt
        pmf += weight @ dist
    return pmf


@dataclass(frozen=True)
class RegimeCheckResult:
    """Outcome of sparse_regime_check.

    zero_infection_frequency: fraction of trial steps in which no infectious
    node met any uninfected node; analytic_floor is max(0, 1 - mu) with mu
    the exact expected-new-infections bound for the instance.
    """

    zero_infection_frequency: float
    mu: float
    analytic_floor: float
    trials: int
    i_count: int
    u_count: int


def sparse_regime_check(
    grid: CellGrid,
    i_count: int,
    u_count: int,
    *,
    n: int,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
    alpha: float,
) -> RegimeCheckResult:
    """Measure how often a step yields zero new infections when contacts are rare.

    Applies only in the sparse regime i_count * u_count <= n ** (2 * epsilon)
    with epsilon < (1 - 1/alpha) / 2, where the exact bound mu on expected
    new infections vanishes as n grows; anything outside that regime is
    rejected.  alpha is the exponent the grid's weights were drawn with,
    which a CellGrid does not keep.  Runs `trials` independent single steps
    and reports the observed frequency of zero meetings between infectious
    and uninfected nodes next to the analytic floor 1 - mu.

    Nodes outside I and U are recovered and inert for transmission, so each
    trial places only the i_count + u_count active nodes; that reduction is
    exact, not an approximation.  A meeting is certain infection under
    beta = 1, so for beta < 1 the reported frequency is a lower bound on the
    zero-infection frequency.  Memory grows as trials * i_count * u_count.
    """
    if i_count < 0 or u_count < 0:
        raise ValueError("i_count and u_count must be non-negative")
    if trials < 1:
        raise ValueError("trials must be positive")
    FIELDS["n"].check(n)
    limit = (1.0 - 1.0 / alpha) / 2.0
    if not 0.0 < epsilon < limit:
        raise ValueError(f"epsilon must lie in (0, {limit:.4f}) for alpha={alpha}")
    if i_count * u_count > n ** (2.0 * epsilon):
        raise ValueError(
            f"contact regime violated: i_count * u_count = {i_count * u_count} "
            f"exceeds n ** (2 * epsilon) = {n ** (2.0 * epsilon):.3f}"
        )

    mu = expected_new_infections_bound(grid, i_count, u_count)
    active = i_count + u_count
    draws = choose_cells(grid, rng, trials * active).reshape(trials, active)
    icells = draws[:, :i_count]
    ucells = draws[:, i_count:]
    met = (ucells[:, :, None] == icells[:, None, :]).any(axis=(1, 2))
    freq = 1.0 - float(np.count_nonzero(met)) / trials
    return RegimeCheckResult(
        zero_infection_frequency=freq,
        mu=mu,
        analytic_floor=max(0.0, 1.0 - mu),
        trials=trials,
        i_count=i_count,
        u_count=u_count,
    )
