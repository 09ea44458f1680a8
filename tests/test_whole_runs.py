"""Whole runs of the count-level and per-node engines agree in law.

Not an acceptance gate.  Each engine's single step is checked against
enumeration elsewhere; whole runs add cohort retirement, the trigger's grid
swap and the band split over many steps.  Per case, 300 replicates of each
engine (150 of the slower beta = 0.5 runs) are compared on ever-infected,
extinction step and the per-band new infections at the peak step, by a
two-sample z test on the means and a Kolmogorov-Smirnov test on the
distributions.  The seeds were fixed before
any outcome was looked at.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from epimob import dynamics, metrics, run_replications
from epimob.scenario import (
    InterventionSchedule,
    ParamOverlay,
    PrevalenceReached,
    Trigger,
    preset_emerging,
)

# bounds for about 20 comparisons per case at a family-wise false-fail rate
# well under 1%
Z_BOUND = 4.0
KS_P_FLOOR = 1e-3
# a band is compared only when both engines put this many infections in it
BAND_FLOOR = 30

_EMERGING = preset_emerging(10_000)
_AWARE = Trigger(PrevalenceReached(0.02), ParamOverlay(alpha=6.0, kappa=16.0, tau=2))
CASES = {
    "emerging": dataclasses.replace(_EMERGING, seed=31, replications=300),
    "awareness": dataclasses.replace(
        _EMERGING, seed=32, replications=300, schedule=InterventionSchedule((_AWARE,))
    ),
    "beta_half_tau_4": dataclasses.replace(
        _EMERGING, seed=33, replications=150,
        params=dataclasses.replace(_EMERGING.params, beta=0.5, tau=4),
    ),
}


def _outcomes(result) -> dict:
    peak = np.array([t.new_by_group[int(np.argmax(t.infected))] for t in result.traces])
    return {
        "ever_infected": np.array([s.ever_infected for s in result.summaries]),
        "extinction_step": np.array([s.extinction_step for s in result.summaries]),
        **{f"peak_band_{k}": peak[:, k] for k in range(peak.shape[1])},
    }


def _z(a: np.ndarray, b: np.ndarray) -> float:
    spread = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return float((a.mean() - b.mean()) / spread)


@pytest.fixture
def dense_steps(monkeypatch) -> list:
    """Counts the count steps placed piece by piece in this process."""
    calls = []
    real = dynamics._piece_exposure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "_piece_exposure", counted)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_count_and_per_node_runs_agree_in_law(case, dense_steps, monkeypatch):
    config = CASES[case]
    # serial, so the spy sees every count step; workers never change outputs
    count = _outcomes(run_replications(config))
    if case != "awareness":  # its steps stay under 500 nodes, all sorted
        assert dense_steps, "no count step was placed piece by piece"
    # the cell logs the per-node engine keeps would take about 2 MB a replicate
    monkeypatch.setattr(metrics.TraceBuilder, "record_logs", lambda self, cells, mask: None)
    node = _outcomes(run_replications(dataclasses.replace(config, log_cells=True), workers=2))
    assert count.keys() == node.keys()
    for name, a in count.items():
        b = node[name]
        if name.startswith("peak_band_") and min(a.sum(), b.sum()) < BAND_FLOOR:
            continue
        z = _z(a, b)
        assert abs(z) < Z_BOUND, (case, name, z, a.mean(), b.mean())
        if not name.startswith("peak_band_"):
            p = stats.ks_2samp(a, b).pvalue
            assert p > KS_P_FLOOR, (case, name, p)
