"""The paper's claims across scales, checked with the count-level engine.

These are not acceptance criteria: they widen what criteria 5 and 7 test
at one n to more replicates or more population sizes, at the cost of a
few seconds.
"""

import dataclasses
import math

import numpy as np

from epimob import run_replications
from epimob.scenario import preset_industrialized


def test_band_infections_decay_with_attractiveness():
    # criterion 7's rule on 4000 replicates instead of 50, so that more than
    # one band has the 100 pooled samples the rule needs to judge it
    config = dataclasses.replace(preset_industrialized(100_000), seed=8107, replications=4000)
    result = run_replications(config)
    totals = np.zeros(result.traces[0].new_by_group.shape[1])
    for trace in result.traces:
        totals += trace.new_by_group[int(np.argmax(trace.infected))]
    means = totals / config.replications
    judged = means[totals >= 100]
    assert judged.size >= 2, totals.tolist()
    assert np.all(np.diff(judged) <= 0), means.tolist()


def test_industrialized_outbreaks_stay_polylogarithmic_in_n():
    # at n = 1e9 the grid has 1.6e10 cells: this runs only because the
    # count-level engine never builds anything of length K
    for exponent in range(3, 10):
        n = 10**exponent
        config = dataclasses.replace(preset_industrialized(n), seed=11, replications=50)
        worst = max(s.ever_infected for s in run_replications(config).summaries)
        assert worst <= math.log2(n) ** 3, (n, worst)
