"""Every public entry point that takes a number, a count, an index or an array
of them refuses a bad one through traffic's shared rules (check_positive,
check_count, check_positive_array), in a ValueError led by the field's name."""

import math
import re

import numpy as np
import pytest

from vanetconn import montecarlo
from vanetconn.cli import RunConfig, run_figure_preset
from vanetconn.connectivity import (
    AnalyticModel,
    analytic_pc_chain_mixed,
    bool_power_reach,
    min_range_for_target,
)
from vanetconn.graphs import Adjacency
from vanetconn.montecarlo import ExperimentSpec, estimate, run_trial, sweep
from vanetconn.ranges import FixedRange, RangeAssignment, TwoTierRange, assign_ranges, power_proxy
from vanetconn.traffic import HeadwayVector, headway_gaps

NUMBERS = (math.nan, math.inf, -math.inf)
COUNTS = (True, 2.5, "2")
MIXED = TwoTierRange(500.0, 1000.0, 0.5)
SPEC_FIELDS = dict(densities_per_km=(10.0,), segment_length_m=1000.0, policy=FixedRange(750.0),
                   methods=("chain",), direction="undirected", trials=5, master_seed=1)
SPEC = ExperimentSpec(**SPEC_FIELDS)


def trial_with_range(value):
    """run_trial on a block whose drawn ranges hold ``value``: no valid policy
    draws one, so the draw is replaced to reach the check in _realizations."""
    def draw(policy, rng, out):
        out.fill(value)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "draw_ranges", draw)
        run_trial(SPEC, 0, 0)


SITES = [
    # number rule
    ("AnalyticModel.density", "density", lambda v: AnalyticModel(v, 750.0, 10), NUMBERS),
    ("AnalyticModel.comm_range", "comm_range", lambda v: AnalyticModel(0.01, v, 10), NUMBERS),
    ("analytic_pc_chain_mixed.density", "density",
     lambda v: analytic_pc_chain_mixed(v, 10, MIXED), NUMBERS),
    ("min_range_for_target.density", "density", lambda v: min_range_for_target(v, 10, 0.9),
     NUMBERS),
    ("power_proxy", "path_loss_exponent",
     lambda v: power_proxy(RangeAssignment(np.full(3, 750.0)), v), NUMBERS),
    # count rule, minimum 1
    ("ExperimentSpec.trials", "trials", lambda v: ExperimentSpec(**dict(SPEC_FIELDS, trials=v)),
     COUNTS),
    ("RunConfig.workers", "workers", lambda v: RunConfig(**SPEC_FIELDS, workers=v), COUNTS),
    ("run_figure_preset", "workers",
     lambda v: run_figure_preset("fig1", trials_traversal=1, trials_spectral=1, workers=v),
     COUNTS),
    ("sweep.workers", "workers", lambda v: sweep(SPEC, workers=v), COUNTS),
    ("estimate.workers", "workers", lambda v: estimate(SPEC, 0, workers=v), COUNTS),
    ("bool_power_reach", "k", lambda v: bool_power_reach(Adjacency(np.zeros((3, 3))), v), COUNTS),
    # count rule, minimum 0
    ("ExperimentSpec.master_seed", "master_seed",
     lambda v: ExperimentSpec(**dict(SPEC_FIELDS, master_seed=v)), COUNTS),
    ("estimate.density_index", "density_index", lambda v: estimate(SPEC, v), COUNTS),
    ("run_trial.density_index", "density_index", lambda v: run_trial(SPEC, v, 0), COUNTS),
    ("run_trial.trial_index", "trial_index", lambda v: run_trial(SPEC, 0, v), COUNTS),
    # count rule, minimum 2
    ("AnalyticModel.vehicle_count", "vehicle_count", lambda v: AnalyticModel(0.01, 750.0, v),
     COUNTS),
    ("analytic_pc_chain_mixed.n", "n", lambda v: analytic_pc_chain_mixed(0.01, v, MIXED), COUNTS),
    ("min_range_for_target.n", "n", lambda v: min_range_for_target(0.01, v, 0.9), COUNTS),
    ("assign_ranges", "n", lambda v: assign_ranges(FixedRange(750.0), v,
                                                    np.random.default_rng(0)), COUNTS),
    # array rule
    ("HeadwayVector", "gaps", lambda v: HeadwayVector(np.array([100.0, v])), NUMBERS),
    ("RangeAssignment", "ranges", lambda v: RangeAssignment(np.array([750.0, v])), NUMBERS),
    # a uniform of NaN or +inf makes a NaN gap, one of 1.0 an infinite gap
    ("headway_gaps", "gaps", lambda v: headway_gaps(np.array([0.5, v]), 0.01),
     (math.nan, math.inf, 1.0)),
    ("_realizations", "ranges", trial_with_range, NUMBERS),
]


@pytest.mark.parametrize("field, call, value", [
    pytest.param(field, call, value, id=f"{site}-{value!r}")
    for site, field, call, values in SITES for value in values
])
def test_bad_input_refused_by_field(field, call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # run_figure_preset writes here if it does not refuse
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}( must |: )"), \
            np.errstate(divide="ignore", invalid="ignore"):
        call(value)
