import os

import pytest

from vanetconn import cli, ranges, traffic


@pytest.fixture
def golden_adjacency():
    """Three-vehicle two-range witness: gaps [200, 400] m, ranges
    [300, 250, 500] m, whose full adjacency is [[0,1,0],[1,0,0],[0,1,0]]."""
    return cli._golden_three_vehicle()


def random_snapshot(rng, density_m, segment_m, policy):
    """One traffic realization: (scenario, headways, assignment)."""
    scenario = traffic.TrafficScenario(density_m, segment_m)
    headways = traffic.sample_headways(scenario, rng)
    assignment = ranges.assign_ranges(policy, scenario.vehicle_count, rng)
    return scenario, headways, assignment


def set_usable_cpus(monkeypatch, count):
    """Make this process see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
