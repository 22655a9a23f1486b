"""Acceptance suite: end-to-end statistical and exactness gates.

Each test prints one PASS line on success; tolerances are pinned here.
Statistical checks run against a fixed master seed; three-sigma margins use
the larger of the reported standard error and the binomial standard error at
the reference probability (the latter keeps the margin meaningful when the
empirical rate saturates at 0 or 1).
"""

import itertools
import math
import os

import numpy as np

from vanetconn import graphs, ranges, traffic
from vanetconn.cli import run_figure_preset
from vanetconn.connectivity import (
    AnalyticModel,
    analytic_pc,
    analytic_pc_chain_mixed,
    component_count,
    consecutive_chain,
    eigenvalues_symmetric,
    is_connected_exponent,
    is_connected_laplacian,
    oracle_components,
)
from vanetconn.graphs import build_adjacency, laplacian, project, symmetrize
from vanetconn.montecarlo import ExperimentSpec, compare_methods, sweep
from vanetconn.ranges import FixedRange, RangeAssignment, TwoTierRange, UniformRange, power_proxy
from vanetconn.traffic import TrafficScenario, sample_headways, spacing_matrix

WORKERS = min(2, os.cpu_count() or 1)
SEGMENT_M = 10_000.0
GRID = tuple(float(d) for d in range(2, 25, 2))  # 2..24 veh/km step 2
MASTER_SEED = 20_240_613


def fixed_pc(density_per_km, comm_range):
    n = traffic.vehicle_count(density_per_km / 1000.0, SEGMENT_M)
    return analytic_pc(AnalyticModel(density_per_km / 1000.0, comm_range, n))


def binomial_margin(reference_p, row):
    """3 * max(reported stderr, stderr at the reference probability)."""
    null_se = math.sqrt(reference_p * (1.0 - reference_p) / row.trials)
    return 3.0 * max(row.stderr, null_se)


def curve(spec, workers=WORKERS):
    rows = sweep(spec, workers=workers)
    return {(r.density_per_km, r.method): r for r in rows}


def test_01_fixed_range_estimates_match_closed_form():
    """Traversal-oracle estimates at 20,000 trials stay within
    max(3*stderr, 0.01) of the closed form on the whole grid."""
    worst = 0.0
    for comm_range in (500.0, 750.0, 1000.0):
        spec = ExperimentSpec(GRID, SEGMENT_M, FixedRange(comm_range),
                              ("oracle",), "undirected", 20_000, MASTER_SEED)
        rows = curve(spec)
        for density in GRID:
            row = rows[(density, "oracle")]
            expected = fixed_pc(density, comm_range)
            deviation = abs(row.p_hat - expected)
            margin = max(3.0 * row.stderr, 0.01)
            assert deviation <= margin, (
                f"R={comm_range} density={density}: |{row.p_hat:.5f} - "
                f"{expected:.5f}| = {deviation:.5f} > {margin:.5f}")
            worst = max(worst, deviation)
    print(f"\nACCEPTANCE 01 PASS: fixed-range oracle vs closed form, "
          f"max deviation {worst:.5f} over {len(GRID) * 3} grid points")


def test_02_fixed_range_methods_are_identical_per_realization():
    """Spectral, walk-power, and union-find verdicts never disagree on a
    shared fixed-range realization (2,016 realizations across the grid)."""
    realizations = 0
    for comm_range in (500.0, 750.0, 1000.0):
        spec = ExperimentSpec(GRID, SEGMENT_M, FixedRange(comm_range),
                              ("laplacian", "exponent", "oracle"),
                              "undirected", 56, MASTER_SEED)
        for row in compare_methods(spec, workers=WORKERS):
            assert row.count == 0, (
                f"R={comm_range} density={row.density_per_km}: "
                f"{row.method_a} vs {row.method_b} disagreed {row.count} times")
        realizations += spec.trials * len(GRID)
    assert realizations >= 2000
    print(f"\nACCEPTANCE 02 PASS: zero method disagreements over "
          f"{realizations} shared fixed-range realizations")


def test_03_zero_eigenvalue_count_equals_component_count():
    """Near-zero Laplacian eigenvalue count == union-find component count on
    10,000 random symmetric snapshots with N in [2, 250]."""
    rng = np.random.default_rng(MASTER_SEED)
    checked = 0
    sizes = []
    for _ in range(10_000):
        density = float(rng.uniform(0.2, 25.0)) / 1000.0
        scenario = TrafficScenario(density, SEGMENT_M)
        headways = sample_headways(scenario, rng)
        assignment = ranges.assign_ranges(FixedRange(float(rng.uniform(50.0, 1500.0))),
                                          scenario.vehicle_count, rng)
        adjacency = build_adjacency(spacing_matrix(headways), assignment)
        spectral = eigenvalues_symmetric(laplacian(adjacency), 1e-8 * adjacency.size)
        q_spectral = component_count(spectral)
        q_union_find = oracle_components(adjacency)
        assert q_spectral == q_union_find, (
            f"N={adjacency.size}: spectral {q_spectral} != union-find {q_union_find}")
        sizes.append(adjacency.size)
        checked += 1
    assert min(sizes) <= 5 and max(sizes) >= 240  # the size range was exercised
    print(f"\nACCEPTANCE 03 PASS: component counts agree on {checked} snapshots, "
          f"N spanned [{min(sizes)}, {max(sizes)}]")


def test_04_golden_three_vehicle_matrices(golden_adjacency):
    """The two-range three-vehicle witness reproduces every derived matrix
    and both directional verdicts exactly."""
    a = golden_adjacency
    assert np.array_equal(a.entries, np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], bool))
    up = project(a, "upward")
    down = project(a, "downward")
    assert np.array_equal(up.entries, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], bool))
    assert np.array_equal(down.entries, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], bool))
    sym_up, sym_down = symmetrize(up), symmetrize(down)
    assert np.array_equal(sym_up.entries, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], bool))
    assert np.array_equal(sym_down.entries, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], bool))
    lap_up, lap_down = laplacian(sym_up), laplacian(sym_down)
    assert np.array_equal(lap_up.entries,
                          np.array([[1., -1., 0.], [-1., 1., 0.], [0., 0., 0.]]))
    assert np.array_equal(lap_down.entries,
                          np.array([[1., -1., 0.], [-1., 2., -1.], [0., -1., 1.]]))
    assert is_connected_laplacian(lap_down) and not is_connected_laplacian(lap_up)
    print("\nACCEPTANCE 04 PASS: golden three-vehicle matrices and verdicts reproduced")


def test_05_directed_reductions():
    """(a) walk-power verdict == consecutive chain, exhaustively for N <= 7
    and on 10,080 random mixed-range snapshots; (b) symmetrized-spectral
    verdict == directed end-to-end reachability on 10,080 snapshots."""
    checked_patterns = 0
    for n in range(2, 8):
        for lengths in itertools.product(*[range(n - i) for i in range(n - 1)]):
            entries = np.zeros((n, n), dtype=bool)
            for i, length in enumerate(lengths):
                entries[i, i + 1:i + 1 + length] = True
            a = graphs.Adjacency(entries, "upward")
            assert is_connected_exponent(a) == consecutive_chain(a)
            checked_patterns += 1

    policies = (TwoTierRange(500.0, 1000.0, 0.5), UniformRange(750.0, 100.0))
    per_policy_trials = 420  # x 12 densities x 2 policies = 10,080

    random_a = 0
    for policy in policies:
        spec = ExperimentSpec(GRID, SEGMENT_M, policy, ("exponent", "chain"),
                              "upward", per_policy_trials, MASTER_SEED)
        for row in compare_methods(spec, workers=WORKERS):
            assert row.count == 0, (
                f"exponent vs chain disagreed at density {row.density_per_km}")
        random_a += spec.trials * len(GRID)
    assert random_a >= 10_000

    random_b = 0
    for policy in policies:
        spec = ExperimentSpec(GRID, SEGMENT_M, policy, ("laplacian", "oracle"),
                              "upward", per_policy_trials, MASTER_SEED)
        for row in compare_methods(spec, workers=WORKERS):
            assert row.count == 0, (
                f"spectral vs reachability disagreed at density {row.density_per_km}")
        random_b += spec.trials * len(GRID)
    assert random_b >= 10_000

    print(f"\nACCEPTANCE 05 PASS: exponent==chain on {checked_patterns} exhaustive "
          f"patterns + {random_a} random snapshots; spectral==reachability on "
          f"{random_b} random snapshots")


def test_06_chain_estimates_match_product_form():
    """Chain-method Monte-Carlo at 10,000 trials matches the range-averaged
    product form within three sigma at every grid point."""
    policies = (TwoTierRange(500.0, 1000.0, 0.5), UniformRange(750.0, 100.0))
    worst_sigma = 0.0
    for policy in policies:
        spec = ExperimentSpec(GRID, SEGMENT_M, policy, ("chain",),
                              "upward", 10_000, MASTER_SEED)
        rows = curve(spec)
        for density in GRID:
            row = rows[(density, "chain")]
            n = traffic.vehicle_count(density / 1000.0, SEGMENT_M)
            expected = analytic_pc_chain_mixed(density / 1000.0, n, policy)
            margin = binomial_margin(expected, row)
            deviation = abs(row.p_hat - expected)
            assert deviation <= margin, (
                f"{ranges.policy_label(policy)} density={density}: "
                f"|{row.p_hat:.5f} - {expected:.5f}| > {margin:.5f}")
            if margin > 0:
                worst_sigma = max(worst_sigma, 3.0 * deviation / margin)
    print(f"\nACCEPTANCE 06 PASS: chain estimates within 3 sigma of the product "
          f"form everywhere (worst point {worst_sigma:.2f} sigma)")


def test_07_two_tier_mix_tracks_fixed_mean_curve():
    """Two-tier 50/50 of 500/1000 m: spectral curve sits inside the
    [fixed-500, fixed-1000] closed-form envelope, is exactly monotone in the
    high-range fraction under the shared seed, matches the boundary curves
    at fractions 0 and 1, and tracks fixed-750 within 0.08."""
    curves = {}
    for fraction in (0.0, 0.5, 1.0):
        spec = ExperimentSpec(GRID, SEGMENT_M, TwoTierRange(500.0, 1000.0, fraction),
                              ("laplacian",), "upward", 2_000, MASTER_SEED)
        curves[fraction] = curve(spec)

    # shared master seed replays identical gaps and uniforms, so raising the
    # fraction can only upgrade ranges: per-point estimates must be ordered
    for density in GRID:
        low = curves[0.0][(density, "laplacian")].p_hat
        mid = curves[0.5][(density, "laplacian")].p_hat
        high = curves[1.0][(density, "laplacian")].p_hat
        assert low <= mid <= high, f"coupling violated at density {density}"

    # closed-form envelope: the coupling argument bounds the *true* mixed
    # probability by the fixed-500 and fixed-1000 closed forms exactly; the
    # estimate is allowed its own binomial fluctuation around that bound
    # (at saturated grid points p_hat is exactly 1 while the upper closed
    # form sits within ~1e-5 of 1, so a literal comparison is meaningless)
    for density in GRID:
        row = curves[0.5][(density, "laplacian")]
        lower, upper = fixed_pc(density, 500.0), fixed_pc(density, 1000.0)
        assert lower - binomial_margin(lower, row) <= row.p_hat, (
            f"below envelope at density {density}")
        assert row.p_hat <= upper + binomial_margin(upper, row), (
            f"above envelope at density {density}")

    for fraction, comm_range in ((0.0, 500.0), (1.0, 1000.0)):
        for density in GRID:
            row = curves[fraction][(density, "laplacian")]
            expected = fixed_pc(density, comm_range)
            assert abs(row.p_hat - expected) <= binomial_margin(expected, row), (
                f"fraction {fraction} off its fixed curve at density {density}")

    max_deviation = max(
        abs(curves[0.5][(density, "laplacian")].p_hat - fixed_pc(density, 750.0))
        for density in GRID)
    assert max_deviation <= 0.08, f"mixed curve strays {max_deviation:.4f} from fixed-750"
    print(f"\nACCEPTANCE 07 PASS: 50/50 mix inside envelope, coupled monotone, "
          f"boundaries match; max |mix - fixed-750| = {max_deviation:.4f} (<= 0.08)")


def test_08_uniform_ranges_track_fixed_mean_curves():
    """Uniform random ranges (std 100 m): spectral curves track the fixed
    curve at the distribution mean within 0.05 for means 500/750/1000 m."""
    overall = 0.0
    per_mean = {}
    for mean in (500.0, 750.0, 1000.0):
        spec = ExperimentSpec(GRID, SEGMENT_M, UniformRange(mean, 100.0),
                              ("laplacian",), "upward", 2_000, MASTER_SEED)
        rows = curve(spec)
        deviation = max(abs(rows[(density, "laplacian")].p_hat - fixed_pc(density, mean))
                        for density in GRID)
        per_mean[mean] = deviation
        overall = max(overall, deviation)
        assert deviation <= 0.05, f"mean {mean}: max deviation {deviation:.4f} > 0.05"
    detail = ", ".join(f"{int(m)} m: {d:.4f}" for m, d in per_mean.items())
    print(f"\nACCEPTANCE 08 PASS: uniform-range curves track fixed-mean curves "
          f"({detail}; tolerance 0.05)")


def test_09_even_mix_needs_more_transmit_power():
    """Mean square range of the 50/50 mix exceeds the fixed-750 value."""
    mixed = RangeAssignment(np.array([500.0] * 50 + [1000.0] * 50))
    fixed = RangeAssignment(np.full(100, 750.0))
    assert power_proxy(mixed, 2.0) == 625_000.0
    assert power_proxy(fixed, 2.0) == 562_500.0
    assert power_proxy(mixed, 2.0) > power_proxy(fixed, 2.0)
    print("\nACCEPTANCE 09 PASS: 50/50 mix power proxy 625000 > fixed-750 562500")


def test_10_preset_output_is_deterministic(tmp_path):
    """A preset re-run with the same master seed emits byte-identical CSV
    for one worker and for several."""
    one = run_figure_preset("fig1", master_seed=MASTER_SEED, trials_traversal=40,
                            trials_spectral=10, outdir=tmp_path / "w1", workers=1)
    many = run_figure_preset("fig1", master_seed=MASTER_SEED, trials_traversal=40,
                             trials_spectral=10, outdir=tmp_path / "w2", workers=2)
    again = run_figure_preset("fig1", master_seed=MASTER_SEED, trials_traversal=40,
                              trials_spectral=10, outdir=tmp_path / "w3", workers=2)
    assert one.read_bytes() == many.read_bytes() == again.read_bytes()
    print("\nACCEPTANCE 10 PASS: preset CSV byte-identical across reruns and "
          "worker counts")
