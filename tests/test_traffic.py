import math

import numpy as np
import pytest

from vanetconn.traffic import (
    HeadwayVector,
    TrafficScenario,
    sample_headways,
    spacing_matrix,
    vehicle_count,
)


def scenario_with_gap_count(density_m, gap_count):
    """Scenario whose derived vehicle count yields exactly gap_count gaps."""
    return TrafficScenario(density_m, (gap_count + 1) / density_m)


class TestVehicleCount:
    def test_direct_rule(self):
        assert vehicle_count(0.010, 10_000.0) == 100
        assert vehicle_count(0.025, 10_000.0) == 250

    def test_floor_clamp(self):
        assert vehicle_count(0.0001, 10_000.0) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            vehicle_count(0.0, 10_000.0)
        with pytest.raises(ValueError):
            vehicle_count(0.01, -5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="density"):
            vehicle_count(bad, 10_000.0)
        with pytest.raises(ValueError, match="segment_length"):
            vehicle_count(0.01, bad)

    def test_rejects_overflowing_count(self):
        with pytest.raises(ValueError, match="overflows"):
            vehicle_count(1e300, 1e300)

    def test_scenario_derives_count(self):
        s = TrafficScenario(0.010, 10_000.0)
        assert s.vehicle_count == 100


class TestSampleHeadways:
    def test_deterministic_given_seed(self):
        s = TrafficScenario(0.01, 10_000.0)
        a = sample_headways(s, np.random.default_rng(42))
        b = sample_headways(s, np.random.default_rng(42))
        assert np.array_equal(a.gaps, b.gaps)

    def test_all_gaps_strictly_positive(self):
        s = TrafficScenario(0.02, 10_000.0)
        for seed in range(5):
            gaps = sample_headways(s, np.random.default_rng(seed)).gaps
            assert np.all(gaps > 0)

    def test_gap_count_matches_scenario(self):
        s = TrafficScenario(0.01, 10_000.0)
        assert sample_headways(s, np.random.default_rng(0)).gaps.size == 99

    def test_mean_within_one_percent_at_1e6(self):
        s = scenario_with_gap_count(0.01, 10 ** 6)
        gaps = sample_headways(s, np.random.default_rng(7)).gaps
        assert abs(gaps.mean() - 100.0) < 1.0

    def test_empirical_cdf_matches_exponential(self):
        # Kolmogorov-Smirnov distance against 1 - exp(-rho x) below 0.01
        rho = 0.01
        s = scenario_with_gap_count(rho, 10 ** 5)
        gaps = np.sort(sample_headways(s, np.random.default_rng(11)).gaps)
        n = gaps.size
        model = 1.0 - np.exp(-rho * gaps)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - model), np.max(model - (grid - 1.0 / n)))
        assert ks < 0.01, f"KS distance {ks:.4f}"

    def test_headway_vector_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HeadwayVector(np.array([100.0, 0.0]))
        with pytest.raises(ValueError):
            HeadwayVector(np.array([]))


class TestSpacingMatrix:
    def test_two_gap_example(self):
        s = spacing_matrix(HeadwayVector(np.array([200.0, 300.0])))
        assert np.array_equal(
            s.entries, np.array([[0, 200, 500], [200, 0, 300], [500, 300, 0]], dtype=float)
        )

    def test_single_gap_base_case(self):
        s = spacing_matrix(HeadwayVector(np.array([42.0])))
        assert np.array_equal(s.entries, np.array([[0.0, 42.0], [42.0, 0.0]]))

    def test_corner_is_total_span(self):
        s = TrafficScenario(0.01, 5_000.0)
        headways = sample_headways(s, np.random.default_rng(3))
        sp = spacing_matrix(headways)
        assert sp.entries[0, -1] == np.sum(headways.gaps)

    def test_structural_invariants(self):
        sc = TrafficScenario(0.015, 8_000.0)
        s = spacing_matrix(sample_headways(sc, np.random.default_rng(5))).entries
        assert not np.diagonal(s).any()
        assert np.array_equal(s, s.T)
        assert np.all(s >= 0)

    def test_additivity_is_exact_on_generated_instances(self):
        # S[i,k] == S[i,j] + S[j,k] bit-exactly, for every i < j < k
        for seed in (0, 1, 2):
            sc = TrafficScenario(0.02, 10_000.0)
            sp = spacing_matrix(sample_headways(sc, np.random.default_rng(seed)))
            s = sp.entries
            n = sp.size
            for j in range(1, n - 1):
                assert np.array_equal(s[:j, j + 1:], s[:j, j:j + 1] + s[j:j + 1, j + 1:])

    def test_rows_strictly_increase_rightward(self):
        sc = TrafficScenario(0.01, 6_000.0)
        sp = spacing_matrix(sample_headways(sc, np.random.default_rng(9)))
        upper_diffs = np.diff(sp.entries, axis=1)
        n = sp.size
        for i in range(n):
            assert np.all(upper_diffs[i, i:] > 0)
