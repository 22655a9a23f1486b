import numpy as np
import pytest

from vanetconn import ranges, traffic
from vanetconn.graphs import (
    Adjacency,
    build_adjacency,
    laplacian,
    project,
    symmetrize,
)

from conftest import random_snapshot

GOLDEN_FULL = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=bool)
GOLDEN_SYM_UP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)
GOLDEN_SYM_DOWN = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
GOLDEN_LAP_UP = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
GOLDEN_LAP_DOWN = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


class TestBuildAdjacency:
    def test_golden_witness(self, golden_adjacency):
        assert np.array_equal(golden_adjacency.entries, GOLDEN_FULL)
        assert golden_adjacency.direction == "full"

    def test_huge_range_gives_complete_graph(self):
        spacing = traffic.spacing_matrix(traffic.HeadwayVector(np.array([100.0, 100.0, 100.0])))
        assignment = ranges.RangeAssignment(np.full(4, 10_000.0))
        a = build_adjacency(spacing, assignment)
        assert np.array_equal(a.entries, ~np.eye(4, dtype=bool))

    def test_tiny_range_gives_empty_graph(self):
        spacing = traffic.spacing_matrix(traffic.HeadwayVector(np.array([100.0, 100.0])))
        assignment = ranges.RangeAssignment(np.full(3, 50.0))
        a = build_adjacency(spacing, assignment)
        assert not a.entries.any()

    def test_dimension_mismatch_rejected(self):
        spacing = traffic.spacing_matrix(traffic.HeadwayVector(np.array([100.0, 100.0])))
        with pytest.raises(ValueError):
            build_adjacency(spacing, ranges.RangeAssignment(np.full(4, 500.0)))

    def test_fixed_range_matches_plain_threshold(self):
        # with one shared range the build equals S <= R with a zeroed diagonal
        rng = np.random.default_rng(0)
        _, headways, assignment = random_snapshot(rng, 0.01, 4000.0,
                                                  ranges.FixedRange(600.0))
        spacing = traffic.spacing_matrix(headways)
        a = build_adjacency(spacing, assignment)
        expected = spacing.entries <= 600.0
        np.fill_diagonal(expected, False)
        assert np.array_equal(a.entries, expected)
        assert np.array_equal(a.entries, a.entries.T)

    def test_monotone_in_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scenario = traffic.TrafficScenario(0.01, 3000.0)
            headways = traffic.sample_headways(scenario, rng)
            spacing = traffic.spacing_matrix(headways)
            base = rng.uniform(100, 900, scenario.vehicle_count)
            bigger = base + rng.uniform(0, 400, scenario.vehicle_count)
            small = build_adjacency(spacing, ranges.RangeAssignment(base))
            large = build_adjacency(spacing, ranges.RangeAssignment(bigger))
            assert np.all(large.entries >= small.entries)

    def test_rows_are_prefix_patterns(self):
        # once a transmitter misses vehicle j it misses everything farther out
        rng = np.random.default_rng(2)
        for _ in range(20):
            _, headways, assignment = random_snapshot(
                rng, 0.012, 5000.0, ranges.TwoTierRange(300.0, 900.0, 0.5))
            a = build_adjacency(traffic.spacing_matrix(headways), assignment)
            n = a.size
            for i in range(n):
                ahead = a.entries[i, i + 1:].astype(int)
                assert np.all(np.diff(ahead) <= 0)
                behind = a.entries[i, :i][::-1].astype(int)
                assert np.all(np.diff(behind) <= 0)


class TestProjectSymmetrize:
    def test_upward_projection(self, golden_adjacency):
        up = project(golden_adjacency, "upward")
        assert np.array_equal(up.entries, np.triu(GOLDEN_FULL, 1))
        assert not np.tril(up.entries).any()  # strictly upper triangular

    def test_downward_projection(self, golden_adjacency):
        down = project(golden_adjacency, "downward")
        assert np.array_equal(down.entries, np.tril(GOLDEN_FULL, -1))
        assert not np.triu(down.entries).any()  # strictly lower triangular

    def test_symmetric_input_projections_are_transposes(self):
        entries = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=bool)
        a = Adjacency(entries, "full")
        up = project(a, "upward")
        down = project(a, "downward")
        assert np.array_equal(up.entries, down.entries.T)

    def test_symmetrize_golden(self, golden_adjacency):
        assert np.array_equal(symmetrize(project(golden_adjacency, "upward")).entries,
                              GOLDEN_SYM_UP)
        assert np.array_equal(symmetrize(project(golden_adjacency, "downward")).entries,
                              GOLDEN_SYM_DOWN)

    def test_symmetrize_idempotent_on_symmetric_part(self):
        entries = np.triu(np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=bool), 1)
        a = Adjacency(entries, "upward")
        once = symmetrize(a)
        assert np.array_equal(once.entries, once.entries.T)
        assert np.array_equal(np.triu(once.entries, 1), entries)

    def test_projection_preconditions(self, golden_adjacency):
        up = project(golden_adjacency, "upward")
        with pytest.raises(ValueError):
            project(up, "upward")  # already projected
        with pytest.raises(ValueError):
            symmetrize(golden_adjacency)  # not projected yet


class TestLaplacian:
    def test_golden_pseudo_laplacians(self, golden_adjacency):
        lap_up = laplacian(symmetrize(project(golden_adjacency, "upward")))
        lap_down = laplacian(symmetrize(project(golden_adjacency, "downward")))
        assert np.array_equal(lap_up.entries, GOLDEN_LAP_UP)
        assert np.array_equal(lap_down.entries, GOLDEN_LAP_DOWN)

    def test_zero_adjacency_gives_zero_laplacian(self):
        lap = laplacian(Adjacency(np.zeros((4, 4), dtype=bool), "full"))
        assert not lap.entries.any()

    def test_rejects_asymmetric_input(self, golden_adjacency):
        with pytest.raises(ValueError):
            laplacian(golden_adjacency)  # witness is directed
        with pytest.raises(ValueError):
            laplacian(project(golden_adjacency, "upward"))

    def test_row_sums_and_degrees(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, headways, assignment = random_snapshot(rng, 0.01, 4000.0,
                                                      ranges.FixedRange(500.0))
            a = build_adjacency(traffic.spacing_matrix(headways), assignment)
            lap = laplacian(a)
            off = lap.entries[~np.eye(lap.size, dtype=bool)]
            assert np.all((off == 0.0) | (off == -1.0))
            assert np.all(np.abs(lap.entries.sum(axis=1)) <= 1e-12)
            assert np.array_equal(np.diagonal(lap.entries), a.entries.sum(axis=1))

