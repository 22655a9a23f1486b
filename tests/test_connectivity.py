import itertools
import math
import warnings

import numpy as np
import pytest

from vanetconn import cli, connectivity, graphs, montecarlo, ranges, traffic
from vanetconn.connectivity import (
    AnalyticModel,
    analytic_pc,
    analytic_pc_chain_mixed,
    component_count,
    consecutive_chain,
    eigenvalues_symmetric,
    expected_headway_cdf,
    headway_cdf,
    is_connected_exponent,
    is_connected_laplacian,
    line_chain_rows,
    line_reachable_rows,
    min_range_for_target,
    oracle_components,
    oracle_reachable,
)
from vanetconn.graphs import Adjacency, build_adjacency, laplacian, project, symmetrize
from vanetconn.ranges import FixedRange, TwoTierRange, UniformRange

from conftest import random_snapshot

# Frozen closed-form reference values, computed independently with 40-digit
# arithmetic from (1 - e^(-rho R))^(N-1) and its range-averaged variant.
APC_RHO01_R1000_N100 = 0.9955153909483770
APC_RHO01_R500_N100 = 0.5120596301951026
APC_RHO01_R750_N100 = 0.9467023908486271
CHAIN_2TIER_50_50 = 0.7143756143091208       # rho=0.01, N=100, 500/1000 m
CHAIN_UNIFORM_750_100 = 0.9170590392947923   # rho=0.01, N=100, mean 750 std 100
# E[F(R)] for uniform ranges mean 500 std 100 at rho=0.004, via 40-digit
# quadrature over the support interval (matches the closed form).
EF_UNIFORM_500_100_RHO004 = 0.8535750608335829


def path_adjacency(n, direction="full"):
    entries = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        entries[i, i + 1] = True
        if direction == "full":
            entries[i + 1, i] = True
    return Adjacency(np.triu(entries, 1) if direction == "upward" else entries, direction)


def upward_interval_patterns(n):
    """Every strictly-upper-triangular pattern whose rows are prefix runs."""
    for entries in cli._interval_patterns(n):
        yield Adjacency(entries, "upward")


def walk_exists_dfs(entries, length, src, dst):
    """Brute-force exact-length walk existence by depth-first enumeration."""
    if length == 0:
        return src == dst
    return any(entries[src, mid] and walk_exists_dfs(entries, length - 1, mid, dst)
               for mid in range(entries.shape[0]))


class TestSpectral:
    def test_golden_downward_spectrum(self, golden_adjacency):
        lap = laplacian(symmetrize(project(golden_adjacency, "downward")))
        spectral = eigenvalues_symmetric(lap)
        # characteristic polynomial of the 3-path Laplacian: roots 0, 1, 3
        assert np.allclose(spectral.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)
        assert component_count(spectral) == 1

    def test_golden_upward_spectrum(self, golden_adjacency):
        lap = laplacian(symmetrize(project(golden_adjacency, "upward")))
        spectral = eigenvalues_symmetric(lap)
        # 2x2 connected block (eigenvalues 0, 2) plus one isolated vehicle
        assert np.allclose(spectral.eigenvalues, [0.0, 0.0, 2.0], atol=1e-10)
        assert component_count(spectral) == 2

    def test_zero_matrix_spectrum(self):
        lap = laplacian(Adjacency(np.zeros((5, 5), dtype=bool), "full"))
        spectral = eigenvalues_symmetric(lap)
        assert np.allclose(spectral.eigenvalues, 0.0, atol=1e-12)
        assert component_count(spectral) == 5

    def test_path_graph_reference_spectrum(self):
        # eigenvalues of the n-path Laplacian are 2 - 2 cos(pi k / n)
        n = 10
        lap = laplacian(path_adjacency(n))
        spectral = eigenvalues_symmetric(lap)
        reference = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
        assert np.allclose(spectral.eigenvalues, reference, rtol=1e-10, atol=1e-10)

    def test_complete_graph_reference_spectrum(self):
        n = 8
        lap = laplacian(Adjacency(~np.eye(n, dtype=bool), "full"))
        spectral = eigenvalues_symmetric(lap)
        reference = np.array([0.0] + [float(n)] * (n - 1))
        assert np.allclose(spectral.eigenvalues, reference, rtol=1e-10, atol=1e-10)

    def test_connected_verdicts(self, golden_adjacency):
        lap_down = laplacian(symmetrize(project(golden_adjacency, "downward")))
        lap_up = laplacian(symmetrize(project(golden_adjacency, "upward")))
        assert is_connected_laplacian(lap_down)
        assert not is_connected_laplacian(lap_up)

    def test_two_vehicle_link_spectrum(self):
        lap = laplacian(path_adjacency(2))
        spectral = eigenvalues_symmetric(lap)
        assert spectral.lambda2 == pytest.approx(2.0, abs=1e-12)
        assert is_connected_laplacian(lap)

    def test_rejects_asymmetric(self):
        bad = graphs.Laplacian(np.array([[1.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eigenvalues_symmetric(bad)

    def test_rejects_non_laplacian_spectra(self):
        # symmetric but positive definite: no zero eigenvalue exists
        not_lap = graphs.Laplacian(np.eye(3))
        with pytest.raises(ValueError):
            eigenvalues_symmetric(not_lap)

    @pytest.mark.parametrize("entries, reason", [
        ([[0.0]], "symmetric matrix of at least 2x2"),
        ([[1.0, -1.0], [0.0, 0.0]], "symmetric matrix of at least 2x2"),
        (np.eye(3), "D - A"),
        ([[0.5, -0.5], [-0.5, 0.5]], "D - A"),  # a link weight other than 1
        ([[-1.0, 0.0], [0.0, -1.0]], "D - A"),  # a negative degree
    ], ids=["1x1", "asymmetric", "eye3", "weighted", "negative_diagonal"])
    def test_connected_verdict_refuses_non_laplacians(self, entries, reason):
        with pytest.raises(ValueError, match=reason):
            is_connected_laplacian(graphs.Laplacian(np.array(entries)))


def two_cliques(n, bridged):
    """Two complete halves of an n-vehicle graph, joined by one edge or not."""
    half = n // 2
    entries = np.zeros((n, n), dtype=bool)
    entries[:half, :half] = entries[half:, half:] = True
    np.fill_diagonal(entries, False)
    entries[half - 1, half] = entries[half, half - 1] = bridged
    return Adjacency(entries, "full")


class TestZeroToleranceAtLargeN:
    # a connected path's algebraic connectivity ~pi^2/n^2 falls below the
    # size-only tolerance 1e-8 n from N ~ 1,000 on
    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("graph", ["path", "bridged_cliques", "split_cliques"])
    def test_spectral_components_match_union_find(self, n, graph):
        if graph == "path":
            a = path_adjacency(n)
        else:
            a = two_cliques(n, bridged=graph == "bridged_cliques")
        lap = laplacian(a)
        components = oracle_components(a)
        assert component_count(eigenvalues_symmetric(lap)) == components
        assert is_connected_laplacian(lap) == (components == 1)


def line_shape(n, graph):
    """Positions and ranges on a line whose symmetrized upward links form
    ``graph``, and that graph's adjacency."""
    half = n // 2
    index = np.arange(n, dtype=np.float64)
    if graph in ("path", "cut_path"):
        a = path_adjacency(n)
        if graph == "cut_path":  # one spacing of 2 m that no 1 m range spans
            a.entries[half - 1, half] = a.entries[half, half - 1] = False
        return index + (index >= half) * (graph == "cut_path"), np.ones(n), a
    # halves n + 1 m apart; each vehicle reaches the end of its own half
    positions = index + n * (index >= half)
    ranges = np.where(index < half, half - 1 - index, n - 1 - index) + 0.5
    if graph == "bridged_cliques":  # exactly the first vehicle of the far half
        ranges[half - 1] = n + 1.0
    return positions, ranges, two_cliques(n, bridged=graph == "bridged_cliques")


class TestInertiaAtLargeN:
    # a disconnected snapshot puts the shifted Laplacian's lowest eigenvalue
    # near -tol, where the stacked Cholesky of the run path must still fail
    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("graph", ["path", "cut_path", "bridged_cliques", "split_cliques"])
    def test_dense_rows_verdict_matches_union_find(self, n, graph):
        x, r, a = line_shape(n, graph)
        upward = project(build_adjacency(
            traffic.spacing_matrix(traffic.HeadwayVector(np.diff(x))),
            ranges.RangeAssignment(r)), "upward")
        assert np.array_equal(symmetrize(upward).entries, a.entries)
        verdicts = montecarlo._dense_rows(x[None], r[None], ["laplacian"])
        assert verdicts["laplacian"].tolist() == [oracle_components(a) == 1]


def test_stacked_cholesky_leaves_nan_in_failed_matrix_only():
    # every laplacian verdict relies on numpy's private gufunc:
    # a stack with a matrix that is not positive definite neither raises nor
    # warns under errstate(invalid="ignore"), and only that matrix is NaN
    definite = np.array([[4.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    singular = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            factor = connectivity._umath_linalg.cholesky_lo(
                np.stack((definite, singular, definite)), signature="d->d")
    assert np.isnan(factor[1]).all()
    assert not np.isnan(factor[[0, 2]]).any()
    assert np.allclose(factor[0], np.linalg.cholesky(definite))
    assert np.array_equal(factor[0], factor[2])


class TestBoolPower:
    def test_three_path_two_step(self):
        a = path_adjacency(3)
        reach = connectivity._bool_power(a.entries, 2)
        assert reach[0, 2]

    def test_power_one_is_adjacency(self, golden_adjacency):
        assert np.array_equal(connectivity._bool_power(golden_adjacency.entries, 1),
                              golden_adjacency.entries)

    def test_upper_triangular_full_power_hits_only_corner(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            entries = np.triu(rng.random((n, n)) < 0.6, 1)
            reach = connectivity._bool_power(entries, n - 1)
            hits = np.argwhere(reach)
            assert all((i, j) == (0, n - 1) for i, j in hits)

    def test_rejects_zero_length(self, golden_adjacency):
        with pytest.raises(ValueError):
            connectivity._bool_power(golden_adjacency.entries, 0)

    def test_matches_dfs_enumeration_small(self):
        # every 3-vehicle directed pattern, every length up to 4
        for bits in range(2 ** 6):
            entries = np.zeros((3, 3), dtype=bool)
            positions = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
            for b, (i, j) in enumerate(positions):
                entries[i, j] = bool(bits >> b & 1)
            a = Adjacency(entries, "full")
            for k in range(1, 5):
                reach = connectivity._bool_power(a.entries, k)
                for i in range(3):
                    for j in range(3):
                        assert reach[i, j] == walk_exists_dfs(entries, k, i, j)

    def test_matches_dfs_enumeration_random(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(4, 8))
            entries = rng.random((n, n)) < 0.35
            np.fill_diagonal(entries, False)
            a = Adjacency(entries, "full")
            k = int(rng.integers(1, 7))
            reach = connectivity._bool_power(a.entries, k)
            src, dst = rng.integers(0, n, 2)
            assert reach[src, dst] == walk_exists_dfs(entries, k, int(src), int(dst))

    def test_kept_row_steps_equal_full_power(self):
        # one kept row stops squaring once 8 k <= n; every k from 1 to 3n
        # meets that switch on both sides, against the all-rows power, which
        # only squares.  Sparse general graphs keep long walks patchy.
        rng = np.random.default_rng(3)
        outcomes = set()
        for n in range(2, 41):
            general = rng.random((3, n, n)) < rng.uniform(0.5, 2.5, (3, 1, 1)) / n
            general[:, np.arange(n), np.arange(n)] = False
            upper = np.triu(rng.random((3, n, n)) < rng.uniform(0.2, 0.9, (3, 1, 1)), 1)
            for entries in (general, upper):
                for k in range(1, 3 * n + 1):
                    row = connectivity._bool_power(entries, k, slice(0, 1))
                    assert np.array_equal(row, connectivity._bool_power(entries, k)[:, :1])
                    outcomes.update(row[:, 0, -1].tolist())
                    if n ** k <= 5_000:
                        assert row[0, 0].tolist() == [walk_exists_dfs(entries[0], k, 0, j)
                                                      for j in range(n)]
        assert outcomes == {False, True}

    def test_bool_matmul_caps_walk_counts_at_one(self):
        rng = np.random.default_rng(4)
        x = (rng.random((2, 30, 30)) < 0.4).astype(np.float32)
        counts = x.astype(np.int64) @ x.astype(np.int64)
        product = connectivity._bool_matmul(x, x)
        assert counts.max() > 1
        assert product.dtype == np.float32
        assert np.array_equal(product, (counts > 0).astype(np.float32))


class TestExponentVerdict:
    def test_full_line_graph_connected(self):
        assert is_connected_exponent(path_adjacency(6))

    @pytest.mark.parametrize("policy", [FixedRange(300.0), TwoTierRange(150.0, 400.0, 0.5)],
                             ids=["undirected", "upward"])
    def test_row_walk_power_equals_full_power(self, policy):
        rng = np.random.default_rng(21)
        verdicts = set()
        for _ in range(40):
            _, headways, assignment = random_snapshot(
                rng, rng.uniform(0.004, 0.02), rng.uniform(500.0, 6_000.0), policy)
            a = build_adjacency(traffic.spacing_matrix(headways), assignment)
            if isinstance(policy, TwoTierRange):
                a = project(a, "upward")
            n = a.size
            expected = bool(connectivity._bool_power(a.entries, n - 1)[0, n - 1])
            assert is_connected_exponent(a) == expected
            verdicts.add(expected)
        assert verdicts == {False, True}

    def test_unreachable_last_vehicle(self):
        entries = np.zeros((4, 4), dtype=bool)
        entries[0, 1] = entries[1, 0] = entries[1, 2] = entries[2, 1] = True
        assert not is_connected_exponent(Adjacency(entries, "full"))

    def test_golden_upward_disconnected(self, golden_adjacency):
        assert not is_connected_exponent(project(golden_adjacency, "upward"))

    def test_relaxed_mode_detects_shorter_walks(self):
        # a single long link: strict exact-length test fails, relaxed passes
        entries = np.zeros((3, 3), dtype=bool)
        entries[0, 2] = True
        a = Adjacency(entries, "upward")
        assert not is_connected_exponent(a)


class TestOracles:
    def test_components_golden(self, golden_adjacency):
        assert oracle_components(symmetrize(project(golden_adjacency, "upward"))) == 2

    def test_components_complete_and_empty(self):
        assert oracle_components(Adjacency(~np.eye(6, dtype=bool), "full")) == 1
        assert oracle_components(Adjacency(np.zeros((5, 5), dtype=bool), "full")) == 5

    def test_components_rejects_directed(self, golden_adjacency):
        with pytest.raises(ValueError):
            oracle_components(project(golden_adjacency, "upward"))

    def test_reachable_golden(self, golden_adjacency):
        down = project(golden_adjacency, "downward")
        up = project(golden_adjacency, "upward")
        assert oracle_reachable(down, 2, 0)
        assert not oracle_reachable(up, 0, 2)

    def test_reachable_self(self, golden_adjacency):
        assert oracle_reachable(golden_adjacency, 1, 1)

    def test_reachable_bounds(self, golden_adjacency):
        with pytest.raises(IndexError):
            oracle_reachable(golden_adjacency, 0, 3)


class TestChain:
    def test_full_line_graph(self):
        assert consecutive_chain(path_adjacency(5, "upward"))

    def test_two_vehicles(self):
        assert consecutive_chain(path_adjacency(2, "upward"))

    def test_bridge_does_not_rescue_chain(self):
        # gaps [300, 200], ranges [600, 100, 50]: vehicle 1 cannot reach 2,
        # but vehicle 0 covers both; reachability holds, the chain is broken
        spacing = traffic.spacing_matrix(traffic.HeadwayVector(np.array([300.0, 200.0])))
        assignment = ranges.RangeAssignment(np.array([600.0, 100.0, 50.0]))
        up = project(build_adjacency(spacing, assignment), "upward")
        assert not consecutive_chain(up)
        assert oracle_reachable(up, 0, 2)
        assert not is_connected_exponent(up)

    def test_requires_upward_input(self, golden_adjacency):
        with pytest.raises(ValueError):
            consecutive_chain(golden_adjacency)


def dense_traversal(headways, assignment):
    """(reachable, components == 1, chain) from the dense n x n route."""
    full = build_adjacency(traffic.spacing_matrix(headways), assignment)
    up = project(full, "upward")
    symmetric = np.array_equal(full.entries, full.entries.T)
    connected = oracle_components(full) == 1 if symmetric else None
    return oracle_reachable(up, 0, up.size - 1), connected, consecutive_chain(up)


def line_traversal(headways, assignment):
    """(reachable, chain) from the line kernels on a stack of one snapshot."""
    positions, ranges_ = headways.positions[None], assignment.ranges[None]
    return (bool(line_reachable_rows(positions, ranges_)[0]),
            bool(line_chain_rows(positions, ranges_)[0]))


class TestLineKernels:
    def test_rounded_sum_tie_is_not_a_link(self):
        # x_1 + R_1 rounds to x_2 = 1750 in float64, but x_2 - x_1 = 750 > R_1
        r1 = 750.0 - 2.0 ** -43
        assert 1000.0 + r1 == 1750.0 and 1750.0 - 1000.0 > r1
        headways = traffic.HeadwayVector(np.array([1000.0, 750.0]))
        assignment = ranges.RangeAssignment(np.array([1000.0, r1, 500.0]))
        assert dense_traversal(headways, assignment) == (False, None, False)
        assert line_traversal(headways, assignment) == (False, False)

    def test_exact_spacing_tie_is_a_link(self):
        headways = traffic.HeadwayVector(np.array([1000.0, 750.0]))
        assignment = ranges.RangeAssignment(np.array([1000.0, 750.0, 500.0]))
        assert dense_traversal(headways, assignment) == (True, None, True)
        assert line_traversal(headways, assignment) == (True, True)

    def test_rounded_sum_one_ulp_short_still_links(self):
        # off-grid positions [0, 2^-53, 1, 1 + 2^-52]: x_1 + R_1 rounds to 1,
        # an ulp below x_3, yet x_3 - x_1 rounds to 1 <= R_1, so 1 -> 3 links
        headways = traffic.HeadwayVector(np.array([2.0 ** -53, 1.0, 2.0 ** -52]))
        assignment = ranges.RangeAssignment(np.array([2.0 ** -53, 1.0, 2.0 ** -53, 1.0]))
        positions = headways.positions
        assert positions[1] + 1.0 < positions[3]
        assert dense_traversal(headways, assignment) == (True, None, False)
        assert line_traversal(headways, assignment) == (True, False)

    def test_bridge_reaches_past_broken_chain(self):
        headways = traffic.HeadwayVector(np.array([300.0, 200.0]))
        assignment = ranges.RangeAssignment(np.array([600.0, 100.0, 50.0]))
        assert line_traversal(headways, assignment) == (True, False)

    def test_rows_judged_alone(self):
        # one block holding the tie, rounded-tie and bridge rows of this class
        # and random rows: each row gets the dense route's verdict
        rng = np.random.default_rng(14)
        gaps = [np.array([1000.0, 750.0])] * 2 + [np.array([300.0, 200.0])]
        ranges_ = [np.array([1000.0, 750.0, 500.0]), np.array([1000.0, 750.0 - 2.0 ** -43, 500.0]),
                   np.array([600.0, 100.0, 50.0])]
        for _ in range(40):
            gaps.append(rng.uniform(100.0, 900.0, 2))
            ranges_.append(rng.uniform(100.0, 900.0, 3))
        positions = np.stack([traffic.HeadwayVector(g).positions for g in gaps])
        reach_rows = line_reachable_rows(positions, np.stack(ranges_))
        chain_rows = line_chain_rows(positions, np.stack(ranges_))
        assert list(reach_rows[:3]) == [True, False, True]
        for row, (g, r) in enumerate(zip(gaps, ranges_)):
            reachable, _, chain = dense_traversal(traffic.HeadwayVector(g),
                                                  ranges.RangeAssignment(r))
            assert (reach_rows[row], chain_rows[row]) == (reachable, chain)

    def test_rejects_size_mismatch(self):
        positions = traffic.HeadwayVector(np.array([300.0, 200.0])).positions[None]
        ranges_ = np.array([[600.0, 100.0]])
        with pytest.raises(ValueError):
            line_chain_rows(positions, ranges_)
        with pytest.raises(ValueError):
            line_reachable_rows(positions, ranges_)

    @pytest.mark.parametrize("policy", [
        FixedRange(750.0),
        TwoTierRange(500.0, 1000.0, 0.5),
        UniformRange(750.0, 100.0),
        UniformRange(750.0, 100.0, (650.0, 850.0)),
    ], ids=["fixed", "two_tier", "uniform", "uniform_discrete"])
    def test_matches_dense_route(self, policy):
        rng = np.random.default_rng(11)
        for density_per_km in np.linspace(2.0, 25.0, 24):
            for _ in range(8):
                _, headways, assignment = random_snapshot(
                    rng, density_per_km / 1000.0, 10_000.0, policy)
                reachable, connected, chain = dense_traversal(headways, assignment)
                line = line_traversal(headways, assignment)
                assert line == (reachable, chain)
                if isinstance(policy, FixedRange):
                    assert line[1] == connected

    def test_matches_dense_route_on_long_roads(self):
        # continuous uniform ranges fall off the 2^-26 m grid
        rng = np.random.default_rng(12)
        outcomes = set()
        for density_per_km in (10.0, 15.0, 20.0):
            for _ in range(5):
                _, headways, assignment = random_snapshot(
                    rng, density_per_km / 1000.0, 100_000.0, UniformRange(500.0, 100.0))
                assert 1_000 <= headways.vehicle_count <= 2_000
                reachable, _, chain = dense_traversal(headways, assignment)
                assert line_traversal(headways, assignment) == (reachable, chain)
                outcomes.add(reachable)
        assert outcomes == {False, True}


class TestDirectedReductions:
    def test_exponent_equals_chain_on_interval_patterns(self):
        for n in range(2, 7):
            for a in upward_interval_patterns(n):
                assert is_connected_exponent(a) == consecutive_chain(a)

    def test_exponent_equals_chain_on_random_realizations(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            _, headways, assignment = random_snapshot(
                rng, rng.uniform(0.004, 0.02), 4000.0, TwoTierRange(400.0, 900.0, 0.5))
            up = project(build_adjacency(traffic.spacing_matrix(headways), assignment),
                         "upward")
            assert is_connected_exponent(up) == consecutive_chain(up)

    def test_symmetrized_spectral_equals_directed_reachability(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            _, headways, assignment = random_snapshot(
                rng, rng.uniform(0.004, 0.02), 4000.0, UniformRange(600.0, 120.0))
            up = project(build_adjacency(traffic.spacing_matrix(headways), assignment),
                         "upward")
            spectral = is_connected_laplacian(laplacian(symmetrize(up)))
            assert spectral == oracle_reachable(up, 0, up.size - 1)

    def test_verdict_ordering(self):
        # chain implies end-to-end reachability implies symmetrized connectivity
        rng = np.random.default_rng(4)
        for _ in range(150):
            _, headways, assignment = random_snapshot(
                rng, rng.uniform(0.004, 0.02), 4000.0, TwoTierRange(300.0, 800.0, 0.4))
            up = project(build_adjacency(traffic.spacing_matrix(headways), assignment),
                         "upward")
            chain = consecutive_chain(up)
            reach = oracle_reachable(up, 0, up.size - 1)
            spectral = is_connected_laplacian(laplacian(symmetrize(up)))
            if chain:
                assert reach
            if reach:
                assert spectral

    def test_component_count_matches_union_find(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            _, headways, assignment = random_snapshot(
                rng, rng.uniform(0.002, 0.02), 5000.0,
                FixedRange(float(rng.uniform(80, 900))))
            a = build_adjacency(traffic.spacing_matrix(headways), assignment)
            spectral = eigenvalues_symmetric(laplacian(a))
            assert component_count(spectral) == oracle_components(a)

    def test_raising_one_range_never_disconnects(self):
        # common random numbers: same spacings, one vehicle's range increased
        rng = np.random.default_rng(6)
        for _ in range(40):
            scenario = traffic.TrafficScenario(0.008, 4000.0)
            headways = traffic.sample_headways(scenario, rng)
            spacing = traffic.spacing_matrix(headways)
            base = rng.uniform(200, 800, scenario.vehicle_count)
            bumped = base.copy()
            victim = int(rng.integers(0, scenario.vehicle_count))
            bumped[victim] += float(rng.uniform(0, 600))
            up_a = project(build_adjacency(spacing, ranges.RangeAssignment(base)), "upward")
            up_b = project(build_adjacency(spacing, ranges.RangeAssignment(bumped)), "upward")
            for verdict in (consecutive_chain, lambda u: oracle_reachable(u, 0, u.size - 1),
                            lambda u: is_connected_laplacian(laplacian(symmetrize(u)))):
                assert verdict(up_b) >= verdict(up_a)


class TestAnalytic:
    def test_fixed_range_reference_values(self):
        assert analytic_pc(AnalyticModel(0.01, 1000.0, 100)) == pytest.approx(
            APC_RHO01_R1000_N100, abs=1e-12)
        assert analytic_pc(AnalyticModel(0.01, 500.0, 100)) == pytest.approx(
            APC_RHO01_R500_N100, abs=1e-12)

    def test_two_vehicles_is_single_gap_cdf(self):
        model = AnalyticModel(0.01, 300.0, 2)
        assert analytic_pc(model) == pytest.approx(1.0 - math.exp(-3.0), rel=1e-12)

    def test_infinite_range_limit(self):
        assert analytic_pc(AnalyticModel(0.01, 1e9, 50)) == 1.0

    def test_strictly_increasing_in_range(self):
        values = [analytic_pc(AnalyticModel(0.01, r, 100)) for r in np.linspace(100, 2000, 50)]
        assert np.all(np.diff(values) > 0)

    def test_cdf_shape(self):
        assert headway_cdf(0.01, -5.0) == 0.0
        assert headway_cdf(0.01, 0.0) == 0.0
        assert 0.0 < headway_cdf(0.01, 100.0) < headway_cdf(0.01, 200.0) < 1.0


class TestChainClosedForm:
    def test_degenerate_mixtures_match_fixed(self):
        rho, n = 0.01, 100
        low = analytic_pc_chain_mixed(rho, n, TwoTierRange(500.0, 1000.0, 0.0))
        high = analytic_pc_chain_mixed(rho, n, TwoTierRange(500.0, 1000.0, 1.0))
        assert low == pytest.approx(analytic_pc(AnalyticModel(rho, 500.0, n)), rel=1e-12)
        assert high == pytest.approx(analytic_pc(AnalyticModel(rho, 1000.0, n)), rel=1e-12)

    def test_two_tier_reference_value(self):
        value = analytic_pc_chain_mixed(0.01, 100, TwoTierRange(500.0, 1000.0, 0.5))
        assert value == pytest.approx(CHAIN_2TIER_50_50, abs=1e-12)

    def test_uniform_reference_value(self):
        value = analytic_pc_chain_mixed(0.01, 100, UniformRange(750.0, 100.0))
        assert value == pytest.approx(CHAIN_UNIFORM_750_100, abs=1e-12)

    def test_uniform_expectation_matches_quadrature(self):
        ef = expected_headway_cdf(0.004, UniformRange(500.0, 100.0))
        assert ef == pytest.approx(EF_UNIFORM_500_100_RHO004, abs=1e-12)

    @pytest.mark.parametrize("std", [1e-14, 1e-12, 1e-6])
    def test_tiny_uniform_spread_matches_fixed_mean(self, std):
        # the support's bounds may round to one float; the closed form must
        # neither divide by their zero difference nor drift from the fixed range
        value = analytic_pc_chain_mixed(0.01, 100, UniformRange(750.0, std))
        assert value == pytest.approx(analytic_pc(AnalyticModel(0.01, 750.0, 100)), rel=1e-9)

    def test_discrete_support_is_mean_of_cdfs(self):
        support = (500.0, 1000.0)
        arr = np.asarray(support)
        policy = UniformRange(float(arr.mean()), float(arr.std()), support)
        ef = expected_headway_cdf(0.01, policy)
        expected = 0.5 * ((1 - math.exp(-5.0)) + (1 - math.exp(-10.0)))
        assert ef == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        # per-gap success frequency over many independent draws
        rho, n = 0.01, 100
        policy = TwoTierRange(500.0, 1000.0, 0.5)
        rng = np.random.default_rng(7)
        trials = 4000
        hits = 0
        for _ in range(trials):
            gaps = -np.log(1.0 - rng.random(n - 1)) / rho
            assignment = ranges.assign_ranges(policy, n, rng)
            hits += bool(np.all(gaps <= assignment.ranges[:-1]))
        p_hat = hits / trials
        expected = CHAIN_2TIER_50_50
        stderr = math.sqrt(expected * (1 - expected) / trials)
        assert abs(p_hat - expected) <= 4 * stderr

    @pytest.mark.parametrize("fraction,high", [(1 / 3, 2), (0.5, 3), (0.0, 0), (1.0, 6)])
    def test_exact_count_averages_every_high_subset(self, fraction, high):
        # every set of `high` seats among n is equally likely; the chain needs
        # each of the first n - 1 gaps within its transmitter's range
        rho, n = 0.002, 6
        policy = TwoTierRange(500.0, 1000.0, fraction, exact_count=True)
        assert policy.high_count(n) == high
        cdf = {False: headway_cdf(rho, 500.0), True: headway_cdf(rho, 1000.0)}
        seatings = list(itertools.combinations(range(n), high))
        expected = sum(math.prod(cdf[i in seats] for i in range(n - 1))
                       for seats in seatings) / len(seatings)
        assert analytic_pc_chain_mixed(rho, n, policy) == pytest.approx(expected, rel=1e-12)

    def test_rejects_fixed_policy(self):
        with pytest.raises(TypeError):
            analytic_pc_chain_mixed(0.01, 100, FixedRange(750.0))


class TestMinRange:
    def test_round_trips(self):
        rho, n = 0.01, 100
        for target in (0.5, 0.9, 0.99):
            r = min_range_for_target(rho, n, target)
            assert analytic_pc(AnalyticModel(rho, r, n)) == pytest.approx(target, abs=1e-9)

    def test_two_vehicle_inversion(self):
        rho, r0 = 0.01, 300.0
        target = 1.0 - math.exp(-rho * r0)
        assert min_range_for_target(rho, 2, target) == pytest.approx(r0, rel=1e-12)

    def test_monotone_in_target(self):
        values = [min_range_for_target(0.01, 100, t) for t in (0.1, 0.5, 0.9, 0.99)]
        assert np.all(np.diff(values) > 0)

    def test_rejects_degenerate_targets(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                min_range_for_target(0.01, 100, bad)
