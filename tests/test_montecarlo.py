import math

import numpy as np
import pytest

from vanetconn import connectivity, montecarlo
from vanetconn.connectivity import (
    AnalyticModel,
    analytic_pc,
    component_count,
    eigenvalues_symmetric,
    is_connected_exponent,
    line_chain_rows,
    oracle_components,
)
from vanetconn.graphs import build_adjacency, laplacian, project, symmetrize
from vanetconn.montecarlo import (
    CHUNK_SIZE,
    MAX_DENSE_VEHICLES,
    MAX_LINE_VEHICLES,
    ExperimentSpec,
    compare_methods,
    run_trial,
    sweep,
    trial_seed,
)
from vanetconn.ranges import (
    FixedRange,
    RangeAssignment,
    TwoTierRange,
    UniformRange,
    assign_ranges,
)
from vanetconn.traffic import (
    SPACING_QUANTUM_M,
    HeadwayVector,
    TrafficScenario,
    sample_headways,
    spacing_matrix,
    vehicle_positions,
)

from conftest import set_usable_cpus

GRID = (4.0, 10.0, 18.0)


def fixed_spec(methods=("oracle",), trials=100, seed=1, densities=GRID, segment=10_000.0):
    return ExperimentSpec(densities, segment, FixedRange(750.0), methods,
                          "undirected", trials, seed)


def upward_spec(methods=("chain", "oracle"), trials=100, seed=1, densities=GRID):
    return ExperimentSpec(densities, 10_000.0, TwoTierRange(500.0, 1000.0, 0.5),
                          methods, "upward", trials, seed)


def _openblas_threads(_=None):
    """Thread count of each OpenBLAS loaded in this process (none found:
    an empty list)."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        getters = [getattr(lib, name.replace("_set_", "_get_"), None)
                   for name in montecarlo._BLAS_SET_THREADS]
        counts.extend([getter() for getter in getters if getter is not None][:1])
    return counts


class TestSpecValidation:
    def test_rejects_empty_grid_and_methods(self):
        with pytest.raises(ValueError):
            fixed_spec(densities=())
        with pytest.raises(ValueError):
            fixed_spec(methods=())

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            fixed_spec(methods=("oracle", "psychic"))

    def test_undirected_needs_fixed_policy(self):
        with pytest.raises(ValueError):
            ExperimentSpec(GRID, 10_000.0, TwoTierRange(500.0, 1000.0, 0.5),
                           ("oracle",), "undirected", 10, 1)

    def test_analytic_chain_needs_mixed_policy(self):
        with pytest.raises(ValueError):
            fixed_spec(methods=("analytic-chain",))

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            fixed_spec(trials=0)

    def test_rejects_trials_beyond_seed_stream(self):
        # trial_seed keeps 32 bits of the trial index
        assert fixed_spec(trials=2 ** 32).trials == 2 ** 32
        with pytest.raises(ValueError, match="trials"):
            fixed_spec(trials=2 ** 32 + 1)

    @pytest.mark.parametrize("trials, seed, field", [
        (2.5, 1, "trials"), (True, 1, "trials"), ("10", 1, "trials"), (10, 1.5, "master_seed"),
        pytest.param(10 ** 5000, 1, "trials", id="10**5000-1-trials"),
        (10, -1, "master_seed"), (10, 2 ** 64, "master_seed"),
    ])
    def test_rejects_non_integer_trials_and_seed(self, trials, seed, field):
        with pytest.raises(ValueError, match=field):
            fixed_spec(trials=trials, seed=seed)

    def test_master_seed_spans_64_bits(self):
        # trial_seed keeps 64 bits of the master seed, so -1 or 2**64 + 7
        # would replay the streams of 2**64 - 1 or 7
        for seed in (0, 2 ** 64 - 1):
            assert fixed_spec(seed=seed).master_seed == seed

    def test_numpy_integers_run_as_ints(self):
        spec = fixed_spec(trials=np.int64(20), seed=np.uint32(7))
        assert spec.trials == 20 and spec.master_seed == 7
        assert sweep(spec) == sweep(fixed_spec(trials=20, seed=7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_grid_and_length(self, bad):
        with pytest.raises(ValueError, match="densities_per_km"):
            fixed_spec(densities=(5.0, bad))
        with pytest.raises(ValueError, match="segment_length_m"):
            fixed_spec(segment=bad)

    def test_dense_methods_capped_at_max_vehicles(self):
        # 1 veh/km on a road of n km holds n vehicles; construction only
        at_cap = MAX_DENSE_VEHICLES * 1000.0
        for method in ("laplacian", "exponent"):
            assert fixed_spec(methods=(method,), densities=(1.0,), segment=at_cap).methods \
                == (method,)
            with pytest.raises(ValueError, match=rf"methods.*{MAX_DENSE_VEHICLES + 1}"):
                fixed_spec(methods=("oracle", method), densities=(0.5, 1.0),
                           segment=at_cap + 1000.0)

    def test_traversal_methods_uncapped(self):
        spec = fixed_spec(methods=("oracle", "chain", "analytic"), densities=(1.0,),
                          segment=(MAX_DENSE_VEHICLES + 1) * 1000.0)
        assert spec.trial_methods == ("oracle", "chain")

    def test_line_methods_capped_at_max_line_vehicles(self):
        # 25 veh/km on a road of n / 25 km holds n vehicles; construction only
        at_cap = MAX_LINE_VEHICLES / 25.0 * 1000.0
        for method in ("oracle", "chain"):
            assert fixed_spec(methods=(method,), densities=(25.0,), segment=at_cap).methods \
                == (method,)
            with pytest.raises(ValueError, match=rf"methods.*{MAX_LINE_VEHICLES + 1}"):
                fixed_spec(methods=(method, "analytic"), densities=(25.0,),
                           segment=at_cap + 40.0)
        assert fixed_spec(methods=("analytic",), densities=(25.0,), segment=1e12).trial_methods \
            == ()


class TestSeeding:
    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(1, g, t) for g in range(8) for t in range(200)}
        assert len(seeds) == 8 * 200

    def test_master_seed_changes_stream(self):
        assert trial_seed(1, 0, 0) != trial_seed(2, 0, 0)

    @pytest.mark.parametrize("master_seed", [0, 1, -5, 2 ** 32 - 1, 2 ** 32, 2 ** 63,
                                             2 ** 64 - 1, 2 ** 70, 12_345_678_901_234_567])
    def test_block_seed_words_equal_seed_sequence(self, master_seed):
        for grid_index in (0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 33 + 5):
            for trials in (range(0, 6), range(1000, 1003), range(2 ** 32 - 5, 2 ** 32)):
                words = montecarlo._seed_words(master_seed, grid_index, trials)
                assert words.dtype == np.uint64 and words.shape == (len(trials), 4)
                for row, t in enumerate(trials):
                    sequence = np.random.SeedSequence(trial_seed(master_seed, grid_index, t))
                    assert words[row].tolist() == sequence.generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize("master_seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_multi_cell_seed_words_equal_seed_sequence(self, master_seed):
        # one hash over (grid, trial) pairs that cross cell boundaries, as a
        # chunk of several cells makes it; the seed keeps 32 bits of each index
        grid = np.array([0, 0, 1, 1, 1, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32, 2 ** 32 + 7],
                        dtype=np.uint64)
        trials = np.array([38, 39, 0, 1, 2 ** 32 - 1, 2 ** 32 - 2, 2 ** 32 - 1, 0, 2 ** 32 - 1, 5],
                          dtype=np.uint64)
        words = montecarlo._seed_words(master_seed, grid, trials)
        assert words.dtype == np.uint64 and words.shape == (len(grid), 4)
        for row, (g, t) in enumerate(zip(grid.tolist(), trials.tolist())):
            sequence = np.random.SeedSequence(trial_seed(master_seed, g, t))
            assert words[row].tolist() == sequence.generate_state(4, np.uint64).tolist()
        assert len({tuple(row) for row in words.tolist()}) == len(grid)


class TestRunTrial:
    def test_deterministic_record(self):
        spec = fixed_spec(methods=("oracle", "chain"))
        a = run_trial(spec, 1, 5)
        b = run_trial(spec, 1, 5)
        assert a == b

    def test_digest_independent_of_method_subset(self):
        # the shared realization is a function of the seed derivation only
        full = run_trial(fixed_spec(methods=("oracle", "chain", "laplacian")), 0, 3)
        oracle_only = run_trial(fixed_spec(methods=("oracle",)), 0, 3)
        spectral_only = run_trial(fixed_spec(methods=("laplacian",)), 0, 3)
        assert full.digest == oracle_only.digest == spectral_only.digest
        assert full.verdicts["oracle"] == oracle_only.verdicts["oracle"]

    def test_fixed_range_methods_agree_per_trial(self):
        spec = fixed_spec(methods=("laplacian", "exponent", "oracle", "chain"), trials=60)
        for t in range(60):
            verdicts = run_trial(spec, 1, t).verdicts
            assert len(set(verdicts.values())) == 1, f"trial {t}: {verdicts}"

    def test_upward_chain_implies_reachability(self):
        spec = upward_spec(trials=200)
        for t in range(200):
            verdicts = run_trial(spec, 0, t).verdicts
            if verdicts["chain"]:
                assert verdicts["oracle"]

    def test_index_bounds(self):
        spec = fixed_spec(trials=5)
        with pytest.raises(IndexError):
            run_trial(spec, 3, 0)
        with pytest.raises(IndexError):
            run_trial(spec, 0, 5)


class TestEstimate:
    def test_single_trial_extremes(self):
        (row,) = [r for r in sweep(fixed_spec(trials=1)) if r.density_per_km == GRID[2]]
        assert row.p_hat in (0.0, 1.0)
        assert row.stderr == 0.0
        assert row.connected_count in (0, 1)

    def test_analytic_row_value_and_convention(self):
        spec = fixed_spec(methods=("analytic",), densities=(10.0,))
        (row,) = sweep(spec)
        expected = analytic_pc(AnalyticModel(0.01, 750.0, 100))
        assert row.p_hat == pytest.approx(expected, abs=1e-15)
        assert row.stderr == 0.0 and row.trials == 0

    def test_stderr_formula(self):
        spec = fixed_spec(trials=400, densities=(10.0,))
        (row,) = sweep(spec)
        assert row.stderr == pytest.approx(
            math.sqrt(row.p_hat * (1 - row.p_hat) / 400), abs=1e-15)

    def test_matches_analytic_within_three_stderr(self):
        spec = fixed_spec(methods=("oracle", "analytic"), trials=3000, densities=(8.0, 14.0))
        table = sweep(spec)
        for density in spec.densities_per_km:
            rows = {r.method: r for r in table if r.density_per_km == density}
            expected = rows["analytic"].p_hat
            got = rows["oracle"]
            margin = 3 * max(got.stderr, math.sqrt(expected * (1 - expected) / spec.trials))
            assert abs(got.p_hat - expected) <= margin

    def test_spread_matches_reported_stderr(self):
        # over independent master seeds the estimator spread should agree
        # with the reported stderr within a factor of two
        p_hats, stderrs = [], []
        for seed in range(30):
            spec = ExperimentSpec((10.0,), 3_000.0, FixedRange(300.0), ("chain",),
                                  "undirected", 1500, seed)
            (row,) = sweep(spec)
            p_hats.append(row.p_hat)
            stderrs.append(row.stderr)
        spread = float(np.std(p_hats, ddof=1))
        typical = float(np.mean(stderrs))
        assert typical / 2 < spread < typical * 2, (spread, typical)


class TestSweep:
    def test_worker_count_invariance(self):
        spec = fixed_spec(methods=("oracle", "chain"), trials=64, densities=(6.0, 12.0))
        assert sweep(spec, workers=1) == sweep(spec, workers=2)

    def test_worker_count_invariance_across_chunks(self):
        spec = upward_spec(methods=("oracle", "chain"), trials=2 * CHUNK_SIZE + 100,
                           densities=(6.0, 12.0))
        assert sweep(spec, workers=1) == sweep(spec, workers=2)

    def test_single_chunk_cells_start_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for single-chunk cells")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        spec = upward_spec(methods=("oracle", "chain"), trials=CHUNK_SIZE, densities=(8.0,))
        assert sweep(spec, workers=2) == sweep(spec)
        assert compare_methods(spec, workers=2) == compare_methods(spec)

    def test_several_specs_share_one_pool(self, monkeypatch):
        started = []
        real_pool = montecarlo.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            started.append(kwargs)
            return real_pool(*args, **kwargs)

        trials = 2 * CHUNK_SIZE + 100
        spec_a = upward_spec(methods=("oracle", "chain"), trials=trials, densities=(6.0, 12.0))
        spec_b = fixed_spec(methods=("oracle", "chain", "analytic"), trials=trials,
                            densities=(8.0,))
        expected = sweep(spec_a) + sweep(spec_b)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting_pool)
        set_usable_cpus(monkeypatch, 2)
        assert sweep(spec_a, spec_b, workers=2) == expected
        assert [kwargs["max_workers"] for kwargs in started] == [2]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        before = _openblas_threads()
        spec = fixed_spec(trials=CHUNK_SIZE + 1)
        with montecarlo._pool((spec,), workers=2) as executor:
            per_worker = list(executor.map(_openblas_threads, range(4)))
        assert all(count == 1 for counts in per_worker for count in counts)
        assert _openblas_threads() == before

    @pytest.mark.parametrize("workers, cpus, methods, trials, expected", [
        (64, 8, ("oracle",), 2 * CHUNK_SIZE + 1, 3),  # three chunks in the largest cell
        (64, 2, ("oracle",), 10 * CHUNK_SIZE, 2),  # two usable CPUs
        (4, 8, ("oracle",), 10 * CHUNK_SIZE, 4),
        (3, 1, ("oracle",), 10 * CHUNK_SIZE, None),
        (4, 8, ("analytic",), 10 * CHUNK_SIZE, None),  # no trials to run
    ])
    def test_pool_forks_no_more_processes_than_it_can_use(self, workers, cpus, methods, trials,
                                                          expected, monkeypatch):
        started = []

        class StandInPool:
            def __init__(self, max_workers, initializer=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", StandInPool)
        set_usable_cpus(monkeypatch, cpus)
        specs = (fixed_spec(methods=methods, trials=trials), fixed_spec(trials=CHUNK_SIZE))
        with montecarlo._pool(specs, workers) as executor:
            assert (executor is None) == (expected is None)
        assert started == ([] if expected is None else [expected])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused(self, workers):
        spec = fixed_spec(methods=("oracle", "chain"), trials=5, densities=(8.0,))
        for run in (lambda: sweep(spec, workers=workers),
                    lambda: compare_methods(spec, workers=workers)):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run()

    def test_rows_cover_grid_times_methods(self):
        spec = fixed_spec(methods=("oracle", "analytic"), trials=20)
        rows = sweep(spec)
        assert len(rows) == len(GRID) * 2
        assert {r.density_per_km for r in rows} == set(GRID)

    def test_rerun_is_bitwise_identical(self):
        spec = upward_spec(trials=40)
        assert sweep(spec) == sweep(spec)


class TestCompareMethods:
    def test_needs_two_trial_methods(self):
        with pytest.raises(ValueError):
            compare_methods(fixed_spec(methods=("oracle", "analytic")))

    def test_fixed_range_has_zero_disagreements(self):
        spec = fixed_spec(methods=("laplacian", "exponent", "oracle"), trials=40)
        report = compare_methods(spec)
        assert len(report) == len(GRID) * 3
        assert all(row.count == 0 for row in report)

    def test_upward_disagreements_count_broken_chains(self):
        # spectral (== reachability) vs chain disagreement happens exactly on
        # realizations that are bridged but chain-broken
        spec = upward_spec(methods=("laplacian", "oracle", "chain"), trials=150,
                           densities=(10.0,))
        report = {(r.method_a, r.method_b): r.count for r in compare_methods(spec)}
        assert report[("laplacian", "oracle")] == 0
        bridged = sum(
            1 for t in range(150)
            if (v := run_trial(spec, 0, t).verdicts)["oracle"] and not v["chain"]
        )
        assert report[("laplacian", "chain")] == bridged
        assert report[("oracle", "chain")] == bridged

    def test_counts_the_cells_sweep_counts(self):
        # a chain implies reachability, so oracle and chain disagree exactly
        # on the trials that one counts connected and the other does not
        spec = upward_spec(methods=("oracle", "chain"), trials=CHUNK_SIZE + 100)
        connected = {(r.density_per_km, r.method): r.connected_count for r in sweep(spec)}
        report = compare_methods(spec)
        assert [(r.density_per_km, r.method_a, r.method_b) for r in report] \
            == [(d, "oracle", "chain") for d in GRID]
        for row in report:
            assert row.count == (connected[(row.density_per_km, "oracle")]
                                 - connected[(row.density_per_km, "chain")])
        assert any(row.count > 0 for row in report)

    def test_worker_invariance(self):
        spec = upward_spec(methods=("oracle", "chain"), trials=64, densities=(8.0,))
        assert compare_methods(spec, workers=1) == compare_methods(spec, workers=2)

    def test_worker_invariance_across_chunks(self):
        spec = upward_spec(methods=("oracle", "chain"), trials=2 * CHUNK_SIZE + 100,
                           densities=(8.0,))
        assert compare_methods(spec, workers=1) == compare_methods(spec, workers=2)


LAYOUT_GRID = (2.0, 4.0, 6.0, 8.0, 10.0)


def _layout_specs(trials=12):
    """A fixed-range undirected spec and a two-tier upward spec, five grid
    points each, with every trial method."""
    return (fixed_spec(methods=("laplacian", "exponent", "oracle", "chain", "analytic"),
                       trials=trials, densities=LAYOUT_GRID),
            upward_spec(methods=("laplacian", "exponent", "oracle", "chain"), trials=trials,
                        densities=LAYOUT_GRID))


def _fig1_traversal_specs(master_seed=1):
    """The shape of the benchmark's fig1_traversal round: 24 grid points x 40
    trials under each of three fixed ranges."""
    densities = tuple(float(d) for d in range(2, 26))
    return [ExperimentSpec(densities, 10_000.0, FixedRange(r), ("oracle", "chain", "analytic"),
                           "undirected", 40, master_seed) for r in (500.0, 750.0, 1000.0)]


class TestChunkLayout:
    # 12 trials per cell: chunks of 1, 7 and 11 split a cell; 12 and 13 hold
    # one cell; 25 and 36 hold 2 and 3 (the last group partial); 60 all five
    @pytest.mark.parametrize("chunk_size", [1, 7, 11, 12, 13, 25, 36, 60])
    def test_rows_do_not_depend_on_chunk_layout(self, chunk_size, monkeypatch):
        specs = _layout_specs()
        expected = (sweep(*specs), [compare_methods(spec) for spec in specs])
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk_size)
        assert (sweep(*specs), [compare_methods(spec) for spec in specs]) == expected

    def test_pool_runs_split_and_shared_chunks_alike(self, monkeypatch):
        # chunks of 5: the 12-trial cells split into 3 chunks, so a pool of 2
        # starts, and it also runs the 2-trial spec's chunks of 2 cells each
        started = []
        real_pool = montecarlo.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            started.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        specs = _layout_specs() + (upward_spec(methods=("oracle", "chain"), trials=2,
                                               densities=LAYOUT_GRID),)
        expected = sweep(*specs)
        expected_compare = compare_methods(specs[1])
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 5)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting_pool)
        set_usable_cpus(monkeypatch, 2)
        assert sweep(*specs, workers=2) == expected
        assert compare_methods(specs[1], workers=2) == expected_compare
        assert started == [2, 2]

    def test_fig1_traversal_round_hashes_two_blocks_per_spec(self, monkeypatch):
        # 40 trials per cell: 12 cells share a chunk, so each spec's 24 cells
        # take 2 hashes of 480 rows; every row builds one PCG64 and one Generator
        hashed, built = [], []
        real_words, real_bits, real_generator = (
            montecarlo._seed_words, np.random.PCG64, np.random.Generator)

        def recording_words(master_seed, grid_index, trials):
            hashed.append(len(trials))
            return real_words(master_seed, grid_index, trials)

        def counting(real, kind):
            def build(*args):
                built.append(kind)
                return real(*args)
            return build

        monkeypatch.setattr(montecarlo, "_seed_words", recording_words)
        monkeypatch.setattr(np.random, "PCG64", counting(real_bits, "PCG64"))
        monkeypatch.setattr(np.random, "Generator", counting(real_generator, "Generator"))
        for spec in _fig1_traversal_specs():
            hashed.clear()
            built.clear()
            sweep(spec)
            assert hashed == [12 * 40, 12 * 40]
            assert built.count("PCG64") == built.count("Generator") == 24 * 40


BLOCK_POLICIES = [
    FixedRange(750.0),
    TwoTierRange(500.0, 1000.0, 0.5),
    TwoTierRange(500.0, 1000.0, 0.3, exact_count=True),
    UniformRange(750.0, 100.0),
    UniformRange(750.0, 100.0, (650.0, 850.0)),
]
BLOCK_POLICY_IDS = ["fixed", "two_tier", "two_tier_exact", "uniform", "uniform_discrete"]


def _reference_realization(spec, density_index, trial_index):
    """Gaps and ranges of one trial, drawn and transformed on their own with
    no block: the reference that block rows must equal bit for bit."""
    density = spec.densities_per_km[density_index] / 1000.0
    n = TrafficScenario(density, spec.segment_length_m).vehicle_count
    rng = montecarlo.trial_rng(spec.master_seed, density_index, trial_index)
    u = 1.0 - rng.random(n - 1)
    raw = -np.log(u) / density
    gaps = np.maximum(SPACING_QUANTUM_M, np.ceil(raw / SPACING_QUANTUM_M) * SPACING_QUANTUM_M)
    policy = spec.policy
    if isinstance(policy, FixedRange):
        ranges = np.full(n, policy.range_m)
    elif isinstance(policy, TwoTierRange) and policy.exact_count:
        ranges = np.full(n, policy.range_low_m)
        ranges[rng.permutation(n)[:int(math.floor(policy.fraction_high * n + 0.5))]] = \
            policy.range_high_m
    elif isinstance(policy, TwoTierRange):
        ranges = np.where(rng.random(n) < policy.fraction_high,
                          policy.range_high_m, policy.range_low_m)
    elif isinstance(policy.support, str):
        low, high = policy.bounds
        ranges = low + (high - low) * rng.random(n)
    else:
        ranges = np.asarray(policy.support)[rng.integers(0, len(policy.support), n)]
    return gaps, ranges


def _block_spec(policy, direction="upward", densities=(4.0, 10.1, 17.3), segment=10_000.0,
                trials=150, methods=("oracle", "chain")):
    return ExperimentSpec(densities, segment, policy, methods, direction, trials, 29)


BLOCK_DIRECTIONS = [("undirected", BLOCK_POLICIES[0])] + [
    ("upward", policy) for policy in BLOCK_POLICIES]
BLOCK_DIRECTION_IDS = ["undirected_fixed"] + [f"upward_{name}" for name in BLOCK_POLICY_IDS]


class TestTrialBlocks:
    @pytest.mark.parametrize("policy", BLOCK_POLICIES, ids=BLOCK_POLICY_IDS)
    def test_block_rows_equal_per_trial_draws(self, policy):
        # n - 1 = 39, 100 and 172: not all multiples of 8
        spec = _block_spec(policy)
        for density_index, density in enumerate(spec.densities_per_km):
            gaps, ranges = montecarlo._realizations(spec, density_index, range(3, 83))
            scenario = TrafficScenario(density / 1000.0, spec.segment_length_m)
            for row, trial_index in enumerate(range(3, 83)):
                ref_gaps, ref_ranges = _reference_realization(spec, density_index, trial_index)
                assert gaps[row].tobytes() == ref_gaps.tobytes()
                assert ranges[row].tobytes() == ref_ranges.tobytes()
                rng = montecarlo.trial_rng(spec.master_seed, density_index, trial_index)
                assert sample_headways(scenario, rng).gaps.tobytes() == ref_gaps.tobytes()
                assert assign_ranges(policy, scenario.vehicle_count, rng).ranges.tobytes() \
                    == ref_ranges.tobytes()

    @pytest.mark.parametrize("policy", BLOCK_POLICIES, ids=BLOCK_POLICY_IDS)
    def test_block_at_last_trial_indices_equals_trial_rng(self, policy):
        # the seed keeps 32 bits of the trial index: the block ends at 2**32 - 1
        spec = _block_spec(policy, trials=2 ** 32)
        trials = range(2 ** 32 - 40, 2 ** 32)
        gaps, ranges = montecarlo._realizations(spec, 1, trials)
        for row, trial_index in enumerate(trials):
            ref_gaps, ref_ranges = _reference_realization(spec, 1, trial_index)
            assert gaps[row].tobytes() == ref_gaps.tobytes()
            assert ranges[row].tobytes() == ref_ranges.tobytes()

    @pytest.mark.parametrize("direction,policy", BLOCK_DIRECTIONS, ids=BLOCK_DIRECTION_IDS)
    def test_block_counts_equal_run_trial_verdicts(self, direction, policy):
        spec = _block_spec(policy, direction)
        for density_index in range(len(spec.densities_per_km)):
            self._assert_counts_match_run_trial(spec, density_index)

    @pytest.mark.parametrize("direction,policy", BLOCK_DIRECTIONS, ids=BLOCK_DIRECTION_IDS)
    def test_dense_block_verdicts_equal_single_snapshot_route(self, direction, policy):
        # N = 20 on 4 km: a dense sub-block stacks 40 rows, so 60 trials make a
        # full and a partial one; N = 100, 173 and 250 on 10 km: one row each.
        # The laplacian reference counts the spectrum's zero eigenvalues, a
        # route independent of the stacked kernel that both verdicts call.
        assert montecarlo.BLOCK_ELEMENTS // 20 ** 2 == 40
        outcomes = set()
        for segment, densities in ((4_000.0, (5.0,)), (10_000.0, (10.0, 17.3, 25.0))):
            spec = _block_spec(policy, direction, densities=densities, segment=segment,
                               trials=60, methods=("laplacian", "exponent"))
            for density_index in range(len(densities)):
                gaps, ranges = montecarlo._realizations(spec, density_index, range(spec.trials))
                verdicts = montecarlo._verdicts(spec, gaps, ranges, spec.trial_methods)
                [(counts, _)] = montecarlo._chunk_counts(
                    (spec, density_index, density_index + 1, 0, spec.trials))
                for method, expected in self._single_snapshot_verdicts(
                        direction, policy, gaps, ranges).items():
                    assert verdicts[method].tolist() == expected
                    assert counts[method] == sum(expected)
                    outcomes.update(expected)
        assert outcomes == {False, True}

    @staticmethod
    def _single_snapshot_verdicts(direction, policy, gaps, ranges):
        """Per-row verdicts of one snapshot at a time: ``laplacian`` as a
        spectrum with one zero eigenvalue, ``exponent`` by ``is_connected_exponent``."""
        reference = {"laplacian": [], "exponent": []}
        for g, r in zip(gaps, ranges):
            full = build_adjacency(spacing_matrix(HeadwayVector(g)), RangeAssignment(r))
            graph = full if direction == "undirected" else project(full, "upward")
            spectral_graph = full if direction == "undirected" else symmetrize(graph)
            spectral = eigenvalues_symmetric(laplacian(spectral_graph))
            reference["laplacian"].append(component_count(spectral) == 1)
            reference["exponent"].append(is_connected_exponent(graph))
            if isinstance(policy, FixedRange):
                assert reference["laplacian"][-1] == reference["exponent"][-1] \
                    == (oracle_components(full) == 1)
        return reference

    def test_dense_stage_stacks_rows_within_block_elements(self, monkeypatch):
        shapes = []
        real = connectivity._umath_linalg.cholesky_lo

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(connectivity._umath_linalg, "cholesky_lo", recording)
        sweep(fixed_spec(methods=("laplacian",), trials=512, densities=(2.0,)))  # N = 20
        assert any(len(shape) == 3 and shape[0] > 1 for shape in shapes)
        assert all(math.prod(shape) <= montecarlo.BLOCK_ELEMENTS for shape in shapes)

    def test_long_road_chunk_spans_several_blocks(self):
        # 25 veh/km on 200 km is 5,000 vehicles: blocks of 3 trials
        spec = _block_spec(UniformRange(750.0, 100.0), densities=(25.0,), segment=200_000.0,
                           trials=11)
        assert montecarlo.BLOCK_ELEMENTS // 5_000 == 3
        self._assert_counts_match_run_trial(spec, 0)

    def test_tie_band_rows(self, monkeypatch):
        # gaps rounded up to 50 m make spacings equal to the 650 / 850 m
        # levels, so rows land in the one-ulp band and take the dense fallback
        real = montecarlo.headway_gaps
        monkeypatch.setattr(montecarlo, "headway_gaps",
                            lambda u, density: np.ceil(real(u, density) / 50.0) * 50.0)
        spec = _block_spec(BLOCK_POLICIES[4], densities=(12.0,), trials=200,
                           methods=("oracle", "chain", "laplacian"))
        gaps, ranges = montecarlo._realizations(spec, 0, range(spec.trials))
        positions = np.concatenate((np.zeros((spec.trials, 1)), np.cumsum(gaps, axis=1)), axis=1)
        reach = np.maximum.accumulate(positions[:, :-1] + ranges[:, :-1], axis=1)
        ties = (reach == positions[:, 1:]).any(axis=1)
        assert 0 < np.count_nonzero(ties) < spec.trials
        counts, disagreements = self._assert_counts_match_run_trial(spec, 0)
        # the pseudo-undirected spectrum sees exactly upward reachability
        assert disagreements[("oracle", "laplacian")] == 0
        assert 0 < counts["oracle"] < spec.trials
        # and the run path's factorization agrees with the spectrum row by row
        rows = montecarlo._dense_rows(positions, ranges, ["laplacian"])["laplacian"]
        expected = self._single_snapshot_verdicts("upward", spec.policy, gaps, ranges)
        assert rows.tolist() == expected["laplacian"]

    @staticmethod
    def _assert_counts_match_run_trial(spec, density_index):
        [(counts, disagreements)] = montecarlo._chunk_counts(
            (spec, density_index, density_index + 1, 0, spec.trials))
        records = [run_trial(spec, density_index, t).verdicts for t in range(spec.trials)]
        for method in spec.trial_methods:
            assert counts[method] == sum(r[method] for r in records)
        for (a, b), count in disagreements.items():
            assert count == sum(r[a] != r[b] for r in records)
        return counts, disagreements


class TestExponentKernel:
    # 10 veh/km: N = 250 on 25 km, where both outcomes occur, and N = 1,000
    # on 100 km, where two-tier chains connect with probability 0.035
    @pytest.mark.parametrize("policy", [BLOCK_POLICIES[1], BLOCK_POLICIES[3]],
                             ids=["two_tier", "uniform"])
    @pytest.mark.parametrize("segment,trials", [(25_000.0, 40), (100_000.0, 4)],
                             ids=["n250", "n1000"])
    def test_upward_exponent_equals_chain(self, policy, segment, trials):
        # on upward links the only walk of n - 1 links from the first vehicle
        # to the last is the chain 0 -> 1 -> ... -> n - 1, so the dense and
        # the O(n) verdict must agree row by row beyond the acceptance gates
        spec = _block_spec(policy, densities=(10.0,), segment=segment, trials=trials,
                           methods=("exponent", "chain"))
        gaps, ranges = montecarlo._realizations(spec, 0, range(trials))
        positions = vehicle_positions(gaps)
        assert positions.shape == (trials, int(segment) // 100)
        chain = line_chain_rows(positions, ranges)
        assert montecarlo._dense_rows(positions, ranges, ["exponent"])["exponent"].tolist() \
            == chain.tolist()
        outcomes = set(chain.tolist())
        assert False in outcomes and (True in outcomes or segment > 25_000.0)

    @pytest.mark.parametrize("n", [100, 250])
    def test_row_power_squares_three_times(self, n, monkeypatch):
        # all-rows squaring would take floor(log2(n - 1)) = 6 and 7
        squarings = []
        real = connectivity._bool_matmul

        def counting(x, y):
            squarings.append(x.shape[-2:] == y.shape[-2:] == (n, n))
            return real(x, y)

        monkeypatch.setattr(connectivity, "_bool_matmul", counting)
        # the path 0 -> 1 -> ... -> n - 1 is the only walk of n - 1 links
        path = np.eye(n, k=1, dtype=bool)[None]
        assert connectivity.exponent_rows(path).tolist() == [True]
        assert sum(squarings) == 3


class TestInProcessBlasThreads:
    def test_in_process_sweep_pins_and_restores_blas_threads(self, monkeypatch):
        controls = montecarlo._openblas_thread_controls()
        original = [get_threads() for get_threads, _ in controls]
        during = []
        real = montecarlo._chunk_counts

        def recording(args):
            during.append(_openblas_threads())
            return real(args)

        monkeypatch.setattr(montecarlo, "_chunk_counts", recording)
        try:
            for _, set_threads in controls:  # a caller's count other than 1
                set_threads(2)
            before = _openblas_threads()
            sweep(fixed_spec(trials=20))
            assert during and all(count == 1 for counts in during for count in counts)
            assert _openblas_threads() == before
        finally:
            for (_, set_threads), count in zip(controls, original):
                set_threads(count)
