import math

import numpy as np
import pytest

from vanetconn import montecarlo
from vanetconn.connectivity import AnalyticModel, analytic_pc
from vanetconn.montecarlo import (
    CHUNK_SIZE,
    MAX_DENSE_VEHICLES,
    ExperimentSpec,
    compare_methods,
    estimate,
    run_trial,
    sweep,
    trial_seed,
)
from vanetconn.ranges import FixedRange, TwoTierRange

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


class TestSeeding:
    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(1, g, t) for g in range(8) for t in range(200)}
        assert len(seeds) == 8 * 200

    def test_master_seed_changes_stream(self):
        assert trial_seed(1, 0, 0) != trial_seed(2, 0, 0)


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
        rows = estimate(fixed_spec(trials=1), 2)
        (row,) = rows
        assert row.p_hat in (0.0, 1.0)
        assert row.stderr == 0.0
        assert row.connected_count in (0, 1)

    def test_analytic_row_value_and_convention(self):
        spec = fixed_spec(methods=("analytic",), densities=(10.0,))
        (row,) = estimate(spec, 0)
        expected = analytic_pc(AnalyticModel(0.01, 750.0, 100))
        assert row.p_hat == pytest.approx(expected, abs=1e-15)
        assert row.stderr == 0.0 and row.trials == 0

    def test_stderr_formula(self):
        spec = fixed_spec(trials=400, densities=(10.0,))
        (row,) = estimate(spec, 0)
        assert row.stderr == pytest.approx(
            math.sqrt(row.p_hat * (1 - row.p_hat) / 400), abs=1e-15)

    def test_matches_analytic_within_three_stderr(self):
        spec = fixed_spec(methods=("oracle", "analytic"), trials=3000, densities=(8.0, 14.0))
        for density_index, density in enumerate(spec.densities_per_km):
            rows = {r.method: r for r in estimate(spec, density_index)}
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
            (row,) = estimate(spec, 0)
            p_hats.append(row.p_hat)
            stderrs.append(row.stderr)
        spread = float(np.std(p_hats, ddof=1))
        typical = float(np.mean(stderrs))
        assert typical / 2 < spread < typical * 2, (spread, typical)


class TestSweep:
    def test_singleton_grid_equals_estimate(self):
        spec = fixed_spec(densities=(10.0,), trials=50)
        assert sweep(spec) == estimate(spec, 0)

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
        assert estimate(spec, 0, workers=2) == estimate(spec, 0)
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
        assert sweep(spec_a, spec_b, workers=2) == expected
        assert [kwargs["max_workers"] for kwargs in started] == [2]

    def test_pool_workers_run_one_blas_thread(self):
        before = _openblas_threads()
        spec = fixed_spec(trials=CHUNK_SIZE + 1)
        with montecarlo._pool((spec,), workers=2) as executor:
            per_worker = list(executor.map(_openblas_threads, range(4)))
        assert all(count == 1 for counts in per_worker for count in counts)
        assert _openblas_threads() == before

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

    def test_worker_invariance(self):
        spec = upward_spec(methods=("oracle", "chain"), trials=64, densities=(8.0,))
        assert compare_methods(spec, workers=1) == compare_methods(spec, workers=2)

    def test_worker_invariance_across_chunks(self):
        spec = upward_spec(methods=("oracle", "chain"), trials=2 * CHUNK_SIZE + 100,
                           densities=(8.0,))
        assert compare_methods(spec, workers=1) == compare_methods(spec, workers=2)
