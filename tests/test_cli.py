import argparse
import csv
import hashlib
import json

import pytest

from vanetconn import cli, montecarlo
from vanetconn.cli import (
    CSV_HEADER,
    ConfigError,
    emit_csv,
    load_config_file,
    parse_config,
    run_figure_preset,
)
from vanetconn.montecarlo import ConnectivityEstimate, ExperimentSpec, sweep
from vanetconn.ranges import FixedRange, UniformRange

from conftest import set_usable_cpus


def flags(**kwargs):
    return argparse.Namespace(**kwargs)


def read_rows(path):
    """The rows of an emitted CSV as dicts of strings, its header checked."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == CSV_HEADER.split(",")
        return list(reader)


MINIMAL = {
    "densities_per_km": [5, 10, 15],
    "range_policy": {"type": "fixed", "range_m": 750},
}
# a config that runs in milliseconds, for the refusal cases to override
QUICK = dict(MINIMAL, trials=5, methods=["chain"])


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.segment_length_m == 10_000.0
        assert cfg.direction == "undirected"
        assert cfg.master_seed == 1
        assert cfg.trials == 2000  # spectral methods present in the defaults
        assert "laplacian" in cfg.methods and "analytic" in cfg.methods

    def test_traversal_only_default_trials(self):
        raw = dict(MINIMAL, methods=["oracle", "chain"])
        assert parse_config(raw).trials == 10_000

    def test_mixed_policy_defaults_to_upward(self):
        raw = dict(MINIMAL, range_policy={"type": "two_tier", "range_low_m": 500,
                                          "range_high_m": 1000, "fraction_high": 0.5})
        cfg = parse_config(raw)
        assert cfg.direction == "upward"
        assert "analytic-chain" in cfg.methods

    def test_density_range_object(self):
        raw = dict(MINIMAL, densities_per_km={"start": 2, "stop": 25, "step": 1})
        assert len(parse_config(raw).densities_per_km) == 24

    def test_fraction_out_of_range_names_key(self):
        raw = dict(MINIMAL, range_policy={"type": "two_tier", "range_low_m": 500,
                                          "range_high_m": 1000, "fraction_high": 1.5})
        with pytest.raises(ConfigError, match="range_policy.fraction_high"):
            parse_config(raw)

    def test_unknown_policy_key_rejected(self):
        raw = dict(MINIMAL, range_policy={"type": "fixed", "range_m": 750, "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(raw)

    def test_unknown_method_names_index(self):
        raw = dict(MINIMAL, methods=["oracle", "psychic"])
        with pytest.raises(ConfigError, match=r"methods\[1\]"):
            parse_config(raw)

    def test_missing_density_grid(self):
        with pytest.raises(ConfigError, match="densities_per_km"):
            parse_config({"range_policy": {"type": "fixed", "range_m": 750}})

    def test_flags_override_file(self):
        cfg = parse_config(dict(MINIMAL, trials=2000), flags(trials=500))
        assert cfg.trials == 500

    def test_flag_policy_overrides_file(self):
        cfg = parse_config(dict(MINIMAL), flags(policy="uniform", mean_m=600.0, std_m=50.0,
                                                support=None))
        assert isinstance(cfg.policy, UniformRange)
        assert cfg.policy.mean_m == 600.0

    def test_flag_density_list(self):
        cfg = parse_config(dict(MINIMAL), flags(density=[7.0, 9.0]))
        assert cfg.densities_per_km == (7.0, 9.0)

    def test_run_config_sweeps_like_its_spec(self):
        raw = dict(MINIMAL, methods=["oracle", "chain", "analytic"], trials=30, master_seed=4)
        spec = ExperimentSpec((5.0, 10.0, 15.0), 10_000.0, FixedRange(750.0),
                              ("oracle", "chain", "analytic"), "undirected", 30, 4)
        assert sweep(parse_config(raw)) == sweep(spec)

    def test_invalid_direction_policy_combo_is_config_error(self):
        raw = dict(MINIMAL, direction="undirected",
                   range_policy={"type": "two_tier", "range_low_m": 500,
                                 "range_high_m": 1000, "fraction_high": 0.5})
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = parse_config(load_config_file(path))
        assert cfg.densities_per_km == (5.0, 10.0, 15.0)

    def test_config_file_unknown_top_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(MINIMAL, extra=1)))
        with pytest.raises(ConfigError, match="extra"):
            load_config_file(path)


class TestEmitCsv:
    def spec(self, **kw):
        return ExperimentSpec((10.0,), 10_000.0, FixedRange(750.0),
                              ("oracle", "analytic"), "undirected", 25, 1)

    def test_single_estimate_two_lines(self, tmp_path):
        row = ConnectivityEstimate(10.0, "oracle", "fixed:R=750", 0.5, 0.1, 10, 20, 1)
        path = emit_csv([row], tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1] == "10,oracle,fixed:R=750,0.5,0.1,20,1"

    def test_rerun_byte_identical(self, tmp_path):
        rows = sweep(self.spec())
        a = emit_csv(rows, tmp_path / "a.csv").read_bytes()
        b = emit_csv(sweep(self.spec()), tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_analytic_rows_carry_zero_trials(self, tmp_path):
        rows = sweep(self.spec())
        parsed = read_rows(emit_csv(rows, tmp_path / "c.csv"))
        analytic = [r for r in parsed if r["method"] == "analytic"]
        assert analytic and all(r["trials"] == "0" and float(r["stderr"]) == 0.0
                                for r in analytic)

    def test_round_trip_at_printed_precision(self, tmp_path):
        rows = sweep(self.spec())
        parsed = read_rows(emit_csv(rows, tmp_path / "d.csv"))
        by_key = {(float(r["density_per_km"]), r["method"]): r for r in parsed}
        for row in rows:
            got = by_key[(row.density_per_km, row.method)]
            assert float(got["p_hat"]) == float(f"{row.p_hat:.6g}")
            assert float(got["stderr"]) == float(f"{row.stderr:.6g}")

    def test_rows_sorted_density_then_method(self, tmp_path):
        rows = [
            ConnectivityEstimate(12.0, "oracle", "fixed:R=750", 1.0, 0.0, 5, 5, 1),
            ConnectivityEstimate(4.0, "oracle", "fixed:R=750", 0.2, 0.1, 1, 5, 1),
            ConnectivityEstimate(4.0, "chain", "fixed:R=750", 0.2, 0.1, 1, 5, 1),
        ]
        parsed = read_rows(emit_csv(rows, tmp_path / "e.csv"))
        assert [(r["density_per_km"], r["method"]) for r in parsed] == [
            ("4", "chain"), ("4", "oracle"), ("12", "oracle")]

    def test_discrete_support_label(self, tmp_path):
        spec = ExperimentSpec((10.0,), 10_000.0, UniformRange(750.0, 100.0, support=[650, 850]),
                              ("analytic",), "upward", 25, 1)
        parsed = read_rows(emit_csv(sweep(spec), tmp_path / "g.csv"))
        assert [r["range_policy"] for r in parsed] == ["uniform:mean=750:std=100:levels=2"]

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "f.csv")


class TestFigurePresets:
    def test_fig1_row_coverage(self, tmp_path):
        path = run_figure_preset("fig1", master_seed=3, trials_traversal=2,
                                 trials_spectral=2, outdir=tmp_path)
        rows = read_rows(path)
        # 24 densities x 3 ranges x 5 methods
        assert len(rows) == 24 * 3 * 5
        assert {r["method"] for r in rows} == {"oracle", "chain", "laplacian",
                                               "exponent", "analytic"}
        assert len({r["range_policy"] for r in rows}) == 3

    def test_fig5_policies_and_methods(self, tmp_path):
        path = run_figure_preset("fig5", master_seed=3, trials_traversal=2,
                                 trials_spectral=2, outdir=tmp_path)
        rows = read_rows(path)
        assert len({r["range_policy"] for r in rows}) == 5
        assert {r["method"] for r in rows} == {"chain", "laplacian", "analytic",
                                               "analytic-chain"}

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            run_figure_preset("fig9", outdir=tmp_path)

    def test_preset_starts_one_pool(self, tmp_path, monkeypatch):
        # every cell has two chunks; the stand-in pool runs each chunk over
        # an empty trial range, so only the pool plumbing is exercised
        started, cells = [], set()

        class StandInPool:
            def __init__(self, max_workers, initializer=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                for spec, density_index, start, _ in chunks:
                    cells.add((spec, density_index))
                    yield fn((spec, density_index, start, start))

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", StandInPool)
        set_usable_cpus(monkeypatch, 2)
        trials = montecarlo.CHUNK_SIZE + 1
        run_figure_preset("fig1", trials_traversal=trials, trials_spectral=trials,
                          outdir=tmp_path, workers=2)
        assert started == [2]
        assert len(cells) == 6 * len(cli.PRESET_DENSITIES)

    # SHA-256 of each preset's CSV at master seed 1 and 30 trials per method
    # class; the same bytes for any worker count
    @pytest.mark.parametrize("name, digest", [
        ("fig1", "a45721c7eb0d66bba6cd9a42184792f93812c231b5f2a71c44f3e4458bc8533f"),
        ("fig5", "e164bbdc4dbd995a14adfe0f1cf8f9892effbf071ae00b13195345175b68e01f"),
        ("fig6", "e8090bffa4f4936ef21e9c94ee78f24ba1c4939db027ca1b41399a247b4637b1"),
    ])
    def test_preset_csv_digests(self, name, digest, tmp_path):
        path = run_figure_preset(name, master_seed=1, trials_traversal=30, trials_spectral=30,
                                 outdir=tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_preset_rerun_identical(self, tmp_path):
        a = run_figure_preset("fig6", master_seed=5, trials_traversal=2,
                              trials_spectral=2, outdir=tmp_path / "a")
        b = run_figure_preset("fig6", master_seed=5, trials_traversal=2,
                              trials_spectral=2, outdir=tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()


class TestMainEntry:
    def test_single_prints_table(self, capsys, tmp_path):
        code = cli.main(["single", "--density", "10", "--policy", "fixed",
                         "--range", "750", "--trials", "30", "--seed", "4",
                         "--method", "oracle", "--method", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "analytic" in out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--density-start", "4", "--density-stop", "8",
                         "--density-step", "2", "--policy", "fixed", "--range", "600",
                         "--trials", "10", "--method", "oracle", "--output", str(out)])
        assert code == 0
        assert len(read_rows(out)) == 3

    @pytest.mark.parametrize("command", ["single", "sweep", "analytic", "compare"])
    def test_verbose_only_adds_stderr_lines(self, command, tmp_path, capsys):
        argv = [command, "--density", "8", "--policy", "fixed", "--range", "600",
                "--trials", "12", "--method", "oracle", "--method", "chain"]
        outputs = []
        for name, flags in (("quiet.csv", []), ("loud.csv", ["-v"])):
            assert cli.main(argv + ["--output", str(tmp_path / name)] + flags) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out.replace(name, ""), captured.err))
        (quiet_out, quiet_err), (loud_out, loud_err) = outputs
        assert quiet_out == loud_out and quiet_err == ""
        assert loud_err.startswith(f"{command}: fixed:R=600 methods=")
        assert (tmp_path / "quiet.csv").read_bytes() == (tmp_path / "loud.csv").read_bytes()

    def test_analytic_subcommand(self, capsys):
        code = cli.main(["analytic", "--density", "10", "--policy", "fixed",
                         "--range", "1000"])
        assert code == 0
        assert "0.99551" in capsys.readouterr().out

    def test_compare_subcommand(self, capsys):
        code = cli.main(["compare", "--density", "10", "--policy", "fixed",
                         "--range", "750", "--trials", "20",
                         "--method", "oracle", "--method", "chain"])
        assert code == 0
        assert "total disagreements: 0" in capsys.readouterr().out

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0

    def test_config_error_exit_code(self, capsys):
        code = cli.main(["single", "--density", "10", "--policy", "two_tier",
                         "--range-low", "500", "--range-high", "1000",
                         "--fraction-high", "1.5"])
        assert code == 2
        assert "fraction_high" in capsys.readouterr().err

    @pytest.mark.parametrize("policy, expected", [
        (["--policy", "fixed", "--range", "750"], {"analytic"}),
        (["--policy", "two_tier", "--range-low", "500", "--range-high", "1000",
          "--fraction-high", "0.5"], {"analytic", "analytic-chain"}),
    ])
    def test_analytic_above_dense_cap(self, policy, expected, capsys):
        # 6,000 vehicles: the default methods include the dense ones, but the
        # analytic subcommand drops every trial method before validation
        code = cli.main(["analytic", "--density", "1", "--segment-length", "6000000"] + policy)
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert {row.split()[1] for row in rows} == expected

    @pytest.mark.parametrize("argv", [
        ["--density", "inf", "--policy", "fixed", "--range", "750"],
        ["--density", "10", "--policy", "fixed", "--range", "nan"],
        ["--density", "10", "--policy", "uniform", "--mean", "inf", "--std", "100"],
        ["--density", "1e300", "--segment-length", "1e300", "--policy", "fixed",
         "--range", "750"],
    ])
    def test_non_finite_numbers_are_config_errors(self, argv, capsys):
        assert cli.main(["single", "--trials", "5", "--method", "oracle"] + argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_dense_method_above_cap_is_config_error(self, capsys):
        # 1 veh/km over MAX_DENSE_VEHICLES + 1 km; refused before any trial runs
        length = (montecarlo.MAX_DENSE_VEHICLES + 1) * 1000.0
        code = cli.main(["single", "--density", "1", "--segment-length", str(length),
                         "--policy", "fixed", "--range", "750", "--trials", "1",
                         "--method", "laplacian"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "methods" in err

    def test_density_warning_over_free_flow(self, capsys):
        code = cli.main(["single", "--density", "40", "--policy", "fixed",
                         "--range", "750", "--trials", "5", "--method", "oracle"])
        assert code == 0
        assert "free-flow" in capsys.readouterr().err

    def test_figure_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code = cli.main(["figure", "fig5", "--trials", "2", "--seed", "9"])
        assert code == 0
        assert (tmp_path / "fig5.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_figure_bad_trials_is_config_error(self, trials, tmp_path, capsys):
        code = cli.main(["figure", "fig1", "--trials", trials, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "config error: trials must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "fig1.csv").exists()

    def test_compare_output_creates_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "c.csv"
        code = cli.main(["compare", "--density", "10", "--policy", "fixed", "--range", "750",
                         "--trials", "5", "--method", "oracle", "--method", "chain",
                         "--output", str(out)])
        assert code == 0
        assert out.read_text() == ("density_per_km,method_a,method_b,disagreements,trials\n"
                                   "10,oracle,chain,0,5\n")

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file"),
                                              (".", "Is a directory")])
    def test_unreadable_config_is_config_error(self, name, reason, tmp_path, capsys):
        path = tmp_path / name
        assert cli.main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {path}: {reason}")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--density", "10", "--policy", "fixed", "--range", "750", "--trials", "5",
         "--method", "oracle", "--output"],
        ["figure", "fig1", "--trials", "5", "--output-dir"],
    ])
    def test_workers_below_one_is_config_error(self, command, workers, tmp_path, capsys):
        code = cli.main(command + [str(tmp_path / "out"), "--workers", workers])
        assert code == 2
        assert f"config error: workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys):
        # seed -1 would run the streams of seed 2**64 - 1
        code = cli.main(["sweep", "--density", "10", "--policy", "fixed", "--range", "750",
                         "--trials", "5", "--method", "oracle", "--seed", "-1",
                         "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "config error: master_seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, override", [
        ("range_policy.range_m", {"range_policy": {"type": "fixed", "range_m": 10 ** 400}}),
        ("range_policy.support[1]", {"range_policy": {"type": "uniform", "mean_m": 750,
                                                      "std_m": 100, "support": [650, 10 ** 400]}}),
        ("segment_length_m", {"segment_length_m": -10 ** 400}),
    ])
    def test_number_beyond_float_range_is_config_error(self, key, override, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(MINIMAL, **override)))
        assert cli.main(["sweep", "--config", str(path), "--trials", "5"]) == 2
        assert f"config error: {key}: 401-digit number overflows a float" \
            in capsys.readouterr().err

    def test_binary_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert f"config error: config file {path}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("policy, key", [
        ({"type": "two_tier", "range_low_m": 500, "range_high_m": 1000,
          "fraction_high": 0.5, "exact_count": "no"}, "range_policy.exact_count"),
        ({"type": "uniform", "mean_m": 750, "std_m": 100, "support": 5},
         "range_policy.support"),
        ({"type": "fixed", "range_m": "750"}, "range_policy.range_m"),
        ({"type": "two_tier", "range_low_m": True, "range_high_m": 1000,
          "fraction_high": 0.5}, "range_policy.range_low_m"),
        ({"type": "two_tier", "range_low_m": 500, "range_high_m": None,
          "fraction_high": 0.5}, "range_policy.range_high_m"),
        ({"type": "two_tier", "range_low_m": 500, "range_high_m": 1000,
          "fraction_high": "0.5"}, "range_policy.fraction_high"),
        ({"type": "uniform", "mean_m": [750], "std_m": 100}, "range_policy.mean_m"),
        ({"type": "uniform", "mean_m": 750, "std_m": False}, "range_policy.std_m"),
    ])
    def test_wrong_typed_policy_value_is_config_error(self, policy, key, tmp_path, capsys):
        # a JSON string is not a boolean, a number is not a list of levels,
        # and a string, a boolean, null or a list is not a number
        path, out = tmp_path / "run.json", tmp_path / "out.csv"
        path.write_text(json.dumps(dict(MINIMAL, range_policy=policy, trials=5,
                                        methods=["chain"])))
        assert cli.main(["sweep", "--config", str(path), "--output", str(out)]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, argv, key", [
        ("sweep", dict(QUICK, densities_per_km={"start": 2, "stop": 5, "by": 1}), [],
         "densities_per_km:"),
        ("sweep", dict(QUICK, densities_per_km={"stop": 5}), [], "densities_per_km.start:"),
        ("sweep", dict(QUICK, densities_per_km={"start": 5, "stop": 2}), [], "densities_per_km:"),
        ("sweep", dict(QUICK, densities_per_km=5), [], "densities_per_km:"),
        ("sweep", QUICK, ["--density-start", "2"], "densities_per_km:"),
        ("sweep", dict(QUICK, range_policy=750), [], "range_policy:"),
        ("sweep", dict(QUICK, range_policy={"type": "fixd"}), [], "range_policy.type:"),
        ("sweep", dict(QUICK, range_policy={"type": "two_tier", "range_low_m": 500,
                                            "range_high_m": 1000}), [],
         "range_policy.fraction_high:"),
        ("sweep", {k: v for k, v in QUICK.items() if k != "range_policy"}, [], "range_policy:"),
        ("sweep", dict(QUICK, range_policy={"type": "uniform", "mean_m": 750, "std_m": 100,
                                            "support": [750]}), [], "range_policy.support:"),
        ("sweep", dict(QUICK, range_policy={"type": "uniform", "mean_m": 750, "std_m": 100,
                                            "support": [700, 900]}), [], "range_policy.support:"),
        ("sweep", [1, 2], [], "config file"),
        ("sweep", dict(QUICK, methods=[]), [], "methods:"),
        ("single", QUICK, ["--density", "5", "--density", "10"], "densities_per_km:"),
        ("compare", QUICK, [], "methods:"),
        ("sweep", dict(QUICK, methods=["oracle", "oracle"]), [], "methods:"),
        ("sweep", dict(QUICK, direction="sideways"), [], "direction:"),
    ], ids=["grid-unknown-key", "grid-no-start", "grid-stop-below-start", "grid-number",
            "density-start-alone", "policy-number", "policy-unknown-type",
            "two-tier-no-fraction", "no-policy", "support-one-level", "support-wrong-mean",
            "file-not-object", "methods-empty", "single-two-densities", "compare-one-method",
            "methods-duplicate", "direction-unknown"])
    def test_refusal_names_its_key(self, command, config, argv, key, tmp_path, capsys):
        path, out = tmp_path / "run.json", tmp_path / "out.csv"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path), "--output", str(out)] + argv) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, argv", [
        ({"start": 1, "stop": 2, "step": 1e-300}, []),
        ([5], ["--density-start", "1", "--density-stop", "2", "--density-step", "1e-300"]),
    ], ids=["json", "flags"])
    def test_grid_past_seed_streams_is_config_error(self, grid, argv, tmp_path, capsys):
        # trial_seed keeps 32 bits of the grid index; this grid would also
        # never finish building, since the step does not move the start
        path, out = tmp_path / "run.json", tmp_path / "out.csv"
        path.write_text(json.dumps(dict(QUICK, densities_per_km=grid)))
        assert cli.main(["sweep", "--config", str(path), "--output", str(out)] + argv) == 2
        assert "config error: densities_per_km: step 1e-300 makes over 2**32 grid points" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy, unknown", [
        (["--policy", "two_tier", "--range-low", "500", "--range-high", "1000",
          "--fraction-high", "0.5", "--mean", "3"], ["mean_m"]),
        (["--policy", "fixed", "--range", "750", "--range-low", "300"], ["range_low_m"]),
    ])
    def test_policy_flag_the_type_does_not_take_is_config_error(self, policy, unknown,
                                                               capsys):
        argv = ["single", "--density", "10", "--trials", "5", "--method", "chain"] + policy
        assert cli.main(argv) == 2
        assert f"config error: range_policy: unknown keys {unknown}" in capsys.readouterr().err

    def test_policy_flags_override_file_policy_key_by_key(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"range_policy": {
            "type": "two_tier", "range_low_m": 500, "range_high_m": 1000, "fraction_high": 0.5}}))
        code = cli.main(["single", "--config", str(path), "--density", "10", "--trials", "5",
                         "--method", "chain", "--range-low", "300", "--fraction-high", "0.9",
                         "-v"])
        assert code == 0
        assert capsys.readouterr().err.startswith(
            "single: two_tier:R1=300:R2=1000:p_high=0.9 methods=chain")

    def test_bad_support_level_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as usage_exit:
            cli.main(["single", "--density", "10", "--policy", "uniform", "--mean", "750",
                      "--std", "250", "--support", "500,abc"])
        assert usage_exit.value.code == 2
        assert "argument --support: invalid number_list value: '500,abc'" \
            in capsys.readouterr().err

    def test_output_directory_is_config_error(self, tmp_path, capsys):
        code = cli.main(["sweep", "--density", "8", "--policy", "fixed", "--range", "600",
                         "--trials", "5", "--method", "oracle", "--output", str(tmp_path)])
        assert code == 2
        assert f"config error: output {tmp_path}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
