"""Command-line front end: JSON config + flag overrides, density sweeps,
canned figure presets, CSV emission, method-agreement audits, and a built-in
selftest."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import connectivity, graphs, montecarlo, ranges, traffic
from .montecarlo import (
    DEFAULT_SPECTRAL_TRIALS,
    DEFAULT_TRAVERSAL_TRIALS,
    DENSE_METHODS,
    TRIAL_METHODS,
    VALID_METHODS,
    ExperimentSpec,
)
from .ranges import FixedRange, TwoTierRange, UniformRange
from .traffic import check_count, check_positive

CSV_HEADER = "density_per_km,method,range_policy,p_hat,stderr,trials,master_seed"
OUTPUT_DIR_ENV = "VANETCONN_OUTPUT_DIR"
DEFAULT_MASTER_SEED = 1
DEFAULT_SEGMENT_LENGTH_M = 10_000.0

PRESET_DENSITIES = tuple(float(d) for d in range(2, 26))
PRESET_NAMES = ("fig1", "fig5", "fig6")

_TOP_KEYS = {
    "segment_length_m", "densities_per_km", "trials", "master_seed",
    "direction", "methods", "range_policy",
}
_POLICY_TYPES = {"fixed": FixedRange, "two_tier": TwoTierRange, "uniform": UniformRange}


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key path."""


@dataclasses.dataclass(frozen=True)
class RunConfig(ExperimentSpec):
    """Validated experiment spec plus where to write it and how many worker
    processes to use; pass it wherever an ExperimentSpec goes."""

    output: str | None = None
    workers: int = 1

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "workers", check_count("workers", self.workers, 1))


# --- config assembly ---------------------------------------------------------


def _densities_from_raw(raw, key="densities_per_km"):
    """A start/stop/step grid object as its densities; a list as it is, for
    ExperimentSpec to check."""
    if isinstance(raw, dict):
        unknown = set(raw) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"{key}: unknown keys {sorted(unknown)}")
        try:
            start, stop = raw["start"], raw["stop"]
        except KeyError as missing:
            raise ConfigError(f"{key}.{missing.args[0]}: required for a range grid") from None
        start = check_positive(f"{key}.start", start)
        stop = check_positive(f"{key}.stop", stop)
        step = check_positive(f"{key}.step", raw.get("step", 1))
        if stop < start:
            raise ConfigError(f"{key}: stop {stop:g} is below start {start:g}")
        if (stop + 1e-9 - start) / step >= 2 ** 32:  # trial_seed keeps 32 bits of the index
            raise ConfigError(f"{key}: step {step:g} makes over 2**32 grid points from "
                              f"{start:g} to {stop:g}; the seed would reuse streams")
        values = [start]
        while start + len(values) * step <= stop + 1e-9:
            values.append(start + len(values) * step)
        return tuple(values)
    if isinstance(raw, (list, tuple)):
        return raw
    raise ConfigError(f"{key}: expected a list or a start/stop/step object, got {raw!r}")


def _policy_from_raw(raw, key="range_policy"):
    """The range policy of a config object: its "type" picks the class, whose
    fields are the other keys and whose constructor checks their values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected an object, got {raw!r}")
    kind = raw.get("type")
    cls = _POLICY_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{key}.type: expected one of {sorted(_POLICY_TYPES)}, got {kind!r}")
    values = {k: v for k, v in raw.items() if k != "type"}
    fields = dataclasses.fields(cls)
    unknown = set(values) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{key}: unknown keys {sorted(unknown)} for type {kind!r}")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in values:
            raise ConfigError(f"{key}.{f.name}: required for type {kind!r}")
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"{key}.{err}") from None


def load_config_file(path) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except ValueError as err:  # JSONDecodeError, or UnicodeDecodeError on binary input
        raise ConfigError(f"config file {path}: not valid JSON ({err})") from None
    except OSError as err:
        raise ConfigError(f"config file {path}: {err.strerror}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {sorted(unknown)}")
    return raw


def _flag_policy(args, raw):
    """The file's policy with the policy flags laid over it key by key, or a
    fresh policy of the --policy type (fixed for --range alone)."""
    names = {f.name for cls in _POLICY_TYPES.values() for f in dataclasses.fields(cls)}
    flags = {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}
    kind = getattr(args, "policy", None) or ("fixed" if "range_m" in flags else None)
    if kind is not None:
        return {"type": kind, **flags}
    return {**raw, **flags} if flags and isinstance(raw, dict) else raw


def parse_config(file_config: dict | None = None, flags=None) -> RunConfig:
    """Merge hard defaults, a config-file dict, and CLI flags (flags win),
    then validate everything with key-path error messages."""
    cfg = dict(file_config or {})
    args = flags or argparse.Namespace()

    if getattr(args, "density", None):
        cfg["densities_per_km"] = list(args.density)
    elif getattr(args, "density_start", None) is not None \
            or getattr(args, "density_stop", None) is not None:
        if args.density_start is None or args.density_stop is None:
            raise ConfigError("densities_per_km: both --density-start and --density-stop "
                              "are required for a range grid")
        cfg["densities_per_km"] = {
            "start": args.density_start, "stop": args.density_stop,
            "step": args.density_step if args.density_step is not None else 1,
        }
    cfg["range_policy"] = _flag_policy(args, cfg.get("range_policy"))
    for key in ("segment_length_m", "trials", "master_seed", "direction"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "method", None):
        cfg["methods"] = list(args.method)

    if "densities_per_km" not in cfg:
        raise ConfigError("densities_per_km: required (config key or --density flags)")
    if cfg["range_policy"] is None:
        raise ConfigError("range_policy: required (config key or --policy/--range flags)")
    policy = _policy_from_raw(cfg["range_policy"])

    direction = cfg.get("direction")
    if direction is None:
        direction = "undirected" if isinstance(policy, FixedRange) else "upward"

    methods = cfg.get("methods")
    if methods is None:
        methods = list(TRIAL_METHODS) + ["analytic"]
        if not isinstance(policy, FixedRange):
            methods.append("analytic-chain")
    if not isinstance(methods, (list, tuple)) or not methods:
        raise ConfigError("methods: expected a non-empty list")
    if getattr(args, "command", None) == "analytic":  # closed forms only, no trials
        methods = [m for m in methods if m not in TRIAL_METHODS] or ["analytic"]

    trials = cfg.get("trials")
    if trials is None:
        dense = any(m in DENSE_METHODS for m in methods)
        trials = DEFAULT_SPECTRAL_TRIALS if dense else DEFAULT_TRAVERSAL_TRIALS

    try:
        return RunConfig(
            densities_per_km=_densities_from_raw(cfg["densities_per_km"]),
            segment_length_m=cfg.get("segment_length_m", DEFAULT_SEGMENT_LENGTH_M),
            policy=policy, methods=methods, direction=direction, trials=trials,
            master_seed=cfg.get("master_seed", DEFAULT_MASTER_SEED),
            output=getattr(args, "output", None),
            workers=1 if getattr(args, "workers", None) is None else args.workers,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


# --- CSV emission -------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def emit_csv(table, path) -> Path:
    """Write estimates as CSV: fixed header, 6 significant digits, rows sorted
    by density, then method, then policy label.  Deterministic byte-for-byte."""
    if not table:
        raise ValueError("refusing to write an empty results table")
    rows = sorted(table, key=lambda r: (r.density_per_km, r.method, r.policy))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join((
            _fmt(r.density_per_km), r.method, r.policy, _fmt(r.p_hat),
            _fmt(r.stderr), str(r.trials), str(r.master_seed),
        )))
    return _write_lines(lines, path)


def _write_lines(lines, path) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as err:  # a directory, a missing permission
        raise ConfigError(f"output {path}: {err.strerror}") from None
    return path


# --- figure presets -------------------------------------------------------------


def _preset_specs(name: str, master_seed: int, trials_traversal: int, trials_spectral: int):
    if name == "fig1":
        for comm_range in (500.0, 750.0, 1000.0):
            policy = FixedRange(comm_range)
            yield ExperimentSpec(PRESET_DENSITIES, DEFAULT_SEGMENT_LENGTH_M, policy,
                                 ("oracle", "chain", "analytic"), "undirected",
                                 trials_traversal, master_seed)
            yield ExperimentSpec(PRESET_DENSITIES, DEFAULT_SEGMENT_LENGTH_M, policy,
                                 ("laplacian", "exponent"), "undirected",
                                 trials_spectral, master_seed)
        return
    if name == "fig5":
        policies = [TwoTierRange(500.0, 1000.0, f) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    elif name == "fig6":
        policies = [UniformRange(m, 100.0) for m in (500.0, 750.0, 1000.0)]
    else:
        raise ConfigError(f"unknown preset {name!r}; valid: {PRESET_NAMES}")
    for policy in policies:
        yield ExperimentSpec(PRESET_DENSITIES, DEFAULT_SEGMENT_LENGTH_M, policy,
                             ("chain", "analytic", "analytic-chain"), "upward",
                             trials_traversal, master_seed)
        yield ExperimentSpec(PRESET_DENSITIES, DEFAULT_SEGMENT_LENGTH_M, policy,
                             ("laplacian",), "upward", trials_spectral, master_seed)


def run_figure_preset(name: str, master_seed: int = DEFAULT_MASTER_SEED,
                      trials_traversal: int = DEFAULT_TRAVERSAL_TRIALS,
                      trials_spectral: int = DEFAULT_SPECTRAL_TRIALS,
                      outdir=".", workers: int = 1, verbose: int = 0) -> Path:
    """Run one canned experiment family and write <outdir>/<name>.csv.

    fig1: fixed ranges 500/750/1000 m, undirected, all methods + closed form.
    fig5: upward two-tier 500/1000 m mixes at five high-range fractions.
    fig6: upward uniform random ranges, means 500/750/1000 m, std 100 m.
    """
    try:
        check_count("workers", workers, 1)
        specs = list(_preset_specs(name, master_seed, trials_traversal, trials_spectral))
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _announce(f"preset {name}", specs, verbose)
    return emit_csv(montecarlo.sweep(*specs, workers=workers), Path(outdir) / f"{name}.csv")


def _announce(prefix: str, specs, verbose: int) -> None:
    """With -v, one stderr line per spec about to run."""
    if verbose:
        for spec in specs:
            print(f"{prefix}: {ranges.policy_label(spec.policy)} "
                  f"methods={','.join(spec.methods)} trials={spec.trials}", file=sys.stderr)


# --- selftest ---------------------------------------------------------------


def _golden_three_vehicle():
    """The two-range three-vehicle example with known matrices and verdicts."""
    spacing = traffic.spacing_matrix(traffic.HeadwayVector(np.array([200.0, 400.0])))
    assignment = ranges.RangeAssignment(np.array([300.0, 250.0, 500.0]))
    return graphs.build_adjacency(spacing, assignment)


def _check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"{status:4s} - {name}" + (f" ({detail})" if detail and not ok else ""))
    return ok


def selftest() -> int:
    """Golden three-vehicle matrices and spectra, and the exact-walk verdict
    on every small interval pattern."""
    ok = True
    adjacency = _golden_three_vehicle()
    expected_full = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=bool)
    ok &= _check("three-vehicle adjacency", np.array_equal(adjacency.entries, expected_full))

    upward = graphs.project(adjacency, "upward")
    downward = graphs.project(adjacency, "downward")
    sym_up = graphs.symmetrize(upward)
    sym_down = graphs.symmetrize(downward)
    ok &= _check("upward projection",
                 np.array_equal(upward.entries, np.triu(expected_full, 1)))
    ok &= _check("downward projection",
                 np.array_equal(downward.entries, np.tril(expected_full, -1)))
    ok &= _check("symmetrized upward",
                 np.array_equal(sym_up.entries,
                                np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)))
    ok &= _check("symmetrized downward",
                 np.array_equal(sym_down.entries,
                                np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)))

    lap_up = graphs.laplacian(sym_up)
    lap_down = graphs.laplacian(sym_down)
    ok &= _check("upward pseudo-Laplacian",
                 np.array_equal(lap_up.entries,
                                np.array([[1., -1., 0.], [-1., 1., 0.], [0., 0., 0.]])))
    ok &= _check("downward pseudo-Laplacian",
                 np.array_equal(lap_down.entries,
                                np.array([[1., -1., 0.], [-1., 2., -1.], [0., -1., 1.]])))
    eig_up = connectivity.eigenvalues_symmetric(lap_up).eigenvalues
    eig_down = connectivity.eigenvalues_symmetric(lap_down).eigenvalues
    ok &= _check("upward spectrum {0, 0, 2}",
                 bool(np.allclose(eig_up, [0.0, 0.0, 2.0], atol=1e-9)))
    ok &= _check("downward spectrum {0, 1, 3}",
                 bool(np.allclose(eig_down, [0.0, 1.0, 3.0], atol=1e-9)))
    ok &= _check("downward connected, upward not",
                 connectivity.is_connected_laplacian(lap_down)
                 and not connectivity.is_connected_laplacian(lap_up))

    # exact-length walk verdict equals the consecutive-chain test on every
    # small index-increasing pattern
    mismatch = 0
    for n in range(2, 7):
        for pattern in _interval_patterns(n):
            a = graphs.Adjacency(pattern, "upward")
            if connectivity.is_connected_exponent(a) != connectivity.consecutive_chain(a):
                mismatch += 1
    ok &= _check("exact-walk verdict == chain on small one-way patterns",
                 mismatch == 0, f"{mismatch} mismatches")

    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def _interval_patterns(n: int):
    """All strictly-upper-triangular boolean matrices whose rows are prefix
    patterns (each transmitter covers a contiguous run of successors)."""
    import itertools

    spans = [range(n - i) for i in range(n - 1)]
    for lengths in itertools.product(*spans):
        entries = np.zeros((n, n), dtype=bool)
        for i, length in enumerate(lengths):
            entries[i, i + 1:i + 1 + length] = True
        yield entries


# --- subcommands --------------------------------------------------------------


def _config(args) -> RunConfig:
    """The subcommand's run config from its file and flags; warns on stderr
    when a density lies outside the free-flow regime."""
    cfg = parse_config(load_config_file(args.config) if args.config else None, args)
    worst = max(cfg.densities_per_km)
    if worst > traffic.FREE_FLOW_MAX_DENSITY_PER_KM:
        print(f"warning: density {worst:g} veh/km exceeds the free-flow regime "
              f"(<= {traffic.FREE_FLOW_MAX_DENSITY_PER_KM:g} veh/km) the headway "
              "model assumes", file=sys.stderr)
    return cfg


def _report(rows, output) -> int:
    if output:
        print(f"wrote {emit_csv(rows, output)}")
    else:
        _print_estimates(rows)
    return 0


def _print_estimates(rows) -> None:
    print(f"{'density/km':>10}  {'method':<14} {'p_hat':>9} {'stderr':>9} {'trials':>7}")
    for r in sorted(rows, key=lambda r: (r.density_per_km, r.method, r.policy)):
        print(f"{r.density_per_km:>10.6g}  {r.method:<14} {r.p_hat:>9.6g} "
              f"{r.stderr:>9.6g} {r.trials:>7}")


def _default_outdir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _cmd_single(args) -> int:
    cfg = _config(args)
    if len(cfg.densities_per_km) != 1:
        raise ConfigError("densities_per_km: the single command takes exactly one density")
    _announce("single", (cfg,), args.verbose)
    rows = montecarlo.estimate(cfg, 0, workers=cfg.workers)
    _print_estimates(rows)
    if cfg.output:
        print(f"wrote {emit_csv(rows, cfg.output)}")
    return 0


def _cmd_sweep(args) -> int:
    """``sweep``, and ``analytic``, whose config holds no trial method."""
    cfg = _config(args)
    _announce(args.command, (cfg,), args.verbose)
    return _report(montecarlo.sweep(cfg, workers=cfg.workers), cfg.output)


def _cmd_figure(args) -> int:
    path = run_figure_preset(
        args.name,
        master_seed=args.seed,
        trials_traversal=DEFAULT_TRAVERSAL_TRIALS if args.trials is None else args.trials,
        trials_spectral=DEFAULT_SPECTRAL_TRIALS if args.trials is None else args.trials,
        outdir=_default_outdir(args),
        workers=args.workers,
        verbose=args.verbose,
    )
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _config(args)
    _announce("compare", (cfg,), args.verbose)
    try:
        report = montecarlo.compare_methods(cfg, workers=cfg.workers)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    print(f"{'density/km':>10}  {'methods':<24} {'disagree':>9} {'trials':>7}")
    total = 0
    for row in report:
        total += row.count
        print(f"{row.density_per_km:>10.6g}  {row.method_a + ' vs ' + row.method_b:<24} "
              f"{row.count:>9} {row.trials:>7}")
    print(f"total disagreements: {total}")
    if cfg.output:
        lines = ["density_per_km,method_a,method_b,disagreements,trials"]
        lines += [f"{_fmt(r.density_per_km)},{r.method_a},{r.method_b},{r.count},{r.trials}"
                  for r in report]
        print(f"wrote {_write_lines(lines, cfg.output)}")
    return 0


def number_list(text: str) -> list:
    """A comma-separated list of numbers; argparse reports a bad one as a
    usage error."""
    return [float(v) for v in text.split(",")]


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--density", action="append", type=float,
                        help="density in veh/km (repeatable)")
    parser.add_argument("--density-start", type=float)
    parser.add_argument("--density-stop", type=float)
    parser.add_argument("--density-step", type=float)
    parser.add_argument("--segment-length", dest="segment_length_m", type=float,
                        help="road length in meters (default 10000)")
    # each policy flag's dest is its range_policy key, which _flag_policy relies on
    parser.add_argument("--policy", choices=sorted(_POLICY_TYPES))
    parser.add_argument("--range", dest="range_m", type=float,
                        help="fixed communication range in meters")
    parser.add_argument("--range-low", dest="range_low_m", type=float)
    parser.add_argument("--range-high", dest="range_high_m", type=float)
    parser.add_argument("--fraction-high", dest="fraction_high", type=float)
    parser.add_argument("--exact-count", dest="exact_count", action="store_true", default=None,
                        help="two-tier: assign exactly round(fraction*n) high ranges")
    parser.add_argument("--mean", dest="mean_m", type=float, help="uniform policy mean range (m)")
    parser.add_argument("--std", dest="std_m", type=float, help="uniform policy std dev (m)")
    parser.add_argument("--support", type=number_list,
                        help="comma-separated discrete range levels (m)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    parser.add_argument("--method", action="append", choices=VALID_METHODS,
                        help="method to run (repeatable)")
    parser.add_argument("--direction", choices=montecarlo.DIRECTIONS)
    parser.add_argument("--output", help="CSV output path")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetconn",
        description="Connectivity-probability estimation for 1-D highway "
                    "vehicle networks by spectral, walk-counting, traversal, "
                    "and closed-form methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler in (
        ("single", "estimate at one density", _cmd_single),
        ("sweep", "estimate over a density grid", _cmd_sweep),
        ("analytic", "closed-form curves only (no trials)", _cmd_sweep),
        ("compare", "per-realization method agreement audit", _cmd_compare),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_experiment_flags(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("figure", help="run a canned preset and write its CSV")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--trials", type=int,
                   help="override trial count for every method class")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-v", "--verbose", action="count", default=0)
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("selftest", help="run built-in golden checks")
    p.set_defaults(handler=lambda args: selftest())

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
