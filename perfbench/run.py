"""vanetconn benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload fig1_traversal --seed 3 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30     # every workload, both modes
  python3 perfbench/run.py --workload all --seed 1 --seconds 1 --smoke   # tiny sizes

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced replay.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json; perfbench/README.md defines each one.

This script uses only the standard library.  It imports nothing from the
package itself: the setup probes and the measured run are fresh interpreters
(driver.py) that import ``src/vanetconn`` of this checkout.  The benchmark
never sets a BLAS or OpenMP thread variable; children inherit the
environment as found.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RECORDED_SEED = 1
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 7
SMOKE_SETUP_REPEATS = 2


class BenchError(RuntimeError):
    pass


def _stop(proc: subprocess.Popen) -> None:
    """Kill the child's whole process group (the driver and any pool workers
    it started) and reap the child."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _driver_cmd(mode, workload, seed, *extra):
    return [sys.executable, str(BENCH_DIR / "driver.py"), mode, "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), *extra]


def setup_seconds(workload: str, seed: int, timeout: float) -> float:
    """Wall time from launching a fresh interpreter until it has imported
    vanetconn, built and validated the specs and started the pool."""
    start = time.perf_counter()
    proc = subprocess.Popen(_driver_cmd("setup", workload, seed), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=max(1.0, timeout - elapsed))
    except subprocess.TimeoutExpired:
        raise BenchError(f"setup probe for {workload} did not finish") from None
    finally:
        proc.stdout.close()
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def drive(mode: str, workload: str, seed: int, seconds: float, smoke: bool,
          timeout: float, record: bool = False) -> dict:
    extra = ["--seconds", str(seconds), "--out", str(OUT_DIR)]
    if smoke:
        extra.append("--smoke")
    if record:
        extra.append("--record-digests")
    proc = subprocess.Popen(_driver_cmd(mode, workload, seed, *extra), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} exceeded {timeout:.0f} s") from None
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def measure(bench: dict, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool):
    """One run; returns (the result object to print, the run's details)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    declared = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    metrics = {}
    if trace == 0:
        repeats = SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS
        setups = [setup_seconds(workload, seed, deadline - time.perf_counter())
                  for _ in range(repeats)]
        metrics["setup_s"] = statistics.median(setups)
    run = drive("run" if trace == 0 else "trace", workload, seed, seconds, smoke,
                deadline - time.perf_counter())
    metrics.update(run["metrics"])
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
                         "BENCHMARK.json")
    correct = run["failed"] == 0 and not run["errors"]
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    details = {key: value for key, value in run.items() if key != "metrics"}
    if trace == 0:
        details["setup_samples_s"] = setups
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**result, "details": details}, indent=1))
    return result, details


def report(workload: str, trace: int, result: dict, details: dict) -> None:
    print(f"# {workload} trace={trace} env={json.dumps(details['env'])}")
    for name, metric in result["metrics"].items():
        print(f"{workload:16s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload:16s} {'failed_frac':48s} {frac:>16.6g} 1"
          f"  ({result['failed']}/{result['attempted']} cells)")
    if "raw" in details:
        raw = ", ".join(f"{name}={value:.6g}" for name, value in details["raw"].items())
        print(f"# {workload} before calibration: {raw}")
    for reason in details.get("failures", []):
        print(f"# failed cell {reason}")
    for error in details["errors"]:
        print(f"# error: {error}")


def record_digests(names, smoke: bool) -> None:
    """Store the recorded-seed CSV digests of the current code."""
    path = BENCH_DIR / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        run = drive("run", name, RECORDED_SEED, 0, smoke, RUN_BUDGET_S, record=True)
        table[("smoke:" if smoke else "") + name] = run["digests"]
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness test")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the seed-{RECORDED_SEED} CSV digests and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vanetconn" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'vanetconn'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; valid: {names}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    if args.record_digests:
        record_digests(chosen, args.smoke)
        return 0

    try:
        if args.workload != "all":
            result, details = measure(bench, args.workload, args.seed, args.seconds,
                                      args.trace, args.smoke)
            report(args.workload, args.trace, result, details)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in chosen:
            for trace in (0, 1):
                result, details = measure(bench, name, args.seed, args.seconds, trace,
                                          args.smoke)
                report(name, trace, result, details)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for metric, value in result["metrics"].items():
                    combined["metrics"][f"{name}.{metric}"] = value
        print(json.dumps(combined))
        return 0
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
