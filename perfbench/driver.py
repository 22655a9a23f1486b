"""Benchmark driver: runs in a fresh interpreter started by run.py and prints
one JSON object on its last stdout line.

  driver.py setup --root R --workload W --seed S
      import the package, build and validate the workload's specs, start the
      process pool when the workload uses one, print "ready", then tear down.
  driver.py run --root R --workload W --seed S --seconds T --out DIR [--smoke]
      untraced closed-batch rounds for T seconds after one warm-up round.
  driver.py trace --root R --workload W --seed S --seconds T --out DIR [--smoke]
      untraced round, then the traced replay of the same realizations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

RECORDED_SEED = 1
# a run stops starting new rounds after this, whatever --seconds says
HARD_DEADLINE_S = 140.0
MIN_TIMED_ROUNDS = 3
MAX_TRACED_ROUNDS = 3
# calibrate()'s median time over 1,238 timings on the 2-core KVM guest (Xeon,
# 2.1 GHz) the harness was built on; calibrated metrics read as if measured
# at that machine's usual speed
CALIBRATION_REF_S = 0.041


def import_package(root: Path) -> None:
    """Import vanetconn from this checkout's src, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import vanetconn

    if Path(vanetconn.__file__).resolve().parent != src / "vanetconn":
        raise SystemExit(f"imported vanetconn from {vanetconn.__file__}, not from {src}")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its waited-for children (pool
    workers are joined when each sweep/compare call closes its pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def environment(workers: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in names},
        "thread_env_set_by_benchmark": False,
        "workers": workers,
        "workers_within_nproc": workers <= nproc,
    }


class CellLedger:
    """Attempted and failed (spec, density) cells, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, key, error):
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{key}: {error}")


def check_cells(workload, cells, ledger, expected=None, digests=None):
    """Seed-independent invariant per cell; optionally, equal counts to a
    reference round and equal CSV rows to stored digests."""
    for key, cell in cells.items():
        error = cell["error"] or workload.check_cell(cell)
        if not error and expected is not None and expected.get(key) != cell["counts"]:
            error = f"counts {cell['counts']} != reference {expected.get(key)}"
        if not error and digests is not None and digests["stored"].get(key) != digests["got"].get(key):
            error = "CSV rows differ from the stored digest"
        ledger.add(key, error)


def load_digests(bench_dir: Path, workload: str, smoke: bool):
    path = bench_dir / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    return table.get(("smoke:" if smoke else "") + workload)


def timed_round(workload, specs, workers, csv_path):
    import workloads

    cpu0, t0 = cpu_seconds(), time.perf_counter()
    cells, csv_bytes, trials = workloads.run_round(workload, specs, workers, csv_path)
    wall = time.perf_counter() - t0
    return cells, csv_bytes, trials, wall, cpu_seconds() - cpu0


def calibrate() -> float:
    """Time a fixed kernel that uses numpy and Python but not the package.

    It mixes the operations the workloads spend their time in: an n x n
    outer difference, threshold, diagonal and triangle at n=200, then a
    Python union-find loop. The VM's speed shifts by up to +-25 % over
    minutes, with other tenants' load. A round's timings are divided by
    this kernel's speed, measured right after the round. That cancels most
    of the shift and none of a change in the package.
    """
    import numpy as np

    positions = np.cumsum(np.full(200, 37.0))
    start = time.perf_counter()
    for _ in range(45):
        linked = np.abs(positions[None, :] - positions[:, None]) <= 500.0
        np.fill_diagonal(linked, False)
        rows, cols = np.nonzero(np.triu(linked, 1))
        parent = list(range(200))
        for i, j in zip(rows.tolist()[:600], cols.tolist()[:600]):
            while parent[i] != i:
                i = parent[i]
            while parent[j] != j:
                j = parent[j]
            if i != j:
                parent[i] = j
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    import_package(args.root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workers = min(workload.workers, len(os.sched_getaffinity(0)))

    def specs_for(round_index):
        return workload.build_specs(workloads.round_master_seed(args.seed, round_index),
                                    args.smoke)

    if args.mode == "setup":
        specs_for(0)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for future in [pool.submit(os.getpid) for _ in range(workers)]:
                    future.result()
                print("ready", flush=True)
        else:
            print("ready", flush=True)
        return 0

    bench_dir = Path(__file__).resolve().parent
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"{args.workload}-seed{args.seed}-{args.mode}.csv"
    ledger = CellLedger()
    # run-level failures that belong to no single cell; any of them makes the
    # run incorrect
    errors = []
    result = {"env": environment(workers), "workload": args.workload, "seed": args.seed}

    specs = specs_for(0)
    cells, csv_bytes, trials, wall0, _ = timed_round(
        workload, specs, workers, csv_path)
    got = workloads.csv_digests(workload, specs, csv_bytes)
    stored = load_digests(bench_dir, args.workload, args.smoke)
    if args.record_digests:
        result["digests"] = got
    digests = None
    if args.seed == RECORDED_SEED and not args.record_digests:
        if stored is None:
            errors.append("no stored digests for this workload")
        else:
            digests = {"stored": stored["cells"], "got": got["cells"]}
            if stored["csv_sha256"] != got["csv_sha256"]:
                errors.append("CSV SHA-256 differs from the stored digest")
    check_cells(workload, cells, ledger, digests=digests)

    if args.mode == "run":
        walls, cpus, cals = [], [], []
        round_index = 1
        window_start = time.perf_counter()
        while (time.perf_counter() - window_start < args.seconds
               or len(walls) < MIN_TIMED_ROUNDS) \
                and time.perf_counter() - started < HARD_DEADLINE_S:
            specs = specs_for(round_index)
            cells, _, trials, wall, cpu = timed_round(
                workload, specs, workers, csv_path)
            check_cells(workload, cells, ledger)
            walls.append(wall)
            cpus.append(cpu)
            cals.append(calibrate())
            round_index += 1
        result["metrics"] = {
            "trials_per_s": statistics.median(
                trials / w * c / CALIBRATION_REF_S for w, c in zip(walls, cals)),
            "cpu_s_per_ktrial": statistics.median(
                1000.0 * u / trials * CALIBRATION_REF_S / c for u, c in zip(cpus, cals)),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["raw"] = {
            "trials_per_s": statistics.median(trials / w for w in walls),
            "cpu_s_per_ktrial": statistics.median(1000.0 * u / trials for u in cpus),
        }
        result["trials_per_round"] = trials
        result["round_walls_s"] = walls
        result["calibration_s"] = cals
    else:
        import tracing

        # one untimed realization first, so that lazy initialisation in this
        # process (pool workloads ran no trial here yet) is not traced
        tracing.replay_trial(tracing.Tracer(), specs[0], 0, 0, 0)
        tracer = tracing.Tracer()
        pooled_wall = run_trial_wall = 0.0
        total_trials = 0
        round_index = 0
        window_start = time.perf_counter()
        while True:
            if round_index:
                specs = specs_for(round_index)
                cells, csv_bytes, trials, wall0, _ = timed_round(
                    workload, specs, workers, csv_path)
                check_cells(workload, cells, ledger)
            replay_start = len(tracer.spans)
            replay_cells, mismatches, replay_csv = tracing.replay_round(
                tracer, workload, specs, args.out / f"{args.workload}-seed{args.seed}-replay.csv")
            expected = {key: cell["counts"] for key, cell in cells.items()}
            replay_as_cells = {key: {"error": None, "counts": counts}
                               for key, counts in replay_cells.items()}
            check_cells(workload, replay_as_cells, ledger, expected=expected)
            if mismatches:
                errors.append(f"round {round_index}: {mismatches} staged verdicts differ "
                              "from run_trial")
            if replay_csv is not None and replay_csv != csv_bytes:
                errors.append(f"round {round_index}: the replayed table emits different "
                              "CSV bytes")
            pooled_wall += wall0
            run_trial_wall += sum(s[2] - s[1] for s in tracer.spans[replay_start:]
                               if s[0] == tracing.RUN_TRIAL)
            total_trials += trials
            round_index += 1
            if round_index >= MAX_TRACED_ROUNDS or args.smoke \
                    or time.perf_counter() - window_start >= args.seconds \
                    or time.perf_counter() - started >= HARD_DEADLINE_S:
                break
        metrics = tracing.layer_metrics(tracer)
        traced_wall = sum(s[2] - s[1] for s in tracer.spans
                          if s[3] == -1 and s[0] != tracing.RUN_TRIAL)
        metrics["montecarlo.pool.parallel_eff"] = run_trial_wall / (workers * pooled_wall)
        metrics["bench.traced_trials_per_s"] = total_trials / traced_wall
        metrics["bench.trace_overhead"] = traced_wall / run_trial_wall
        result["metrics"] = metrics
        result["rounds"] = round_index
        spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path.relative_to(args.root))

    result["attempted"] = ledger.attempted
    result["failed"] = ledger.failed
    result["failures"] = ledger.reasons
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
