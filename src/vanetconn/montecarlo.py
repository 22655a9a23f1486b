"""Seeded Monte-Carlo estimation of connectivity probability over density grids.

Each trial derives its own generator by mixing the master seed with the grid
position and trial index through a SplitMix64-style bijective finalizer, so
results are identical for any execution order, chunking, or process count.
Trials of one grid point run in blocks: the block's seeds are hashed at once,
each trial draws its headway uniforms and ranges into one row from its own
PCG64 stream (trial_rng's), and the block is judged at once (the n x n methods
in sub-blocks of stacked matrices), so results do not depend on block size.
One realization (headways + ranges) feeds every requested method, which makes
per-realization verdicts directly comparable.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .connectivity import (
    AnalyticModel,
    analytic_pc,
    analytic_pc_chain_mixed,
    exponent_rows,
    laplacian_rows,
    line_chain_rows,
    line_reachable_rows,
)
from .graphs import DIRECTION_UPWARD
from .ranges import FixedRange, RangePolicy, draw_ranges, mean_range, policy_label
from .traffic import (check_count, check_positive, check_positive_array, headway_gaps, shown,
                      vehicle_count, vehicle_positions)

TRIAL_METHODS = ("laplacian", "exponent", "oracle", "chain")
# Trial methods that judge n x n matrices.
DENSE_METHODS = ("laplacian", "exponent")
ANALYTIC_METHODS = ("analytic", "analytic-chain")
VALID_METHODS = TRIAL_METHODS + ANALYTIC_METHODS

DIRECTION_UNDIRECTED = "undirected"
DIRECTIONS = (DIRECTION_UNDIRECTED, DIRECTION_UPWARD)

# Default trial volumes: traversal verdicts are near-linear per trial,
# spectral/exponent verdicts cost a cubic solve each.
DEFAULT_TRAVERSAL_TRIALS = 10_000
DEFAULT_SPECTRAL_TRIALS = 2_000

# Trials per process-pool task.
CHUNK_SIZE = 512

# Vehicles per block of trials that are transformed and judged together, and
# matrix entries per sub-block of the dense methods: each float64 block array
# stays within 128 KB.
BLOCK_ELEMENTS = 2 ** 14

# Largest vehicle count the dense methods accept: each n x n float64 array
# takes 8 n^2 bytes, 200 MB at this size.
MAX_DENSE_VEHICLES = 5_000

# OpenBLAS entry points that set its thread count, one per symbol flavour.
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# numpy's SeedSequence hash (pool of 4 words) xors in a running 32-bit constant,
# multiplies it by a factor and multiplies by the result.  Row k is init * factor**k:
# 4 pool-word hashes and 12 cross-mixes (each word into the 3 others), 8 outputs.
_HASH_A, _HASH_B = (
    np.array([[init * pow(factor, k, 1 << 32) % (1 << 32)] for k in range(count)], np.uint32)
    for init, factor, count in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))
_OTHER_WORDS = tuple(np.array([d for d in range(4) if d != src]) for src in range(4))


def _mix64(x):
    """SplitMix64 finalizer; bijective on 64-bit integers (ints or uint64
    arrays, which wrap silently)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(master_seed: int, grid_index: int, trial_index):
    """Distinct, order-free 64-bit seed for one (grid point, trial) cell; a
    uint64 array of trial indices gives a uint64 array of their seeds."""
    counter = ((grid_index & 0xFFFFFFFF) << 32) | (trial_index & 0xFFFFFFFF)
    return _mix64((master_seed & _MASK64) + _GOLDEN * (counter + 1))


def trial_rng(master_seed: int, grid_index: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(trial_seed(master_seed, grid_index, trial_index)))


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 values (which wrap mod 2**32 like it)."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> 16)


def _seed_words(master_seed: int, grid_index: int, trials: range) -> np.ndarray:
    """(rows, 4) uint64 seed words of a block: row t, for t in trials, equals
    SeedSequence(trial_seed(master_seed, grid_index, t)).generate_state(4, np.uint64)."""
    trial_index = np.arange(trials.start, trials.stop, dtype=np.uint64)
    seed = trial_seed(master_seed, grid_index, trial_index)
    # numpy hashes the seed's words (lo, hi) and 0 for each missing pool word
    pool = np.zeros((4, len(seed)), dtype=np.uint32)
    pool[0], pool[1] = seed.astype(np.uint32), (seed >> 32).astype(np.uint32)
    pool = _hashmix(pool, _HASH_A[:5])
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[src], _HASH_A[4 + 3 * src:8 + 3 * src])
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(np.vstack((pool, pool)), _HASH_B).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | (out[1::2] << 32)).T)


class _SeedWords:
    """The four uint64 words that numpy's SeedSequence would give PCG64: a
    numpy ISeedSequence, registered as one on first use, so that importing
    this module does not import numpy.random (about 14 ms)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that identifies an experiment; results are a pure function
    of this record."""

    densities_per_km: tuple
    segment_length_m: float
    policy: RangePolicy
    methods: tuple
    direction: str
    trials: int
    master_seed: int

    def __post_init__(self):
        densities = tuple(check_positive(f"densities_per_km[{i}]", d)
                          for i, d in enumerate(self.densities_per_km))
        object.__setattr__(self, "densities_per_km", densities)
        object.__setattr__(self, "segment_length_m",
                           check_positive("segment_length_m", self.segment_length_m))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "trials", check_count("trials", self.trials, 1))
        object.__setattr__(self, "master_seed", check_count("master_seed", self.master_seed, 0))
        if not self.densities_per_km:
            raise ValueError("densities_per_km: the density grid must not be empty")
        if not self.methods:
            raise ValueError("methods: the method set must not be empty")
        for i, method in enumerate(self.methods):
            if method not in VALID_METHODS:
                raise ValueError(f"methods[{i}]: unknown method {method!r}; "
                                 f"valid: {sorted(VALID_METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods: each method may appear once, got {list(self.methods)}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction: expected one of {DIRECTIONS}, "
                             f"got {shown(self.direction)}")
        if self.direction == DIRECTION_UNDIRECTED and not isinstance(self.policy, FixedRange):
            raise ValueError("undirected analysis requires a fixed range policy; "
                             "mixed ranges make the network directed")
        if "analytic-chain" in self.methods and isinstance(self.policy, FixedRange):
            raise ValueError("analytic-chain applies to mixed-range policies only")
        if self.trials > 1 << 32:  # trial_seed would reuse streams
            raise ValueError(f"trials must be <= 2**32 (the seed keeps 32 bits of the "
                             f"trial index), got {shown(self.trials)}")
        if self.master_seed > _MASK64:  # others would reuse these seeds' streams
            raise ValueError(f"master_seed: must be in [0, 2**64), got {shown(self.master_seed)}")
        dense = [m for m in self.methods if m in DENSE_METHODS]
        n = vehicle_count(max(self.densities_per_km) / 1000.0, self.segment_length_m)
        if dense and n > MAX_DENSE_VEHICLES:
            raise ValueError(f"methods {dense} build n x n arrays and are limited to "
                             f"{MAX_DENSE_VEHICLES} vehicles; the grid reaches {n}")

    @property
    def trial_methods(self) -> tuple:
        return tuple(m for m in self.methods if m in TRIAL_METHODS)


@dataclass(frozen=True)
class TrialRecord:
    """Per-method verdicts for one shared realization."""

    density_per_km: float
    trial_index: int
    verdicts: dict
    digest: str


@dataclass(frozen=True)
class ConnectivityEstimate:
    """One (density, method) cell of a results table."""

    density_per_km: float
    method: str
    policy: str
    p_hat: float
    stderr: float
    connected_count: int
    trials: int
    master_seed: int


@dataclass(frozen=True)
class MethodDisagreement:
    """Count of shared realizations on which two methods returned different
    verdicts."""

    density_per_km: float
    method_a: str
    method_b: str
    count: int
    trials: int


def _realizations(spec: ExperimentSpec, density_index: int, trials: range):
    """Gaps (rows, n - 1) and ranges (rows, n) of one cell's trials, one row
    per trial.  Each trial draws its headway uniforms, then its ranges, from
    trial_rng's stream; seeding and the headway transform run once per block."""
    density_m = spec.densities_per_km[density_index] / 1000.0
    n = vehicle_count(density_m, spec.segment_length_m)
    uniforms = np.empty((len(trials), n - 1))
    ranges = np.empty((len(trials), n))
    np.random.bit_generator.ISeedSequence.register(_SeedWords)  # no-op after the first call
    for row, words in enumerate(_seed_words(spec.master_seed, density_index, trials)):
        rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        rng.random(out=uniforms[row])
        draw_ranges(spec.policy, rng, ranges[row])
    return headway_gaps(uniforms, density_m), check_positive_array("ranges", ranges)


def _verdicts(spec: ExperimentSpec, gaps: np.ndarray, ranges: np.ndarray,
              methods: tuple) -> dict:
    """Per-method verdicts, a bool array with one entry per row of the block."""
    positions = vehicle_positions(gaps)
    dense = [m for m in methods if m in DENSE_METHODS]
    verdicts = _dense_rows(positions, ranges, dense) if dense else {}
    # with one fixed range a spacing wider than R cuts the line in both
    # directions, so the oracle is the chain: one line_chain serves both
    fixed = isinstance(spec.policy, FixedRange)
    if "chain" in methods or (fixed and "oracle" in methods):
        chain = line_chain_rows(positions, ranges)
    for method in methods:
        if method == "chain" or (method == "oracle" and fixed):
            verdicts[method] = chain
        elif method == "oracle":
            verdicts[method] = line_reachable_rows(positions, ranges)
    return verdicts


def _dense_rows(positions: np.ndarray, ranges: np.ndarray, methods: list) -> dict:
    """``laplacian`` / ``exponent`` verdicts of each row of (rows, n) positions and
    ranges, judged on stacked (step, n, n) matrices of at most BLOCK_ELEMENTS
    entries each: ``laplacian_rows`` of the symmetrized upward links (the full
    graph under one fixed range), ``exponent_rows`` of the upward ones."""
    rows, n = positions.shape
    verdicts = {m: np.empty(rows, dtype=bool) for m in methods}
    step = max(1, BLOCK_ELEMENTS // n ** 2)
    for first in range(0, rows, step):
        x, r = positions[first:first + step], ranges[first:first + step]
        # upward link i -> j iff i < j and S[i, j] = x_j - x_i <= R_i
        links = np.triu(x[:, None, :] - x[:, :, None] <= r[:, :, None], 1)
        if "laplacian" in methods:
            verdicts["laplacian"][first:first + step] = laplacian_rows(links | links.swapaxes(1, 2))
        if "exponent" in methods:
            verdicts["exponent"][first:first + step] = exponent_rows(links)
    return verdicts


def run_trial(spec: ExperimentSpec, density_index: int, trial_index: int) -> TrialRecord:
    """Evaluate every requested trial method on one shared realization: a
    block of one trial."""
    density_index = check_count("density_index", density_index, 0)
    trial_index = check_count("trial_index", trial_index, 0)
    if density_index >= len(spec.densities_per_km):
        raise IndexError(f"density index {density_index} outside the grid")
    if trial_index >= spec.trials:
        raise IndexError(f"trial index {trial_index} outside 0..{spec.trials - 1}")
    gaps, ranges = _realizations(spec, density_index, range(trial_index, trial_index + 1))
    digest = hashlib.blake2b(gaps[0].tobytes() + ranges[0].tobytes(), digest_size=16).hexdigest()
    verdicts = _verdicts(spec, gaps, ranges, spec.trial_methods)
    return TrialRecord(spec.densities_per_km[density_index], trial_index,
                       {m: bool(v[0]) for m, v in verdicts.items()}, digest)


def _chunk_counts(args):
    """Verdict-count reduction over a chunk of trials (process-pool unit),
    in blocks of about BLOCK_ELEMENTS vehicles."""
    spec, density_index, start, stop = args
    methods = spec.trial_methods
    pairs = list(combinations(methods, 2))
    counts = dict.fromkeys(methods, 0)
    disagreements = dict.fromkeys(pairs, 0)
    n = vehicle_count(spec.densities_per_km[density_index] / 1000.0, spec.segment_length_m)
    rows = max(1, BLOCK_ELEMENTS // n)
    for first in range(start, stop, rows):
        gaps, ranges = _realizations(spec, density_index, range(first, min(first + rows, stop)))
        verdicts = _verdicts(spec, gaps, ranges, methods)
        for m in methods:
            counts[m] += int(np.count_nonzero(verdicts[m]))
        for a, b in pairs:
            disagreements[(a, b)] += int(np.count_nonzero(verdicts[a] != verdicts[b]))
    return counts, disagreements


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded in this
    process, found through /proc/self/maps; empty where none is.  Numpy
    loads its BLAS on import, so one scan per process (about 0.5 ms) serves
    every later call."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((getter, setter))
                break
    return tuple(controls)


def _one_blas_thread():
    """Pool-worker initializer: limit the loaded OpenBLAS to one thread.

    OpenBLAS starts one thread per core in every process, so `workers`
    processes would run workers x cores threads that spin against each
    other; with 2 workers on 2 cores a Laplacian sweep took twice as long as
    with one thread per worker. Does nothing where no OpenBLAS is found."""
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


@contextmanager
def _pool(specs: tuple, workers: int):
    """One process pool for all cells of all the specs, or None when it could
    overlap nothing: cells run one after another, so a pool only overlaps the
    chunks of one cell, and with a single chunk per cell it would add only
    start-up, pickling and IPC.  It forks all its processes at once, so it
    gets no more than a cell has chunks and this process has CPUs.

    Without a pool the trials run in this process, which then uses one
    OpenBLAS thread until the block exits, as pool workers do: at the dense
    methods' sizes more threads only spin (an N = 100 eigvalsh took 0.6 ms
    or 3.1 ms with default threads).  The caller's thread count is restored.
    """
    workers = check_count("workers", workers, 1)
    chunks = max((math.ceil(s.trials / CHUNK_SIZE) for s in specs if s.trial_methods), default=0)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, chunks, cpus or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes, initializer=_one_blas_thread) as executor:
            yield executor
        return
    controls = _openblas_thread_controls()
    counts = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield None
    finally:
        for (_, set_threads), count in zip(controls, counts):
            set_threads(count)


def _count_trials(spec: ExperimentSpec, density_index: int,
                  executor: Optional[ProcessPoolExecutor]):
    if not spec.trial_methods:
        return {}, {}
    chunks = [
        (spec, density_index, start, min(start + CHUNK_SIZE, spec.trials))
        for start in range(0, spec.trials, CHUNK_SIZE)
    ]
    counts = dict.fromkeys(spec.trial_methods, 0)
    disagreements = dict.fromkeys(combinations(spec.trial_methods, 2), 0)
    run = executor.map if executor else map
    for chunk_counts, chunk_disagreements in run(_chunk_counts, chunks):
        for m, c in chunk_counts.items():
            counts[m] += c
        for pair, c in chunk_disagreements.items():
            disagreements[pair] += c
    return counts, disagreements


def _analytic_estimate(spec: ExperimentSpec, density_per_km: float, method: str) -> ConnectivityEstimate:
    density_m = density_per_km / 1000.0
    n = vehicle_count(density_m, spec.segment_length_m)
    if method == "analytic":
        p = analytic_pc(AnalyticModel(density_m, mean_range(spec.policy), n))
    else:
        p = analytic_pc_chain_mixed(density_m, n, spec.policy)
    return ConnectivityEstimate(
        density_per_km=density_per_km, method=method, policy=policy_label(spec.policy),
        p_hat=p, stderr=0.0, connected_count=0, trials=0, master_seed=spec.master_seed,
    )


def _estimate_rows(spec: ExperimentSpec, density_index: int,
                   executor: Optional[ProcessPoolExecutor]):
    density_per_km = spec.densities_per_km[density_index]
    counts, _ = _count_trials(spec, density_index, executor)
    label = policy_label(spec.policy)
    rows = []
    for method in spec.methods:
        if method in ANALYTIC_METHODS:
            rows.append(_analytic_estimate(spec, density_per_km, method))
            continue
        connected = counts[method]
        p_hat = connected / spec.trials
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / spec.trials)
        rows.append(ConnectivityEstimate(
            density_per_km=density_per_km, method=method, policy=label,
            p_hat=p_hat, stderr=stderr, connected_count=connected,
            trials=spec.trials, master_seed=spec.master_seed,
        ))
    return rows


def estimate(spec: ExperimentSpec, density_index: int, workers: int = 1):
    """Connectivity estimates (one per method) at a single grid point."""
    density_index = check_count("density_index", density_index, 0)
    if density_index >= len(spec.densities_per_km):
        raise IndexError(f"density index {density_index} outside the grid")
    with _pool((spec,), workers) as executor:
        return _estimate_rows(spec, density_index, executor)


def sweep(*specs: ExperimentSpec, workers: int = 1):
    """Estimates over the whole density grid of each spec, in order, from one
    process pool; rows are independent and the table does not depend on
    scheduling or worker count."""
    rows = []
    with _pool(specs, workers) as executor:
        for spec in specs:
            for density_index in range(len(spec.densities_per_km)):
                rows.extend(_estimate_rows(spec, density_index, executor))
    return rows


def compare_methods(spec: ExperimentSpec, workers: int = 1):
    """Per-density, per-pair counts of realizations on which the requested
    trial methods disagree.  Needs at least two trial-based methods."""
    if len(spec.trial_methods) < 2:
        raise ValueError(f"methods: a comparison needs at least two trial methods, "
                         f"got {list(spec.trial_methods)}")
    rows = []
    with _pool((spec,), workers) as executor:
        for density_index, density_per_km in enumerate(spec.densities_per_km):
            _, disagreements = _count_trials(spec, density_index, executor)
            for (a, b), count in sorted(disagreements.items()):
                rows.append(MethodDisagreement(density_per_km, a, b, count, spec.trials))
    return rows
