"""Seeded Monte-Carlo estimation of connectivity probability over density grids.

Each trial derives its own generator by mixing the master seed with the grid
position and trial index through a SplitMix64-style bijective finalizer, so
results are identical for any execution order, chunking, or process count.
Trials run in chunks of (grid point, trial) pairs: grid points with fewer
than CHUNK_SIZE trials share a chunk, whose seeds are hashed at once.  Within a
chunk each grid point's trials run in blocks: each trial draws its headway
uniforms and ranges into one row from its own PCG64 stream (trial_rng's), and
connectivity.verdict_rows judges the block at once, so results do not depend
on chunk or block size.
One realization (headways + ranges) feeds every requested method, which makes
per-realization verdicts directly comparable; a chunk counts them in one table.
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

import numpy as np

from .connectivity import (
    BLOCK_ELEMENTS,
    DENSE_METHODS,
    LINE_METHODS,
    AnalyticModel,
    analytic_pc,
    analytic_pc_chain_mixed,
    verdict_rows,
)
from .graphs import DIRECTION_UPWARD
from .ranges import FixedRange, RangePolicy, draw_ranges, mean_range, policy_label
from .traffic import (SPACING_QUANTUM_M, check_count, check_positive, check_positive_array,
                      headway_gaps, shown, vehicle_count, vehicle_positions)

TRIAL_METHODS = DENSE_METHODS + LINE_METHODS
ANALYTIC_METHODS = ("analytic", "analytic-chain")
VALID_METHODS = TRIAL_METHODS + ANALYTIC_METHODS

DIRECTION_UNDIRECTED = "undirected"
DIRECTIONS = (DIRECTION_UNDIRECTED, DIRECTION_UPWARD)

# Default trial volumes: traversal verdicts are near-linear per trial,
# spectral/exponent verdicts cost a cubic solve each.
DEFAULT_TRAVERSAL_TRIALS = 10_000
DEFAULT_SPECTRAL_TRIALS = 2_000

# (grid point, trial) pairs per chunk, the process-pool task: a grid point's
# trials split into chunks of this size, and grid points with fewer trials
# share one.
CHUNK_SIZE = 512

# Largest vehicle count the dense methods accept: each n x n float64 array
# takes 8 n^2 bytes, 200 MB at this size.  The line methods hold arrays of n
# entries per trial, so their cap is its square: 200 MB per array as well.
MAX_DENSE_VEHICLES = 5_000
MAX_LINE_VEHICLES = MAX_DENSE_VEHICLES ** 2

# Sparsest density (veh/m) the trial methods accept: headway_gaps divides each
# gap by SPACING_QUANTUM_M, which overflows past 2.7e300 m, and the largest
# uniform draw (1 - 2**-53) gives a gap of -ln(2**-53) = 36.7 mean headways.
MIN_TRIAL_DENSITY = 37.0 / (np.finfo(float).max * SPACING_QUANTUM_M)

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


def trial_seed(master_seed: int, grid_index, trial_index):
    """Distinct, order-free 64-bit seed for one (grid point, trial) cell;
    uint64 arrays of grid or trial indices give a uint64 array of seeds."""
    counter = ((grid_index & 0xFFFFFFFF) << 32) | (trial_index & 0xFFFFFFFF)
    return _mix64((master_seed & _MASK64) + _GOLDEN * (counter + 1))


def trial_rng(master_seed: int, grid_index: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(trial_seed(master_seed, grid_index, trial_index)))


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 values (which wrap mod 2**32 like it)."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> 16)


def _seed_words(master_seed: int, grid_index, trials) -> np.ndarray:
    """(rows, 4) uint64 seed words: row k equals SeedSequence(trial_seed(
    master_seed, grid_index[k], trials[k])).generate_state(4, np.uint64).
    ``trials`` is a range or a uint64 array; ``grid_index`` is one int for
    every row or a uint64 array like ``trials``."""
    if isinstance(trials, range):
        trials = np.arange(trials.start, trials.stop, dtype=np.uint64)
    seed = trial_seed(master_seed, grid_index, trials)
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


@functools.cache
def _seed_words_type() -> type:
    """A numpy ISeedSequence that hands PCG64 one row of _seed_words: the four
    uint64 words that numpy's SeedSequence would give it.  Made on first use,
    so that importing this module does not import numpy.random (about 14 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


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
        for i, density in enumerate(self.densities_per_km):
            if self.trial_methods and density / 1000.0 < MIN_TRIAL_DENSITY:
                raise ValueError(f"densities_per_km[{i}]: trial methods need at least "
                                 f"{MIN_TRIAL_DENSITY * 1000.0:.4g} veh/km, got {density!r}")
        n = vehicle_count(max(self.densities_per_km) / 1000.0, self.segment_length_m)
        for kind, cap in ((DENSE_METHODS, MAX_DENSE_VEHICLES), (LINE_METHODS, MAX_LINE_VEHICLES)):
            capped = [m for m in self.methods if m in kind]
            if capped and n > cap:
                raise ValueError(f"methods {capped} are limited to {cap} vehicles (200 MB per "
                                 f"float64 array); the grid reaches {n}")

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
    per trial: the draw of their seed words."""
    return _draw(spec, density_index, _seed_words(spec.master_seed, density_index, trials))


def _draw(spec: ExperimentSpec, density_index: int, words: np.ndarray):
    """Gaps (rows, n - 1) and ranges (rows, n) of trials of one cell, one row
    per row of seed words.  Each trial draws its headway uniforms, then its
    ranges, from its own PCG64 stream (trial_rng's); the headway transform
    runs once per block."""
    density_m = spec.densities_per_km[density_index] / 1000.0
    n = vehicle_count(density_m, spec.segment_length_m)
    uniforms = np.empty((len(words), n - 1))
    ranges = np.empty((len(words), n))
    seed_words = _seed_words_type()
    for row, row_words in enumerate(words):
        rng = np.random.Generator(np.random.PCG64(seed_words(row_words)))
        rng.random(out=uniforms[row])
        draw_ranges(spec.policy, rng, ranges[row])
    return headway_gaps(uniforms, density_m), check_positive_array("ranges", ranges)


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
    verdicts = verdict_rows(vehicle_positions(gaps), ranges, spec.trial_methods, spec.policy)
    return TrialRecord(spec.densities_per_km[density_index], trial_index,
                       dict(zip(spec.trial_methods, verdicts[:, 0].tolist())), digest)


def _chunk_counts(args):
    """Count table of cells first..end - 1 over trials start..stop - 1 of a spec
    (the process-pool unit), an int64 row per cell: trials each method judged
    connected, then each method pair's disagreements.  Seeds are hashed and
    verdicts counted per chunk, judged in blocks of about BLOCK_ELEMENTS vehicles."""
    spec, first, end, start, stop = args
    methods = spec.trial_methods
    trials = stop - start
    grid_index = np.repeat(np.arange(first, end, dtype=np.uint64), trials)
    trial_index = np.tile(np.arange(start, stop, dtype=np.uint64), end - first)
    words = _seed_words(spec.master_seed, grid_index, trial_index).reshape(end - first, trials, 4)
    verdicts = np.empty((len(methods), end - first, trials), dtype=bool)
    for cell, (density_index, cell_words) in enumerate(zip(range(first, end), words)):
        n = vehicle_count(spec.densities_per_km[density_index] / 1000.0, spec.segment_length_m)
        rows = max(1, BLOCK_ELEMENTS // n)
        for row in range(0, trials, rows):
            gaps, ranges = _draw(spec, density_index, cell_words[row:row + rows])
            verdicts[:, cell, row:row + rows] = verdict_rows(vehicle_positions(gaps), ranges,
                                                             methods, spec.policy)
    pairs = [verdicts[a] != verdicts[b] for a, b in combinations(range(len(methods)), 2)]
    return np.count_nonzero([*verdicts, *pairs], axis=2).T.astype(np.int64)


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
    processes would run workers x cores threads against each other.
    Re-verified on the run path (2 cores, numpy 2.4.6, OpenBLAS): a 2-worker
    laplacian + exponent sweep, fixed 750 m, 1,024 trials at each of 10, 20
    and 25 veh/km on a 10 km road, ran 714-824 trials/s with this pin and
    120-191 without it. Does nothing where no OpenBLAS is found."""
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
    OpenBLAS thread until the block exits, as pool workers do; the caller's
    thread count is restored.  Re-verified on the run path (2 cores): an
    in-process compare of all four trial methods on the two-tier 500/1,000 m
    mix, 1,024 trials at each of 10, 20 and 25 veh/km on a 10 km road, used
    1.7-2.0 CPU s per 1,000 trials with the pin and 3.6-5.1 s without it.
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


def _estimate_rows(spec: ExperimentSpec, density_index: int, table_row: np.ndarray):
    """One estimate per method of the spec at one grid point: a closed form, or
    the share of the cell's trials that the method judged connected."""
    density_per_km = spec.densities_per_km[density_index]
    density_m = density_per_km / 1000.0
    n = vehicle_count(density_m, spec.segment_length_m)
    counts = dict(zip(spec.trial_methods, table_row.tolist()))
    rows = []
    for method in spec.methods:
        connected, trials = (counts[method], spec.trials) if method in counts else (0, 0)
        if method == "analytic":
            p_hat = analytic_pc(AnalyticModel(density_m, mean_range(spec.policy), n))
        elif method == "analytic-chain":
            p_hat = analytic_pc_chain_mixed(density_m, n, spec.policy)
        else:
            p_hat = connected / trials
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials) if trials else 0.0
        rows.append(ConnectivityEstimate(density_per_km, method, policy_label(spec.policy),
                                         p_hat, stderr, connected, trials, spec.master_seed))
    return rows


def _cells(specs: tuple, workers: int):
    """(spec, density index, _chunk_counts row) of every grid point of the
    specs, in order.  A cell's trials run in chunks of CHUNK_SIZE, and cells
    with fewer trials share one: each chunk holds CHUNK_SIZE // trials
    consecutive cells.  All chunks run on one process pool."""
    with _pool(specs, workers) as executor:
        run = executor.map if executor else map
        for spec in specs:
            methods = len(spec.trial_methods)
            cells = len(spec.densities_per_km)
            group = max(1, CHUNK_SIZE // spec.trials)
            for first in range(0, cells, group):
                end = min(first + group, cells)
                totals = np.zeros((end - first, methods * (methods + 1) // 2), dtype=np.int64)
                chunks = [(spec, first, end, start, min(start + CHUNK_SIZE, spec.trials))
                          for start in range(0, spec.trials if methods else 0, CHUNK_SIZE)]
                for table in run(_chunk_counts, chunks):
                    totals += table
                for density_index, table_row in zip(range(first, end), totals):
                    yield spec, density_index, table_row


def sweep(*specs: ExperimentSpec, workers: int = 1):
    """Estimates over the whole density grid of each spec, in order, from one
    process pool; rows are independent and the table does not depend on
    scheduling or worker count."""
    return [row for spec, density_index, table_row in _cells(specs, workers)
            for row in _estimate_rows(spec, density_index, table_row)]


def compare_methods(spec: ExperimentSpec, workers: int = 1):
    """Per-density, per-pair counts of realizations on which the requested
    trial methods disagree.  Needs at least two trial-based methods."""
    if len(spec.trial_methods) < 2:
        raise ValueError(f"methods: a comparison needs at least two trial methods, "
                         f"got {list(spec.trial_methods)}")
    pairs = list(combinations(spec.trial_methods, 2))
    return [MethodDisagreement(spec.densities_per_km[density_index], a, b, count, spec.trials)
            for _, density_index, table_row in _cells((spec,), workers)
            for (a, b), count in sorted(zip(pairs, table_row[-len(pairs):].tolist()))]
