"""Connectivity verdicts for one network snapshot.

Four independent routes are provided on purpose so they can check each other:

* spectral: count of near-zero Laplacian eigenvalues (from the full
  spectrum) / algebraic connectivity lambda_2 > tol (by inertia, one Cholesky
  factorization per snapshot),
* adjacency power: existence of an exact-length walk between the end vehicles,
* traversal oracles: union-find component count and directed breadth-first
  reachability,
* closed-form models for the fixed-range and per-gap chain events.

The line kernels ``line_chain_rows`` and ``line_reachable_rows`` give the
traversal and chain verdicts in O(n) straight from the positions and ranges;
they are the run path's ``oracle`` and ``chain``.  Vehicles sit on a line and a
transmitter that reaches a vehicle also reaches every vehicle in between, so
the set reached from the first vehicle is always a prefix and a break shows as
a cut between neighbours (Dousse, Thiran & Hasler, INFOCOM 2002).  The dense
union-find and breadth-first routes stay as the references they are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .graphs import DIRECTION_UPWARD, Adjacency, Laplacian, laplacian
from .ranges import FixedRange, RangePolicy, TwoTierRange, UniformRange
from .traffic import check_count, check_positive

# A Laplacian eigenvalue counts as zero below _ZERO_TOLERANCE_FACTOR * n * eps
# * (max degree).  The symmetric eigensolver errs by a small multiple of
# eps * ||L|| <= 2 eps * (max degree); on random highway snapshots up to
# N = 1,000 the zero eigenvalues stayed within 0.26 n eps (max degree).  The
# smallest nonzero eigenvalue of a connected n-vertex graph is the path's
# 2 - 2 cos(pi / n) ~ pi^2 / n^2 (Fiedler 1973), which stays above this
# tolerance for paths up to N ~ 70,000.
_ZERO_TOLERANCE_FACTOR = 64.0


def _zero_tolerance(degrees: np.ndarray) -> np.ndarray:
    """The zero tolerance of each row of (..., n) degrees (a Laplacian's diagonal)."""
    max_degree = np.maximum(degrees.max(axis=-1), 1.0)
    return _ZERO_TOLERANCE_FACTOR * degrees.shape[-1] * np.finfo(np.float64).eps * max_degree


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Full real spectrum of a Laplacian, ascending, with the tolerance used
    to classify eigenvalues as zero."""

    eigenvalues: np.ndarray
    lambda2: float
    zero_tolerance: float


def eigenvalues_symmetric(lap: Laplacian, zero_tolerance: float | None = None) -> SpectralResult:
    """Full spectrum of a symmetric Laplacian, ascending.

    Delegates to LAPACK's symmetric solver (tridiagonalization plus implicit
    shifts), which is stable to ~machine precision for these matrices.
    """
    m = lap.entries
    if m.shape[0] < 2:
        raise ValueError("need at least a 2x2 matrix")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    tol = float(_zero_tolerance(m.diagonal())) if zero_tolerance is None else zero_tolerance
    eig = np.linalg.eigvalsh(m)
    # a Laplacian is positive semidefinite with a zero eigenvalue (constant
    # vector), so the lowest eigenvalue must sit inside [-tol, tol]
    if eig[0] < -tol or eig[0] > tol:
        raise ValueError(f"not a Laplacian spectrum: lowest eigenvalue {eig[0]:.3e}")
    return SpectralResult(eig, float(eig[1]), tol)


def component_count(spectral: SpectralResult) -> int:
    """Number of connected components = number of (near-)zero eigenvalues."""
    return int(np.count_nonzero(spectral.eigenvalues < spectral.zero_tolerance))


def is_connected_laplacian(lap: Laplacian) -> bool:
    """Connected iff the algebraic connectivity (second-lowest eigenvalue)
    is strictly positive: ``laplacian_rows`` of the graph whose D - A is L."""
    m = lap.entries
    if m.shape[0] < 2 or not np.array_equal(m, m.T):
        raise ValueError("need a symmetric matrix of at least 2x2")
    graph = (m < 0) & ~np.eye(len(m), dtype=bool)
    if not np.array_equal(laplacian(Adjacency(graph)).entries, m):
        raise ValueError("not the Laplacian D - A of a 0/1 graph")
    return bool(laplacian_rows(graph[None])[0])


def laplacian_rows(graphs: np.ndarray) -> np.ndarray:
    """lambda_2 > tol of the Laplacian of each symmetric 0/1 graph (zero
    diagonal) in a (rows, n, n) stack, by inertia: L 1 = 0, so M = L + 11^T / n
    - tol I has eigenvalues 1 - tol and lambda_k - tol (k >= 2), and M is
    positive definite iff lambda_2 > tol, iff its stacked Cholesky factor (a
    quarter of an eigensolve's flops) comes back without NaN; nothing raises."""
    n = graphs.shape[-1]
    degrees = graphs.sum(axis=2)
    shifted = 1.0 / n - graphs
    tol = _zero_tolerance(degrees)[:, None]
    shifted[:, np.arange(n), np.arange(n)] = degrees + (1.0 / n - tol)
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(shifted, signature="d->d")
    return ~np.isnan(factor[:, n - 1, n - 1])


def _bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # a product of 0/1 float32 arrays counts walks exactly: each entry sums
    # at most n <= 2**24 ones, and thresholding keeps existence only
    return ((x @ y) > 0.0).astype(np.float32)


def _bool_power(entries: np.ndarray, k: int, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of the OR-AND semiring power by repeated squaring: (i, j)
    set iff a walk of exactly k edges runs from i to j.  Each set bit of k
    folds into the kept rows only, so one row costs the squarings plus
    vector products.  Leading axes of ``entries`` are a stack of matrices."""
    k = check_count("k", k, 1)
    base = entries.astype(np.float32)
    result = None
    while k:
        if k & 1:
            result = base[..., rows, :] if result is None else _bool_matmul(result, base)
        k >>= 1
        if k:
            base = _bool_matmul(base, base)
    return result > 0.0


def is_connected_exponent(a: Adjacency) -> bool:
    """End-to-end verdict from the (n-1)th adjacency power: a walk of exactly
    n-1 links from the first vehicle to the last."""
    if a.size < 2:
        raise ValueError("need at least 2 vehicles")
    return bool(exponent_rows(a.entries[None])[0])


def exponent_rows(links: np.ndarray) -> np.ndarray:
    """``is_connected_exponent`` of each matrix in a (rows, n, n) stack of 0/1
    links: a walk of exactly n - 1 links from the first vehicle to the last."""
    n = links.shape[-1]
    return _bool_power(links, n - 1, slice(0, 1))[:, 0, n - 1]


def oracle_components(a: Adjacency) -> int:
    """Exact component count by disjoint-set union over the set entries."""
    e = a.entries
    if not np.array_equal(e, e.T):
        raise ValueError("component oracle needs a symmetric adjacency")
    n = e.shape[0]
    parent = list(range(n))
    count = n

    def union(i, j):
        nonlocal count
        while parent[i] != i:  # find with path halving
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i != j:
            parent[i] = j
            count -= 1

    # superdiagonal first: a connected snapshot then finishes in one cheap
    # sweep; the general scan below makes the count exact either way
    for i in np.nonzero(np.diagonal(e, offset=1))[0].tolist():
        union(i, i + 1)
    if count > 1:
        rows, cols = np.nonzero(np.triu(e, 1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            union(i, j)
            if count == 1:
                break
    return count


def oracle_reachable(a: Adjacency, src: int, dst: int) -> bool:
    """Directed breadth-first search along set entries (i, j) as edges i -> j."""
    n = a.size
    if not (0 <= src < n and 0 <= dst < n):
        raise IndexError(f"vehicle index out of range for n={n}: src={src}, dst={dst}")
    if src == dst:
        return True
    visited = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    visited[src] = frontier[src] = True
    while frontier.any():
        reached = a.entries[frontier].any(axis=0) & ~visited
        if reached[dst]:
            return True
        visited |= reached
        frontier = reached
    return False


def consecutive_chain(a: Adjacency) -> bool:
    """True iff every vehicle links directly to its immediate successor."""
    if a.direction != DIRECTION_UPWARD:
        raise ValueError(f"chain test expects an upward adjacency, got {a.direction!r}")
    return bool(np.all(np.diagonal(a.entries, offset=1)))


# --- O(n) line kernels --------------------------------------------------------


def _check_line_rows(positions: np.ndarray, ranges: np.ndarray) -> None:
    # mismatched rows would broadcast into a verdict on the wrong vehicles
    if positions.shape != ranges.shape:
        raise ValueError(f"dimension mismatch: positions {positions.shape}, "
                         f"ranges {ranges.shape}")


def line_chain_rows(positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Consecutive-chain event of each row of (rows, n) positions and ranges
    in O(n): every spacing S[i, i+1] <= R_i.

    With one fixed range this is also undirected connectivity: a spacing
    wider than R cuts the line, since no link can span a wider gap.
    Equals ``consecutive_chain`` of the dense upward adjacency.
    """
    _check_line_rows(positions, ranges)
    return (positions[:, 1:] - positions[:, :-1] <= ranges[:, :-1]).all(axis=1)


def line_reachable_rows(positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Upward reachability of the last vehicle from the first, in O(n), for
    each row of (rows, n) positions and ranges: ``oracle_reachable`` of the
    dense upward adjacency from 0 to n - 1.

    Vehicle k is reached iff some i < k has S[i, k] <= R_i, that is iff the
    running maximum of x_i + R_i over i < k passes x_k.  The float sum can
    round across x_k, so it only decides where it is clear of x_k: a rounded
    sum above x_k is a sure link, one more than an ulp below x_k a sure
    break.  In that one-ulp band the dense test x_k - x_i <= R_i decides.
    """
    _check_line_rows(positions, ranges)
    reach = np.maximum.accumulate(positions[:, :-1] + ranges[:, :-1], axis=1)
    target = positions[:, 1:]
    unsure = reach <= target
    reached = ~unsure.any(axis=1)
    open_rows = np.flatnonzero(~reached)
    band_target = target[open_rows]
    broken = (reach[open_rows] < band_target - np.spacing(band_target)).any(axis=1)
    for row in open_rows[~broken]:
        x, r = positions[row], ranges[row]
        reached[row] = all((x[k] - x[:k] <= r[:k]).any() for k in np.flatnonzero(unsure[row]) + 1)
    return reached


# --- closed-form models -----------------------------------------------------


def headway_cdf(density: float, x: float) -> float:
    """P(gap <= x) = 1 - exp(-density * x) for x >= 0, else 0."""
    if x < 0:
        return 0.0
    return -math.expm1(-density * x)


@dataclass(frozen=True)
class AnalyticModel:
    """Fixed-range closed-form setting: density (veh/m), range (m), count."""

    density: float
    comm_range: float
    vehicle_count: int

    def __post_init__(self):
        for name in ("density", "comm_range"):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))
        object.__setattr__(self, "vehicle_count",
                           check_count("vehicle_count", self.vehicle_count, 2))


def analytic_pc(model: AnalyticModel) -> float:
    """Probability that all n-1 gaps fall below the fixed range:
    F(R)^(n-1), evaluated in log space to keep precision near 1."""
    tail = math.exp(-model.density * model.comm_range)
    if tail >= 1.0:
        return 0.0
    return math.exp((model.vehicle_count - 1) * math.log1p(-tail))


def expected_headway_cdf(density: float, policy: RangePolicy) -> float:
    """E over the range distribution of F(gap <= R): the per-gap success
    probability when the link's transmitter draws a random range."""
    if isinstance(policy, TwoTierRange):
        p = policy.fraction_high
        return (1.0 - p) * headway_cdf(density, policy.range_low_m) + p * headway_cdf(
            density, policy.range_high_m
        )
    if isinstance(policy, UniformRange):
        if isinstance(policy.support, str):
            # mean of 1 - e^(-rho r) over [low, low + w]: 1 - e^(-rho low) (1 - e^(-x)) / x
            # with x = rho w, in expm1 form so that a tiny spread neither
            # cancels nor divides by a zero width
            x = density * 2.0 * math.sqrt(3.0) * policy.std_m
            fraction = -math.expm1(-x) / x if x else 1.0
            return 1.0 - math.exp(-density * policy.bounds[0]) * fraction
        return float(np.mean([headway_cdf(density, v) for v in policy.support]))
    raise TypeError(f"expected a mixed-range policy, got {policy!r}")


def analytic_pc_chain_mixed(density: float, n: int, policy: RangePolicy) -> float:
    """Closed form for the consecutive-chain event under independent
    per-vehicle random ranges: (E[F(R)])^(n-1).  Exact-count two-tier ranges
    put k high ranges on n vehicles, and the last one's range links nothing:
    (k/n) F_H^(k-1) F_L^(n-k) + ((n-k)/n) F_H^k F_L^(n-1-k)."""
    if isinstance(policy, FixedRange):
        raise TypeError("chain closed form is for mixed-range policies; "
                        "use analytic_pc for a fixed range")
    density, n = check_positive("density", density), check_count("n", n, 2)
    if isinstance(policy, TwoTierRange) and policy.exact_count:
        k = policy.high_count(n)
        f_low = headway_cdf(density, policy.range_low_m)
        f_high = headway_cdf(density, policy.range_high_m)
        return (k * f_high ** max(k - 1, 0) * f_low ** (n - k)
                + (n - k) * f_high ** k * f_low ** max(n - 1 - k, 0)) / n
    per_gap = expected_headway_cdf(density, policy)
    if per_gap <= 0.0:
        return 0.0
    return math.exp((n - 1) * math.log(per_gap))


def min_range_for_target(density: float, n: int, target_pc: float) -> float:
    """Smallest fixed range whose closed-form connectivity meets target_pc:
    R = -ln(1 - target^(1/(n-1))) / density."""
    if not 0.0 < target_pc < 1.0:
        raise ValueError(f"target_pc must lie strictly inside (0, 1), got {target_pc}")
    density, n = check_positive("density", density), check_count("n", n, 2)
    log_f = math.log(target_pc) / (n - 1)
    # 1 - t^(1/(n-1)) = -expm1(log_f), kept in expm1/log form for precision
    return -math.log(-math.expm1(log_f)) / density
