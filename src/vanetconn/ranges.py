"""Per-vehicle communication range assignment.

Three policies: a single fixed range, a two-tier random mix of a low and a
high range, and a uniform random range (continuous by default, or an
explicit list of equiprobable discrete levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .traffic import check_positive

_SQRT3 = math.sqrt(3.0)
_MOMENT_RTOL = 1e-9


@dataclass(frozen=True)
class FixedRange:
    """Every vehicle transmits with the same range (meters)."""

    range_m: float

    def __post_init__(self):
        check_positive("range_m", self.range_m)


@dataclass(frozen=True)
class TwoTierRange:
    """Each vehicle independently gets range_high_m with probability
    fraction_high, otherwise range_low_m.

    exact_count=True instead assigns exactly round(fraction_high * n) high
    ranges through a random permutation (a variance-reduction variant).
    """

    range_low_m: float
    range_high_m: float
    fraction_high: float
    exact_count: bool = False

    def __post_init__(self):
        check_positive("range_low_m", self.range_low_m)
        check_positive("range_high_m", self.range_high_m)
        if not self.range_low_m < self.range_high_m:
            raise ValueError(
                f"range_low_m must be < range_high_m, got "
                f"{self.range_low_m} and {self.range_high_m}"
            )
        if not 0.0 <= self.fraction_high <= 1.0:
            raise ValueError(f"fraction_high must be within [0, 1], got {self.fraction_high}")


@dataclass(frozen=True)
class UniformRange:
    """Uniform random range with the given mean and standard deviation.

    support="continuous" draws from [mean - sqrt(3)*std, mean + sqrt(3)*std],
    which realizes the stated mean and std exactly.  A sequence of values
    instead draws equiprobably from that list; the list's mean/std must match
    the declared ones to 1e-9 relative.
    """

    mean_m: float
    std_m: float
    support: Union[str, tuple] = "continuous"

    def __post_init__(self):
        check_positive("mean_m", self.mean_m)
        check_positive("std_m", self.std_m)
        if isinstance(self.support, str):
            if self.support != "continuous":
                raise ValueError(f"support must be 'continuous' or a value list, got {self.support!r}")
            if self.mean_m - _SQRT3 * self.std_m <= 0:
                raise ValueError(
                    "continuous support extends to nonpositive ranges: "
                    f"mean - sqrt(3)*std = {self.mean_m - _SQRT3 * self.std_m:.6g} m"
                )
        else:
            values = tuple(float(v) for v in self.support)
            if len(values) < 2:
                raise ValueError("discrete support needs at least two values")
            for value in values:
                check_positive("support value", value)
            arr = np.asarray(values)
            mean, std = float(arr.mean()), float(arr.std())
            if abs(mean - self.mean_m) > _MOMENT_RTOL * self.mean_m:
                raise ValueError(
                    f"support mean {mean:.12g} inconsistent with mean_m {self.mean_m:.12g}"
                )
            if abs(std - self.std_m) > _MOMENT_RTOL * self.std_m:
                raise ValueError(
                    f"support std {std:.12g} inconsistent with std_m {self.std_m:.12g}"
                )
            object.__setattr__(self, "support", values)

    @property
    def bounds(self) -> tuple:
        """Continuous support interval (low, high)."""
        half = _SQRT3 * self.std_m
        return (self.mean_m - half, self.mean_m + half)


RangePolicy = Union[FixedRange, TwoTierRange, UniformRange]


@dataclass(frozen=True, eq=False)
class RangeAssignment:
    """Per-vehicle communication ranges in meters."""

    ranges: np.ndarray

    def __post_init__(self):
        ranges = np.asarray(self.ranges, dtype=np.float64)
        if ranges.ndim != 1 or ranges.size < 1:
            raise ValueError("ranges must be a non-empty 1-D array")
        _check_ranges(ranges)
        object.__setattr__(self, "ranges", ranges)

    @property
    def vehicle_count(self) -> int:
        return self.ranges.size


def _check_ranges(ranges: np.ndarray) -> None:
    if not np.all(ranges > 0):
        raise ValueError("all ranges must be > 0")


class RangeBlock:
    """Ranges of n vehicles for a block of trials under one policy.

    ``draw`` takes one trial's raw draws from that trial's generator into its
    own row; ``ranges`` then transforms the whole block at once.  Row i is
    what ``assign_ranges`` returns for the generator drawn into row i.
    """

    def __init__(self, policy: RangePolicy, rows: int, n: int):
        if n < 2:
            raise ValueError(f"need at least 2 vehicles, got {n}")
        self.policy, self.rows, self.n = policy, rows, n
        if isinstance(policy, FixedRange):
            self.raw = None
        elif isinstance(policy, TwoTierRange) and policy.exact_count:
            # the vehicles that get the high range
            n_high = int(math.floor(policy.fraction_high * n + 0.5))
            self.raw = np.empty((rows, n_high), dtype=np.intp)
        elif isinstance(policy, UniformRange) and not isinstance(policy.support, str):
            self.raw = np.empty((rows, n), dtype=np.intp)  # indices into the levels
        elif isinstance(policy, (TwoTierRange, UniformRange)):
            self.raw = np.empty((rows, n))  # uniforms on [0, 1)
        else:
            raise TypeError(f"unknown range policy {policy!r}")

    def draw(self, row: int, rng: np.random.Generator) -> None:
        """Take one trial's draws: nothing, n uniforms, a permutation or n
        level indices, as the policy needs."""
        if self.raw is None:
            return
        if self.raw.dtype == np.float64:
            rng.random(out=self.raw[row])
        elif isinstance(self.policy, TwoTierRange):
            self.raw[row] = rng.permutation(self.n)[:self.raw.shape[1]]
        else:
            self.raw[row] = rng.integers(0, len(self.policy.support), self.n)

    def ranges(self) -> np.ndarray:
        """(rows, n) ranges in meters from the draws taken so far."""
        policy = self.policy
        if isinstance(policy, FixedRange):
            ranges = np.full((self.rows, self.n), policy.range_m)
        elif isinstance(policy, TwoTierRange):
            if policy.exact_count:
                ranges = np.full((self.rows, self.n), policy.range_low_m)
                np.put_along_axis(ranges, self.raw, policy.range_high_m, axis=1)
            else:
                # u < fraction couples assignments monotonically across
                # fractions when the same generator state is replayed
                ranges = np.where(self.raw < policy.fraction_high,
                                  policy.range_high_m, policy.range_low_m)
        elif isinstance(policy.support, str):
            low, high = policy.bounds
            ranges = low + (high - low) * self.raw
        else:
            ranges = np.asarray(policy.support)[self.raw]
        _check_ranges(ranges)
        return ranges


def assign_ranges(policy: RangePolicy, n: int, rng: np.random.Generator) -> RangeAssignment:
    """Draw one communication range per vehicle under the given policy: a
    ``RangeBlock`` of one trial."""
    block = RangeBlock(policy, 1, n)
    block.draw(0, rng)
    return RangeAssignment(block.ranges()[0])


def power_proxy(assignment: RangeAssignment, path_loss_exponent: float) -> float:
    """Mean of range^alpha over vehicles: per-vehicle transmit power up to a
    propagation constant."""
    if path_loss_exponent <= 0:
        raise ValueError(f"path_loss_exponent must be > 0, got {path_loss_exponent}")
    return float(np.mean(assignment.ranges ** path_loss_exponent))


def mean_range(policy: RangePolicy) -> float:
    """Expected communication range under the policy."""
    if isinstance(policy, FixedRange):
        return policy.range_m
    if isinstance(policy, TwoTierRange):
        p = policy.fraction_high
        return (1.0 - p) * policy.range_low_m + p * policy.range_high_m
    if isinstance(policy, UniformRange):
        return policy.mean_m
    raise TypeError(f"unknown range policy {policy!r}")


def policy_label(policy: RangePolicy) -> str:
    """Compact comma-free descriptor used in CSV output."""
    if isinstance(policy, FixedRange):
        return f"fixed:R={policy.range_m:g}"
    if isinstance(policy, TwoTierRange):
        tag = ":exact" if policy.exact_count else ""
        return (
            f"two_tier:R1={policy.range_low_m:g}:R2={policy.range_high_m:g}"
            f":p_high={policy.fraction_high:g}{tag}"
        )
    if isinstance(policy, UniformRange):
        base = f"uniform:mean={policy.mean_m:g}:std={policy.std_m:g}"
        if isinstance(policy.support, str):
            return base
        return f"{base}:levels={len(policy.support)}"
    raise TypeError(f"unknown range policy {policy!r}")
