"""Per-vehicle communication range assignment.

Three policies: a single fixed range, a two-tier random mix of a low and a
high range, and a uniform random range (continuous by default, or an
explicit list of equiprobable discrete levels).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .traffic import check_count, check_positive, check_positive_array, shown

_SQRT3 = math.sqrt(3.0)
_MOMENT_RTOL = 1e-9


@dataclass(frozen=True)
class FixedRange:
    """Every vehicle transmits with the same range (meters)."""

    range_m: float

    def __post_init__(self):
        _positive_fields(self, "range_m")


@dataclass(frozen=True)
class TwoTierRange:
    """Each vehicle independently gets range_high_m with probability
    fraction_high, otherwise range_low_m.

    exact_count=True instead assigns exactly ``high_count(n)`` high ranges
    through a random permutation (a variance-reduction variant).
    """

    range_low_m: float
    range_high_m: float
    fraction_high: float
    exact_count: bool = False

    def __post_init__(self):
        _positive_fields(self, "range_low_m", "range_high_m")
        if not self.range_low_m < self.range_high_m:
            raise ValueError(
                f"range_low_m: must be < range_high_m, got "
                f"{self.range_low_m} and {self.range_high_m}"
            )
        fraction = self.fraction_high
        if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real) \
                or not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction_high: expected a number within [0, 1], "
                             f"got {shown(fraction)}")
        object.__setattr__(self, "fraction_high", float(fraction))
        if not isinstance(self.exact_count, bool):
            raise ValueError(f"exact_count: expected True or False, got {shown(self.exact_count)}")

    def high_count(self, n: int) -> int:
        """High ranges among n vehicles under exact_count: round half up."""
        return int(math.floor(self.fraction_high * n + 0.5))


@dataclass(frozen=True)
class UniformRange:
    """Uniform random range with the given mean and standard deviation.

    support="continuous" draws from [mean - sqrt(3)*std, mean + sqrt(3)*std],
    which realizes the stated mean and std exactly.  A list or tuple of values
    instead draws equiprobably from those levels; their mean/std must match
    the declared ones to 1e-9 relative.
    """

    mean_m: float
    std_m: float
    support: Union[str, tuple] = "continuous"

    def __post_init__(self):
        _positive_fields(self, "mean_m", "std_m")
        if isinstance(self.support, str) and self.support == "continuous":
            if self.mean_m - _SQRT3 * self.std_m <= 0:
                raise ValueError(
                    "support: 'continuous' extends to nonpositive ranges: "
                    f"mean - sqrt(3)*std = {self.mean_m - _SQRT3 * self.std_m:.6g} m"
                )
        elif isinstance(self.support, (list, tuple)):
            values = tuple(check_positive(f"support[{i}]", v) for i, v in enumerate(self.support))
            if len(values) < 2:
                raise ValueError("support: a discrete support needs at least two values")
            arr = np.asarray(values)
            mean, std = float(arr.mean()), float(arr.std())
            if abs(mean - self.mean_m) > _MOMENT_RTOL * self.mean_m:
                raise ValueError(
                    f"support: mean {mean:.12g} inconsistent with mean_m {self.mean_m:.12g}"
                )
            if abs(std - self.std_m) > _MOMENT_RTOL * self.std_m:
                raise ValueError(
                    f"support: std {std:.12g} inconsistent with std_m {self.std_m:.12g}"
                )
            object.__setattr__(self, "support", values)
        else:
            raise ValueError(f"support: expected 'continuous' or a list of levels, "
                             f"got {shown(self.support)}")

    @property
    def bounds(self) -> tuple:
        """Continuous support interval (low, high)."""
        half = _SQRT3 * self.std_m
        return (self.mean_m - half, self.mean_m + half)


RangePolicy = Union[FixedRange, TwoTierRange, UniformRange]


def _positive_fields(policy, *names) -> None:
    """Check each named field with check_positive and store it as a float."""
    for name in names:
        object.__setattr__(policy, name, check_positive(name, getattr(policy, name)))


@dataclass(frozen=True, eq=False)
class RangeAssignment:
    """Per-vehicle communication ranges in meters."""

    ranges: np.ndarray

    def __post_init__(self):
        ranges = np.asarray(self.ranges, dtype=np.float64)
        if ranges.ndim != 1 or ranges.size < 1:
            raise ValueError("ranges must be a non-empty 1-D array")
        object.__setattr__(self, "ranges", check_positive_array("ranges", ranges))

    @property
    def vehicle_count(self) -> int:
        return self.ranges.size


def draw_ranges(policy: RangePolicy, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Draw one trial's ranges from its generator straight into ``out``, the
    trial's n ranges in meters, and return it: nothing for a fixed range, else
    n uniforms, a permutation or n level indices, as the policy needs."""
    n = out.size
    if isinstance(policy, FixedRange):
        out.fill(policy.range_m)
    elif isinstance(policy, TwoTierRange) and policy.exact_count:
        out.fill(policy.range_low_m)
        out[rng.permutation(n)[:policy.high_count(n)]] = policy.range_high_m
    elif isinstance(policy, TwoTierRange):
        # u < fraction couples assignments monotonically across fractions
        # when the same generator state is replayed
        out[:] = np.where(rng.random(n) < policy.fraction_high,
                          policy.range_high_m, policy.range_low_m)
    elif not isinstance(policy, UniformRange):
        raise TypeError(f"unknown range policy {policy!r}")
    elif isinstance(policy.support, str):
        low, high = policy.bounds
        out[:] = low + (high - low) * rng.random(n)
    else:
        np.take(policy.support, rng.integers(0, len(policy.support), n), out=out)
    return out


def assign_ranges(policy: RangePolicy, n: int, rng: np.random.Generator) -> RangeAssignment:
    """Draw one communication range per vehicle under the given policy."""
    return RangeAssignment(draw_ranges(policy, rng, np.empty(check_count("n", n, 2))))


def power_proxy(assignment: RangeAssignment, path_loss_exponent: float) -> float:
    """Mean of range^alpha over vehicles: per-vehicle transmit power up to a
    propagation constant."""
    alpha = check_positive("path_loss_exponent", path_loss_exponent)
    return float(np.mean(assignment.ranges ** alpha))


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
