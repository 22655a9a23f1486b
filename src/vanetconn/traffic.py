"""Random free-flow traffic realizations on a one-dimensional road segment.

Vehicles are placed by drawing independent exponential headways (valid for
free-flowing traffic, roughly below 25 veh/km); pairwise spacings follow by
summing consecutive gaps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Headways are snapped *up* to this grid (~15 nm).  Grid-aligned gaps keep
# every cumulative position and every pairwise difference exactly
# representable in float64 while positions stay below 2**53 grid steps
# (2**27 m, about 134,000 km), so there the spacing identity
# S[i,k] == S[i,j] + S[j,k] holds bit-exactly rather than to within an ulp.
# The perturbation is ~1e-10 relative on realistic gaps and also guarantees
# strictly positive gaps even if the uniform draw hits its endpoint.
SPACING_QUANTUM_M = 2.0 ** -26

# Upper edge of the free-flow regime the headway model assumes.
FREE_FLOW_MAX_DENSITY_PER_KM = 25.0


def check_positive(name: str, value) -> float:
    """The value as a float; refuses a bool, a non-real, NaN, +-inf, a value
    <= 0 and an int too large for a float, in a message led by ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a finite positive number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer of hundreds of digits
        raise ValueError(f"{name}: {shown(value)} overflows a float") from None
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"{name}: expected a finite positive number, got {value!r}")
    return number


def check_count(name: str, value, minimum: int) -> int:
    """The value as an int; refuses a bool, a non-integer (2.5, "2") and a
    value below ``minimum``, in a message led by ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if int(value) < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {shown(value)}")
    return int(value)


def check_positive_array(name: str, values: np.ndarray) -> np.ndarray:
    """The float array itself; refuses one with an entry that is NaN, +-inf or
    <= 0, in a message led by ``name``.  Two reductions and no temporary:
    min > 0 and max < inf are both false where an entry is NaN."""
    if values.size and not (values.min() > 0 and values.max() < np.inf):
        bad = values[~(values > 0) | (values == np.inf)].flat[0]
        raise ValueError(f"{name}: expected finite positive entries, got {bad}")
    return values


def shown(value) -> str:
    """``repr`` of a value for a message, but of an int over 1,000 bits (any int
    too large for a float) its digit count; Python prints none over 4,300 digits."""
    bits = abs(value).bit_length() if isinstance(value, int) else 0
    if bits <= 1000:
        return repr(value)
    low = int((bits - 1) * math.log10(2))  # 10**low <= |value|
    return f"{low + 1 + (abs(value) >= 10 ** (low + 1))}-digit number"


def vehicle_count(density: float, segment_length: float) -> int:
    """Vehicle count for a segment: round(density * length), floored at 2.

    density is in vehicles per meter, segment_length in meters.  Rounding is
    half-up so results do not depend on the platform's default banker
    rounding.
    """
    check_positive("density", density)
    check_positive("segment_length", segment_length)
    count = density * segment_length
    if not math.isfinite(count):
        raise ValueError(f"vehicle count {density} * {segment_length} overflows")
    return max(2, int(math.floor(count + 0.5)))


@dataclass(frozen=True)
class TrafficScenario:
    """Physical experiment setting: density (veh/m) and road length (m)."""

    density: float
    segment_length: float
    vehicle_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "vehicle_count", vehicle_count(self.density, self.segment_length)
        )


@dataclass(frozen=True, eq=False)
class HeadwayVector:
    """Consecutive inter-vehicle gaps in meters (vehicle_count - 1 of them)."""

    gaps: np.ndarray

    def __post_init__(self):
        gaps = np.asarray(self.gaps, dtype=np.float64)
        if gaps.ndim != 1 or gaps.size == 0:
            raise ValueError("gaps must be a non-empty 1-D array")
        object.__setattr__(self, "gaps", check_positive_array("gaps", gaps))

    @property
    def vehicle_count(self) -> int:
        return self.gaps.size + 1

    @property
    def positions(self) -> np.ndarray:
        """Cumulative vehicle positions in meters, the first vehicle at 0."""
        return vehicle_positions(self.gaps)


def headway_gaps(uniforms: np.ndarray, density: float) -> np.ndarray:
    """Exponential headways with mean 1/density from uniform draws on [0, 1).

    Uses the inverse-CDF transform -ln(1 - u)/density, so the gaps are a pure
    function of the draws, then snaps them up to SPACING_QUANTUM_M (see
    module docstring).  Elementwise on any shape: a block of trials passes
    one row of draws per trial.
    """
    raw = -np.log(1.0 - uniforms) / density
    gaps = np.maximum(SPACING_QUANTUM_M, np.ceil(raw / SPACING_QUANTUM_M) * SPACING_QUANTUM_M)
    return check_positive_array("gaps", gaps)


def vehicle_positions(gaps: np.ndarray) -> np.ndarray:
    """Cumulative positions along the last axis, the first vehicle at 0."""
    positions = np.zeros(gaps.shape[:-1] + (gaps.shape[-1] + 1,))
    np.cumsum(gaps, axis=-1, out=positions[..., 1:])
    return positions


def sample_headways(scenario: TrafficScenario, rng: np.random.Generator) -> HeadwayVector:
    """Draw the scenario's exponential headways with mean 1/density: the
    vehicle_count - 1 uniforms of one ``rng.random`` call through
    ``headway_gaps``."""
    return HeadwayVector(headway_gaps(rng.random(scenario.vehicle_count - 1), scenario.density))


@dataclass(frozen=True, eq=False)
class SpacingMatrix:
    """Pairwise inter-vehicle distances in meters; symmetric, zero diagonal."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def spacing_matrix(headways: HeadwayVector) -> SpacingMatrix:
    """Spacings S[i, j] = sum of the gaps separating vehicles i and j.

    Built from cumulative positions.  With grid-aligned gaps (as produced by
    sample_headways) all positions, differences, and sums of entries are
    exact in float64 on roads shorter than 2**27 m (see SPACING_QUANTUM_M).
    """
    positions = headways.positions
    entries = np.abs(positions[None, :] - positions[:, None])
    return SpacingMatrix(entries)
