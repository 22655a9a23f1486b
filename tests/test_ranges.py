import math

import numpy as np
import pytest

from vanetconn.montecarlo import ExperimentSpec
from vanetconn.ranges import (
    FixedRange,
    RangeAssignment,
    TwoTierRange,
    UniformRange,
    assign_ranges,
    mean_range,
    policy_label,
    power_proxy,
)


class TestPolicies:
    def test_fixed_assigns_constant(self):
        out = assign_ranges(FixedRange(750.0), 5, np.random.default_rng(0))
        assert np.array_equal(out.ranges, np.full(5, 750.0))

    def test_two_tier_boundary_probabilities(self):
        rng = np.random.default_rng(1)
        low = assign_ranges(TwoTierRange(500.0, 1000.0, 0.0), 50, rng)
        assert np.all(low.ranges == 500.0)
        high = assign_ranges(TwoTierRange(500.0, 1000.0, 1.0), 50, rng)
        assert np.all(high.ranges == 1000.0)

    def test_two_tier_fraction_concentrates(self):
        # empirical high-range share within 0.005 of the target at >= 1e6 draws
        p = 0.3
        rng = np.random.default_rng(2)
        total = high = 0
        for _ in range(1000):
            out = assign_ranges(TwoTierRange(500.0, 1000.0, p), 1000, rng)
            high += int(np.sum(out.ranges == 1000.0))
            total += out.ranges.size
        assert total >= 10 ** 6
        assert abs(high / total - p) < 0.005

    def test_two_tier_exact_count_mode(self):
        policy = TwoTierRange(500.0, 1000.0, 0.25, exact_count=True)
        out = assign_ranges(policy, 100, np.random.default_rng(3))
        assert int(np.sum(out.ranges == 1000.0)) == 25

    def test_uniform_continuous_moments(self):
        rng = np.random.default_rng(4)
        draws = assign_ranges(UniformRange(750.0, 100.0), 10 ** 6, rng).ranges
        assert abs(draws.mean() - 750.0) < 1.0
        assert abs(draws.std() - 100.0) < 2.0

    def test_uniform_continuous_support_bounds(self):
        low, high = UniformRange(750.0, 100.0).bounds
        assert low == pytest.approx(750.0 - math.sqrt(3) * 100.0)
        draws = assign_ranges(UniformRange(750.0, 100.0), 10 ** 4,
                              np.random.default_rng(5)).ranges
        assert draws.min() >= low and draws.max() <= high

    def test_uniform_discrete_draws_from_support(self):
        support = (500.0, 750.0, 1000.0)
        arr = np.asarray(support)
        policy = UniformRange(float(arr.mean()), float(arr.std()), support)
        draws = assign_ranges(policy, 5000, np.random.default_rng(6)).ranges
        assert set(np.unique(draws)) <= set(support)
        assert len(set(np.unique(draws))) == 3

    def test_determinism(self):
        policy = TwoTierRange(500.0, 1000.0, 0.5)
        a = assign_ranges(policy, 200, np.random.default_rng(7))
        b = assign_ranges(policy, 200, np.random.default_rng(7))
        assert np.array_equal(a.ranges, b.ranges)

    def test_minimum_two_vehicles(self):
        with pytest.raises(ValueError):
            assign_ranges(FixedRange(500.0), 1, np.random.default_rng(0))


FIELD_BUILDERS = {
    "range_m": lambda v: FixedRange(v),
    "range_low_m": lambda v: TwoTierRange(v, 1000.0, 0.5),
    "range_high_m": lambda v: TwoTierRange(500.0, v, 0.5),
    "fraction_high": lambda v: TwoTierRange(500.0, 1000.0, v),
    "exact_count": lambda v: TwoTierRange(500.0, 1000.0, 0.5, v),
    "mean_m": lambda v: UniformRange(v, 100.0),
    "std_m": lambda v: UniformRange(750.0, v),
    "support": lambda v: UniformRange(750.0, 100.0, v),
    "support[1]": lambda v: UniformRange(750.0, 250.0, (500.0, v)),
    "densities_per_km[1]": lambda v: ExperimentSpec((5.0, v), 10_000.0, FixedRange(750.0),
                                                    ("chain",), "undirected", 5, 1),
    "segment_length_m": lambda v: ExperimentSpec((5.0,), v, FixedRange(750.0),
                                                 ("chain",), "undirected", 5, 1),
}
WRONG_VALUES = {"True": True, "'750'": "750", "None": None, "10**400": 10 ** 400,
                "10**5000": 10 ** 5000, "nan": math.nan}
# True is a valid exact_count, so that field gets 1 and "no" instead
WRONG_FIELD_VALUES = [
    pytest.param(field, value, id=f"{field}={name}")
    for field in FIELD_BUILDERS for name, value in WRONG_VALUES.items()
    if (field, name) != ("exact_count", "True")
] + [pytest.param(field, value, id=f"{field}={value!r}")
     for field, value in (("exact_count", 1), ("exact_count", "no"), ("support", 5))]


class TestValidation:
    def test_two_tier_ordering_and_fraction(self):
        with pytest.raises(ValueError):
            TwoTierRange(1000.0, 500.0, 0.5)
        with pytest.raises(ValueError):
            TwoTierRange(500.0, 1000.0, 1.5)

    def test_continuous_support_must_stay_positive(self):
        # mean - sqrt(3) * std <= 0
        with pytest.raises(ValueError):
            UniformRange(100.0, 100.0)

    def test_discrete_support_moment_consistency(self):
        with pytest.raises(ValueError):
            UniformRange(750.0, 100.0, (500.0, 1000.0))  # std is actually 250
        UniformRange(750.0, 250.0, (500.0, 1000.0))  # consistent

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="range_m"):
            FixedRange(bad)
        with pytest.raises(ValueError, match="range_low_m"):
            TwoTierRange(bad, 1000.0, 0.5)
        with pytest.raises(ValueError, match="range_high_m"):
            TwoTierRange(500.0, bad, 0.5)
        with pytest.raises(ValueError, match="mean_m"):
            UniformRange(bad, 100.0)
        with pytest.raises(ValueError, match="std_m"):
            UniformRange(750.0, bad)
        with pytest.raises(ValueError, match="support"):
            UniformRange(750.0, 250.0, (500.0, bad))

    @pytest.mark.parametrize("field, value", WRONG_FIELD_VALUES)
    def test_each_field_refuses_wrong_values_by_name(self, field, value):
        # the types own their value rules: a bool, a string, None, an int too
        # large for a float (or to print) and NaN are refused with the field
        # named first
        with pytest.raises(ValueError) as refusal:
            FIELD_BUILDERS[field](value)
        assert str(refusal.value).startswith(f"{field}:")

    def test_positive_ranges_only(self):
        with pytest.raises(ValueError):
            FixedRange(0.0)
        with pytest.raises(ValueError):
            RangeAssignment(np.array([500.0, -1.0]))


class TestPowerProxy:
    def test_single_value_squared(self):
        out = RangeAssignment(np.full(8, 750.0))
        assert power_proxy(out, 2.0) == 562_500.0

    def test_even_mix_mean_of_squares(self):
        out = RangeAssignment(np.array([500.0] * 5 + [1000.0] * 5))
        assert power_proxy(out, 2.0) == 625_000.0

    def test_mix_needs_more_power_than_equivalent_fixed(self):
        mixed = RangeAssignment(np.array([500.0] * 5 + [1000.0] * 5))
        fixed = RangeAssignment(np.full(10, 750.0))
        assert power_proxy(mixed, 2.0) > power_proxy(fixed, 2.0)

    def test_alpha_one_is_arithmetic_mean(self):
        values = np.array([300.0, 450.0, 900.0, 1200.0])
        out = RangeAssignment(values)
        assert power_proxy(out, 1.0) == values.mean()

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            power_proxy(RangeAssignment(np.array([500.0, 600.0])), 0.0)


class TestHelpers:
    def test_mean_range(self):
        assert mean_range(FixedRange(750.0)) == 750.0
        assert mean_range(TwoTierRange(500.0, 1000.0, 0.5)) == 750.0
        assert mean_range(UniformRange(640.0, 50.0)) == 640.0

    def test_policy_labels_are_comma_free(self):
        for policy in (FixedRange(750.0), TwoTierRange(500.0, 1000.0, 0.25),
                       UniformRange(750.0, 100.0)):
            label = policy_label(policy)
            assert "," not in label
        assert policy_label(FixedRange(750.0)) == "fixed:R=750"
