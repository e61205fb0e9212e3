"""Tests for the fixed-point quantization core."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescale_lab import (
    DomainError,
    DyadicRescaler,
    QuantParams,
    RescalerUnderflow,
    decompose_float,
    multiply_by_quantized_multiplier,
    quantize_rescaler,
    shift_budget,
)

from oracles import oracle_best_dyadic, oracle_decompose, oracle_rescale

# Smallest multiplier whose shift fits the budget at every k: the budget
# 32 + k - 8 binds exactly when the exponent reaches -25.
MIN_SAFE_MULTIPLIER = 2.0**-25


def make_rescaler(m: int, s: int, k: int = 32) -> DyadicRescaler:
    """Hand-built rescaler for arithmetic tests; real_value set consistently."""
    return DyadicRescaler(m=m, s=s, k=k, real_value=math.ldexp(m, -s))


# ---------------------------------------------------------------- decompose


class TestDecomposeFloat:
    def test_half(self):
        d = decompose_float(0.5)
        assert (d.fraction, d.exponent) == (0.0, -1)

    def test_one(self):
        d = decompose_float(1.0)
        assert (d.fraction, d.exponent) == (0.0, 0)

    def test_tenth(self):
        d = decompose_float(0.1)
        # Doubling oracle: 0.1 -> 0.2 -> 0.4 -> 0.8 -> 1.6, so fraction is the
        # binary64 value of 0.1 * 16 - 1 (approximately 0.6) at exponent -4.
        assert d.exponent == -4
        assert d.fraction == 0.1 * 16 - 1.0
        assert d.fraction == pytest.approx(0.6)
        assert math.ldexp(1.0 + d.fraction, d.exponent) == 0.1

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0000000000000002, 2.0,
                                     float("nan"), float("inf"), 5e-324])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            decompose_float(bad)

    @given(st.floats(min_value=1e-300, max_value=1.0, allow_nan=False))
    def test_matches_doubling_oracle_and_reconstructs(self, value):
        d = decompose_float(value)
        frac, exp = oracle_decompose(value)
        assert (d.fraction, d.exponent) == (frac, exp)
        assert 0.0 <= d.fraction < 1.0
        assert d.exponent <= 0
        assert d.value == value


# ---------------------------------------------------------- quantize_rescaler


class TestQuantizeRescaler:
    @pytest.mark.parametrize(
        "value,k,m,s",
        [
            (0.5, 8, 128, 8),
            (1.0, 4, 8, 3),
            (0.1, 8, 204, 11),
            (0.1, 4, 12, 7),
        ],
    )
    def test_frozen_examples(self, value, k, m, s):
        r = quantize_rescaler(value, k)
        assert (r.m, r.s) == (m, s)

    def test_frozen_quantized_values(self):
        assert quantize_rescaler(0.1, 8).quantized_value == 0.099609375
        assert quantize_rescaler(0.1, 4).quantized_value == 0.09375

    def test_real_value_is_a_python_float(self):
        # Exact for binary32 input, and the error model reads it as is.
        r = quantize_rescaler(np.float32(0.3), 8)
        assert type(r.real_value) is float
        assert r.real_value == float(np.float32(0.3))

    @pytest.mark.parametrize("value,k", [(0.1, 8), (0.1, 4), (0.7, 5), (0.03, 16)])
    def test_matches_exhaustive_search(self, value, k):
        r = quantize_rescaler(value, k)
        assert (r.m, r.s) == oracle_best_dyadic(value, k)

    @given(
        st.floats(min_value=MIN_SAFE_MULTIPLIER, max_value=1.0, allow_nan=False),
        st.integers(min_value=2, max_value=32),
    )
    def test_construction_bounds(self, value, k):
        r = quantize_rescaler(value, k)
        r.validate()
        exact = Fraction(r.m, 1 << r.s)
        target = Fraction(value)
        assert exact <= target
        assert (target - exact) / target < Fraction(1, 1 << (k - 1))
        assert (1 << (k - 1)) <= r.m < (1 << k)
        assert 1 <= r.s <= shift_budget(k)

    def test_k32_baseline_fidelity(self):
        for value in (0.1, 0.9999999, 0.000123, 2.0**-20):
            r = quantize_rescaler(value, 32)
            assert abs(r.quantized_value - value) / value < 2.0**-31

    def test_idempotent_on_exact_dyadics(self):
        r = quantize_rescaler(0.5, 8)
        again = quantize_rescaler(r.quantized_value, 8)
        assert (again.m, again.s) == (r.m, r.s)

    def test_underflow_raises_by_default(self):
        with pytest.raises(RescalerUnderflow):
            quantize_rescaler(2.0**-30, 8)

    def test_underflow_threshold_is_exact(self):
        quantize_rescaler(2.0**-25, 8)  # exponent -25: exactly at budget
        with pytest.raises(RescalerUnderflow):
            quantize_rescaler(2.0**-26, 8)

    def test_underflow_clamp_warns_and_degrades(self):
        with pytest.warns(RuntimeWarning):
            r = quantize_rescaler(2.0**-30, 8, on_underflow="clamp")
        assert r.underflowed
        assert r.s == shift_budget(8)
        assert r.quantized_value <= 2.0**-30

    @pytest.mark.parametrize("k", [1, 0, 33, -4])
    def test_bad_bitwidth(self, k):
        with pytest.raises(DomainError):
            quantize_rescaler(0.5, k)

    def test_multiplier_above_one_rejected(self):
        with pytest.raises(DomainError):
            quantize_rescaler(1.5, 8)


# ------------------------------------------------- multiply_by_quantized_mult


class TestMultiplyByQuantizedMultiplier:
    @pytest.mark.parametrize(
        "x,m,s,expected",
        [
            (1000, 128, 8, 500),
            (-1000, 128, 8, -500),
            (3, 85, 8, 1),
            (-3, 85, 8, -1),  # half-up toward +inf, not away from zero
            (7, 204, 11, 1),
        ],
    )
    def test_frozen_examples(self, x, m, s, expected):
        assert multiply_by_quantized_multiplier(x, make_rescaler(m, s)) == expected

    def test_int32_saturation(self):
        one = DyadicRescaler(m=2, s=1, k=2, real_value=1.0)
        assert multiply_by_quantized_multiplier(2**31 - 1, one) == 2**31 - 1
        assert multiply_by_quantized_multiplier(-(2**31), one) == -(2**31)

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.floats(min_value=MIN_SAFE_MULTIPLIER, max_value=1.0, allow_nan=False),
        st.integers(min_value=2, max_value=31),
    )
    def test_matches_exact_half_up(self, x, value, k):
        """Invariant: equals floor(x * M_q + 1/2) in exact arithmetic."""
        r = quantize_rescaler(value, k)
        got = multiply_by_quantized_multiplier(x, r)
        exact = Fraction(x * r.m, 1 << r.s) + Fraction(1, 2)
        expected = exact.numerator // exact.denominator  # floor
        expected = max(-(2**31), min(2**31 - 1, expected))
        assert got == expected

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=1, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=56),
    )
    def test_matches_divmod_oracle(self, x, m, s):
        r = DyadicRescaler(m=m, s=s, k=32, real_value=1.0)
        assert multiply_by_quantized_multiplier(x, r) == oracle_rescale(x, m, s)

    def test_monotone_in_x(self):
        r = quantize_rescaler(0.37, 8)
        values = [multiply_by_quantized_multiplier(x, r) for x in range(-500, 500)]
        assert values == sorted(values)


# ---------------------------------------------------------------- QuantParams


class TestQuantParams:
    def test_affine_example(self):
        qp = QuantParams(scale=0.01, zero_point=-128)
        assert not qp.is_symmetric

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
    def test_bad_scale(self, scale):
        with pytest.raises(DomainError):
            QuantParams(scale=scale)

    @pytest.mark.parametrize("zp", [-129, 128])
    def test_bad_zero_point(self, zp):
        with pytest.raises(DomainError):
            QuantParams(scale=1.0, zero_point=zp)


# ------------------------------------------------------------- DyadicRescaler


class TestDyadicRescalerValidation:
    def test_missing_leading_bit_rejected(self):
        with pytest.raises(DomainError):
            DyadicRescaler(m=64, s=8, k=8, real_value=0.25).validate()

    def test_shift_budget_enforced(self):
        with pytest.raises(DomainError):
            DyadicRescaler(m=128, s=33, k=8, real_value=2.0**-26).validate()

    def test_non_int_width_is_domain_error(self):
        with pytest.raises(DomainError, match="must be an int"):
            DyadicRescaler(m=2, s=1, k=2.0, real_value=1.0).validate()

    def test_quantized_above_real_rejected(self):
        with pytest.raises(DomainError):
            DyadicRescaler(m=255, s=8, k=8, real_value=0.5).validate()
