"""Rescale error model tests: exact decomposition, bounds, safe widths."""

from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from rescale_lab.errmodel import (
    LayerErrorReport,
    layer_error_report,
    min_safe_bitwidth,
    model_error_report,
    rescale_error_bound,
    rescale_error_decompose,
)
from rescale_lab.errors import DomainError
from rescale_lab.kernels import RESCALE_BLOCK, QTensor
from rescale_lab.model_io import LayerSpec, ModelGraph, materialize_rescalers
from rescale_lab.qcore import (
    DyadicRescaler,
    multiply_by_quantized_multiplier,
    quantize_rescaler,
)

from oracles import oracle_error_report


def exact(r: DyadicRescaler) -> Fraction:
    return Fraction(r.m, 1 << r.s)


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


class TestDecompose:
    def test_power_of_two_scale_leaves_only_rounding(self):
        r = quantize_rescaler(0.5, 32)
        for a_q in (-999, -1, 0, 1, 7, 1000):
            parts = rescale_error_decompose(a_q, r, 0.01)
            assert parts.scale_mismatch == 0.0
            assert abs(parts.delta_r) <= 0.5
            assert parts.eps_r == parts.rounding

    def test_zero_accumulator(self):
        r = quantize_rescaler(0.3, 8)
        parts = rescale_error_decompose(0, r, 0.01)
        assert parts == rescale_error_decompose(0, r, 0.01)
        assert parts.eps_r == 0.0
        assert parts.delta_r == 0.0

    def test_hand_worked_low_bit_case(self):
        r = quantize_rescaler(0.1, 4)
        assert (r.m, r.s) == (12, 7)
        assert r.quantized_value == 0.09375
        parts = rescale_error_decompose(1000, r, 0.01)
        # Integer path: floor((1000*12 + 64) / 128) = 94.
        assert multiply_by_quantized_multiplier(1000, r) == 94
        assert parts.delta_r == 0.25  # 94 - 93.75, exactly representable
        assert parts.rounding == 0.0025
        assert parts.scale_mismatch == pytest.approx(-0.0625)
        assert parts.eps_r == pytest.approx(-0.06)
        # Correct rounding of the exact rational quantities:
        s_y, m = Fraction(0.01), Fraction(0.1)
        assert parts.scale_mismatch == float(s_y * 1000 * (exact(r) - m))
        assert parts.eps_r == float(s_y * (94 - 1000 * m))


class TestBound:
    def test_exact_multiplier_leaves_rounding_floor(self):
        r = quantize_rescaler(0.5, 8)
        assert rescale_error_bound(r, 0.01, 12345) == 0.005

    def test_hand_worked_case(self):
        r = quantize_rescaler(0.1, 4)
        bound = rescale_error_bound(r, 0.01, 1000)
        assert bound == pytest.approx(0.0675)

    def test_zero_accumulator_peak(self):
        r = quantize_rescaler(0.3, 4)
        assert rescale_error_bound(r, 0.01, 0) == 0.005

    def test_float32_inputs_are_widened_exactly(self):
        r = quantize_rescaler(np.float32(0.3), 8)
        assert rescale_error_bound(r, np.float32(0.01), 10) == float(
            abs(exact(r) - Fraction(float(np.float32(0.3)))) * 10
            * Fraction(float(np.float32(0.01))) + Fraction(float(np.float32(0.01))) / 2)

    def test_negative_peak_rejected(self):
        r = quantize_rescaler(0.3, 4)
        with pytest.raises(DomainError):
            rescale_error_bound(r, 0.01, -1)


class TestMinSafeBitwidth:
    def test_exact_dyadic_needs_minimum_width(self):
        assert min_safe_bitwidth(0.5, 10**9) == 2

    def test_zero_peak_is_vacuous(self):
        assert min_safe_bitwidth(0.1, 0) == 2

    def test_tenth_at_ten_thousand(self):
        # |M_q(k) - 0.1| * 10000 <= 1/2 requires mismatch <= 5e-5; the
        # truncation error plateaus over k in {10, 11, 12}, so 10 suffices.
        assert min_safe_bitwidth(0.1, 10000) == 10

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            m_real = float(rng.uniform(2.0**-20, 1.0))
            peak = int(rng.integers(0, 1 << 24))
            want = 32
            for k in range(2, 33):
                r = quantize_rescaler(m_real, k)
                if abs(Fraction(m_real) - exact(r)) * peak <= Fraction(1, 2):
                    want = k
                    break
            assert min_safe_bitwidth(m_real, peak) == want

    def test_unreachable_condition_flags(self):
        with pytest.warns(RuntimeWarning, match="no rescaler width"):
            assert min_safe_bitwidth(0.1, 10**11) == 32

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            min_safe_bitwidth(0.0, 10)
        with pytest.raises(DomainError):
            min_safe_bitwidth(0.1, -5)


# ---------------------------------------------------------------------------
# Exactness and soundness properties
# ---------------------------------------------------------------------------


def random_cases(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m_real = float(rng.uniform(2.0**-24, 1.0))
        k = int(rng.integers(2, 33))
        a_q = int(rng.integers(-(1 << 30), 1 << 30))
        s_y = float(rng.uniform(1e-6, 1.0))
        yield a_q, m_real, quantize_rescaler(m_real, k), s_y


def test_decomposition_identity_exact():
    """eps_r equals (dequantized integer path) - (dequantized exact-M path)
    as exact rationals, and the two components sum to it exactly."""
    for a_q, m_real, r, s_y in random_cases(400, seed=1234):
        y_int = multiply_by_quantized_multiplier(a_q, r)
        s_y_f, m_f = Fraction(s_y), Fraction(m_real)
        integer_path = s_y_f * y_int
        exact_path = s_y_f * a_q * m_f
        eps_exact = integer_path - exact_path
        mismatch_exact = s_y_f * a_q * (exact(r) - m_f)
        delta_exact = y_int - a_q * exact(r)
        assert eps_exact == mismatch_exact + s_y_f * delta_exact
        parts = rescale_error_decompose(a_q, r, s_y)
        assert parts.eps_r == float(eps_exact)
        assert parts.scale_mismatch == float(mismatch_exact)
        assert parts.delta_r == float(delta_exact)
        assert abs(delta_exact) <= Fraction(1, 2)


def test_bound_soundness():
    """|eps_r| never exceeds the bound at the accumulator's own magnitude."""
    for a_q, m_real, r, s_y in random_cases(400, seed=5678):
        parts = rescale_error_decompose(a_q, r, s_y)
        bound = rescale_error_bound(r, s_y, abs(a_q))
        assert abs(parts.eps_r) <= bound


def test_monotone_refinement():
    """More multiplier bits never increase the mismatch."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        m_real = float(rng.uniform(2.0**-20, 1.0))
        prev = None
        for k in range(2, 33):
            mismatch = abs(Fraction(m_real) - exact(quantize_rescaler(m_real, k)))
            if prev is not None:
                assert mismatch <= prev
            prev = mismatch


def test_delta_distribution_matches_enumeration():
    """delta_r over random accumulators lies in (-1/2, 1/2] and its mean
    matches the exhaustive small-range enumeration within 0.02."""
    r = quantize_rescaler(0.3, 5)
    lo, hi = -2000, 2000
    enumerated = [
        float(multiply_by_quantized_multiplier(a, r) - a * exact(r))
        for a in range(lo, hi + 1)
    ]
    assert all(-0.5 < d <= 0.5 for d in enumerated)
    predicted_mean = float(np.mean(enumerated))
    rng = np.random.default_rng(8)
    sample = [
        float(multiply_by_quantized_multiplier(int(a), r) - int(a) * exact(r))
        for a in rng.integers(lo, hi + 1, size=4000)
    ]
    assert abs(float(np.mean(sample)) - predicted_mean) <= 0.02


# ---------------------------------------------------------------------------
# Layer reports
# ---------------------------------------------------------------------------


def one_channel_tenth_model():
    """flatten -> dense(1) with rescale factor exactly 0.1."""
    from rescale_lab.qcore import QuantParams

    in_params = QuantParams(scale=0.5, zero_point=0)
    out_params = QuantParams(scale=1.25, zero_point=0)
    w_scales = np.array([0.25])
    dense = LayerSpec(
        kind="dense",
        weights=QTensor(np.array([[100]], dtype=np.int8), w_scales),
        bias=np.array([0], dtype=np.int32),
        output=out_params,
        rescalers=[quantize_rescaler(0.5 * 0.25 / 1.25, 32)],
    )
    flatten = LayerSpec(kind="flatten", output=in_params)
    return ModelGraph("tenth", in_params, [flatten, dense])


class TestLayerErrorReport:
    def test_k32_all_safe(self):
        model = one_channel_tenth_model()
        probe = [np.full((4, 1, 1), 255, dtype=np.uint8)]
        report = layer_error_report(model, 1, probe)
        assert report.all_safe
        assert report.kind == "dense"
        assert report.max_abs_acc.tolist() == [200]  # quantize(1.0) = 2; 2*100

    def test_low_width_unsafe(self):
        model = one_channel_tenth_model()
        probe = [np.full((4, 1, 1), 255, dtype=np.uint8)]
        report = layer_error_report(materialize_rescalers(model, 2), 1, probe)
        # M_q(2 bits) = 3/32; |0.09375 - 0.1| * 200 = 1.25 > 1/2.
        assert not report.all_safe
        assert report.m_quantized.tolist() == [0.09375]
        assert report.mismatch_bound[0] > report.rounding_floor

    def test_empty_probe_set(self):
        model = one_channel_tenth_model()
        with pytest.raises(DomainError, match="empty"):
            layer_error_report(model, 1, [])

    def test_zero_image_batches_are_skipped(self):
        model = one_channel_tenth_model()
        empty = np.zeros((0, 1, 1), dtype=np.uint8)
        with pytest.raises(DomainError, match="empty"):
            layer_error_report(model, 1, empty)
        probe = np.full((4, 1, 1), 255, dtype=np.uint8)
        report = layer_error_report(model, 1, [empty, probe, empty])
        assert report.max_abs_acc.tolist() == [200]

    def test_flatten_has_no_rescale_stage(self):
        model = one_channel_tenth_model()
        with pytest.raises(DomainError, match="flatten"):
            layer_error_report(model, 0, [np.zeros((1, 1, 1), np.uint8)])

    def test_layer_id_range(self):
        model = one_channel_tenth_model()
        with pytest.raises(DomainError, match="layer id"):
            layer_error_report(model, 5, [np.zeros((1, 1, 1), np.uint8)])

    def test_analytic_worst_case_dominates_probe(self):
        model = one_channel_tenth_model()
        probe = [np.full((4, 1, 1), 255, dtype=np.uint8)]
        report = layer_error_report(materialize_rescalers(model, 8), 1, probe)
        assert (report.analytic_max_abs_acc >= report.max_abs_acc).all()

    def test_desk_model_reports(self):
        from rescale_lab import floatnet
        from rescale_lab.model_io import quantize_float_model

        fm = floatnet.init_float_model(seed=5)
        rng = np.random.default_rng(5)
        model = quantize_float_model(fm, [rng.random((4, 28, 28, 1))])
        probe = [(rng.random((4, 28, 28)) * 255).astype(np.uint8)]
        reports = model_error_report(model, probe, k=32)
        assert len(reports) == 6  # every layer except flatten
        assert all(isinstance(rep, LayerErrorReport) for rep in reports)
        assert all(rep.all_safe for rep in reports)
        assert all((rep.analytic_max_abs_acc >= rep.max_abs_acc).all()
                   for rep in reports)

    def test_mixed_widths_report_each_layer_at_its_own_width(self):
        from dataclasses import replace

        from rescale_lab import floatnet
        from rescale_lab.model_io import quantize_float_model

        fm = floatnet.init_float_model(seed=5)
        rng = np.random.default_rng(5)
        wide = quantize_float_model(fm, [rng.random((4, 28, 28, 1))])
        probe = [(rng.random((4, 28, 28)) * 255).astype(np.uint8)]
        narrow = materialize_rescalers(wide, 2)
        dense = len(wide.layers) - 1
        assert wide.layers[dense].kind == "dense"
        # The dense layer at k=2, every layer before it at k=32.
        mixed = replace(wide, layers=wide.layers[:dense] + [narrow.layers[dense]])
        report = layer_error_report(mixed, dense, probe)
        assert report.k == 2
        assert report.max_abs_acc.tolist() == \
            layer_error_report(wide, dense, probe).max_abs_acc.tolist()
        assert report.m_quantized.tolist() == \
            layer_error_report(narrow, dense, probe).m_quantized.tolist()


class TestBlockBoundaries:
    """The reports reduce each layer's peak one block of RESCALE_BLOCK images
    at a time; every field equals the whole-batch oracle at every count
    around a block edge, and over several probe batches."""

    @pytest.fixture(scope="class")
    def desk(self):
        from rescale_lab import floatnet
        from rescale_lab.model_io import quantize_float_model

        rng = np.random.default_rng(21)
        model = quantize_float_model(floatnet.init_float_model(seed=21),
                                     [rng.random((6, 28, 28, 1))])
        probes = rng.integers(0, 256, size=(2 * RESCALE_BLOCK + 3, 28, 28),
                              dtype=np.uint8)
        probes[0], probes[1] = 0, 255
        return model, probes

    @staticmethod
    def assert_matches_oracle(reports, expected):
        assert len(reports) == len(expected)
        for report, want in zip(reports, expected):
            for field in fields(report):
                got = getattr(report, field.name)
                assert np.asarray(got).dtype == np.asarray(want[field.name]).dtype, \
                    (report.layer_id, field.name)
                assert np.array_equal(got, want[field.name]), (report.layer_id, field.name)

    @pytest.mark.parametrize("count", [1, RESCALE_BLOCK - 1, RESCALE_BLOCK,
                                       RESCALE_BLOCK + 1, 2 * RESCALE_BLOCK + 3])
    @pytest.mark.parametrize("k", [32, 2])
    def test_fields_equal_the_whole_batch_oracle(self, desk, count, k):
        model, probes = desk
        mk = materialize_rescalers(model, k)
        self.assert_matches_oracle(model_error_report(model, probes[:count], k),
                                   oracle_error_report(mk, probes[:count]))

    def test_several_probe_batches_reduce_to_one(self, desk):
        model, probes = desk
        cuts = [probes[:RESCALE_BLOCK + 1], probes[RESCALE_BLOCK + 1:RESCALE_BLOCK + 1],
                probes[RESCALE_BLOCK + 1:]]
        self.assert_matches_oracle(model_error_report(model, cuts, 8),
                                   oracle_error_report(materialize_rescalers(model, 8),
                                                       probes))
