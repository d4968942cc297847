"""Low-level special functions and signed log-space arithmetic."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartls.numerics import (
    PrecisionLossWarning,
    SIGNED_LOG_ZERO,
    SignedLog,
    _signed_log_sum_arrays,
    assoc_laguerre,
    assoc_laguerre_sequence,
    bessel_j,
    bessel_truncation_order,
)


class TestSignedLog:
    def test_round_trip(self):
        # relative error of exp(log(x)) grows like |log x| * eps
        for x in (1.0, -2.5, 1e-300, -1e300, 0.25):
            s = SignedLog.from_float(x)
            rel = 1e-15 * max(1.0, abs(s.log_abs))
            assert s.to_float() == pytest.approx(x, rel=rel)

    def test_zero(self):
        s = SignedLog.from_float(0.0)
        assert s.sign == 0
        assert s.log_abs == -math.inf
        assert s.to_float() == 0.0
        assert SIGNED_LOG_ZERO.sign == 0

    def test_exp_log_round_trip_tight(self):
        # exp(log(x)) error in ulps is bounded by about |ln x| / 2
        for x in (0.1, 0.7, 1.0, 3.14159, 123.456, 1e-12, 1e12):
            y = SignedLog.from_float(x).to_float()
            budget = 4.0 + abs(math.log(x))
            assert abs(y - x) <= budget * math.ulp(x)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedLog(0.0, 2)
        with pytest.raises(ValueError):
            SignedLog(math.nan, 1)
        # sign 0 must pair with log_abs = -inf
        with pytest.raises(ValueError):
            SignedLog(0.0, 0)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_round_trip_property(self, x):
        s = SignedLog.from_float(x)
        back = s.to_float()
        if x == 0.0:
            assert back == 0.0
        else:
            assert back == pytest.approx(x, rel=1e-14)


class TestBesselJ:
    def test_spot_value(self):
        assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, rel=1e-14)

    def test_against_mpmath_grid(self):
        worst = 0.0
        with mp.workdps(30):
            for p in (0, 1, 2, 5, 17, 40):
                for x in (0.1, 1.0, 5.0, 20.0, 50.0):
                    ref = float(mp.besselj(p, x))
                    worst = max(worst, abs(bessel_j(p, x) - ref))
        assert worst < 5e-13

    def test_negative_order_parity(self):
        for p in range(1, 8):
            for x in (0.3, 2.0, 11.5):
                expected = (-1) ** p * bessel_j(p, x)
                assert bessel_j(-p, x) == expected  # exact by construction

    def test_truncation_order_on_arrays(self):
        xs = [0.0, 0.5, 5.0, 50.0, 500.0]
        orders = bessel_truncation_order(np.array(xs))
        assert orders.tolist() == [bessel_truncation_order(x) for x in xs]
        assert isinstance(bessel_truncation_order(5.0), int)
        with pytest.raises(ValueError):
            bessel_truncation_order(np.array([1.0, -1.0]))

    def test_truncation_order_covers_tail(self):
        # beyond the truncation order the terms are negligible
        for x in (0.5, 5.0, 50.0, 500.0):
            order = bessel_truncation_order(x)
            assert abs(bessel_j(order, x)) < 1e-15
            assert order >= x

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(10**6 + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1, math.inf)


class TestAssocLaguerre:
    def test_small_closed_forms(self):
        # L_0^a = 1, L_1^a(x) = 1 + a - x, L_2^0(x) = 1 - 2x + x^2/2
        assert assoc_laguerre(0, 3.0, 2.0).to_float() == pytest.approx(1.0)
        assert assoc_laguerre(1, 3.0, 2.0).to_float() == pytest.approx(2.0)
        assert assoc_laguerre(2, 0.0, 1.0).to_float() == pytest.approx(-0.5)

    def test_against_mpmath(self):
        worst = 0.0
        with mp.workdps(40):
            for n in (3, 10, 40, 150, 700):
                for a in (0.0, 1.0, 5.0):
                    for x in (0.01, 0.25, 4.0, 30.0):
                        ref = mp.laguerre(n, a, x)
                        got = assoc_laguerre(n, a, x)
                        ref_ln = float(mp.log(abs(ref)))
                        assert got.sign == mp.sign(ref)
                        worst = max(
                            worst,
                            abs(got.log_abs - ref_ln) / max(1.0, abs(ref_ln)),
                        )
        # recurrence error accumulates like n*eps in the oscillatory region
        assert worst < 5e-12

    def test_huge_degree_finite(self):
        val = assoc_laguerre(10**6, 1.0, 0.0025)
        assert math.isfinite(val.log_abs)
        assert val.sign != 0

    def test_sequence_matches_scalar(self):
        logs, signs = assoc_laguerre_sequence(50, 2.0, 3.7)
        assert logs.shape == (51,)
        for n in (0, 1, 17, 50):
            single = assoc_laguerre(n, 2.0, 3.7)
            assert signs[n] == single.sign
            if single.sign != 0:
                assert logs[n] == pytest.approx(single.log_abs, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            assoc_laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            assoc_laguerre(10**6 + 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            assoc_laguerre(3, 0.0, -1.0)


def log_sum(values):
    """``_signed_log_sum_arrays`` of the terms given as ``SignedLog``s."""
    return _signed_log_sum_arrays(
        np.array([v.log_abs for v in values], dtype=float),
        np.array([v.sign for v in values], dtype=np.int8),
    )


class TestSignedLogSum:
    def test_simple_sums(self):
        got, ratio = log_sum([SignedLog.from_float(v) for v in (1.0, 2.0, -0.5)])
        assert got.to_float() == pytest.approx(2.5, rel=1e-14)
        assert ratio == pytest.approx(1.25, rel=1e-14)  # 2.5 over the largest term, 2

    def test_exact_cancellation_to_zero(self):
        got, ratio = log_sum([SignedLog.from_float(v) for v in (1.0, -1.0)])
        assert got.sign == 0
        assert ratio == 0.0

    def test_alternating_factorial_series(self):
        # sum_{k<=30} (-1)^k / k! converges to 1/e to double precision
        terms = [
            SignedLog(-math.lgamma(k + 1), 1 if k % 2 == 0 else -1) for k in range(31)
        ]
        got, ratio = log_sum(terms)
        assert got.sign == 1
        assert got.log_abs == pytest.approx(-1.0, abs=1e-15)
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_extreme_magnitudes(self):
        # inputs whose plain-float forms overflow and underflow
        got, ratio = log_sum([SignedLog(800.0, 1), SignedLog(-800.0, 1)])
        assert got.log_abs == pytest.approx(800.0, rel=1e-15)
        assert ratio == 1.0

    def test_empty_sum_is_zero(self):
        got, ratio = log_sum([])
        assert got.sign == 0
        assert ratio == 1.0

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_matches_float_sum(self, values):
        reference = math.fsum(values)
        got, ratio = log_sum([SignedLog.from_float(v) for v in values])
        scale = max(abs(v) for v in values)
        assert got.to_float() == pytest.approx(reference, rel=1e-12, abs=1e-12 * max(scale, 1.0))
        if scale > 0.0:
            assert ratio == pytest.approx(abs(got.to_float()) / scale, rel=1e-12, abs=1e-12)


class TestPrecisionLossWarning:
    def test_recurrence_near_root_warns_or_survives(self):
        # evaluating close to a polynomial root may lose digits; the scan
        # either warns or returns a value, never produces NaN
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionLossWarning)
            val = assoc_laguerre(500, 0.0, 3.0)
        assert math.isfinite(val.log_abs) or val.sign == 0
