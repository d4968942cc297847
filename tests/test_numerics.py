"""Low-level special functions and signed log-space arithmetic."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartls import numerics
from polartls.numerics import (
    MAX_BESSEL_ARG,
    MAX_LADDER_INDEX,
    PrecisionLossWarning,
    SIGNED_LOG_ZERO,
    SignedLog,
    _bessel_j_orders,
    _ln_factorial,
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


class TestLnFactorial:
    def test_matches_gammaln_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        k = np.arange(9169)
        assert np.array_equal(_ln_factorial(k), special.gammaln(k + 1.0))
        # gathered in any order and shape from the same table
        shuffled = np.random.default_rng(3).permutation(k).reshape(53, 173)
        assert np.array_equal(_ln_factorial(shuffled), special.gammaln(shuffled + 1.0))

    def test_within_two_ulp_of_mpmath(self):
        rng = np.random.default_rng(20261018)
        ks = np.unique(np.r_[0:40, 990:1010, rng.integers(40, 10**6, 200), 10**6])
        got = _ln_factorial(ks)
        with mp.workdps(40):
            for k, value in zip(ks.tolist(), got.tolist()):
                ref = float(mp.loggamma(k + 1))
                assert abs(value - ref) <= 2 * math.ulp(ref), k

    def test_past_the_table_cap(self):
        k = np.array([3, MAX_LADDER_INDEX + 7])
        got = _ln_factorial(k)
        assert numerics._ln_factorials.size <= MAX_LADDER_INDEX + 1
        assert got[0] == math.log(6.0)
        with mp.workdps(40):
            ref = float(mp.loggamma(MAX_LADDER_INDEX + 8))
        assert abs(got[1] - ref) <= 2 * math.ulp(ref)


def _envelope(x):
    return math.sqrt(2.0 / (math.pi * x))


class TestMillerBessel:
    def test_against_mpmath(self):
        # Relative to 1e-12 away from zeros: past the turning point p > x,
        # where J_p(x) has none, or at 1e-2 of the envelope sqrt(2/(pi x)).
        tiny_checked = 0
        with mp.workdps(30):
            for x in (1e-8, 3e-6, 1e-3, 0.1, 0.7, 1.0, 3.3, 10.0, 31.4, 100.0, 333.0, 1000.0):
                top = bessel_truncation_order(x) + 8
                ps = np.unique(np.linspace(0, top, 45).astype(np.int64))
                got = _bessel_j_orders(ps, x)
                for p, value in zip(ps.tolist(), got.tolist()):
                    ref = float(mp.besselj(p, x))
                    if p > x or abs(ref) >= 1e-2 * _envelope(x):
                        assert abs(value - ref) <= 1e-12 * abs(ref), (p, x)
                        tiny_checked += abs(ref) < 1e-100
                    else:
                        assert abs(value - ref) <= 1e-14 * _envelope(x), (p, x)
        assert tiny_checked >= 20

    def test_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        assert _bessel_j_orders(np.arange(-3, 60), 0.0).tolist() == [0.0] * 3 + [1.0] + [0.0] * 59

    def test_values_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(11)
        xs = np.r_[0.0, 1e-12, 2.0**-30, 1e-8, 0.5, rng.uniform(0.0, 40.0, 25), 123.4, 999.9]
        ps = rng.integers(-320, 320, xs.size)  # some past each argument's shared start
        batch = _bessel_j_orders(ps, xs)
        for p, x, value in zip(ps.tolist(), xs.tolist(), batch.tolist()):
            assert value == _bessel_j_orders(p, x) == bessel_j(p, x), (p, x)
        # tables: orders within every argument's shared run, and past some
        for top, cells in ((100, xs[4:]), (260, xs)):
            table = _bessel_j_orders(np.arange(-5, top)[:, None], cells[None, ::-1])
            for column, x in zip(table.T, cells[::-1].tolist()):
                assert column.tolist() == [bessel_j(p, x) for p in range(-5, top)], x

    def test_capped_table_is_the_top_of_the_full_one(self, monkeypatch):
        # Descending arguments, so the starts do not increase.  The three smaller
        # ones pass 2**500 on their way down from the start, so they are rescaled.
        x = np.array([250.0, 30.0, 3.3, 1.0, 1e-3])
        start = numerics._miller_cover(x) + np.ceil(8.0 * x ** (1.0 / 3.0)).astype(np.int64) + 16
        full = numerics._miller_columns(x, start, int(start[0]))
        assert full.shape == (start[0] + 1, x.size)
        for top in (0, 7, 87, int(start[1]), int(start[0]) + 5):
            capped = numerics._miller_columns(x, start, top)
            assert capped.shape == (min(top, int(start[0])) + 1, x.size)
            assert np.array_equal(capped.view(np.uint64), full[: top + 1].view(np.uint64)), top
        monkeypatch.setattr(numerics, "_RESCALE", math.inf)  # the rescale never fires
        with np.errstate(over="ignore", invalid="ignore"):
            unscaled = numerics._miller_columns(x, start, 87)
        assert not np.isfinite(unscaled).all(axis=0)[2:].any()

    def test_tables_in_parts_equal_one_table(self, monkeypatch):
        xs, orders = np.linspace(0.5, 40.0, 23), np.arange(90)[:, None]
        whole = _bessel_j_orders(orders, xs)
        monkeypatch.setattr(numerics, "_MILLER_ENTRIES", 500)  # a few columns a table
        assert np.array_equal(_bessel_j_orders(orders, xs).view(np.uint64), whole.view(np.uint64))

    def test_argument_bound_and_column_cache(self):
        assert math.isfinite(bessel_j(3, MAX_BESSEL_ARG))
        with pytest.raises(ValueError):
            bessel_j(3, math.nextafter(MAX_BESSEL_ARG, math.inf))
        with pytest.raises(ValueError):
            _bessel_j_orders([0, 1], [1.0, 2.0 * MAX_BESSEL_ARG])
        # the per-argument columns hold a few MB at most
        column_bytes = 8 * (numerics._miller_cover(MAX_BESSEL_ARG) + 1)
        assert numerics._bessel_column.cache_info().maxsize * column_bytes <= 4e6
