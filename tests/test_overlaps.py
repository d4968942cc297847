"""Cross-ladder overlaps: exact series, asymptotic route, matrix oracle."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartls import overlaps, rates
from polartls.ladder import DressedState
from polartls.numerics import PrecisionLossWarning, bessel_j
from polartls.overlaps import (
    ModelParams,
    OverlapValue,
    displacement_matrix_oracle,
    overlap_bessel,
    overlap_exact,
    overlap_log_abs,
)
from polartls.rates import partial_rate, total_rate

from _mp_oracles import column_entry_mp, overlap_complex_mp, overlap_ln_abs_mp


def params_for_beta(beta: float, drive: float = 0.5, phi: float = 0.0) -> ModelParams:
    """beta = coupling/(2*drive), so coupling = 2*beta*drive."""
    return ModelParams.from_ratios(2.0 * beta * drive, drive, phi)


class TestModelParams:
    def test_beta_and_displacement(self):
        p = ModelParams.from_ratios(1.0, 0.5, 0.0)
        assert p.beta == pytest.approx(1.0)
        assert p.displacement == pytest.approx(0.5 + 0.0j)
        assert p.drive_ratio == pytest.approx(0.5)
        assert p.coupling_ratio == pytest.approx(1.0)

    def test_phase_enters_displacement(self):
        p = ModelParams.from_ratios(1.0, 0.5, math.pi / 2)
        assert p.displacement == pytest.approx(0.5j)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(omega0=0.0, omega_drive=1.0, coupling_abs=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, omega_drive=-1.0, coupling_abs=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, omega_drive=1.0, coupling_abs=-0.1)

    def test_zero_coupling_allowed(self):
        p = ModelParams.from_ratios(0.0, 1.0)
        assert p.beta == 0.0
        assert p.displacement == 0.0


class TestOverlapValue:
    def test_phase_canonical_range(self):
        v = OverlapValue(log_abs=0.0, phase=3 * math.pi + 0.25)
        assert -math.pi < v.phase <= math.pi
        assert v.phase == pytest.approx(0.25 - math.pi, abs=1e-12)

    def test_magnitude_and_square(self):
        v = OverlapValue(log_abs=math.log(0.5), phase=1.0)
        assert v.magnitude == pytest.approx(0.5, rel=1e-14)
        assert v.abs_squared == pytest.approx(0.25, rel=1e-14)
        assert v.to_complex() == pytest.approx(0.5 * cmath.exp(1.0j), rel=1e-14)

    def test_zero(self):
        v = OverlapValue(log_abs=-math.inf, phase=2.0)
        assert v.is_zero
        assert v.magnitude == 0.0
        assert v.phase == 0.0

    def test_unit_bound(self):
        # overlaps of unit vectors never exceed one
        for beta in (0.1, 1.0, 2.0):
            p = params_for_beta(beta)
            for ell in range(12):
                for n in range(12):
                    assert overlap_exact(ell, n, p).log_abs <= 1e-12


class TestOverlapExactSameLadder:
    def test_kronecker_delta_exact(self):
        p = params_for_beta(0.7)
        same = overlap_exact(3, 3, p, bra_sign=+1, ket_sign=+1)
        assert same.magnitude == 1.0
        assert same.phase == 0.0
        off = overlap_exact(2, 5, p, bra_sign=-1, ket_sign=-1)
        assert off.is_zero

    def test_orthonormality_grid(self):
        p = params_for_beta(1.3)
        for ell in range(0, 61, 7):
            for n in range(0, 61, 7):
                v = overlap_exact(ell, n, p, bra_sign=+1, ket_sign=+1)
                expected = 1.0 if ell == n else 0.0
                assert abs(v.to_complex() - expected) <= 1e-12


class TestOverlapExactCrossLadder:
    def test_ground_pair_closed_form(self):
        # (0,0) opposite-ladder overlap has magnitude e^(-beta^2/2);
        # coupling equal to the drive frequency puts beta at 1/2
        p = ModelParams.from_ratios(0.25, 0.25)
        v = overlap_exact(0, 0, p)
        assert p.beta == pytest.approx(0.5)
        assert v.magnitude == pytest.approx(0.8824969025845954, rel=1e-14)

    def test_matrix_oracle_spot(self):
        p = ModelParams.from_ratios(0.25, 0.25)
        matrix, _ = displacement_matrix_oracle(2 * p.displacement, 100)
        v = overlap_exact(1, 2, p)
        assert abs(v.to_complex() - matrix[1, 2]) <= 1e-10 * abs(matrix[1, 2])

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 3])
    def test_high_precision_oracle_sample(self, beta, phi):
        p = params_for_beta(beta, phi=phi)
        for ell, n in [(0, 0), (0, 3), (5, 2), (7, 9), (12, 12), (25, 27), (40, 33)]:
            got = overlap_exact(ell, n, p).to_complex()
            ref = complex(overlap_complex_mp(ell, n, beta, phi))
            assert abs(got - ref) <= 1e-11 * max(abs(ref), 1e-30)

    def test_bra_sign_conjugate_relation(self):
        p = params_for_beta(0.8, phi=0.9)
        for ell, n in [(0, 1), (4, 2), (6, 6)]:
            plus = overlap_exact(ell, n, p, bra_sign=+1).to_complex()
            minus = overlap_exact(n, ell, p, bra_sign=-1).to_complex()
            # -<n|ell>+ is the conjugate of +<ell|n>-
            assert minus == pytest.approx(plus.conjugate(), rel=1e-12, abs=1e-300)

    @given(
        ell=st.integers(min_value=0, max_value=45),
        n=st.integers(min_value=0, max_value=45),
        beta=st.floats(min_value=0.01, max_value=2.5),
        phi=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_swap_symmetry(self, ell, n, beta, phi):
        # |+<ell|n>-| equals |-<n|ell>+|; moduli sit in [0,1] so an
        # absolute comparison is the right scale
        p = params_for_beta(beta, phi=phi)
        a = overlap_exact(ell, n, p, bra_sign=+1)
        b = overlap_exact(n, ell, p, bra_sign=-1)
        assert abs(a.magnitude - b.magnitude) <= 1e-12

    def test_completeness_row(self):
        for beta in (0.5, 2.0):
            p = params_for_beta(beta)
            n = 17
            cutoff = int(n + 20 * beta**2 + 60)
            total = math.fsum(
                overlap_exact(n, k, p).abs_squared for k in range(cutoff + 1)
            )
            assert abs(total - 1.0) <= 1e-10

    def test_domain_errors(self):
        p = params_for_beta(0.5)
        with pytest.raises(ValueError):
            overlap_exact(-1, 0, p)
        with pytest.raises(ValueError):
            overlap_exact(0, 10**6 + 1, p)
        with pytest.raises(ValueError):
            overlap_exact(0, 0, p, bra_sign=0)


class TestOverlapLogAbs:
    def test_matches_exact_route(self):
        p = params_for_beta(1.2, phi=0.4)
        for ell, n in [(0, 0), (3, 9), (40, 40), (150, 120)]:
            v = overlap_exact(ell, n, p)
            assert overlap_log_abs(ell, n, p) == v.log_abs

    def test_beyond_factorial_overflow(self):
        # naive factorials overflow doubles near index 170; the log route
        # sails through far beyond that
        p = ModelParams.from_ratios(0.001, 0.9)
        ln = overlap_log_abs(10_000, 9_998, p)
        assert math.isfinite(ln)
        ref = overlap_ln_abs_mp(10_000, 9_998, p.beta, dps=40)
        assert ln == pytest.approx(ref, rel=1e-7)

    def test_high_precision_grid_small(self):
        p = params_for_beta(0.8)
        for ell, n in [(1, 0), (10, 6), (60, 60), (149, 150)]:
            ref = overlap_ln_abs_mp(ell, n, p.beta, dps=50)
            got = overlap_log_abs(ell, n, p)
            assert got == pytest.approx(ref, rel=1e-9)


class TestOverlapBessel:
    def test_weight_is_bessel_squared(self):
        # x = coupling*sqrt(n)/drive; pick values landing on x = 1
        n = 10_000
        drive = 0.9
        coupling = drive / math.sqrt(n)
        p = ModelParams.from_ratios(coupling, drive)
        v = overlap_bessel(n, 1, p)
        assert v.abs_squared == pytest.approx(0.19364451801445908, rel=1e-12)

    def test_agrees_with_exact_at_large_n(self):
        p = ModelParams.from_ratios(0.001, 0.9)
        for n, pp in [(10_000, 0), (40_000, 1), (250_000, 2), (10**6, 3)]:
            exact = overlap_exact(n, n - pp, p).abs_squared
            asym = overlap_bessel(n, pp, p).abs_squared
            assert asym == pytest.approx(exact, rel=1e-4, abs=1e-18)

    def test_negative_p(self):
        p = ModelParams.from_ratios(0.001, 0.9)
        n = 10_000
        v = overlap_bessel(n, -2, p)
        x = p.coupling_ratio * math.sqrt(n) / p.drive_ratio
        assert v.abs_squared == pytest.approx(bessel_j(-2, x) ** 2, rel=1e-12)

    def test_preconditions(self):
        p = ModelParams.from_ratios(0.001, 0.9)
        with pytest.raises(ValueError):
            overlap_bessel(0, 0, p)
        with pytest.raises(ValueError):
            overlap_bessel(100, 11, p)  # |p| > n/10


class TestDisplacementMatrixOracle:
    def test_identity_at_zero(self):
        matrix, deficit = displacement_matrix_oracle(0.0, 8)
        assert deficit == 0.0
        assert np.array_equal(matrix, np.eye(8, dtype=complex))

    def test_unitarity_deficit_small(self):
        matrix, deficit = displacement_matrix_oracle(1.0 + 0.5j, 128)
        assert deficit <= 1e-10
        gram = matrix.conj().T @ matrix
        # certified columns are close to orthonormal
        assert abs(gram[0, 0] - 1.0) <= 1e-12

    def test_group_property_spot(self):
        # D(a) D(b) = e^(i Im(a conj b)) D(a+b) on certified columns
        a, b = 0.6, 0.45j
        dim = 160
        da, _ = displacement_matrix_oracle(a, dim)
        db, _ = displacement_matrix_oracle(b, dim)
        dab, _ = displacement_matrix_oracle(a + b, dim)
        phase = cmath.exp(1j * (a * complex(b).conjugate()).imag)
        got = (da @ db)[0:8, 0:8]
        want = (phase * dab)[0:8, 0:8]
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            displacement_matrix_oracle(1.0, 2001)
        with pytest.raises(ValueError):
            displacement_matrix_oracle(100.0, 100)  # |alpha|^2 > dim/4


class TestRouteConsistency:
    def test_direct_vs_rescue_sign_continuity(self):
        # beta = 2 forces the cancellation-rescued route for mid indices;
        # compare every entry against the high-precision series
        beta = 2.0
        p = params_for_beta(beta)
        for ell, n in [(7, 9), (9, 9), (7, 12), (20, 22), (40, 40)]:
            got = overlap_exact(ell, n, p).to_complex()
            ref = complex(overlap_complex_mp(ell, n, beta, 0.0))
            assert abs(got - ref) <= 1e-11 * max(abs(ref), 1e-30)

    def test_log_route_matches_direct_at_crossover(self):
        p = ModelParams.from_ratios(0.2, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionLossWarning)
            below = overlap_log_abs(150, 148, p)
            ref = overlap_ln_abs_mp(150, 148, p.beta, dps=50)
        assert below == pytest.approx(ref, rel=1e-9)


def column_values(n, beta):
    """(lo, g) of the overlap column of ket n over its window, as doubles."""
    lo, hi = overlaps._core_window(n, beta)
    frac, exp = overlaps._column(n, beta, lo, hi)
    return lo, np.ldexp(frac, exp)


class TestOverlapColumn:
    """The one column kernel behind every exact overlap and rate."""

    @pytest.mark.parametrize("n", [0, 1, 5, 40, 250, 3000, 10**5, 10**6])
    @pytest.mark.parametrize("beta", [0.0056, 0.05, 0.5, 1.0, 2.0, 8.0, 30.0])
    def test_against_extended_precision(self, n, beta):
        lo, g = column_values(n, beta)
        peak = int(np.argmax(np.abs(g)))
        # The reference costs O(n) terms at a precision growing with
        # beta sqrt(n), several seconds an entry at n = 10**6, beta = 30; the
        # heaviest columns are checked on their diagonal entry only.
        if beta * math.sqrt(n) < 300:
            picks = {0, g.size - 1, peak, *np.linspace(0, g.size - 1, 12).astype(int).tolist()}
        else:
            picks = {n - lo}
        for i in sorted(picks):
            exact = column_entry_mp(lo + i, n, beta)
            if i in (0, g.size - 1):
                # the window's edges, where a leg's start error would show,
                # are compared in log space: they are far below double range
                log_abs, _ = overlaps._overlap_column([lo + i], n, beta)
                want = float(mp.log(abs(exact)))
                assert abs(log_abs[0] - want) <= 1e-13 * max(1.0, abs(want)), (lo + i, want)
            ref = float(exact)
            if abs(ref) >= 1e-3 * abs(g[peak]):
                assert abs(g[i] - ref) <= 1e-12 * abs(ref), (lo + i, g[i], ref)
            else:
                larger = max(abs(g[max(i - 1, 0)]), abs(g[min(i + 1, g.size - 1)]))
                assert abs(g[i] - ref) <= 1e-13 * larger, (lo + i, g[i], ref)

    @given(
        n=st.integers(min_value=0, max_value=10**5),
        beta=st.floats(min_value=1e-3, max_value=30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_moments(self, n, beta):
        # D(beta) shifts the number operator: <m> = n + beta^2 and
        # Var(m) = beta^2 (2n + 1) in the displaced number state
        lo, g = column_values(n, beta)
        m = np.arange(lo, lo + g.size)
        weights = g * g
        mean = n + beta * beta
        assert math.fsum(m * weights) == pytest.approx(mean, rel=1e-13)
        variance = math.fsum((m - mean) ** 2 * weights)
        assert variance == pytest.approx(beta * beta * (2 * n + 1), rel=1e-13)

    def test_uncoupled_is_the_kronecker_delta(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        for ell, n in [(0, 0), (7, 7), (10**6, 10**6)]:
            v = overlap_exact(ell, n, p)
            assert v.log_abs == 0.0 and v.phase == 0.0
        for ell, n in [(0, 1), (5, 3), (0, 10**6)]:
            assert overlap_exact(ell, n, p).is_zero
            assert overlap_log_abs(ell, n, p) == -math.inf

    @pytest.mark.parametrize("beta", [1e-8, 1e-200, 1e-300])
    def test_tiny_beta_is_the_leading_term(self, beta):
        p = params_for_beta(beta)
        for ell, n in [(0, 0), (3, 5), (5, 3), (40, 41), (90, 100), (0, 100), (10**6, 10**6 - 2)]:
            lo, hi = min(ell, n), max(ell, n)
            if beta * beta * (lo + 1) > 1e-15:
                continue  # the next series term moves the value by ~beta^2 lo
            got = overlap_exact(ell, n, p)
            lead = (hi - lo) * math.log(beta) + 0.5 * (math.lgamma(hi + 1) - math.lgamma(lo + 1))
            lead -= math.lgamma(hi - lo + 1)
            assert math.isfinite(got.log_abs)
            # ... up to the rounding of a log as large as |lead|
            assert abs(math.expm1(got.log_abs - lead)) <= 1e-13 + 4 * math.ulp(lead)
            # the series sign (-1)^lo times the parity (-1)^n of a plus-ladder bra
            assert math.cos(got.phase) == (-1) ** (lo + n)

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_far_off_window_entries(self, beta):
        # the first row and column have one series term:
        # |<0|n>| = |<n|0>| = e^{-beta^2/2} beta^n / sqrt(n!)
        p = params_for_beta(beta)
        n = 10**6
        want = float(-mp.mpf(beta) ** 2 / 2 + n * mp.log(beta) - mp.loggamma(n + 1) / 2)
        for ell, ket in [(0, n), (n, 0)]:
            got = overlap_log_abs(ell, ket, p)
            assert abs(got - want) <= 4 * math.ulp(want)

    def test_value_does_not_depend_on_the_request(self, monkeypatch):
        # a far-detuned lower level: every listed channel lies below the
        # column's window, and all of them are read from at most two
        # columns stretched down by doubling window widths
        p = ModelParams.from_ratios(0.002, 0.005)
        state = DressedState("g", 300)
        lo, hi = overlaps._core_window(300, p.beta)
        columns = count_columns(monkeypatch)
        table = total_rate(state, p)
        assert len(columns) <= 2
        finals = [t.final.n for t in table.transitions]
        assert finals and max(finals) < lo
        extra = [lo, lo + 1, hi + 1, 2 * hi - lo + 5]  # two above the window
        logs, _ = overlaps._overlap_column(finals + extra, 300, p.beta)
        for ell, log_abs in zip(finals + extra, logs.tolist()):
            assert overlap_log_abs(ell, 300, p) == log_abs
        for rec in table.transitions:
            assert rec.rate_over_gamma0 == partial_rate(state, rec.final.n, p)

    def test_large_beta_pair(self):
        # the column of ket 0 reaches beta^2 + 40 beta = 176,000 entries
        p = params_for_beta(400.0)
        assert overlap_log_abs(0, 0, p) == pytest.approx(-400.0**2 / 2, rel=1e-13)

    def test_oversized_column_is_refused(self):
        # at beta = 1e4 the column of ket 0 spans beta^2 + 40 beta, about 1e8 entries
        with pytest.raises(ValueError, match="past the limit"):
            overlap_log_abs(0, 0, params_for_beta(1e4))

    def test_total_rate_builds_one_column(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return overlaps._overlap_column(*args)

        monkeypatch.setattr(rates, "_overlap_column", counting)
        columns = count_columns(monkeypatch)
        table = total_rate(DressedState("e", 250), ModelParams.from_ratios(1.0, 0.5))
        assert len(table.transitions) > 200
        assert len(calls) == 1
        assert len(columns) == 1


def count_columns(monkeypatch):
    """A list that records the (n, beta, lo, hi) of every column read, cached or not."""
    columns, column = [], overlaps._column

    def counting(*args):
        columns.append(args)
        return column(*args)

    monkeypatch.setattr(overlaps, "_column", counting)
    monkeypatch.setattr(overlaps, "_cached_column", counting)
    return columns
