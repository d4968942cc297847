"""Transition rates: partial/total, closed forms, semiclassical, SI scale."""

import math
import tracemalloc
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartls.ladder import DressedState, TransitionRecord, allowed_final_indices, photon_frequency
from polartls.numerics import _bessel_j_orders, bessel_j, bessel_truncation_order
from polartls.overlaps import ModelParams, _overlap_column
from polartls import rates
from polartls.rates import (
    DEBYE,
    Gamma0Params,
    PhotonDistribution,
    absorption_g1_mesh,
    absorption_rate_g1,
    gamma0_si,
    partial_e0_mesh,
    partial_rate,
    semiclassical_mesh,
    semiclassical_partial,
    semiclassical_totals,
    suppression_e0_mesh,
    suppression_rate_e0,
    total_rate,
    weighted_total_rate,
)

# Drives on and 1e-10 off the channel boundaries omega0/k, plus a few
# generic ones; couplings include zero.
MESH_DRIVES = np.array(
    [0.055, 0.25 - 1e-10, 0.25, 0.25 + 1e-10, 1 / 3 - 1e-10, 1 / 3, 1 / 3 + 1e-10,
     0.41, 0.5 - 1e-10, 0.5, 0.5 + 1e-10, 0.77, 1.0, 1.0 + 1e-10, 1.3, 2.0, 2.9]
)
MESH_COUPLINGS = np.array([0.0, 0.05, 0.3, 1.0, 2.2, 4.1, 7.9])


class TestPartialRate:
    def test_uncoupled_limit_exact(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        state = DressedState("e", 0)
        assert partial_rate(state, 0, p) == 1.0
        assert partial_rate(state, 1, p) == 0.0

    def test_closed_form_spot(self):
        # coupling equal to the drive, drive at a quarter of the bare
        # frequency: rate to n'=1 is beta^2 e^(-beta^2) (1 - 1/4)^3
        p = ModelParams.from_ratios(0.25, 0.25)
        got = partial_rate(DressedState("e", 0), 1, p)
        want = 0.25 * math.exp(-0.25) * 0.421875
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.08213914508956223, rel=1e-12)

    def test_disallowed_channel_rejected(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        with pytest.raises(ValueError):
            partial_rate(DressedState("e", 0), 7, p)
        with pytest.raises(ValueError):
            partial_rate(DressedState("g", 0), 0, p)

    def test_cubic_frequency_factor(self):
        p = ModelParams.from_ratios(0.6, 0.5)
        state = DressedState("e", 4)
        from polartls.ladder import photon_frequency
        from polartls.overlaps import overlap_log_abs

        for n_prime in (0, 2, 6):
            freq = photon_frequency(state, n_prime, p) / 1.0
            weight = math.exp(2.0 * overlap_log_abs(n_prime, 4, p))
            assert partial_rate(state, n_prime, p) == pytest.approx(
                weight * freq**3, rel=1e-13
            )


class TestTotalRate:
    def test_table_sums_and_chains(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        state = DressedState("e", 2)
        table = total_rate(state, p)
        assert table.initial == state
        total = math.fsum(r.rate_over_gamma0 for r in table.transitions)
        assert table.total_over_gamma0 == pytest.approx(total, rel=1e-14)
        for rec in table.transitions:
            assert rec.initial == state
            assert rec.final.branch == "g"

    def test_uncoupled_excited_total_is_unity(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        table = total_rate(DressedState("e", 0), p)
        assert table.total_over_gamma0 == 1.0

    def test_matches_explicit_channel_sum(self):
        p = ModelParams.from_ratios(0.8, 0.37)
        state = DressedState("e", 6)
        explicit = math.fsum(
            partial_rate(state, k, p) for k in allowed_final_indices(state, p)
        )
        assert total_rate(state, p).total_over_gamma0 == pytest.approx(
            explicit, rel=1e-12
        )

    @pytest.mark.parametrize(
        "branch, n, coupling, drive",
        [
            ("e", 5, 0.5, 0.5),
            ("e", 40, 2.0, 1.6),
            ("g", 30, 1.0, 0.5),
            ("e", 200, 1.0, 0.5),
            # the boundary channel 19 lands at -2.2e-16 and is snapped to 0
            ("e", 9, 0.3, 0.1),
        ],
    )
    def test_records_are_partial_rates(self, branch, n, coupling, drive):
        # one channel-rate formula and one photon-frequency rule: each column
        # entry is partial_rate and photon_frequency, bit for bit
        p = ModelParams.from_ratios(coupling, drive)
        state = DressedState(branch, n)
        table = total_rate(state, p)
        assert len(table.final_n) > 0
        for k, n_prime in enumerate(table.final_n):
            assert table.rate_over_gamma0[k] == partial_rate(state, n_prime, p)
            assert table.photon_freq[k] == photon_frequency(state, n_prime, p) / p.omega0
        # the records, built on demand once, hold the same columns
        assert table.transitions is table.transitions
        assert [(r.initial, r.final, r.rate_over_gamma0, r.photon_freq) for r in table.transitions] == [
            (state, DressedState(table.final_branch, n_prime), rate, freq)
            for n_prime, rate, freq in zip(table.final_n, table.rate_over_gamma0, table.photon_freq)
        ]
        assert table.final_branch != branch

    def test_building_a_table_builds_no_record(self, monkeypatch):
        built = []
        monkeypatch.setattr(TransitionRecord, "__post_init__", lambda rec: built.append(rec))
        table = total_rate(DressedState("e", 250), ModelParams.from_ratios(1.0, 0.5))
        assert len(table.final_n) > 200 and built == []
        assert len(table.transitions) == len(built) == len(table.final_n)

    def test_dark_ground_state(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        table = total_rate(DressedState("g", 0), p)
        assert table.total_over_gamma0 == 0.0
        assert table.transitions == ()

    def test_tables_hold_every_allowed_channel(self):
        # Both tables once stopped at n + 20 beta^2 + 60, inside the column's
        # band, and missed 2.4% and 0.94% of these totals.  Reading every
        # allowed channel builds blocks stretched by doubling widths below the
        # window: O(n) in all.
        p = ModelParams.from_ratios(0.009000735, 0.0046642481266060635)
        state = DressedState("e", 3987)
        every = math.fsum(partial_rate(state, k, p) for k in allowed_final_indices(state, p))
        assert total_rate(state, p).total_over_gamma0 == every

        # 100,201 channels: one kernel call reads each from the same column
        # block as partial_rate does (checked on a stride), bit for bit.
        p = ModelParams.from_ratios(0.003, 0.005)
        state = DressedState("e", 100_000)
        allowed = allowed_final_indices(state, p)
        log_abs = _overlap_column(allowed, state.n, p.beta)[0].tolist()
        every = [rates._channel_rate(ln, photon_frequency(state, k, p)) for k, ln in zip(allowed, log_abs)]
        for k in range(0, len(allowed), 4999):
            assert every[k] == partial_rate(state, k, p)
        assert total_rate(state, p).total_over_gamma0 == math.fsum(every)

    @given(
        branch=st.sampled_from("eg"),
        n=st.floats(0.0, 5.0).map(lambda e: round(10.0**e) - 1),
        beta=st.floats(-3.0, math.log10(30.0)).map(lambda e: 10.0**e),
        drive=st.floats(-3.0, math.log10(2.0)).map(lambda e: 10.0**e),
    )
    @settings(max_examples=100, deadline=None)
    def test_next_channel_past_each_end_is_negligible(self, branch, n, beta, drive):
        # A normal total: the table's own, or the undriven excited total 1.
        p = ModelParams.from_ratios(2.0 * beta * drive, drive)
        state = DressedState(branch, n)
        table = total_rate(state, p)
        allowed = allowed_final_indices(state, p)
        assert len(table.transitions) == 0 if len(allowed) == 0 else len(table.transitions) > 0
        if table.transitions:
            normal = max(table.total_over_gamma0, 1.0)
            for k in (table.transitions[0].final.n - 1, table.transitions[-1].final.n + 1):
                if k in allowed:
                    assert partial_rate(state, k, p) < 2.0**-54 * normal

    def test_channels_past_the_ladder_index_limit_are_refused(self):
        p = ModelParams.from_ratios(0.0008, 0.002)
        with pytest.raises(ValueError, match="past the limit 1000000"):
            total_rate(DressedState("e", 10**6), p)
        with pytest.raises(ValueError):
            DressedState("e", 3_000_000)
        assert total_rate(DressedState("g", 10**6), p).transitions[-1].final.n == 10**6 - 500

    def test_large_index_window(self):
        # the candidate window must capture essentially all the weight
        p = ModelParams.from_ratios(0.2, 0.9)
        state = DressedState("e", 2000)
        table = total_rate(state, p)
        assert table.total_over_gamma0 > 0.0
        allowed = allowed_final_indices(state, p)
        brute = math.fsum(
            partial_rate(state, k, p)
            for k in range(1800, allowed[-1] + 1)
        )
        assert table.total_over_gamma0 == pytest.approx(brute, rel=1e-10)


class TestSuppression:
    def test_uncoupled_is_exactly_one(self):
        assert suppression_rate_e0(ModelParams.from_ratios(0.0, 0.5)) == 1.0

    def test_spot_value(self):
        p = ModelParams.from_ratios(1.0, 0.5)  # beta = 1
        assert suppression_rate_e0(p) == pytest.approx(0.4138643713178726, rel=1e-12)

    def test_blue_detuned_single_term(self):
        p = ModelParams.from_ratios(1.0, 1.5)
        beta = p.beta
        assert suppression_rate_e0(p) == pytest.approx(
            math.exp(-beta * beta), rel=1e-13
        )

    def test_agrees_with_total_rate(self):
        for coupling, drive in [(0.5, 0.3), (2.0, 0.11), (1.0, 0.5), (3.0, 1.7)]:
            p = ModelParams.from_ratios(coupling, drive)
            closed = suppression_rate_e0(p)
            summed = total_rate(DressedState("e", 0), p).total_over_gamma0
            assert closed == pytest.approx(summed, rel=1e-12)

    @given(
        coupling=st.floats(min_value=0.0, max_value=4.0),
        drive=st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_unity(self, coupling, drive):
        assert suppression_rate_e0(ModelParams.from_ratios(coupling, drive)) <= 1.0 + 1e-12

    def test_blue_detuned_monotone_in_coupling(self):
        drive = 1.4
        values = [
            suppression_rate_e0(ModelParams.from_ratios(c, drive))
            for c in np.linspace(0.1, 4.0, 25)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAbsorption:
    def test_zero_at_or_below_resonance(self):
        assert absorption_rate_g1(ModelParams.from_ratios(1.0, 1.0)) == 0.0
        assert absorption_rate_g1(ModelParams.from_ratios(1.0, 0.8)) == 0.0

    def test_closed_form(self):
        p = ModelParams.from_ratios(1.0, 1.5)
        beta = p.beta
        want = math.exp(-beta * beta) * beta * beta * (1.5 - 1.0) ** 3
        assert absorption_rate_g1(p) == pytest.approx(want, rel=1e-13)

    def test_peak_value_at_twice_resonance(self):
        # coupling at twice the drive maximizes the rate; drive at twice
        # the bare frequency makes the peak exactly 1/e
        p = ModelParams.from_ratios(4.0, 2.0)
        assert absorption_rate_g1(p) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_argmax_in_coupling(self):
        drive = 1.5
        grid = np.linspace(0.0, 8.0, 321)
        vals = [absorption_rate_g1(ModelParams.from_ratios(float(c), drive)) for c in grid]
        top = grid[int(np.argmax(vals))]
        assert abs(top - 2 * drive) <= grid[1] - grid[0]

    def test_matches_total_rate_g1(self):
        p = ModelParams.from_ratios(3.0, 1.8)
        summed = total_rate(DressedState("g", 1), p).total_over_gamma0
        assert absorption_rate_g1(p) == pytest.approx(summed, rel=1e-12)


class TestPhotonDistribution:
    def test_delta(self):
        d = PhotonDistribution.delta(5)
        assert d.weights == {5: 1.0}

    def test_poisson_normalized(self):
        d = PhotonDistribution.poisson(17.3)
        assert math.fsum(d.weights.values()) == pytest.approx(1.0, abs=1e-12)
        mean = math.fsum(n * w for n, w in d.weights.items())
        assert mean == pytest.approx(17.3, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonDistribution({0: 0.5})  # not normalized
        with pytest.raises(ValueError):
            PhotonDistribution({-1: 1.0})

    @pytest.mark.parametrize("lam", [1e-6, 0.3, 1.0, 17.3, 400.0, 1e4, 9.5e5])
    def test_poisson_window_tail(self, lam):
        # Past hi each weight ratio is lam/(k+1) <= lam/(hi+2), below lo it is
        # k/lam <= (lo-1)/lam: geometric bounds on both tails.
        lo, hi = map(int, rates._poisson_window(lam))
        with mp.workdps(30):
            def pmf(k):
                return mp.exp(k * mp.log(lam) - lam - mp.loggamma(k + 1))

            tail = pmf(hi + 1) / (1 - lam / mp.mpf(hi + 2))
            if lo > 0:
                tail += pmf(lo - 1) / (1 - (lo - 1) / mp.mpf(lam))
            assert tail < mp.mpf(2) ** -54

    def test_poisson_window_stays_below_the_ladder_index_limit(self):
        weights = PhotonDistribution.poisson(9.5e5).weights
        assert max(weights) <= 10**6
        for mean in (1e6, 1e7, math.inf, -1.0):
            with pytest.raises(ValueError):
                PhotonDistribution.poisson(mean)


class TestWeightedTotal:
    def test_delta_reduces_to_suppression(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        got = weighted_total_rate("e", PhotonDistribution.delta(0), p)
        assert got == pytest.approx(suppression_rate_e0(p), rel=1e-12)

    def test_two_point_linearity(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        dist = PhotonDistribution({0: 0.5, 1: 0.5})
        t0 = total_rate(DressedState("e", 0), p).total_over_gamma0
        t1 = total_rate(DressedState("e", 1), p).total_over_gamma0
        got = weighted_total_rate("e", dist, p)
        assert got == pytest.approx(0.5 * (t0 + t1), rel=1e-13)

    def test_poisson_close_to_rounded_mean(self):
        p = ModelParams.from_ratios(0.1, 1.0)
        n_bar = 400.0
        spread = weighted_total_rate("e", PhotonDistribution.poisson(n_bar), p)
        pinned = total_rate(DressedState("e", 400), p).total_over_gamma0
        assert abs(spread - pinned) / pinned <= 0.02


class TestSemiclassicalPartial:
    def test_uncoupled_elastic_channel(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        assert semiclassical_partial("e", 100.0, 0, p) == 1.0

    def test_bessel_weight_spot(self):
        # x = 1 at drive twice the bare frequency: channel p=1 from the
        # ground branch carries J_1(1)^2 * 1^3
        n_bar = 400.0
        drive = 2.0
        coupling = drive / math.sqrt(n_bar)  # x = coupling*sqrt(400)/2 = 1
        p = ModelParams.from_ratios(coupling, drive)
        got = semiclassical_partial("g", n_bar, 1, p)
        assert got == pytest.approx(0.19364451801445908, rel=1e-12)

    def test_restriction(self):
        p = ModelParams.from_ratios(0.1, 0.5)
        with pytest.raises(ValueError):
            semiclassical_partial("e", 100.0, -3, p)  # needs p >= -2
        with pytest.raises(ValueError):
            semiclassical_partial("g", 100.0, 1, p)  # needs p >= 2
        with pytest.raises(ValueError):
            semiclassical_partial("e", 5.0, 1, p)  # [n_bar] < 10|p|

    def test_matches_exact_partial_at_figure_regime(self):
        p = ModelParams.from_ratios(0.001, 0.9)
        n = 40_000
        for pp in (0, 1, 2):
            semi = semiclassical_partial("e", float(n), pp, p)
            exact = partial_rate(DressedState("e", n), n - pp, p)
            assert semi == pytest.approx(exact, rel=2e-3)


class TestSemiclassicalTotals:
    def test_uncoupled(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        totals = semiclassical_totals(100.0, p)
        assert totals.gamma_e == 1.0
        assert totals.gamma_g == 0.0

    def test_ground_total_spot(self):
        # x = 1, drive twice the bare frequency
        n_bar = 100.0
        p = ModelParams.from_ratios(0.2, 2.0)
        totals = semiclassical_totals(n_bar, p)
        assert totals.gamma_g == pytest.approx(0.6001109490969901, rel=1e-10)

    def test_identity_structure(self):
        for coupling, drive, n_bar in [
            (0.05, 0.5, 900.0),
            (0.02, 1.3, 2500.0),
            (0.008, 0.25, 10_000.0),
        ]:
            p = ModelParams.from_ratios(coupling, drive)
            totals = semiclassical_totals(n_bar, p)
            rhs = 1.0 + 1.5 * coupling**2 * round(n_bar)
            assert totals.gamma_e - totals.gamma_g == pytest.approx(rhs, abs=1e-10)

    def test_ground_total_matches_direct_sum(self):
        p = ModelParams.from_ratios(0.02, 0.7)
        n_bar = 40_000.0
        x = 0.02 * math.sqrt(round(n_bar)) / 0.7
        r0 = 1.0 / 0.7
        direct = math.fsum(
            bessel_j(k, x) ** 2 * (k * 0.7 - 1.0) ** 3
            for k in range(math.ceil(r0), bessel_truncation_order(x) + 40)
        )
        totals = semiclassical_totals(n_bar, p)
        assert totals.gamma_g == pytest.approx(direct, abs=1e-12, rel=1e-10)

    def test_excited_total_matches_exact_large_n(self):
        # semiclassical total vs brute-force summed exact rates
        p = ModelParams.from_ratios(0.001, 0.9)
        n = 10_000
        exact = total_rate(DressedState("e", n), p).total_over_gamma0
        semi = semiclassical_totals(float(n), p).gamma_e
        assert abs(exact - semi) / semi <= 0.02


class TestMeshKernels:
    """Each mesh cell equals the scalar call on its ratios bit for bit, and
    does not depend on the shape or extent of the mesh around it."""

    def mesh_and_row(self, kernel, couplings=MESH_COUPLINGS, drives=MESH_DRIVES):
        mesh = kernel(couplings[None, :], drives[:, None])
        assert mesh.shape == (drives.size, couplings.size)
        for i, drive in enumerate(drives.tolist()):
            assert np.array_equal(kernel(couplings, drive), mesh[i])
        return mesh

    def test_suppression(self):
        mesh = self.mesh_and_row(suppression_e0_mesh)
        for (i, j), value in np.ndenumerate(mesh):
            p = ModelParams.from_ratios(float(MESH_COUPLINGS[j]), float(MESH_DRIVES[i]))
            assert value == suppression_rate_e0(p)
        assert np.all(mesh[:, 0] == 1.0)
        assert np.all(mesh <= 1.0)

    def test_absorption(self):
        mesh = self.mesh_and_row(absorption_g1_mesh)
        for (i, j), value in np.ndenumerate(mesh):
            p = ModelParams.from_ratios(float(MESH_COUPLINGS[j]), float(MESH_DRIVES[i]))
            assert value == absorption_rate_g1(p)
        assert np.all(mesh[MESH_DRIVES <= 1.0] == 0.0)

    @pytest.mark.parametrize("n_prime", [0, 1, 2, 3, 4])
    def test_partial_e0_against_partial_rate(self, n_prime):
        mesh = self.mesh_and_row(lambda c, d: partial_e0_mesh(n_prime, c, d))
        state = DressedState("e", 0)
        closed = 0
        for (i, j), value in np.ndenumerate(mesh):
            c, d = float(MESH_COUPLINGS[j]), float(MESH_DRIVES[i])
            assert value == float(partial_e0_mesh(n_prime, c, d))
            p = ModelParams.from_ratios(c, d)
            if n_prime not in allowed_final_indices(state, p):
                assert value == 0.0
                closed += 1
                continue
            want = partial_rate(state, n_prime, p)
            assert abs(value - want) <= 1e-13 * want
        assert closed > 0 or n_prime == 0

    def test_semiclassical(self):
        couplings = np.array([0.0, 1e-4, 1e-3, 5e-3, 2e-2])
        drives = MESH_DRIVES[1:]
        for n_bar in (1.0, 2500.4, 1e4):
            gamma_e, gamma_g = semiclassical_mesh(n_bar, couplings[None, :], drives[:, None])
            for (i, j), ge in np.ndenumerate(gamma_e):
                p = ModelParams.from_ratios(float(couplings[j]), float(drives[i]))
                assert (ge, gamma_g[i, j]) == tuple(semiclassical_totals(n_bar, p))
                row_e, row_g = semiclassical_mesh(n_bar, couplings, float(drives[i]))
                assert (row_e[j], row_g[j]) == (ge, gamma_g[i, j])
            assert np.all(gamma_e[:, 0] == 1.0) and np.all(gamma_g[:, 0] == 0.0)

    @pytest.mark.parametrize("kernel", ["suppression_e0_mesh", "semiclassical_mesh"])
    def test_drive_past_the_ladder_index_limit_is_refused(self, monkeypatch, kernel):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was sized")

        monkeypatch.setattr(rates, "_ordered_sum", no_table)
        monkeypatch.setattr(rates, "_semiclassical_gamma_g", no_table)
        call = getattr(rates, kernel)
        if kernel == "semiclassical_mesh":
            call = partial(call, 1e4)
        for drive in (1e-300, 1e-7, 0.0):
            with pytest.raises(ValueError, match="past the limit 1000000"):
                call(np.array([0.0, 1e-3]), np.array([[0.5], [drive]]))
        for smallest in (-0.0, -1.0):  # a reach below zero hides no cell
            with pytest.raises(ValueError, match="past the limit 1000000"):
                call(np.array([0.0, 1e-3]), np.array([[smallest], [1e-9]]))
        with pytest.raises(ValueError, match="MAX_LADDER_INDEX"):
            suppression_rate_e0(ModelParams.from_ratios(1.0, 1e-7))

    def test_against_math_loops(self):
        # The per-point loops the kernels replaced (libm and math.fsum), with
        # tolerances from the double-precision unit roundoff: a few ulp per
        # term from exp/pow, plus one per addition of the ordered sum.
        eps = np.finfo(float).eps
        sup = suppression_e0_mesh(MESH_COUPLINGS[None, :], MESH_DRIVES[:, None])
        absn = absorption_g1_mesh(MESH_COUPLINGS[None, :], MESH_DRIVES[:, None])
        for (i, j), value in np.ndenumerate(sup):
            c, d = float(MESH_COUPLINGS[j]), float(MESH_DRIVES[i])
            beta = c / (2.0 * d)
            n_hi = math.floor(1.0 / d + 1e-9)
            terms = [
                math.exp(-beta * beta + 2 * k * math.log(beta) - math.lgamma(k + 1))
                * max(0.0, 1.0 - k * d) ** 3
                for k in range(n_hi + 1)
            ] if beta > 0.0 else [1.0]
            assert abs(value - math.fsum(terms)) <= 8 * (n_hi + 1) * eps * math.fsum(terms)
            want = math.exp(-beta * beta) * beta * beta * (d - 1.0) ** 3 if d > 1.0 else 0.0
            assert abs(absn[i, j] - want) <= 8 * eps * want

    def test_ordered_sum_ignores_grouping(self, monkeypatch):
        c, d = np.geomspace(1e-4, 2e-2, 9)[None, :], MESH_DRIVES[:, None]
        before = (*semiclassical_mesh(1e4, c, d), suppression_e0_mesh(c * 400.0, d))
        monkeypatch.setattr(rates, "_TABLE_TERMS", 37)  # groups of one to a few cells
        after = (*semiclassical_mesh(1e4, c, d), suppression_e0_mesh(c * 400.0, d))
        for old, new in zip(before, after):
            assert np.array_equal(old, new)

    def test_semiclassical_block_peak(self):
        # One sweep block of 4,096 cells holds at most a Bessel table of 8 bytes
        # per order and cell, the ordered sum's group (about 55 bytes a term) and
        # 1 MiB besides; a recurrence table stored to its start breaks the bound.
        couplings, drives = np.geomspace(1e-4, 1e-2, 128), np.linspace(0.11, 2.0, 32)
        semiclassical_mesh(1e4, couplings[:2], drives[:1])  # ln k! and Bessel set-up
        tracemalloc.start()
        try:
            semiclassical_mesh(1e4, couplings[None, :], drives[:, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x = couplings.max() * math.sqrt(1e4) / drives.min()
        p_hi = max(math.ceil(1.0 / drives.min()), math.ceil(1.0607 * x)) + 76
        bound = 8 * (p_hi + 1) * couplings.size * drives.size + 64 * rates._TABLE_TERMS + (1 << 20)
        assert peak <= bound, (peak, bound)

    @staticmethod
    def sequential_gamma_g(n_bar, c, d):
        """gamma_g summed one channel at a time, far past the kernel's last channel."""
        x = c * math.sqrt(round(n_bar)) / d
        end = max(bessel_truncation_order(x) + 200, math.ceil(1.0 / d) + 300)
        p = np.arange(1, end + 1, dtype=float)  # below the floor the factor is 0
        terms = _bessel_j_orders(p.astype(np.int64), x) ** 2 * np.maximum(0.0, p * d - 1.0) ** 3
        total = 0.0
        for term in terms.tolist():
            total += term
        return total

    def test_semiclassical_equals_a_long_sequential_sum(self):
        # 0.00594 at drive 1e-3 is x = 594 at n_bar = 1e4, where a floor of
        # p_min + 8 and tail blocks of 32 missed the last bit
        couplings = np.array([0.0, 1e-6, 1e-4, 3e-3, 0.00594, 0.02, 0.09])
        drives = np.concatenate([[1e-3, 1e-3 + 1e-12, 0.0123], MESH_DRIVES])
        for n_bar in (1.0, 1e4):
            gamma_g = semiclassical_mesh(n_bar, couplings[None, :], drives[:, None])[1]
            for (i, j), value in np.ndenumerate(gamma_g):
                want = self.sequential_gamma_g(n_bar, float(couplings[j]), float(drives[i]))
                assert value == want, (n_bar, couplings[j], drives[i])

    @given(x=st.floats(0.0, 3000.0), drive=st.floats(1e-3, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_semiclassical_sum_is_complete(self, x, drive):
        coupling = x * drive / 100.0  # n_bar = 1e4
        value = semiclassical_mesh(1e4, coupling, drive)[1]
        assert value == self.sequential_gamma_g(1e4, coupling, drive)

    def test_validation(self):
        with pytest.raises(ValueError):
            semiclassical_mesh(0.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            semiclassical_mesh(-5.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            partial_e0_mesh(-1, 0.1, 0.5)


class TestGamma0:
    def test_si_spot_value(self):
        got = gamma0_si(Gamma0Params(omega0=2.4e15, dipole=DEBYE))
        assert got == pytest.approx(648685.5027219309, rel=1e-12)

    def test_scaling_laws(self):
        base = gamma0_si(Gamma0Params(omega0=1e15, dipole=2 * DEBYE))
        assert gamma0_si(Gamma0Params(omega0=2e15, dipole=2 * DEBYE)) == pytest.approx(
            8 * base, rel=1e-14
        )
        assert gamma0_si(Gamma0Params(omega0=1e15, dipole=4 * DEBYE)) == pytest.approx(
            4 * base, rel=1e-14
        )

    def test_against_mpmath_constants(self):
        with mp.workdps(40):
            hbar = mp.mpf("1.0545718176461565e-34")
            eps0 = mp.mpf("8.8541878128e-12")
            c = mp.mpf(299792458)
            w = mp.mpf("2.4e15")
            d = mp.mpf("3.335640951981521e-30")
            ref = float(w**3 * d**2 / (3 * mp.pi * hbar * eps0 * c**3))
        assert gamma0_si(Gamma0Params(2.4e15, DEBYE)) == pytest.approx(ref, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            Gamma0Params(omega0=-1.0, dipole=1e-30)
        with pytest.raises(ValueError):
            Gamma0Params(omega0=1e15, dipole=-1e-30)
