"""Dressed-state bookkeeping: energies, selection windows, photon frequencies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartls.ladder import (
    DressedState,
    TransitionRecord,
    _snapped,
    allowed_final_indices,
    dressed_energy,
    photon_frequency,
)
from polartls.overlaps import ModelParams


class TestDressedState:
    def test_fields_and_sign(self):
        e = DressedState("e", 3)
        g = DressedState("g", 0)
        assert e.sign == +1
        assert g.sign == -1
        assert e.n == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DressedState("x", 0)
        with pytest.raises(ValueError):
            DressedState("e", -1)

    def test_hashable(self):
        assert len({DressedState("e", 1), DressedState("e", 1)}) == 1


class TestDressedEnergy:
    def test_ladder_spacing(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        e0 = dressed_energy(DressedState("e", 0), p)
        e1 = dressed_energy(DressedState("e", 1), p)
        assert e1 - e0 == pytest.approx(0.5, rel=1e-15)

    def test_branch_offset(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        up = dressed_energy(DressedState("e", 2), p)
        down = dressed_energy(DressedState("g", 2), p)
        assert up - down == pytest.approx(1.0, rel=1e-15)

    def test_global_offset_term(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        bare = dressed_energy(DressedState("g", 0), p)
        shifted = dressed_energy(DressedState("g", 0), p, include_offset=True)
        # -coupling^2/(16 drive) = -1/8
        assert shifted - bare == pytest.approx(-0.125, rel=1e-14)


class TestAllowedFinalIndices:
    def test_excited_window(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        assert list(allowed_final_indices(DressedState("e", 0), p)) == [0, 1, 2]
        assert list(allowed_final_indices(DressedState("e", 3), p)) == list(range(6))

    def test_ground_window(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        assert list(allowed_final_indices(DressedState("g", 0), p)) == []
        assert list(allowed_final_indices(DressedState("g", 5), p)) == [0, 1, 2, 3]

    def test_blue_detuned_ground(self):
        p = ModelParams.from_ratios(1.0, 2.0)
        # drive above resonance opens the ground-branch channels
        assert list(allowed_final_indices(DressedState("g", 1), p)) == [0]

    def test_boundary_float_fuzz(self):
        # 1/0.1 is not exactly 10 in floating point; the window must still
        # include the boundary channel
        p = ModelParams.from_ratios(0.3, 0.1)
        assert list(allowed_final_indices(DressedState("e", 0), p)) == list(range(11))

    @given(
        n=st.integers(min_value=0, max_value=200),
        drive=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_energy_conservation_defines_window(self, n, drive):
        p = ModelParams.from_ratios(0.5, drive)
        state = DressedState("e", n)
        allowed = list(allowed_final_indices(state, p))
        # every allowed channel has non-negative photon frequency
        for n_prime in allowed:
            assert photon_frequency(state, n_prime, p) >= 0.0
        # the first excluded channel would need a negative-frequency photon
        upper = allowed[-1] + 1 if allowed else 0
        e_start = dressed_energy(state, p)
        e_end = dressed_energy(DressedState("g", upper), p)
        assert e_start - e_end < 1e-7 * max(1.0, abs(e_start))


class TestBoundarySnap:
    """One snap rule for every transition boundary (ladder window, the
    suppression sum's last channel, the semiclassical channel floor)."""

    @pytest.mark.parametrize("drive", [0.5, 0.25, 1 / 3])
    def test_drives_on_and_near_omega0_over_k(self, drive):
        k = round(1.0 / drive)
        for near in (drive, drive + 1e-10, drive - 1e-10):
            assert _snapped(1.0 / near) == float(k)
            p = ModelParams.from_ratios(0.5, near)
            assert list(allowed_final_indices(DressedState("e", 0), p)) == list(range(k + 1))
        # well outside the snap band the bound stays fractional
        assert _snapped(1.0 / (drive + 1e-6)) == 1.0 / (drive + 1e-6)

    def test_arrays_match_scalars(self):
        limits = 1.0 / np.array([[0.5, 0.25, 1 / 3], [0.5 + 1e-10, 0.25 - 1e-10, 0.3]])
        snapped = _snapped(limits)
        assert snapped.shape == limits.shape
        assert [_snapped(x) for x in limits.ravel().tolist()] == snapped.ravel().tolist()
        assert isinstance(_snapped(3.0000000000000004), float)
        # relative band with a floor of 1: values near zero snap absolutely
        assert _snapped(-4e-10) == 0.0 and _snapped(1e3 + 5e-7) == 1e3


class TestPhotonFrequency:
    def test_equals_energy_difference_bitwise(self):
        p = ModelParams.from_ratios(1.0, 0.7)
        state = DressedState("e", 9)
        for n_prime in allowed_final_indices(state, p):
            freq = photon_frequency(state, n_prime, p)
            diff = dressed_energy(state, p) - dressed_energy(
                DressedState("g", n_prime), p
            )
            assert freq == diff  # defined as the same expression

    def test_boundary_clamps_to_zero(self):
        p = ModelParams.from_ratios(0.3, 0.1)
        state = DressedState("e", 0)
        assert photon_frequency(state, 10, p) == 0.0

    def test_negative_frequency_rejected(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        with pytest.raises(ValueError):
            photon_frequency(DressedState("e", 0), 5, p)

    def test_red_and_blue_lines(self):
        p = ModelParams.from_ratios(1.0, 2.0)
        # fundamental blue-detuned absorption line sits at drive - bare
        assert photon_frequency(DressedState("g", 1), 0, p) == pytest.approx(1.0)


class TestTransitionRecord:
    def test_valid_record(self):
        rec = TransitionRecord(
            initial=DressedState("e", 2),
            final=DressedState("g", 1),
            rate_over_gamma0=0.25,
            photon_freq=1.5,
        )
        assert rec.rate_over_gamma0 == 0.25

    def test_same_branch_rejected(self):
        with pytest.raises(ValueError):
            TransitionRecord(
                initial=DressedState("e", 2),
                final=DressedState("e", 1),
                rate_over_gamma0=0.1,
                photon_freq=1.0,
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TransitionRecord(
                initial=DressedState("e", 2),
                final=DressedState("g", 1),
                rate_over_gamma0=-0.1,
                photon_freq=1.0,
            )
