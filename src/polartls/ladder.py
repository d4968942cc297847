"""The two dressed oscillator ladders and the selection rule between them.

Each eigenstate of the longitudinally coupled emitter-field system is a
branch label (``e`` or ``g``, carrying sign +1 or -1) plus an oscillator
index ``n``.  Spontaneous photon emission only connects states on
opposite branches, and only when the released energy
``s_i omega0 + (n - n') omega_drive`` is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _checked_int
from .overlaps import ModelParams

__all__ = [
    "DressedState",
    "TransitionRecord",
    "dressed_energy",
    "allowed_final_indices",
    "photon_frequency",
]

_BRANCH_SIGNS = {"e": +1, "g": -1}

# Transition boundaries sitting within this relative distance of an
# integer are snapped onto it.  The rate of a boundary channel vanishes
# through the cubic frequency factor, so the snap never changes a total
# by more than ~(1e-9)^3 in relative terms; it only keeps channel counts
# stable when a frequency ratio like 1/0.1 lands off an integer by one ulp.
_BOUNDARY_SNAP = 1e-9


@dataclass(frozen=True)
class DressedState:
    """One dressed level: branch ``e`` (upper, sign +1) or ``g`` (lower, -1)."""

    branch: str
    n: int

    def __post_init__(self):
        if self.branch not in _BRANCH_SIGNS:
            raise ValueError(f"branch must be 'e' or 'g', got {self.branch!r}")
        object.__setattr__(self, "n", _checked_int(self.n, "n", 0))

    @property
    def sign(self) -> int:
        return _BRANCH_SIGNS[self.branch]


@dataclass(frozen=True)
class TransitionRecord:
    """One allowed spontaneous transition between opposite branches.

    ``rate_over_gamma0`` is normalized to the undriven free-space decay
    rate; ``photon_freq`` is the emitted frequency in units of the bare
    transition frequency.
    """

    initial: DressedState
    final: DressedState
    rate_over_gamma0: float
    photon_freq: float

    def __post_init__(self):
        if self.initial.branch == self.final.branch:
            raise ValueError("transitions connect opposite branches only")
        if not (math.isfinite(self.rate_over_gamma0) and self.rate_over_gamma0 >= 0.0):
            raise ValueError(f"rate_over_gamma0 must be >= 0, got {self.rate_over_gamma0!r}")
        if not (math.isfinite(self.photon_freq) and self.photon_freq >= 0.0):
            raise ValueError(f"photon_freq must be >= 0, got {self.photon_freq!r}")


def dressed_energy(
    state: DressedState, params: ModelParams, include_offset: bool = False
) -> float:
    """Energy of a dressed level, in the units of ``params``.

    By default the branch-independent constant shift
    ``-coupling_abs^2 / (16 omega_drive)`` is dropped; it cancels in
    every transition.  Pass ``include_offset=True`` to restore it for
    absolute level diagrams.
    """
    energy = state.sign * params.omega0 / 2.0 + state.n * params.omega_drive
    if include_offset:
        energy -= params.coupling_abs**2 / (16.0 * params.omega_drive)
    return energy


def _snapped(limit):
    """``limit`` moved onto the nearest integer when within ``_BOUNDARY_SNAP``
    of it (relative, floor 1); elementwise on arrays, a float for scalars."""
    if isinstance(limit, float):  # the same arithmetic without numpy's per-call cost
        if not math.isfinite(limit):
            return limit
        nearest = math.copysign(round(limit), limit)  # half to even and signed, as np.rint
        near = abs(limit - nearest) <= _BOUNDARY_SNAP * max(1.0, abs(limit))
        return nearest if near else limit
    nearest = np.rint(limit)
    near = np.abs(limit - nearest) <= _BOUNDARY_SNAP * np.maximum(1.0, np.abs(limit))
    snapped = np.where(near, nearest, limit)
    return snapped if snapped.ndim else float(snapped)


def allowed_final_indices(state: DressedState, params: ModelParams) -> range:
    """Final oscillator indices reachable by spontaneous photon emission.

    These are all ``n' >= 0`` with ``n' <= n + sign * omega0/omega_drive``
    on the opposite branch.  When the bound lands exactly on an integer
    that boundary index is included; its rate is zero through the cubic
    frequency factor, so totals are unaffected either way.  An empty
    range is a valid result (a dark state).
    """
    limit = state.n + state.sign * params.omega0 / params.omega_drive
    upper = math.floor(_snapped(limit))
    if upper < 0:
        return range(0)
    return range(0, upper + 1)


def photon_frequency(state: DressedState, to_index: int, params: ModelParams) -> float:
    """Frequency of the photon emitted in ``state -> (other branch, to_index)``.

    Computed as the dressed-energy difference, so energy bookkeeping is
    bit-exact against :func:`dressed_energy`.  Units follow ``params``.
    """
    to_index = _checked_int(to_index, "to_index")
    if to_index not in allowed_final_indices(state, params):
        raise ValueError(
            f"to_index={to_index} is not an allowed final index for "
            f"({state.branch},{state.n}) at omega0/omega_drive="
            f"{params.omega0 / params.omega_drive:g}"
        )
    final = DressedState("g" if state.branch == "e" else "e", to_index)
    freq = dressed_energy(state, params) - dressed_energy(final, params)
    if freq < 0.0:
        # Only reachable for a snapped integer boundary, where the exact
        # value is zero and floating-point noise may land barely below it.
        scale = params.omega0 + (state.n + to_index + 1) * params.omega_drive
        if freq >= -_BOUNDARY_SNAP * scale:
            return 0.0
        raise ValueError(f"negative photon frequency {freq!r}; inconsistent inputs")
    return freq
