"""Spontaneous emission and absorption rates, in units of the bare decay rate.

Every rate here is normalized to ``gamma0``, the free-space decay rate
of the undriven emitter; :func:`gamma0_si` converts to absolute units.
Partial rates combine a cross-ladder overlap with the cubic photon-
frequency factor; totals sum the allowed channels.  Closed forms are
provided for the two benchmark cases (decay of the lowest upper level,
absorption from the lowest drive-excited lower level) and for the
large-index semiclassical limit, where overlaps become Bessel functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .ladder import DressedState, TransitionRecord, _snapped
from .ladder import allowed_final_indices, photon_frequency
from .numerics import MAX_BESSEL_ARG, MAX_LADDER_INDEX, _bessel_j_orders, _checked_int, _ln_factorial
from .numerics import bessel_j, bessel_truncation_order
from .overlaps import ModelParams, _checked_index, _overlap_column, _window_reach, overlap_log_abs

__all__ = [
    "RateTable",
    "PhotonDistribution",
    "Gamma0Params",
    "SemiclassicalTotals",
    "partial_rate",
    "total_rate",
    "suppression_rate_e0",
    "absorption_rate_g1",
    "suppression_e0_mesh",
    "absorption_g1_mesh",
    "partial_e0_mesh",
    "semiclassical_mesh",
    "weighted_total_rate",
    "semiclassical_partial",
    "semiclassical_totals",
    "gamma0_si",
    "REDUCED_PLANCK",
    "VACUUM_PERMITTIVITY",
    "SPEED_OF_LIGHT",
    "DEBYE",
]

# CODATA-2018 values, pinned so results never drift with library updates.
# REDUCED_PLANCK is h / (2 pi) with h exact by SI definition.
REDUCED_PLANCK = 1.0545718176461565e-34  # J s
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F / m
SPEED_OF_LIGHT = 299792458.0  # m / s (exact)
DEBYE = 3.335640951981521e-30  # C m (1e-21 / c, exact definition)


@dataclass(frozen=True)
class RateTable:
    """All spontaneous transitions out of one dressed state.

    ``transitions`` are ordered by final index; ``total_over_gamma0`` is
    their compensated sum and is checked against the listed partials at
    construction.
    """

    initial: DressedState
    transitions: tuple[TransitionRecord, ...]
    total_over_gamma0: float

    def __post_init__(self):
        resummed = math.fsum(t.rate_over_gamma0 for t in self.transitions)
        if abs(resummed - self.total_over_gamma0) > 1e-14 * max(resummed, 1e-300):
            raise ValueError("total_over_gamma0 does not match the listed partials")


@dataclass(frozen=True)
class PhotonDistribution:
    """Normalized weights over oscillator indices."""

    weights: Mapping[int, float]

    def __post_init__(self):
        cleaned = {}
        for key, value in self.weights.items():
            value = float(value)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"weights must be finite and >= 0, got {value!r}")
            cleaned[_checked_int(key, "index", 0)] = value
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "weights", cleaned)

    @classmethod
    def delta(cls, n: int) -> "PhotonDistribution":
        return cls({n: 1.0})

    @classmethod
    def poisson(cls, mean: float, cutoff: float = 1e-18) -> "PhotonDistribution":
        """Poisson weights, truncated where terms fall below ``cutoff`` of
        the peak and renormalized."""
        mean = float(mean)
        if not (math.isfinite(mean) and 0.0 <= mean <= 1e7):
            raise ValueError(f"0 <= mean <= 1e7 required, got {mean!r}")
        if mean == 0.0:
            return cls.delta(0)
        spread = 40.0 * math.sqrt(mean + 1.0) + 20.0
        lo = max(0, math.floor(mean - spread))
        hi = math.ceil(mean + spread)
        ks = np.arange(lo, hi + 1)
        log_pmf = ks * math.log(mean) - mean - _ln_factorial(ks)
        log_pmf -= log_pmf.max()
        pmf = np.exp(log_pmf)
        keep = pmf >= cutoff
        ks, pmf = ks[keep], pmf[keep]
        total = math.fsum(pmf.tolist())
        return cls({int(k): float(v) / total for k, v in zip(ks, pmf)})


@dataclass(frozen=True)
class Gamma0Params:
    """Inputs for the absolute free-space decay rate."""

    omega0: float  # rad / s
    dipole: float  # C m

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be > 0, got {self.omega0!r}")
        if not (math.isfinite(self.dipole) and self.dipole >= 0.0):
            raise ValueError(f"dipole must be >= 0, got {self.dipole!r}")


class SemiclassicalTotals(NamedTuple):
    gamma_e: float
    gamma_g: float


def _channel_rate(log_abs: float, freq: float) -> float:
    """The rate of one channel: squared overlap times the cubed frequency."""
    if log_abs == float("-inf") or freq == 0.0:
        return 0.0
    return math.exp(2.0 * log_abs) * freq**3


def partial_rate(from_state: DressedState, n_prime: int, params: ModelParams) -> float:
    """Rate of ``from_state -> (opposite branch, n_prime)`` over gamma0.

    The overlap squared times the cube of the emitted frequency in units
    of the bare transition frequency.  Raises for a final index outside
    the allowed range.
    """
    freq = photon_frequency(from_state, n_prime, params) / params.omega0
    return _channel_rate(overlap_log_abs(n_prime, from_state.n, params), freq)


def _candidate_final_indices(state: DressedState, params: ModelParams) -> range:
    """Allowed final indices restricted to where overlaps have support.

    The caps are :func:`polartls.overlaps._window_reach`; the dropped tail
    is below 1e-12 of any total.
    """
    full = allowed_final_indices(state, params)
    if len(full) == 0:
        return full
    below, above = _window_reach(state.n, params.beta)
    lo = max(full.start, state.n - below)
    hi = min(full.stop - 1, state.n + above)
    if lo > hi:
        # Window and allowed range can only disconnect for a far-detuned
        # lower branch, where every in-window channel is forbidden anyway;
        # keep the nearest allowed channels to stay conservative.
        return full if len(full) <= below else range(full.stop - below, full.stop)
    return range(lo, hi + 1)


def total_rate(from_state: DressedState, params: ModelParams) -> RateTable:
    """Total spontaneous rate out of a dressed state, with its channel table.

    One overlap column of the decaying state serves every channel; each
    record equals :func:`partial_rate` for its channel bit for bit.
    """
    final = "g" if from_state.branch == "e" else "e"
    channels = _candidate_final_indices(from_state, params)
    log_abs, _ = _overlap_column(channels, from_state.n, params.beta)
    records = []
    for n_prime, ln in zip(channels, log_abs.tolist()):
        freq = photon_frequency(from_state, n_prime, params) / params.omega0
        rate = _channel_rate(ln, freq)
        records.append(TransitionRecord(from_state, DressedState(final, n_prime), rate, freq))
    total = math.fsum(r.rate_over_gamma0 for r in records)
    return RateTable(initial=from_state, transitions=tuple(records), total_over_gamma0=total)


# The *_mesh kernels take coupling_abs/omega0 and omega_drive/omega0 arrays
# (omega0 = 1) that broadcast together; each cell equals the scalar function
# on the same ratios bit for bit, whatever the shape of the mesh around it.


def _cells(coupling_ratio, drive_ratio):
    """The broadcast ratios as flat cells, plus the shape to give results in."""
    c, d = np.asarray(coupling_ratio, float), np.asarray(drive_ratio, float)
    if c.shape != d.shape:
        c, d = np.broadcast_arrays(c, d)
    return c.ravel(), d.ravel(), c.shape


_TABLE_TERMS = 1 << 16  # (channel, cell) pairs _ordered_sum holds at once


def _ordered_sum(terms, first, last) -> np.ndarray:
    """``sum_{k=first}^{last} terms(k, i)`` per cell ``i``, added in increasing k.

    ``terms`` takes matching 1-D arrays of channels and cell indices.  A
    group of cells at a time, the terms fill a channel-by-cell table (zeros
    past ``last`` leave the nonnegative sums unchanged) that
    ``np.add.accumulate`` adds down strictly in order, unlike ``np.sum``,
    whose order depends on the array's shape.
    """
    total = np.zeros(first.shape)
    width = int((last - first).max(initial=0)) + 1
    step = max(1, _TABLE_TERMS // width)
    for start in range(0, first.size, step):
        cells = np.arange(start, min(start + step, first.size))
        k = first[cells] + np.arange(width)[:, None]
        live = k <= last[cells]
        table = np.zeros(k.shape)
        table[live] = terms(k[live], np.broadcast_to(cells, k.shape)[live])
        total[cells] = np.add.accumulate(table, axis=0)[-1]
    return total


def _check_drive_reach(drive_ratio) -> None:
    """The closed-form tables run to ladder index ``floor(omega0/omega_L)``
    of each cell; past MAX_LADDER_INDEX (or nan) that is refused before any
    table is sized."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reach = np.floor(_snapped(1.0 / drive_ratio))
    past = ~(reach <= MAX_LADDER_INDEX)
    if past.any():
        raise ValueError(
            f"omega0/omega_L reaches ladder index {reach[past][0]:.6g}, past the limit "
            f"{MAX_LADDER_INDEX} (MAX_LADDER_INDEX)"
        )


def suppression_e0_mesh(coupling_ratio, drive_ratio) -> np.ndarray:
    """:func:`suppression_rate_e0` over broadcast ratio arrays."""
    c, d, shape = _cells(coupling_ratio, drive_ratio)
    _check_drive_reach(d)
    beta = c / (2.0 * d)
    lam = beta * beta
    # Poisson weights die off well inside this window.
    n_hi = np.minimum(np.floor(_snapped(1.0 / d)), np.ceil(lam + 40.0 * np.sqrt(lam + 1.0) + 20.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_beta2 = 2.0 * np.log(beta)

        def terms(n, i):
            factor = np.maximum(0.0, 1.0 - n * d[i])
            return np.exp(-lam[i] + n * log_beta2[i] - _ln_factorial(n.astype(np.int64))) * factor**3

        total = _ordered_sum(terms, np.zeros_like(c), n_hi)
    return np.where(beta == 0.0, 1.0, total).reshape(shape)


def suppression_rate_e0(params: ModelParams) -> float:
    """Closed-form total decay rate of the lowest upper level, over gamma0.

    ``e^{-beta^2} sum_{n'=0}^{floor(omega0/omega_drive)}
    beta^{2n'} / n'! (1 - n' omega_drive/omega0)^3``; always <= 1, and
    exactly 1 at zero coupling.
    """
    return float(suppression_e0_mesh(params.coupling_ratio, params.drive_ratio))


def absorption_g1_mesh(coupling_ratio, drive_ratio) -> np.ndarray:
    """:func:`absorption_rate_g1` over broadcast ratio arrays."""
    c, d, shape = _cells(coupling_ratio, drive_ratio)
    beta = c / (2.0 * d)
    value = np.exp(-beta * beta) * beta * beta * (d - 1.0) ** 3
    return np.where(d > 1.0, value, 0.0).reshape(shape)


def absorption_rate_g1(params: ModelParams) -> float:
    """Rate of spontaneous decay out of the lower branch's first level.

    Nonzero only for a drive above the transition frequency:
    ``e^{-beta^2} beta^2 (omega_drive/omega0 - 1)^3``.  Maximized over
    the coupling at ``coupling_abs = 2 omega_drive``.
    """
    return float(absorption_g1_mesh(params.coupling_ratio, params.drive_ratio))


def partial_e0_mesh(n_prime: int, coupling_ratio, drive_ratio) -> np.ndarray:
    """:func:`partial_rate` from ``(e,0)`` to ``(g,n_prime)`` over broadcast ratio
    arrays, with its one-term overlap written out; 0 where the channel is closed."""
    n_prime = _checked_index(n_prime, "n_prime")
    c, d, shape = _cells(coupling_ratio, drive_ratio)
    beta = c / (2.0 * d)
    log_fact = float(_ln_factorial(n_prime))
    with np.errstate(divide="ignore"):
        series = n_prime * np.log(beta) if n_prime else np.zeros_like(beta)
    log_abs = -0.5 * beta * beta + 0.5 * log_fact + (series - log_fact)
    freq = np.maximum(0.0, 0.5 - (n_prime * d - 0.5))
    is_open = n_prime <= np.floor(_snapped(1.0 / d))
    return np.where(is_open, np.exp(2.0 * log_abs) * freq**3, 0.0).reshape(shape)


def weighted_total_rate(
    branch: str, dist: PhotonDistribution, params: ModelParams
) -> float:
    """Distribution-averaged total rate ``sum_n w_n Gamma_(branch,n)``."""
    return math.fsum(
        weight * total_rate(DressedState(branch, n), params).total_over_gamma0
        for n, weight in sorted(dist.weights.items())
    )


def _rounded_index(n_bar: float, minimum: int = 0) -> int:
    n_bar = float(n_bar)
    if not (math.isfinite(n_bar) and n_bar >= 0.0):
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar!r}")
    n_round = round(n_bar)  # round-half-to-even
    if n_round < minimum:
        raise ValueError(f"[n_bar] >= {minimum} required, got [n_bar]={n_round}")
    return n_round


def semiclassical_partial(
    branch: str, n_bar: float, p: int, params: ModelParams
) -> float:
    """Large-index partial rate into the channel shifting the drive index by p.

    ``J_p(x)^2 (s + p omega_drive/omega0)^3`` with
    ``x = coupling_abs sqrt([n_bar]) / omega_drive`` and ``[.]`` the
    nearest integer.  The channel must satisfy the emission restriction
    ``p >= -s omega0/omega_drive`` and sit well inside the asymptotic
    regime (``[n_bar] >= 10 |p|``).
    """
    if branch not in ("e", "g"):
        raise ValueError(f"branch must be 'e' or 'g', got {branch!r}")
    p = _checked_int(p, "p")
    sign = +1 if branch == "e" else -1
    n_round = _rounded_index(n_bar)
    if n_round < 10 * abs(p):
        raise ValueError(
            f"[n_bar] >= 10 |p| required for the asymptotic regime, "
            f"got [n_bar]={n_round}, p={p}"
        )
    r0 = _snapped(params.omega0 / params.omega_drive)
    if p < -sign * r0:
        raise ValueError(
            f"p >= {-sign * r0:g} required on branch {branch!r}, got {p}"
        )
    x = params.coupling_abs * math.sqrt(n_round) / params.omega_drive
    factor = max(0.0, sign + p * params.omega_drive / params.omega0)
    return bessel_j(p, x) ** 2 * factor**3


_BESSEL_TABLE_ENTRIES = 1 << 20  # J values semiclassical_mesh tabulates at once


def _semiclassical_gamma_g(x, d, p_min, p_hi) -> np.ndarray:
    """gamma_g of cells with Bessel arguments ``x`` and drive ratios ``d``,
    summed over channels ``p_min .. p_hi`` and then tail blocks of 32."""
    # One recurrence per cell gives every J through the first tail block.
    height = int(p_hi.max(initial=0)) + 33
    table = _bessel_j_orders(np.arange(height)[:, None], x)

    def terms(p, i):
        k = p.astype(np.int64)
        j = table[k, i] if k.max(initial=0) < height else _bessel_j_orders(k, x[i])
        return j**2 * np.maximum(0.0, p * d[i] - 1.0) ** 3

    gamma_g = _ordered_sum(terms, p_min, p_hi)
    # The truncation order already sits past the Bessel turning point;
    # extend in blocks until the remainder is provably negligible.  J_p(0)
    # vanishes for every channel p >= 1, so uncoupled cells are done.
    p_hi = p_hi.copy()
    todo = np.flatnonzero(x > 0.0)
    for _ in range(1000):
        if todo.size == 0:
            break
        p_hi[todo] += 32
        tail = _ordered_sum(lambda p, i: terms(p, todo[i]), p_hi[todo] - 31, p_hi[todo])
        gamma_g[todo] += tail
        todo = todo[~(tail <= 1e-14 * np.maximum(gamma_g[todo], 1.0))]
    for _ in range(todo.size):
        warnings.warn("semiclassical tail did not converge; result truncated")
    return gamma_g


def semiclassical_mesh(n_bar: float, coupling_ratio, drive_ratio):
    """:func:`semiclassical_totals` over broadcast ratio arrays: ``(gamma_e, gamma_g)``."""
    n_round = _rounded_index(n_bar, minimum=1)
    c, d, shape = _cells(coupling_ratio, drive_ratio)
    _check_drive_reach(d)
    x = c * math.sqrt(n_round) / d
    if np.any(x > MAX_BESSEL_ARG):  # before any table is sized from x
        raise ValueError(
            f"x = Omega_a sqrt([n_bar]) / omega_L must be <= {MAX_BESSEL_ARG:g} "
            f"(MAX_BESSEL_ARG), got {float(x.max())!r}"
        )
    p_min = np.ceil(_snapped(1.0 / d))
    p_hi = np.maximum(bessel_truncation_order(x), p_min + 8)
    gamma_g = np.empty(c.size)
    step = max(1, _BESSEL_TABLE_ENTRIES // (int(p_hi.max(initial=0)) + 33))
    for lo in range(0, c.size, step):
        cells = slice(lo, lo + step)
        gamma_g[cells] = _semiclassical_gamma_g(x[cells], d[cells], p_min[cells], p_hi[cells])
    gamma_e = 1.0 + 1.5 * c**2 * n_round + gamma_g
    return gamma_e.reshape(shape), gamma_g.reshape(shape)


def semiclassical_totals(n_bar: float, params: ModelParams) -> SemiclassicalTotals:
    """Closed-form large-index totals for both branches, over gamma0.

    ``gamma_g`` sums the blue-shifted channels ``p >= omega0/omega_drive``;
    ``gamma_e`` follows from the Bessel closure identities as
    ``1 + (3 coupling_abs^2 / (2 omega0^2)) [n_bar] + gamma_g``.
    """
    totals = semiclassical_mesh(n_bar, params.coupling_ratio, params.drive_ratio)
    return SemiclassicalTotals(*map(float, totals))


def gamma0_si(params: Gamma0Params) -> float:
    """Free-space decay rate in 1/s for a dipole in vacuum."""
    return params.omega0**3 * params.dipole**2 / (
        3.0 * REDUCED_PLANCK * VACUUM_PERMITTIVITY * math.pi * SPEED_OF_LIGHT**3
    )
