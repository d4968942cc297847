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

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .ladder import DressedState, TransitionRecord, _photon_frequencies, _snapped
from .ladder import allowed_final_indices, photon_frequency
from .numerics import _bessel_j_orders, _check_bessel_arg, _checked_int, _ln_factorial
from .numerics import bessel_j, bessel_truncation_order  # noqa: F401 (the latter for bench WRAPPED)
from .overlaps import ModelParams, _check_reach, _checked_index, _core_window, _overlap_column
from .overlaps import overlap_log_abs

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


@dataclass(frozen=True, eq=False)
class RateTable:
    """All spontaneous transitions out of one dressed state, as columns: channel ``k``
    goes to ``(final_branch, final_n[k])`` at ``rate_over_gamma0[k]``, emitting
    ``photon_freq[k]`` (omega0 units).  Construction checks every entry finite and
    >= 0 and ``total_over_gamma0`` against their compensated sum, then makes the
    columns read-only."""

    initial: DressedState
    final_n: range
    rate_over_gamma0: np.ndarray
    photon_freq: np.ndarray
    total_over_gamma0: float

    def __post_init__(self):
        for column in (self.rate_over_gamma0, self.photon_freq):
            if not np.all((column >= 0.0) & (column < math.inf)):
                raise ValueError("every rate and photon frequency must be finite and >= 0")
            column.flags.writeable = False
        resummed = math.fsum(self.rate_over_gamma0.tolist())
        if abs(resummed - self.total_over_gamma0) > 1e-14 * max(resummed, 1e-300):
            raise ValueError("total_over_gamma0 does not match the listed partials")

    @property
    def final_branch(self) -> str:
        """The branch every channel lands on."""
        return "g" if self.initial.branch == "e" else "e"

    @functools.cached_property
    def transitions(self) -> tuple[TransitionRecord, ...]:
        """The channels as :class:`TransitionRecord` objects, built on first use."""
        rows = zip(self.final_n, self.rate_over_gamma0.tolist(), self.photon_freq.tolist())
        return tuple(TransitionRecord(self.initial, DressedState(self.final_branch, n), rate, freq)
                     for n, rate, freq in rows)


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
            cleaned[_checked_index(key, "index")] = value
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "weights", cleaned)

    @classmethod
    def delta(cls, n: int) -> "PhotonDistribution":
        return cls({n: 1.0})

    @classmethod
    def poisson(cls, mean: float, cutoff: float = 1e-18) -> "PhotonDistribution":
        """Poisson weights over :func:`_poisson_window`, truncated where terms
        fall below ``cutoff`` of the peak and renormalized."""
        mean = float(mean)
        if not (math.isfinite(mean) and mean >= 0.0):
            raise ValueError(f"mean must be finite and >= 0, got {mean!r}")
        if mean == 0.0:
            return cls.delta(0)
        lo, hi = map(int, _poisson_window(mean))
        _check_reach(hi)
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


# The largest photon frequency (omega0 units) a rate cubes: a cube of 2**1023 at
# most leaves room for an overlap rounded a little above 1.
_MAX_PHOTON_FREQ = 2.0**341


def _check_photon_freq(freq: float) -> None:
    """A rate cubes its photon frequency: refuse one whose cube would pass a
    double's range, before any rate is computed."""
    if not freq <= _MAX_PHOTON_FREQ:
        raise ValueError(f"the photon frequency {freq:.7g} (omega0 units) is past the limit "
                         f"2**341, where its cube leaves a double's range")


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
    _check_photon_freq(freq)
    return _channel_rate(overlap_log_abs(n_prime, from_state.n, params), freq)


def _candidate_final_indices(state: DressedState, params: ModelParams) -> range:
    """The allowed final indices inside :func:`polartls.overlaps._core_window`, the
    support window of the state's overlap column: the next allowed channel past
    either end carries less than 2**-54 of a total (tests/test_rates.py).  Refuses
    a table whose top photon frequency, at its lowest channel, cubes past a double."""
    lo, hi = _core_window(state.n, params.beta)
    top = min(allowed_final_indices(state, params).stop - 1, hi)
    _check_reach(top)
    if 0 <= top < lo:
        # Only a far-detuned lower branch ends below the window, where the column
        # falls off downward: the nearest n - lo allowed channels carry the total.
        lo = max(0, top + 1 - (state.n - lo))
    if lo <= top:
        _check_photon_freq(float(_photon_frequencies(state, lo, params)) / params.omega0)
    return range(lo, top + 1)


def total_rate(from_state: DressedState, params: ModelParams) -> RateTable:
    """Total spontaneous rate out of a dressed state, with its channel table.

    One overlap column and one array of photon frequencies serve every channel,
    and no per-channel object is built; each rate is :func:`partial_rate`'s, bit for bit.
    """
    channels = _candidate_final_indices(from_state, params)
    finals = np.arange(channels.start, channels.stop)
    log_abs, _ = _overlap_column(finals, from_state.n, params.beta)
    freqs = _photon_frequencies(from_state, finals, params) / params.omega0
    # libm exp and a float cube per channel, as partial_rate rounds them
    rates = np.fromiter(map(_channel_rate, log_abs.tolist(), freqs.tolist()), float, len(finals))
    return RateTable(from_state, channels, rates, freqs, math.fsum(rates.tolist()))


# The *_mesh kernels take coupling_abs/omega0 and omega_drive/omega0 arrays
# (omega0 = 1) that broadcast together; each cell equals the scalar function
# on the same ratios bit for bit, whatever the shape of the mesh around it.


def _cells(coupling_ratio, drive_ratio):
    """The broadcast ratios as flat cells, plus the shape to give results in."""
    c, d = np.asarray(coupling_ratio, float), np.asarray(drive_ratio, float)
    if c.shape != d.shape:
        c, d = np.broadcast_arrays(c, d)
    return c.ravel(), d.ravel(), c.shape


_TABLE_TERMS = 1 << 14  # (channel, cell) pairs _ordered_sum holds at once, about 55 B each


def _ordered_sum(terms, first, last) -> np.ndarray:
    """``sum_{k=first}^{last} terms(k, i)`` per cell ``i``, added in increasing k.

    ``terms`` takes matching 1-D arrays of channels and cell indices.  A
    group of cells at a time, the terms fill a channel-by-cell table (zeros
    past ``last`` leave the nonnegative sums unchanged) that
    ``np.add.accumulate`` adds down in place, strictly in order, unlike
    ``np.sum``, whose order depends on the array's shape.  The group's
    index arrays and terms, under 1 MB at ``_TABLE_TERMS``, are all the
    scratch it holds.
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
        total[cells] = np.add.accumulate(table, axis=0, out=table)[-1]
    return total


def _check_drive_reach(drive_ratio) -> None:
    """The closed-form tables run to ladder index ``floor(omega0/omega_L)``
    at each drive ratio, which :func:`_check_reach` checks before any table is sized."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _check_reach(np.floor(_snapped(1.0 / drive_ratio)))


def _poisson_window(lam):
    """``(lo, hi)``, elementwise: forty standard deviations and 20 either side of
    the mean ``lam``, outside which Poisson(lam) weights sum to less than 2**-54."""
    spread = 40.0 * np.sqrt(lam + 1.0)
    return np.maximum(np.floor(lam - spread - 20.0), 0.0), np.ceil(lam + spread + 20.0)


def suppression_e0_mesh(coupling_ratio, drive_ratio) -> np.ndarray:
    """:func:`suppression_rate_e0` over broadcast ratio arrays."""
    c, d, shape = _cells(coupling_ratio, drive_ratio)
    _check_drive_reach(d)
    beta = c / (2.0 * d)
    lam = beta * beta
    # The factor (1 - n d)^3 only falls with n, so the Poisson tail bounds the dropped part.
    n_hi = np.minimum(np.floor(_snapped(1.0 / d)), _poisson_window(lam)[1])
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
    with np.errstate(over="ignore"):
        cube = (d - 1.0) ** 3
    far = cube == np.inf
    cube[far] = 0.0
    value = np.exp(-beta * beta) * beta * beta * cube
    # Past the cube's range beta (d - 1), about c / 2, keeps the product in range.
    b, rise = beta[far], d[far] - 1.0
    value[far] = np.exp(-b * b) * (b * rise) ** 2 * rise
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


_BESSEL_TABLE_ENTRIES = 1 << 17  # J values semiclassical_mesh tabulates at once (1 MiB)


def _semiclassical_gamma_g(x, d, p_min, p_hi) -> np.ndarray:
    """gamma_g of cells with Bessel arguments ``x`` and drive ratios ``d``, summed
    over channels ``p_min .. p_hi`` in increasing p, as :func:`_ordered_sum` adds
    them.  The Bessel table is gathered once from the recurrence, then squared,
    weighted and summed down in place; its zeros before a cell's first channel
    and past its last leave the cell's sum unchanged."""
    p = np.arange(int(p_min.min(initial=0)), int(p_hi.max(initial=0)) + 1)[:, None]
    table = _bessel_j_orders(p, x)
    table *= table
    factor = p * d - 1.0
    np.maximum(0.0, factor, out=factor)
    table *= np.power(factor, 3, out=factor)
    del factor
    table[(p < p_min) | (p > p_hi)] = 0.0
    return np.add.accumulate(table, axis=0, out=table)[-1]


def _semiclassical_args(n_bar: float, coupling_ratio, drive_ratio):
    """``(n_round, x)`` for :func:`semiclassical_mesh`, checked before any table is
    sized: ``n_round = [n_bar] >= 1``, the drive reach (:func:`_check_drive_reach`)
    and ``x = coupling_ratio sqrt(n_round) / drive_ratio`` inside the Bessel bound."""
    n_round = _rounded_index(n_bar, minimum=1)
    _check_drive_reach(drive_ratio)
    x = coupling_ratio * math.sqrt(n_round) / drive_ratio
    _check_bessel_arg(x)
    return n_round, x


def semiclassical_mesh(n_bar: float, coupling_ratio, drive_ratio):
    """:func:`semiclassical_totals` over broadcast ratio arrays: ``(gamma_e, gamma_g)``."""
    c, d, shape = _cells(coupling_ratio, drive_ratio)
    n_round, x = _semiclassical_args(n_bar, c, d)
    p_min = np.ceil(_snapped(1.0 / d))
    # Channels past p_hi leave every sum unchanged.  For p + 1 >= x the continued
    # fraction gives J_{p+1}(x)/J_p(x) <= x / (p + 1 + sqrt((p + 1)^2 - x^2)), at most
    # 2**-1/2 once p + 1 >= 1.0607 x; so with q = p_hi - 76, term q + 1 + j is below
    # 2**-j (1 + j)^3 of term q + 1 (the cubed frequency factor grows at most
    # (1 + j)^3), and past p_hi below 2**-57 of the sum: under half an ulp.
    p_hi = np.maximum(p_min, np.ceil(1.0607 * x)) + 76
    gamma_g = np.empty(c.size)
    step = max(1, _BESSEL_TABLE_ENTRIES // (int(p_hi.max(initial=0)) + 1))
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
    """Free-space decay rate in 1/s for a dipole in vacuum; OverflowError past a double's range."""
    try:
        value = params.omega0**3 * params.dipole**2 / (
            3.0 * REDUCED_PLANCK * VACUUM_PERMITTIVITY * math.pi * SPEED_OF_LIGHT**3
        )
    except OverflowError:  # a power past the range raises, a product past it is inf
        value = math.inf
    if value < math.inf:
        return value
    raise OverflowError(f"the gamma0 result overflows a double at omega0={params.omega0!r} "
                        f"rad/s, dipole={params.dipole!r} C m")
