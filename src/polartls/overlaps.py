"""Overlaps between number states of two oppositely displaced oscillator ladders.

A longitudinally coupled two-level emitter dresses the field into two
harmonic ladders whose number states are displaced by ``+alpha0`` and
``-alpha0`` in phase space, with ``2|alpha0| = beta = coupling_abs /
(2 omega_drive)``.  Emission and absorption rates are controlled by the
cross-ladder overlaps computed here.

Three evaluation regimes are exposed:

* :func:`overlap_exact` - the exact overlap, read from one column of the
  displacement matrix that a two-sided Miller recurrence computes in
  O(window) and normalizes by the column norm (:func:`_overlap_column`,
  the one kernel behind every exact overlap and rate).
* :func:`overlap_log_abs` - log-magnitude only, finite far beyond the
  point (index ~170) where factorial prefactors leave double range.
* :func:`overlap_bessel` - the large-index asymptotic form ``J_p(x)``
  with ``x = coupling_abs * sqrt(n) / omega_drive``.

:func:`displacement_matrix_oracle` builds the full displacement-operator
matrix in a truncated number basis by an independent closed form; the
test suite uses it as the ground truth for signs, phases and magnitudes.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import MAX_LADDER_INDEX, PrecisionLossWarning, _LN2, _check_bessel_arg, _checked_int
from .numerics import _ln_factorial, _recurrence, assoc_laguerre_sequence, bessel_j
from .numerics import _signed_log_sum_arrays, assoc_laguerre  # noqa: F401 (for bench WRAPPED)

__all__ = [
    "ModelParams",
    "OverlapValue",
    "overlap_exact",
    "overlap_log_abs",
    "overlap_bessel",
    "displacement_matrix_oracle",
]

_NEG_INF = float("-inf")

# Below this beta every overlap is its leading series term to within rounding.
_TINY_BETA = 2.0**-40
# The two legs of a column overlap on at most 2 _JOIN + 1 entries, matched by least squares.
_JOIN = 8
# Longest column computed (0.6 s, 180 MB); beta past about 1400 at n = 0, 460 at n = 1e6.
_MAX_COLUMN = 1 << 21
# The pair API reads the same short columns again and again (criteria 1-3 build each
# one 40-200 times); 256 columns of fewer entries than this are kept, 16 MB at most.
# Of the longer ones only the most recent is kept, for a caller reading a far
# off-window block one index at a time.
_CACHED_COLUMN = 1 << 12


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and longitudinal coupling of the driven emitter.

    Parameters
    ----------
    omega0 : float
        Bare transition frequency of the emitter (any consistent units).
    omega_drive : float
        Frequency of the longitudinal drive mode, same units.
    coupling_abs : float
        Magnitude of the longitudinal coupling amplitude, same units.
    coupling_phase : float, optional
        Phase of the coupling amplitude in radians.
    """

    omega0: float
    omega_drive: float
    coupling_abs: float
    coupling_phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0!r}")
        if not (math.isfinite(self.omega_drive) and self.omega_drive > 0.0):
            raise ValueError(
                f"omega_drive must be finite and > 0, got {self.omega_drive!r}"
            )
        if not (math.isfinite(self.coupling_abs) and self.coupling_abs >= 0.0):
            raise ValueError(
                f"coupling_abs must be finite and >= 0, got {self.coupling_abs!r}"
            )
        if not math.isfinite(self.coupling_phase):
            raise ValueError("coupling_phase must be finite")

    @classmethod
    def from_ratios(
        cls,
        coupling_ratio: float,
        drive_ratio: float,
        phase: float = 0.0,
        omega0: float = 1.0,
    ) -> "ModelParams":
        """Build params from the dimensionless ratios used throughout the CLI.

        ``coupling_ratio = coupling_abs / omega0`` and
        ``drive_ratio = omega_drive / omega0``.
        """
        return cls(
            omega0=omega0,
            omega_drive=drive_ratio * omega0,
            coupling_abs=coupling_ratio * omega0,
            coupling_phase=phase,
        )

    @property
    def beta(self) -> float:
        """Dimensionless ladder separation |coupling| / (2 omega_drive)."""
        return self.coupling_abs / (2.0 * self.omega_drive)

    @property
    def displacement(self) -> complex:
        """Complex per-ladder displacement, magnitude beta/2."""
        return (
            self.coupling_abs
            * cmath.exp(1j * self.coupling_phase)
            / (4.0 * self.omega_drive)
        )

    @property
    def drive_ratio(self) -> float:
        return self.omega_drive / self.omega0

    @property
    def coupling_ratio(self) -> float:
        return self.coupling_abs / self.omega0


@dataclass(frozen=True)
class OverlapValue:
    """A complex overlap stored as ``(ln|value|, phase)``.

    Sign factors are folded into the phase, which is canonicalized to
    (-pi, pi].  Zero is ``(-inf, 0.0)``.
    """

    log_abs: float
    phase: float

    def __post_init__(self):
        if math.isnan(self.log_abs):
            raise ValueError("log_abs may not be NaN")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        canonical = math.remainder(self.phase, math.tau)
        if canonical == -math.pi:
            canonical = math.pi
        if self.log_abs == _NEG_INF:
            canonical = 0.0
        object.__setattr__(self, "phase", canonical)

    @property
    def is_zero(self) -> bool:
        return self.log_abs == _NEG_INF

    @property
    def magnitude(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.log_abs)

    @property
    def abs_squared(self) -> float:
        return 0.0 if self.is_zero else math.exp(2.0 * self.log_abs)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return cmath.rect(math.exp(self.log_abs), self.phase)


_OVERLAP_ZERO = OverlapValue(_NEG_INF, 0.0)
_OVERLAP_ONE = OverlapValue(0.0, 0.0)


def _checked_index(value, name: str) -> int:
    return _checked_int(value, name, 0, MAX_LADDER_INDEX)


def _check_reach(index) -> None:
    """Refuse a computed ladder index (a number or an array, nan included) past
    MAX_LADDER_INDEX, before anything is sized from it; the one check of that
    limit for indices the package derives.  Given indices pass :func:`_checked_index`."""
    past = ~(np.asarray(index, dtype=float) <= MAX_LADDER_INDEX)
    if past.any():
        # seven significant digits print every index just past the limit exactly
        raise ValueError(f"the computed ladder index {float(np.extract(past, index)[0]):.7g} is past "
                         f"the limit {MAX_LADDER_INDEX} (MAX_LADDER_INDEX)")


def _checked_sign(value, name: str) -> int:
    if value in (+1, -1):
        return int(value)
    raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def _leg_start(edge: int, step: int, n: int, beta: float) -> int:
    """Where a leg starts (``step`` -1: below ``edge``, +1: above) to be exact at
    ``edge``, which must lie outside the oscillatory band.

    There the recurrence's characteristic roots are real, r+ > r-, and
    ``ln(r+/r-)`` only grows away from the band, so 42 / ln(r+/r-) at the
    edge steps leave the unwanted solution at most e^-42 of the column by
    the edge.  A leg below that reaches m = 0 starts there, where it is exact.
    """
    if edge == 0:
        return 0
    c = abs((edge - n) + beta * beta) / (2.0 * beta * math.sqrt(math.sqrt(edge * (edge + 1.0))))
    return max(0, edge + step * (math.ceil(21.0 / math.acosh(c)) + 1))


def _column(n: int, beta: float, lo: int, hi: int):
    """``(frac, exp)`` of the column of ket ``n``, ``g = frac 2**exp``, over ``lo .. hi``.

    ``beta sqrt(m+1) g[m+1] = (m - n + beta^2) g[m] - beta sqrt(m) g[m-1]`` runs
    forward from below the lower turning point ``(sqrt n - beta)^2`` and
    backward (Miller) from above the upper one ``(sqrt n + beta)^2``, each in
    its stable direction.  The legs are matched by least squares on up to 17
    entries around ``m = n + beta^2``, inside the oscillatory band; the
    column is normalized to ``sum g^2 = 1`` (a column of a unitary matrix)
    and signed by ``g[m] ~ (-1)^m`` below the band.  No factorial enters.
    """

    def leg(first, last, seed):  # increasing index order, from seed at first and 0 before it
        step = 1 if last >= first else -1
        m = np.arange(first, last, step)
        p = (m - n) / beta + beta  # beta^2 rounded once would bias every step alike
        q, r = np.sqrt(m + (step < 0)), np.sqrt(m + (step > 0))  # weights one step behind, ahead
        frac, exp = _recurrence(p, q, r, seed)
        return (frac, exp) if step > 0 else (frac[::-1], exp[::-1])

    first, last = _leg_start(lo, -1, n, beta), _leg_start(hi, +1, n, beta)
    half = min(_JOIN, int(beta * math.sqrt(n)))  # a quarter of the band's width at most
    join = min(max(round(n + beta * beta), first + half), last - half)
    up_frac, up_exp = leg(first, join + half, -1.0 if first % 2 else 1.0)
    down_frac, down_exp = leg(last, join - half, 1.0)
    zone = 2 * half + 1
    a, a_exp, b, b_exp = up_frac[-zone:], up_exp[-zone:], down_frac[:zone], down_exp[:zone]
    top_a, top_b = a_exp[a != 0].max(), b_exp[b != 0].max()
    a, b = np.ldexp(a, a_exp - top_a), np.ldexp(b, b_exp - top_b)
    c_frac, c_exp = np.frexp(np.dot(a, b) / np.dot(b, b))  # least squares: c down ~ up
    frac = np.concatenate([up_frac[: up_frac.size - half], c_frac * down_frac[half + 1 :]])
    exp = np.concatenate([up_exp[: up_exp.size - half], c_exp + top_a - top_b + down_exp[half + 1 :]])
    exp -= exp[frac != 0].max()
    frac, scale = np.frexp(frac / math.sqrt(float(np.sum(np.ldexp(frac, exp) ** 2))))
    return frac[lo - first : hi - first + 1], (exp + scale)[lo - first : hi - first + 1]


_cached_column = functools.lru_cache(maxsize=256)(_column)


@functools.lru_cache(maxsize=1)
def _last_long_column(n: int, beta: float, lo: int, hi: int):
    """The most recent column of ``_CACHED_COLUMN`` entries or more, built by ``_column``."""
    return _column(n, beta, lo, hi)


def _core_window(n: int, beta: float) -> tuple[int, int]:
    """``(lo, hi)``: where the column of ket ``n`` has support, ``x + 40 x^{1/3} + 60``
    below ``n`` (``x = 2 beta sqrt(n)``) and that plus ``beta^2 + 40 beta`` above, at
    least ``40 x^{1/3} + 60`` past either turning point ``(sqrt n -+ beta)^2``.  Every
    rate table lists the allowed channels inside this window."""
    x = 2.0 * beta * math.sqrt(n)
    below = math.ceil(x + 40.0 * x ** (1.0 / 3.0) + 60.0)
    return max(0, n - below), n + below + math.ceil(beta * beta + 40.0 * beta)


def _column_blocks(ells: np.ndarray, n: int, beta: float):
    """``(first, last)`` per index of ``ells``: the block of the column of ket ``n``
    that :func:`_overlap_column` computes to read it, the window stretched on the
    index's side by ``2**k - 1`` widths for the least ``k`` that reaches it (cut at 0),
    so reading every index up to a distance d costs O(d).  Refuses _MAX_COLUMN entries."""
    if not beta * beta <= _MAX_COLUMN:  # the window is wider; refused before its ints pass int64
        raise ValueError(f"the overlap column of ket {n} at beta={beta:g} spans more than beta**2 = "
                         f"{beta * beta:.7g} entries, past the limit {_MAX_COLUMN}")
    lo, hi = _core_window(n, beta)
    width = hi - lo + 1
    widths = np.maximum(0, -(-np.maximum(lo - ells, ells - hi) // width))  # whole widths off
    stretch = ((1 << np.frexp(widths)[1].astype(np.int64)) - 1) * width  # frexp: 2**k > widths
    first = np.where(ells < lo, np.maximum(0, lo - stretch), lo)
    last = np.where(ells > hi, hi + stretch, hi)
    span = int((last - first).max(initial=0)) + 1
    if span > _MAX_COLUMN:
        raise ValueError(f"the overlap column of ket {n} at beta={beta:g} spans {span} entries, "
                         f"past the limit {_MAX_COLUMN}")
    return first, last


def _overlap_column(ells, n: int, beta: float):
    """``(ln|g|, sign g)`` at the indices ``ells`` of the column of ket ``n``: the
    one kernel behind every exact overlap and rate.

    ``g[m] = e^{-beta^2/2} sqrt(m! n!) sum_k (-1)^k beta^{m+n-2k} / (k! (m-k)! (n-k)!)``
    is the overlap without its parity and phase factors.  A value depends on
    (ell, n, beta) only; swapped indices read different columns, so they
    agree to rounding only.

    *Accuracy.*  For n up to 10**6 and beta from 1e-3 to 30, within 1e-12
    relative of extended precision where ``|g|`` is at least 1e-3 of the
    column's maximum, else within 1e-13 of the larger neighbour.  Below
    ``beta = 2**-40`` a value is its leading series term
    ``(-1)^min(m,n) beta^|m-n| sqrt(max!/min!) / |m-n|!``, off by less than
    1e-18 relative; beta = 0 gives the exact Kronecker delta.

    *Cost.*  About 1 us an entry, 0.15-1 ms for a window of 130-3000; an index off the
    window reads the block :func:`_column_blocks` gives (0.3 s for 0 at n = 10**6).
    """
    ells = np.asarray(ells, dtype=np.int64)
    if beta < _TINY_BETA:
        low, high = np.minimum(ells, n), np.maximum(ells, n)
        d = high - low
        with np.errstate(divide="ignore", invalid="ignore"):
            log_abs = np.where(d == 0, 0.0, d * np.log(beta)) - _ln_factorial(d)
        log_abs += 0.5 * (_ln_factorial(high) - _ln_factorial(low))
        return log_abs, np.where(log_abs == _NEG_INF, 0, 1 - 2 * (low % 2)).astype(np.int8)
    first, last = _column_blocks(ells, n, beta)
    frac, exp = np.empty(ells.shape), np.empty(ells.shape, np.int64)
    for start, stop in sorted(set(zip(first.tolist(), last.tolist()))):
        pick = (first == start) & (last == stop)
        column = _cached_column if stop - start < _CACHED_COLUMN else _last_long_column
        col_frac, col_exp = column(n, beta, start, stop)
        frac[pick], exp[pick] = col_frac[ells[pick] - start], col_exp[ells[pick] - start]
    with np.errstate(divide="ignore"):
        return np.log(np.abs(frac)) + exp * _LN2, np.sign(frac).astype(np.int8)


def overlap_exact(
    ell: int,
    n: int,
    params: ModelParams,
    bra_sign: int = +1,
    ket_sign: int | None = None,
) -> OverlapValue:
    """Overlap of number state ``ell`` on one ladder with ``n`` on the other.

    ``bra_sign`` selects the ladder of the bra state; the ket defaults to
    the opposite ladder.  When both signs are passed equal, the states
    belong to the same orthonormal ladder and the result is exactly the
    Kronecker delta.

    The returned value carries the ladder-parity sign prefactor and the
    coupling-phase factor ``exp(i (ell - n) coupling_phase)`` folded into
    its phase.
    """
    ell = _checked_index(ell, "ell")
    n = _checked_index(n, "n")
    bra_sign = _checked_sign(bra_sign, "bra_sign")
    ket = -bra_sign if ket_sign is None else _checked_sign(ket_sign, "ket_sign")
    if ket == bra_sign:
        return _OVERLAP_ONE if ell == n else _OVERLAP_ZERO

    log_abs, sign = _overlap_column([ell], n, params.beta)
    if sign[0] == 0:
        return _OVERLAP_ZERO
    phase = (ell - n) * params.coupling_phase
    # Parity prefactor: (+1)^ell (-1)^n for a plus-ladder bra and
    # (-1)^ell (+1)^n for a minus-ladder bra.
    parity_index = n if bra_sign > 0 else ell
    if parity_index % 2:
        phase += math.pi
    if sign[0] < 0:
        phase += math.pi
    return OverlapValue(float(log_abs[0]), phase)


def overlap_log_abs(ell: int, n: int, params: ModelParams) -> float:
    """ln of the cross-ladder overlap magnitude.

    Stays finite (or -inf for a true zero) for indices up to 10^6, far
    beyond where factorial prefactors overflow a double.  The magnitude
    is the same whichever ladder the bra is on.
    """
    ell = _checked_index(ell, "ell")
    n = _checked_index(n, "n")
    return float(_overlap_column([ell], n, params.beta)[0][0])


def _asymptotic_args(n, p, params: ModelParams) -> tuple[int, int, float]:
    """``(n, p, x)`` for :func:`overlap_bessel`, checked before anything is
    computed: ``n >= 1``, ``|p| <= n/10``, both kets ``n`` and ``n - p`` ladder
    indices, and ``x = coupling_abs * sqrt(n) / omega_drive`` inside the Bessel bound."""
    n = _checked_index(n, "n")
    p = _checked_int(p, "p")
    if n < 1 or abs(p) > n / 10:
        raise ValueError(f"the asymptotic overlap needs n >= 1 and |p| <= n/10, got n={n}, p={p}")
    _checked_index(n - p, "n - p")
    x = params.coupling_abs * math.sqrt(n) / params.omega_drive
    _check_bessel_arg(x)
    return n, p, x


def overlap_bessel(
    n: int, p: int, params: ModelParams, bra_sign: int = +1
) -> OverlapValue:
    """Large-index asymptotic overlap between states ``n`` and ``n - p``.

    Valid for ``|p|`` much smaller than ``n`` (enforced as |p| <= n/10);
    the magnitude is ``|J_p(x)|`` with
    ``x = coupling_abs * sqrt(n) / omega_drive``.
    """
    n, p, x = _asymptotic_args(n, p, params)
    bra_sign = _checked_sign(bra_sign, "bra_sign")
    value = bessel_j(p, x)
    if value == 0.0:
        return _OVERLAP_ZERO
    phase = p * params.coupling_phase
    if bra_sign < 0 and p % 2:
        phase += math.pi
    if value < 0.0:
        phase += math.pi
    return OverlapValue(math.log(abs(value)), phase)


def displacement_matrix_oracle(alpha: complex, dim: int):
    """Displacement-operator matrix ``<m|D(alpha)|n>`` in a truncated basis.

    Built column-diagonal by column-diagonal from the closed form
    ``sqrt(n!/m!) alpha^{m-n} e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2)``
    for ``m >= n`` and the conjugate-symmetry relation above the
    diagonal.  Each entry is exact up to rounding regardless of ``dim``;
    truncation only shows up in column norms.

    Returns ``(matrix, deficit)`` where ``deficit`` is the worst
    ``|1 - column norm^2|`` over the columns whose displaced support
    provably fits inside the basis (columns ``n`` with
    ``n + |alpha|^2 + 8 sqrt(|alpha|^2 (2n+1)) + 30 <= dim``).

    Raises
    ------
    ValueError
        If preconditions fail or no column can be certified.
    ArithmeticError
        If the certified deficit exceeds 1e-8.
    """
    dim = _checked_int(dim, "dim", 1, 2000)
    alpha = complex(alpha)
    abs_sq = abs(alpha) ** 2
    if abs_sq > dim / 4.0:
        raise ValueError(
            f"|alpha|^2 <= dim/4 required for truncation safety, "
            f"got |alpha|^2={abs_sq:g}, dim={dim}"
        )
    if alpha == 0:
        return np.eye(dim, dtype=complex), 0.0

    matrix = np.zeros((dim, dim), dtype=complex)
    log_alpha_abs = math.log(abs(alpha))
    unit = alpha / abs(alpha)
    lg = _ln_factorial(np.arange(dim))

    with warnings.catch_warnings():
        # Near-root Laguerre entries trigger relative-precision warnings;
        # their absolute size is negligible for the matrix, so silence them.
        warnings.simplefilter("ignore", PrecisionLossWarning)
        for d in range(dim):
            length = dim - d
            cols = np.arange(length)
            lag_logs, lag_signs = assoc_laguerre_sequence(length - 1, float(d), abs_sq)
            log_mag = (
                0.5 * (lg[cols] - lg[cols + d])
                + d * log_alpha_abs
                - 0.5 * abs_sq
                + lag_logs
            )
            entries = lag_signs * np.exp(log_mag) * unit**d
            matrix[cols + d, cols] = entries
            if d:
                matrix[cols, cols + d] = (-1) ** d * np.conj(entries)

    norms_sq = np.einsum("ij,ij->j", np.abs(matrix), np.abs(matrix))
    cols = np.arange(dim)
    certified = cols + abs_sq + 8.0 * np.sqrt(abs_sq * (2 * cols + 1)) + 30.0 <= dim
    if not np.any(certified):
        raise ValueError(
            f"dim={dim} too small to certify truncation for |alpha|={abs(alpha):g}"
        )
    deficit = float(np.max(np.abs(1.0 - norms_sq[certified])))
    if deficit > 1e-8:
        raise ArithmeticError(
            f"certified column-norm deficit {deficit:.3e} exceeds 1e-8; "
            f"increase dim for |alpha|={abs(alpha):g}"
        )
    return matrix, deficit
