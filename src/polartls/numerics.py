"""Log-safe scalar kernels shared by every other module.

Pure functions of numpy and the standard library: the rescaled three-term
recurrence behind the overlap column and the associated Laguerre
polynomials (returned as :class:`SignedLog`, log-magnitude plus sign), a
sign-aware log-sum-exp reduction, and the two special functions the rates need:

* ``ln k!`` (:func:`_ln_factorial`), cephes ``lgam`` at integer
  arguments, gathered from one process-wide table;
* integer-order Bessel J (:func:`bessel_j`, :func:`_bessel_j_orders`),
  by Miller's backward recurrence.

Every integer input of the package passes :func:`_checked_int`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedLog",
    "SIGNED_LOG_ZERO",
    "PrecisionLossWarning",
    "bessel_j",
    "bessel_truncation_order",
    "assoc_laguerre",
    "assoc_laguerre_sequence",
]

_NEG_INF = float("-inf")

MAX_BESSEL_ORDER = 10**6
# The Bessel recurrence costs O(x) steps, about 0.1 s for a first call at this bound.
MAX_BESSEL_ARG = 1e4
MAX_LAGUERRE_DEGREE = 10**6
MAX_LADDER_INDEX = 10**6


class PrecisionLossWarning(UserWarning):
    """A recurrence stepped through cancellation deeper than 1e12 dynamic range."""


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as ``(ln|x|, sign)``.

    ``sign`` is +1, -1 or 0; zero is represented as ``(-inf, 0)``.  Any
    finite real round-trips through :meth:`from_float` / :meth:`to_float`
    to within a few ulp.
    """

    log_abs: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.log_abs == _NEG_INF):
            raise ValueError("sign 0 must pair with log_abs=-inf and vice versa")
        if math.isnan(self.log_abs):
            raise ValueError("log_abs may not be NaN")

    @classmethod
    def from_float(cls, x: float) -> "SignedLog":
        x = float(x)
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x!r}")
        if x == 0.0:
            return SIGNED_LOG_ZERO
        return cls(math.log(abs(x)), 1 if x > 0.0 else -1)

    def to_float(self) -> float:
        # Overflows to +-inf when log_abs > ~709.78; callers that care stay
        # in log space instead of converting.
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)


SIGNED_LOG_ZERO = SignedLog(_NEG_INF, 0)


def _checked_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int, checked against ``lo <= value <= hi`` where given.

    Accepts a Python or numpy integer.  Rejects bools and every float, even
    an integral one: a float cannot carry every integer below 2**64.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return value
    bounds = " and".join(f" {op} {b}" for op, b in ((">=", lo), ("<=", hi)) if b is not None)
    raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


# --- ln k! -------------------------------------------------------------------

# cephes lgam: ln sqrt(2 pi) and its Stirling-series coefficients, highest first.
_LN_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
# ln k! for every k asked for so far, up to MAX_LADDER_INDEX.
_ln_factorials = np.array([math.log(math.factorial(k)) for k in range(12)])


def _stirling_ln_factorial(k: np.ndarray) -> np.ndarray:
    """ln k! for integers k >= 12 by cephes' ``lgam(k + 1)``, operation for operation.

    The log is libm's (``math.log``), as in cephes; numpy's vectorized log
    differs from it in the last bit at a few dozen k below 10**6.
    """
    x = (k + 1).astype(float)
    log_x = np.fromiter(map(math.log, x.tolist()), float, x.size)
    q = (x - 0.5) * log_x - x + _LN_SQRT_2PI
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _STIRLING
    near = (((a0 * p + a1) * p + a2) * p + a3) * p + a4
    far = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    return q + np.where(x < 1000.0, near, far) / x


def _ln_factorial(k) -> np.ndarray:
    """ln k! over an array of nonnegative integers, bit for bit ``scipy.special.gammaln(k + 1)``.

    ``log(k!)`` exactly for k <= 11 and cephes' Stirling form above, gathered
    from one process-wide table that grows to the largest k asked for (at
    most MAX_LADDER_INDEX); larger k are computed on each call.
    """
    global _ln_factorials
    k = np.asarray(k)
    table = _ln_factorials
    top = int(k.max(initial=0))
    if top >= table.size and table.size <= MAX_LADDER_INDEX:
        grown = np.arange(table.size, min(top, MAX_LADDER_INDEX) + 1)
        table = _ln_factorials = np.concatenate([table, _stirling_ln_factorial(grown)])
    if top < table.size:
        return table[k]
    out = table[np.minimum(k, table.size - 1)]
    past = k >= table.size
    out[past] = _stirling_ln_factorial(k[past])
    return out


# --- Bessel J -----------------------------------------------------------------

# Below this argument J_p(x) = (x/2)^p / p! to within rounding: the next
# series term is x^2 / (4 (p+1)) < 2**-62 of it.  The recurrence runs above.
_BESSEL_SERIES_X = 2.0**-30
_MILLER_BLOCK = 64  # orders past an argument's shared start share one per block
_MILLER_ENTRIES = 1 << 21  # recurrence-table entries stored at once
_RESCALE = 2.0**500  # recurrences scale their carries by this exact power of two
_LN2 = math.log(2.0)


def bessel_truncation_order(x):
    """Smallest summation cutoff P with a negligible Bessel tail.

    Past the turning point ``p ~ x`` the values J_p(x) die faster than
    exponentially; ``P >= x + 40 x^{1/3} + 20`` keeps every closure-sum
    tail below 1e-14 over the supported argument range.  Elementwise on
    arrays (an integer array back); an int for a scalar.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    order = np.ceil(x + 40.0 * x ** (1.0 / 3.0) + 20.0).astype(np.int64)
    return order if order.ndim else int(order)


def _miller_cover(x):
    """Highest order of the recurrence start that all lower orders share at
    ``x``: the truncation order plus 64, rounded up to a multiple of 64."""
    return _MILLER_BLOCK * -(-(bessel_truncation_order(x) + 64) // _MILLER_BLOCK)


def _miller_columns(x: np.ndarray, start: np.ndarray, top: int) -> np.ndarray:
    """``table[k, j] = J_k(x[j])`` for ``k <= min(top, start[j])`` by Miller's backward recurrence.

    ``start`` must not increase along the arrays, and ``x >= 2**-30``, so
    one step grows a column by less than 2**45.  Each column runs
    ``J_{k-1} = (2k/x) J_k - J_{k+1}`` down from ``J_start = 1`` and
    ``J_{start+1} = 0``, in which the minimal solution J takes over; it is
    scaled by 2**-500 (exactly) whenever it passes 2**500 and normalized at
    the end by ``J_0 + 2 sum_k J_2k = 1`` (Gil, Segura and Temme, *Numerical
    Methods for Special Functions*, ch. 4).  Columns run side by side but
    never mix, so each one's bits depend on its own (x, start) only.  The
    recurrence needs its high start, not the rows it passes on the way down:
    only rows up to ``top`` are stored, and they take the same steps, rescales
    and normalization as in a table of every row, so they hold the same bits.
    """
    height = int(start[0]) + 1
    table = np.zeros((min(top + 1, height), x.size))
    f, f_up, even = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    joins = np.bincount(start, minlength=height)
    live = 0
    for k in range(height - 1, -1, -1):
        if joins[k]:
            f[live : live + joins[k]] = 1.0
            live += joins[k]
        if k <= top:
            table[k, :live] = f[:live]
        if k == 0:
            break
        if k % 2 == 0:
            even[:live] += f[:live]
        np.subtract((2.0 * k) / x[:live] * f[:live], f_up[:live], out=f_up[:live])
        f, f_up = f_up, f  # f holds J_{k-1}, f_up J_k
        if k % 8 == 0:
            big = np.flatnonzero(np.abs(f[:live]) > _RESCALE)
            if big.size:
                for values in (f, f_up, even):
                    values[big] /= _RESCALE
                table[k:, big] /= _RESCALE
    table /= table[0] + 2.0 * even
    return table


def _miller_gather(run_x, run_start, order, run) -> np.ndarray:
    """``J_order`` at ``run_x[run]`` from the recurrence started at
    ``run_start[run]``, over broadcast index arrays ``order`` and ``run``.
    The recurrence tables store no row above the highest order gathered."""
    shape = np.broadcast_shapes(np.shape(order), np.shape(run))
    if run_x.size == 0 or 0 in shape:
        return np.zeros(shape)
    top = int(np.max(order, initial=0))
    by_start = np.argsort(-run_start, kind="stable")
    column = np.empty_like(by_start)
    column[by_start] = np.arange(by_start.size)
    column = column[run]
    x, start = run_x[by_start], run_start[by_start]
    lo = 0
    while lo < x.size:  # at most _MILLER_ENTRIES stored entries at a time
        hi = lo + max(1, _MILLER_ENTRIES // (min(top, int(start[lo])) + 1))
        table = _miller_columns(x[lo:hi], start[lo:hi], top)
        if lo == 0:
            if hi >= x.size:
                return np.asarray(table[order, column])
            values = np.zeros(shape)
        mine = (column >= lo) & (column < hi)
        np.copyto(values, table[np.where(mine, order, 0), np.where(mine, column - lo, 0)], where=mine)
        lo = hi
    return values


def _bessel_j_orders(orders, x) -> np.ndarray:
    """J_p(x) over broadcast integer orders and arguments, with ``J_{-p} = (-1)^p J_p``.

    A value depends on its own (p, x) only, never on the rest of the call,
    so a table, a single value and :func:`bessel_j` agree bit for bit.  All
    orders up to :func:`_miller_cover` at an argument come from one
    recurrence, started ``8 x^{1/3} + 16`` orders above the cover; higher
    orders start as far above their own block of 64.  Orders where
    ``(x/2)^p / p!``, a bound on ``|J_p(x)|``, is below 2**-1080 by
    Stirling's bound on p! are exactly 0, and below ``x = 2**-30`` that
    bound is the value.  Cost: about ``x + 48 x^{1/3} + 100`` recurrence
    steps, vectorized over the distinct arguments.
    """
    orders = np.asarray(orders)
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= MAX_BESSEL_ARG)):
        raise ValueError(f"Bessel J needs 0 <= x <= {MAX_BESSEL_ARG:g} (MAX_BESSEL_ARG)")
    ux, xi = np.unique(x, return_inverse=True)
    xi = xi.reshape(x.shape)
    p = np.abs(orders).astype(np.int64)
    cover = _miller_cover(ux)
    margin = np.ceil(8.0 * ux ** (1.0 / 3.0)).astype(np.int64) + 16

    # Orders up to the cover gather from one recurrence per argument.
    shared = (p <= cover[xi]) & (ux >= _BESSEL_SERIES_X)[xi]
    if shared.all():
        values = _miller_gather(ux, cover + margin, p, xi)
    else:
        xb = np.broadcast_to(xi, shared.shape)
        needed = np.bincount(xb[shared], minlength=ux.size) > 0
        run = np.cumsum(needed) - 1  # an argument's run; cells off it are masked below
        starts = (cover + margin)[needed]
        values = _miller_gather(ux[needed], starts, np.where(shared, p, 0), run[xi])
        values = np.where(shared, values, 0.0)

        alone = np.flatnonzero(~shared)
        q, qi = np.broadcast_to(p, shared.shape).flat[alone], xb.flat[alone]
        xq = ux[qi]
        with np.errstate(divide="ignore", invalid="ignore"):
            zero = q * np.log(np.e * xq / (2.0 * q)) - 0.5 * np.log(2.0 * np.pi * q) < -750.0
        tiny = (xq < _BESSEL_SERIES_X) & ~zero
        values.flat[alone[tiny]] = np.power(xq[tiny] / 2.0, q[tiny]) / np.exp(_ln_factorial(q[tiny]))
        own = (xq >= _BESSEL_SERIES_X) & ~zero
        # one recurrence per argument and block of 64 orders past the cover
        blocks, run = np.unique(
            np.stack([qi[own], -(-q[own] // _MILLER_BLOCK)]), axis=1, return_inverse=True
        )
        starts = _MILLER_BLOCK * blocks[1] + margin[blocks[0]]
        values.flat[alone[own]] = _miller_gather(ux[blocks[0]], starts, q[own], run.ravel())
    np.negative(values, out=values, where=(orders < 0) & (orders % 2 != 0))
    return values


@functools.lru_cache(maxsize=32)
def _bessel_column(x: float) -> np.ndarray:
    """J_0(x) .. J_c(x) up to the cover order c, for :func:`bessel_j`.  At
    most 32 columns of at most 11k values (at MAX_BESSEL_ARG) are kept."""
    column = _bessel_j_orders(np.arange(int(_miller_cover(x)) + 1), x)
    column.flags.writeable = False  # shared by every caller
    return column


def bessel_j(p: int, x: float) -> float:
    """Bessel function of the first kind at integer order ``p``.

    Negative orders are folded through ``J_{-p}(x) = (-1)^p J_p(x)``
    before evaluation, so the parity identity holds bit-exactly.  The
    value equals :func:`_bessel_j_orders` at ``(p, x)`` bit for bit; orders
    up to the cover come from a column cached per x, so only the first
    call at an argument runs the recurrence (about 2 ms at x = 30 and
    0.1 s at MAX_BESSEL_ARG).
    """
    p = _checked_int(p, "p", -MAX_BESSEL_ORDER, MAX_BESSEL_ORDER)
    x = float(x)
    if not 0.0 <= x <= MAX_BESSEL_ARG:
        raise ValueError(f"0 <= x <= {MAX_BESSEL_ARG:g} (MAX_BESSEL_ARG) required, got {x!r}")
    column = _bessel_column(x)
    q = abs(p)
    value = float(column[q]) if q < column.size else float(_bessel_j_orders(q, x))
    if p < 0 and p % 2:
        value = -value
    return value


def _recurrence(p, q, r, seed: float = 1.0):
    """``(frac, exp)`` arrays of ``f_i = frac_i 2**exp_i``, i = 0 .. len(p), for
    ``f_{i+1} = (p_i f_i - q_i f_{i-1}) / r_i`` from ``f_{-1} = 0``, ``f_0 = seed``.

    The carries are scaled by 2**-500 when the larger passes 2**500 and by
    2**500 below 2**-500, exactly and counted in integer exponents, so no
    run overflows and no rounding enters the scale.
    """
    values, down, up = np.full(len(p) + 1, seed), [], []
    prev, curr = 0.0, seed
    for lo in range(0, len(p), 1 << 16):  # coefficients as floats a block at a time
        block, part = [], slice(lo, lo + (1 << 16))
        for a, b, c in zip(p[part].tolist(), q[part].tolist(), r[part].tolist()):
            prev, curr = curr, (a * curr - b * prev) / c
            mag = max(abs(prev), abs(curr))
            if mag > _RESCALE:
                prev, curr = prev / _RESCALE, curr / _RESCALE
                down.append(lo + len(block) + 1)
            elif 0.0 < mag < 1.0 / _RESCALE:
                prev, curr = prev * _RESCALE, curr * _RESCALE
                up.append(lo + len(block) + 1)
            block.append(curr)
        values[lo + 1 : lo + 1 + len(block)] = block
    frac, exp = np.frexp(values)
    exp += 500 * np.cumsum(np.bincount(down, minlength=exp.size) - np.bincount(up, minlength=exp.size))
    return frac, exp


def _laguerre_scan(n_max, a, x, name: str):
    """``(ln|L_k|, sign L_k)`` arrays over k = 0 .. n_max of ``L_k = L_k^{(a)}(x)``.

    Runs ``(k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}`` through
    :func:`_recurrence`, so degrees up to 10^6 never overflow.  Warns
    PrecisionLossWarning when a step cancels to below 1e-12 of its larger
    term.
    """
    n_max = _checked_int(n_max, name, 0, MAX_LAGUERRE_DEGREE)
    a, x = float(a), float(x)
    if x < 0.0:
        raise ValueError(f"x >= 0 required, got {x!r}")
    k = np.arange(n_max, dtype=float)
    p, q = 2.0 * k + 1.0 + a - x, k + a
    frac, exp = _recurrence(p, q, k + 1.0)
    if n_max:
        # each step's result against the larger of its two terms, at the result's scale
        term = np.abs(p * frac[:-1]) * np.exp2(exp[:-1] - exp[1:])
        term[1:] = np.maximum(term[1:], np.abs(q[1:] * frac[:-2]) * np.exp2(exp[:-2] - exp[2:]))
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.min(np.abs(frac[1:]) * (k + 1.0) / term, initial=math.inf, where=term > 0.0)
        if worst < 1e-12:
            warnings.warn(
                f"Laguerre recurrence passed through cancellation of "
                f"{worst:.2e} relative magnitude (degree {n_max}, a={a}, x={x})",
                PrecisionLossWarning,
                stacklevel=3,
            )
    with np.errstate(divide="ignore"):
        return np.log(np.abs(frac)) + exp * _LN2, np.sign(frac).astype(np.int8)


def assoc_laguerre(n: int, a: float, x: float) -> SignedLog:
    """Associated Laguerre polynomial L_n^{(a)}(x) as a SignedLog.

    Evaluated by the three-term recurrence with running renormalization;
    overflow is impossible by representation.  At ``x = 0`` the value
    reduces to ``Gamma(n+a+1) / (n! Gamma(a+1))``.
    """
    logs, signs = _laguerre_scan(n, a, x, "n")
    return SignedLog(float(logs[-1]), int(signs[-1])) if signs[-1] else SIGNED_LOG_ZERO


def assoc_laguerre_sequence(n_max: int, a: float, x: float):
    """All of L_0^{(a)}(x) .. L_{n_max}^{(a)}(x) in one recurrence pass.

    Returns ``(log_abs, sign)`` numpy arrays of length ``n_max + 1``.
    One pass per diagonal is what makes the displacement-matrix oracle
    O(dim^2) instead of O(dim^3).
    """
    return _laguerre_scan(n_max, a, x, "n_max")


def _signed_log_sum_arrays(log_abs: np.ndarray, signs: np.ndarray):
    """Sum of the terms ``signs * exp(log_abs)`` by the max-shift technique.

    The largest log is factored out and the shifted terms are summed as
    separate positive and negative parts.  Returns ``(SignedLog, ratio)``
    with ratio = |sum| / max|term|: 0.0 when the terms cancel exactly, 1.0
    when there are no nonzero terms.  No warning is emitted here; callers
    use the ratio to choose an evaluation route.
    """
    live = signs != 0
    if not np.any(live):
        return SIGNED_LOG_ZERO, 1.0
    log_abs = log_abs[live]
    signs = signs[live]
    shift = float(log_abs.max())
    shifted = np.exp(log_abs - shift)
    positive = float(shifted[signs > 0].sum())
    negative = float(shifted[signs < 0].sum())
    combined = positive - negative
    if combined == 0.0:
        return SIGNED_LOG_ZERO, 0.0
    value = SignedLog(shift + math.log(abs(combined)), 1 if combined > 0.0 else -1)
    return value, abs(combined)
