"""Log-safe scalar kernels shared by every other module.

Everything factorial-sized in this package runs through the
:class:`SignedLog` representation (natural log of the magnitude plus a
sign), so quantities like ``170!`` or ``beta**(2n)`` never overflow a
double.  The kernels here are pure functions: integer-order Bessel J,
associated Laguerre polynomials evaluated by a rescaled three-term
recurrence, and a sign-aware log-sum-exp reduction.  Every integer
input of the package passes :func:`_checked_int`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

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
MAX_BESSEL_ARG = 1e6
MAX_LAGUERRE_DEGREE = 10**6


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


def bessel_j(p: int, x: float) -> float:
    """Bessel function of the first kind at integer order ``p``.

    Negative orders are folded through ``J_{-p}(x) = (-1)^p J_p(x)``
    before evaluation, so the parity identity holds bit-exactly.
    """
    p = _checked_int(p, "p", -MAX_BESSEL_ORDER, MAX_BESSEL_ORDER)
    x = float(x)
    if not 0.0 <= x <= MAX_BESSEL_ARG:
        raise ValueError(f"0 <= x <= {MAX_BESSEL_ARG:g} required, got {x!r}")
    value = float(_special.jv(abs(p), x))
    if p < 0 and p % 2:
        value = -value
    return value


def _bessel_j_orders(orders: np.ndarray, x: float) -> np.ndarray:
    """Vectorized J_p(x) over an integer-order array, with parity folding."""
    orders = np.asarray(orders)
    values = _special.jv(np.abs(orders), x)
    odd_negative = (orders < 0) & (orders % 2 != 0)
    return np.where(odd_negative, -values, values)


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


def _laguerre_scan(n_max: int, a: float, x: float, keep_all: bool):
    """Shared rescaled-float engine behind the Laguerre evaluations.

    Runs ``(k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}`` with both
    carries renormalized against a shared log offset, so degrees up to
    10^6 never overflow.  Returns either the final ``(log_abs, sign)``
    pair or, with ``keep_all``, arrays over every degree 0..n_max.
    """
    if keep_all:
        logs = np.empty(n_max + 1)
        signs = np.empty(n_max + 1, dtype=np.int8)

    def record(k, value, offset):
        if value == 0.0:
            logs[k] = _NEG_INF
            signs[k] = 0
        else:
            logs[k] = offset + math.log(abs(value))
            signs[k] = 1 if value > 0.0 else -1

    offset = 0.0
    prev = 1.0  # L_0
    if keep_all:
        record(0, prev, offset)
    if n_max == 0:
        if keep_all:
            return logs, signs
        return (0.0, 1)

    curr = 1.0 + a - x  # L_1
    if keep_all:
        record(1, curr, offset)

    worst_ratio = math.inf
    for k in range(1, n_max):
        t1 = (2.0 * k + 1.0 + a - x) * curr
        t2 = (k + a) * prev
        nxt = (t1 - t2) / (k + 1.0)
        scale = max(abs(t1), abs(t2))
        if scale > 0.0:
            ratio = abs(nxt) * (k + 1.0) / scale
            if ratio < worst_ratio:
                worst_ratio = ratio
        prev, curr = curr, nxt
        mag = max(abs(prev), abs(curr))
        if mag > 1e250 or (0.0 < mag < 1e-250):
            shift = math.log(mag)
            offset += shift
            rescale = math.exp(-shift)
            prev *= rescale
            curr *= rescale
        if keep_all:
            record(k + 1, curr, offset)

    if worst_ratio < 1e-12:
        warnings.warn(
            f"Laguerre recurrence passed through cancellation of "
            f"{worst_ratio:.2e} relative magnitude (degree {n_max}, a={a}, x={x})",
            PrecisionLossWarning,
            stacklevel=3,
        )
    if keep_all:
        return logs, signs
    if curr == 0.0:
        return (_NEG_INF, 0)
    return (offset + math.log(abs(curr)), 1 if curr > 0.0 else -1)


def assoc_laguerre(n: int, a: float, x: float) -> SignedLog:
    """Associated Laguerre polynomial L_n^{(a)}(x) as a SignedLog.

    Evaluated by the three-term recurrence with running renormalization;
    overflow is impossible by representation.  At ``x = 0`` the value
    reduces to ``Gamma(n+a+1) / (n! Gamma(a+1))``.
    """
    n = _checked_int(n, "n", 0, MAX_LAGUERRE_DEGREE)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"x >= 0 required, got {x!r}")
    log_abs, sign = _laguerre_scan(n, float(a), x, keep_all=False)
    if sign == 0:
        return SIGNED_LOG_ZERO
    return SignedLog(log_abs, sign)


def assoc_laguerre_sequence(n_max: int, a: float, x: float):
    """All of L_0^{(a)}(x) .. L_{n_max}^{(a)}(x) in one recurrence pass.

    Returns ``(log_abs, sign)`` numpy arrays of length ``n_max + 1``.
    One pass per diagonal is what makes the displacement-matrix oracle
    O(dim^2) instead of O(dim^3).
    """
    n_max = _checked_int(n_max, "n_max", 0, MAX_LAGUERRE_DEGREE)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"x >= 0 required, got {x!r}")
    return _laguerre_scan(n_max, float(a), x, keep_all=True)


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
