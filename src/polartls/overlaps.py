"""Overlaps between number states of two oppositely displaced oscillator ladders.

A longitudinally coupled two-level emitter dresses the field into two
harmonic ladders whose number states are displaced by ``+alpha0`` and
``-alpha0`` in phase space, with ``2|alpha0| = beta = coupling_abs /
(2 omega_drive)``.  Emission and absorption rates are controlled by the
cross-ladder overlaps computed here.

Three evaluation regimes are exposed:

* :func:`overlap_exact` - the finite alternating series, evaluated in
  whichever of three numerically safe routes fits the inputs (plain
  compensated summation, max-shift log summation, or a rescaled Laguerre
  recurrence when the series cancels catastrophically).
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
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .numerics import (
    SIGNED_LOG_ZERO,
    SignedLog,
    _checked_int,
    _signed_log_sum_arrays,
    assoc_laguerre,
    assoc_laguerre_sequence,
    bessel_j,
    PrecisionLossWarning,
)

__all__ = [
    "ModelParams",
    "OverlapValue",
    "overlap_exact",
    "overlap_log_abs",
    "overlap_bessel",
    "displacement_matrix_oracle",
]

_NEG_INF = float("-inf")
MAX_LADDER_INDEX = 10**6

# Above this index the alternating series is summed in log space; below,
# compensated summation of the exponentiated terms is cheaper and tighter.
_DIRECT_MAX_INDEX = 150
# Rescue thresholds: when the series keeps less than this fraction of its
# largest term, the result is recomputed through the Laguerre recurrence,
# which never forms the cancelling terms in the first place.
_DIRECT_RESCUE_RATIO = 1e-3
_LOG_RESCUE_RATIO = 1e-2


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


def _checked_sign(value, name: str) -> int:
    if value in (+1, -1):
        return int(value)
    raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def _series_log_terms(ell: int, n: int, beta: float):
    k = np.arange(min(ell, n) + 1)
    log_terms = (
        (ell + n - 2 * k) * math.log(beta)
        - gammaln(k + 1)
        - gammaln(ell - k + 1)
        - gammaln(n - k + 1)
    )
    signs = np.where(k % 2 == 0, 1, -1).astype(np.int8)
    return log_terms, signs


def _series_sum_laguerre(ell: int, n: int, beta: float) -> SignedLog:
    """Cancellation-free route for the alternating series.

    Identical in exact arithmetic to the k-sum:
    ``sum = (-1)^min beta^{|ell-n|} L_min^{(|ell-n|)}(beta^2) / max!``.
    The recurrence never forms the large cancelling terms, so it stays
    accurate deep in the oscillatory regime where the direct series loses
    every significant digit.
    """
    hi, lo = (ell, n) if ell >= n else (n, ell)
    lag = assoc_laguerre(lo, float(hi - lo), beta * beta)
    if lag.sign == 0:
        return SIGNED_LOG_ZERO
    log_abs = (hi - lo) * math.log(beta) + lag.log_abs - math.lgamma(hi + 1)
    sign = lag.sign if lo % 2 == 0 else -lag.sign
    return SignedLog(log_abs, sign)


def _series_sum(ell: int, n: int, beta: float) -> SignedLog:
    """Signed value of sum_k (-1)^k beta^{ell+n-2k} / (k! (ell-k)! (n-k)!)."""
    if beta == 0.0:
        # Only a term with zero beta-exponent survives, which requires
        # k = ell = n.
        if ell != n:
            return SIGNED_LOG_ZERO
        return SignedLog(-math.lgamma(n + 1), 1 if n % 2 == 0 else -1)

    log_terms, signs = _series_log_terms(ell, n, beta)
    if max(ell, n) <= _DIRECT_MAX_INDEX:
        shift = float(log_terms.max())
        total = math.fsum(
            s * math.exp(lt - shift)
            for s, lt in zip(signs.tolist(), log_terms.tolist())
        )
        if total != 0.0 and abs(total) >= _DIRECT_RESCUE_RATIO:
            return SignedLog(
                shift + math.log(abs(total)), 1 if total > 0.0 else -1
            )
    else:
        value, ratio = _signed_log_sum_arrays(log_terms, signs)
        if value.sign != 0 and ratio >= _LOG_RESCUE_RATIO:
            return value
    return _series_sum_laguerre(ell, n, beta)


def _log_magnitude(ell: int, n: int, beta: float) -> SignedLog:
    """ln|overlap| with the series sign attached (phase factors excluded)."""
    ell, n = max(ell, n), min(ell, n)  # the series is symmetric; one order, one result
    series = _series_sum(ell, n, beta)
    if series.sign == 0:
        return SIGNED_LOG_ZERO
    log_abs = (
        -0.5 * beta * beta
        + 0.5 * (math.lgamma(ell + 1) + math.lgamma(n + 1))
        + series.log_abs
    )
    return SignedLog(log_abs, series.sign)


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

    magnitude = _log_magnitude(ell, n, params.beta)
    if magnitude.sign == 0:
        return _OVERLAP_ZERO
    phase = (ell - n) * params.coupling_phase
    # Parity prefactor: (+1)^ell (-1)^n for a plus-ladder bra and
    # (-1)^ell (+1)^n for a minus-ladder bra.
    parity_index = n if bra_sign > 0 else ell
    if parity_index % 2:
        phase += math.pi
    if magnitude.sign < 0:
        phase += math.pi
    return OverlapValue(magnitude.log_abs, phase)


def overlap_log_abs(ell: int, n: int, params: ModelParams) -> float:
    """ln of the cross-ladder overlap magnitude.

    Stays finite (or -inf for a true zero) for indices up to 10^6, far
    beyond where factorial prefactors overflow a double.  The magnitude
    is the same whichever ladder the bra is on.
    """
    ell = _checked_index(ell, "ell")
    n = _checked_index(n, "n")
    return _log_magnitude(ell, n, params.beta).log_abs


def overlap_bessel(
    n: int, p: int, params: ModelParams, bra_sign: int = +1
) -> OverlapValue:
    """Large-index asymptotic overlap between states ``n`` and ``n - p``.

    Valid for ``|p|`` much smaller than ``n`` (enforced as |p| <= n/10);
    the magnitude is ``|J_p(x)|`` with
    ``x = coupling_abs * sqrt(n) / omega_drive``.
    """
    n = _checked_index(n, "n")
    if n < 1:
        raise ValueError("n >= 1 required for the asymptotic overlap")
    p = _checked_int(p, "p")
    if abs(p) > n / 10:
        raise ValueError(
            f"|p| <= n/10 required for the asymptotic regime, got p={p}, n={n}"
        )
    bra_sign = _checked_sign(bra_sign, "bra_sign")

    x = params.coupling_abs * math.sqrt(n) / params.omega_drive
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
    lg = gammaln(np.arange(1, dim + 1))  # lg[k] = ln k!

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
