"""High-precision reference values for the overlap series, via mpmath.

The defining alternating sum is evaluated with a term-ratio recurrence in
arbitrary-precision arithmetic, so these references are slow but immune
to the cancellation and overflow that the production code has to manage.
"""

import math

import mpmath as mp


def series_sum_mp(ell: int, n: int, beta, dps: int = 50):
    """sum_k (-1)^k beta^(ell+n-2k) / (k! (ell-k)! (n-k)!), exact arithmetic."""
    with mp.workdps(dps):
        b = mp.mpf(beta)
        if b == 0:
            if ell != n:
                return mp.mpf(0)
            return (-1) ** n / mp.factorial(n)
        # term ratio: t_{k+1}/t_k = -(ell-k)(n-k) / ((k+1) b^2)
        term = b ** (ell + n) / (mp.factorial(ell) * mp.factorial(n))
        total = term
        for k in range(min(ell, n)):
            term *= -mp.mpf((ell - k) * (n - k)) / ((k + 1) * b * b)
            total += term
        return total


def overlap_complex_mp(ell: int, n: int, beta, phi, bra_sign: int = +1, dps: int = 50):
    """Full cross-ladder overlap, bra on the +/- displaced ladder.

    Prefactor convention: (bra_sign)^ell (-bra_sign)^n e^(i(ell-n)phi)
    sqrt(ell! n!) e^(-beta^2/2) times the alternating series.
    """
    with mp.workdps(dps):
        b = mp.mpf(beta)
        series = series_sum_mp(ell, n, beta, dps=dps)
        mag = mp.sqrt(mp.factorial(ell) * mp.factorial(n)) * mp.e ** (-b * b / 2) * series
        parity = n if bra_sign > 0 else ell
        sign = mp.mpf(-1) ** parity
        return sign * mag * mp.exp(mp.mpc(0, 1) * (ell - n) * mp.mpf(phi))


def overlap_ln_abs_mp(ell: int, n: int, beta, dps: int = 50):
    """ln|overlap| at high precision; returns None for an exact zero."""
    with mp.workdps(dps):
        b = mp.mpf(beta)
        series = series_sum_mp(ell, n, beta, dps=dps)
        if series == 0:
            return None
        ln = (
            0.5 * (mp.log(mp.factorial(ell)) + mp.log(mp.factorial(n)))
            - b * b / 2
            + mp.log(abs(series))
        )
        return float(ln)


def column_entry_mp(m: int, n: int, beta):
    """Entry ``m`` of the overlap column of ket ``n``: the cross-ladder overlap
    without its parity and phase factors, as an mpf with 20 correct digits.

    Uses the Laguerre form ``(-1)^lo e^{-beta^2/2} sqrt(lo!/hi!)
    beta^{hi-lo} L_lo^{(hi-lo)}(beta^2)`` with ``lo, hi = min, max(m, n)``.
    mpmath raises its working precision until the Laguerre sum holds 20
    digits; the sum cancels down from terms about ``e^{2 beta sqrt(hi)}``
    times larger, so the precision cap (and the level at which a sum
    counts as an exact zero) is sized to that, about 6 beta sqrt(hi) bits.
    """
    lo, hi = min(m, n), max(m, n)
    bits = int(6 * float(beta) * math.sqrt(hi)) + 400
    with mp.workdps(20):
        b = mp.mpf(beta)
        lag = mp.laguerre(lo, hi - lo, b * b, zeroprec=bits, maxprec=bits + 200, maxterms=4 * 10**6)
        if lag == 0:
            return mp.mpf(0)
        log_prefactor = -b * b / 2 + (mp.loggamma(lo + 1) - mp.loggamma(hi + 1)) / 2 + (hi - lo) * mp.log(b)
        return (-1) ** lo * mp.exp(log_prefactor) * lag
