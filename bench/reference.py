"""Reference values computed without polartls.

Everything here follows the paper's formulas directly, with mpmath for
the overlap series and the Bessel sums and numpy for the closed forms,
so a fault in the program cannot hide in its own reference.
"""

import math

import mpmath as mp
import numpy as np


def overlap_series_mp(ell, n, beta, dps):
    """sum_k (-1)^k beta^(ell+n-2k) / (k! (ell-k)! (n-k)!) at ``dps`` digits.

    Summed from k = min(ell, n) downwards.  The term ratio in that
    direction, -k beta^2 / ((ell-k+1) (n-k+1)), shrinks in magnitude at
    every step, so once it is below 1/2 the remaining tail is bounded by
    the last term; summing stops when that term is below 10^-dps of the
    largest one.
    """
    with mp.workdps(dps):
        b2 = mp.mpf(beta) ** 2
        m, d = min(ell, n), abs(ell - n)
        term = (-1) ** m * mp.mpf(beta) ** d * mp.rgamma(m + 1) * mp.rgamma(d + 1)
        total, largest = term, abs(term)
        floor = mp.mpf(10) ** (-dps)
        for k in range(m, 0, -1):
            ratio = -k * b2 / ((ell - k + 1) * (n - k + 1))
            term *= ratio
            total += term
            largest = max(largest, abs(term))
            if abs(ratio) < 0.5 and abs(term) < floor * largest:
                break
        return +total


def _confirmed(evaluate, dps=40, agree=1e-25, max_dps=640):
    """Evaluate at ``dps`` and ``dps + 30`` digits until the two agree."""
    while dps <= max_dps:
        low, high = evaluate(dps), evaluate(dps + 30)
        if high == 0:
            if low == 0:
                return high
        elif abs(low - high) <= agree * abs(high):
            return high
        dps *= 2
    raise ArithmeticError("reference did not converge")


def rate_mp(branch, n, n_final, coupling, drive):
    """Partial rate (branch, n) -> (other branch, n_final) over gamma0.

    |<n_final|n>|^2 (s + (n - n_final) drive)^3 with the overlap
    n_final! n! e^(-beta^2) S^2, beta = coupling / (2 drive).
    """
    sign = 1 if branch == "e" else -1
    freq = sign + (n - n_final) * mp.mpf(drive)
    if freq <= 0:
        return mp.mpf(0)
    beta = mp.mpf(coupling) / (2 * mp.mpf(drive))
    series = _confirmed(lambda dps: overlap_series_mp(n_final, n, beta, dps))
    with mp.workdps(40):
        if series == 0:
            return mp.mpf(0)
        log_sq = (
            mp.loggamma(n_final + 1) + mp.loggamma(n + 1) - beta**2
            + 2 * mp.log(abs(series))
        )
        return mp.exp(log_sq) * freq**3


def overlap_sq_laguerre_mp(n, p, coupling, drive, dps=30):
    """|<n-p|n>|^2 = e^-x x^p (n-p)!/n! [L_(n-p)^(p)(x)]^2, x = beta^2, p >= 0."""
    with mp.workdps(dps):
        x = (mp.mpf(coupling) / (2 * mp.mpf(drive))) ** 2
        lag = mp.laguerre(n - p, p, x)
        return mp.exp(-x + mp.loggamma(n - p + 1) - mp.loggamma(n + 1)) * x**p * lag**2


def besselj_sq_mp(p, x, dps=30):
    with mp.workdps(dps):
        return mp.besselj(p, mp.mpf(x)) ** 2


def semiclassical_mp(branch, n_round, coupling, drive, dps=30):
    """sum_p J_p(x)^2 (s + p drive)^3 over the channels with s + p drive > 0.

    x = coupling sqrt(n_round) / drive.  Past p > x the terms fall
    faster than geometrically, so the sum stops once a term is below
    1e-25 of the running total.
    """
    sign = 1 if branch == "e" else -1
    with mp.workdps(dps):
        w = mp.mpf(drive)
        x = mp.mpf(coupling) * mp.sqrt(n_round) / w
        p = int(mp.floor(-sign / w)) + 1
        total = mp.mpf(0)
        while True:
            term = mp.besselj(p, x) ** 2 * (sign + p * w) ** 3
            total += term
            if p > x + 2 and term <= mp.mpf("1e-25") * total:
                return total
            p += 1


def suppression_e0(coupling, drive):
    """e^-b^2 sum_(n'=0)^(floor 1/drive) b^(2n')/n'! (1 - n' drive)^3, b = coupling/(2 drive)."""
    lam = (np.asarray(coupling) / (2.0 * np.asarray(drive))) ** 2
    drive = np.asarray(drive, dtype=float)
    total = np.zeros(np.broadcast(lam, drive).shape)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    for k in range(int(math.floor(1.0 / drive.min())) + 1):
        factor = np.maximum(0.0, 1.0 - k * drive) ** 3
        weight = np.exp(-lam + k * log_lam - math.lgamma(k + 1)) if k else np.exp(-lam)
        total += np.where(factor > 0.0, weight * factor, 0.0)
    return total


def partial_e0_2(coupling, drive):
    """e^-b^2 b^4 / 2 (1 - 2 drive)^3 for (e,0) -> (g,2); 0 once 2 drive >= 1."""
    lam = (np.asarray(coupling) / (2.0 * np.asarray(drive))) ** 2
    return np.exp(-lam) * lam**2 / 2.0 * np.maximum(0.0, 1.0 - 2.0 * np.asarray(drive)) ** 3


def absorption_g1(coupling, drive):
    """e^-b^2 b^2 (drive - 1)^3 for drive > 1, else 0."""
    lam = (np.asarray(coupling) / (2.0 * np.asarray(drive))) ** 2
    return np.exp(-lam) * lam * np.maximum(0.0, np.asarray(drive) - 1.0) ** 3
