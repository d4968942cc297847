"""The benchmark's workloads and the checks of their outputs.

A workload is a list of ``python -m polartls`` invocations (``Op``)
made from a seed.  Each op knows how to check what it printed and
wrote, using only ``reference.py`` and the method's own properties:
nothing is compared with a stored copy of an earlier output.  A check
returns the failures it found as ``"<check name>: <detail>"`` strings,
so ``selftest.py`` can show that each named check rejects a corrupted
output.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

import reference as ref

# A correct sampler fails a statistical check with at most this
# probability; two such checks per cascade keep a run below 1e-6.
STAT_ALPHA = 1e-7
# Rate tables print 12 significant digits.
PRINTED_RTOL = 1e-11
EPS = float(np.finfo(float).eps)


@dataclass
class Op:
    """One CLI invocation: ``argv`` follows ``python -m polartls``.

    ``kind`` names what the op produces, for the throughput lines of the
    report; ``check(stdout, path)`` returns ``(items produced, failures)``.
    """

    name: str
    argv: list
    kind: str
    output: str | None
    check: Callable


@dataclass(frozen=True)
class Axis:
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def spec(self) -> str:
        return f"{self.start!r},{self.stop!r},{self.steps},{self.scale}"

    def values(self) -> np.ndarray:
        space = np.geomspace if self.scale == "log" else np.linspace
        return space(self.start, self.stop, self.steps)


class Failures(list):
    def expect(self, name, ok, detail=""):
        if not ok:
            self.append(f"{name}: {detail}")
        return ok

    def close(self, name, got, want, rtol, atol=1e-300):
        """Elementwise |got - want| <= rtol |want| + atol; reports the worst row."""
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        excess = np.abs(got - want) - (rtol * np.abs(want) + atol)
        excess = np.where(np.isfinite(got), excess, np.inf)
        if excess.size == 0 or np.all(excess <= 0):
            return True
        i = int(np.argmax(excess))
        return self.expect(
            name, False, f"row {i}: got {got.flat[i]!r}, want {want.flat[i]!r} (rtol {rtol:g})"
        )


def _read_csv(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    header = body[0].split(",") if body else []
    data = np.loadtxt(body[1:], delimiter=",", ndmin=2) if len(body) > 1 else np.empty((0, 0))
    return comments, header, data


def _u(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


# --- closed_form_sweeps ---------------------------------------------------------


def _grid_op(name, quantity, coupling, drive, fixed, columns, check_values):
    argv = ["sweep", "--quantity", quantity, "--omega-a", coupling.spec(),
            "--omega-l", drive.spec(), "--output", f"{name}.csv"]
    for key, value in fixed.items():
        argv += ["--fix", f"{key}={value!r}"]

    def check(stdout, path):
        bad = Failures()
        comments, header, data = _read_csv(path)
        want_comments = [f"# quantity={quantity}"]
        if fixed:
            want_comments.append("# fixed " + " ".join(
                f"{k}={float(v)!r}" for k, v in sorted(fixed.items())))
        bad.expect("csv_header", comments == want_comments and header == columns,
                   f"{comments} {header}")
        rows = coupling.steps * drive.steps
        if not bad.expect("row_count", data.shape == (rows, len(columns)),
                          f"{data.shape}, want {(rows, len(columns))}"):
            return 0, bad
        d, c = data[:, 0], data[:, 1]
        bad.close("grid_axes", d, np.repeat(drive.values(), coupling.steps), 1e-13)
        bad.close("grid_axes", c, np.tile(coupling.values(), drive.steps), 1e-13)
        check_values(d, c, data[:, 2:], bad)
        bad.expect("stdout", stdout.strip() == f"wrote {rows} rows ({quantity}) to {name}.csv",
                   stdout.strip())
        return rows, bad

    return Op(name, argv, "sweep_points", f"{name}.csv", check)


def _check_suppression(d, c, values, bad):
    v = values[:, 0]
    bad.close("suppression_closed_form", v, ref.suppression_e0(c, d), 1e-11)
    bad.expect("suppression_at_most_1", np.all(v <= 1.0), f"max {v.max()!r}")
    bad.expect("suppression_1_uncoupled", np.all(v[c == 0.0] == 1.0) and np.any(c == 0.0),
               "value at zero coupling is not exactly 1")


def _check_partial_e0_2(d, c, values, bad):
    bad.close("partial_e0n_closed_form", values[:, 0], ref.partial_e0_2(c, d), 1e-11)


def _check_absorption(coupling_steps):
    def check(d, c, values, bad):
        v = values[:, 0]
        bad.close("absorption_closed_form", v, ref.absorption_g1(c, d), 1e-12)
        rows_d = d.reshape(-1, coupling_steps)[:, 0]
        grid_c = c[:coupling_steps]
        per_drive = v.reshape(-1, coupling_steps)
        step = grid_c[1] - grid_c[0]
        for drive, row in zip(rows_d, per_drive):
            if drive <= 1.0:
                continue
            peak = math.exp(-1.0) * (drive - 1.0) ** 3
            arg = grid_c[int(np.argmax(row))]
            eps = np.min(np.abs(grid_c - 2.0 * drive)) / (2.0 * drive)
            if not bad.expect("absorption_argmax_2wL", abs(arg - 2.0 * drive) <= step,
                              f"drive {drive!r}: max at coupling {arg!r}"):
                break
            if not bad.expect("absorption_peak_value",
                              peak * (1 - 3 * eps * eps) * (1 - 1e-12) <= row.max()
                              <= peak * (1 + 1e-12),
                              f"drive {drive!r}: max {row.max()!r}, peak {peak!r}"):
                break
    return check


def _check_semiclassical(n_bar, samples):
    n_round = round(n_bar)

    def check(d, c, values, bad):
        ge, gg = values[:, 0], values[:, 1]
        bad.expect("semiclassical_nonnegative", np.all(gg >= 0.0), "gamma_g < 0")
        bad.close("semiclassical_difference", ge - gg, 1.0 + 1.5 * c * c * n_round, 1e-12)
        rows = [int(i * len(d)) for i in samples]
        for branch, col in (("e", ge), ("g", gg)):
            want = [float(ref.semiclassical_mp(branch, n_round, c[i], d[i])) for i in rows]
            bad.close(f"semiclassical_gamma_{branch}_bessel_sum", col[rows], want, 1e-12)
    return check


def closed_form_sweeps(seed, nproc):
    rng = random.Random(seed)
    values3 = ["omega_L_over_omega0", "Omega_a_over_omega0", "value"]
    absorption_coupling = Axis(0.0, _u(rng, 8.0, 8.2), 401)
    n_bar = float(rng.randint(9900, 10100))
    return [
        _grid_op("suppression_e0", "suppression_e0",
                 Axis(0.0, _u(rng, 4.0, 4.2), 401), Axis(_u(rng, 0.05, 0.06), 2.0, 401),
                 {}, values3, _check_suppression),
        _grid_op("absorption_g1", "absorption_g1",
                 absorption_coupling, Axis(_u(rng, 1.05, 1.07), 3.0, 401),
                 {}, values3, _check_absorption(absorption_coupling.steps)),
        _grid_op("partial_e0n", "partial_e0n",
                 Axis(0.0, _u(rng, 4.0, 4.2), 201), Axis(_u(rng, 0.05, 0.06), 2.0, 201),
                 {"n_prime": 2.0}, values3, _check_partial_e0_2),
        _grid_op("semiclassical_totals", "semiclassical_totals",
                 Axis(_u(rng, 1e-4, 1.1e-4), _u(rng, 0.01, 0.011), 101, "log"),
                 Axis(_u(rng, 0.1, 0.11), 2.0, 101),
                 {"n_bar": n_bar},
                 ["omega_L_over_omega0", "Omega_a_over_omega0", "gamma_e", "gamma_g"],
                 _check_semiclassical(n_bar, [rng.random() for _ in range(16)])),
    ]


# --- large_index_rates ----------------------------------------------------------

_RATE_LINE = re.compile(
    r"-> \(([eg]),(\d+)\)  rate = (\S+)  photon_freq = (\S+)  \(omega0 units\)$")
_TOTAL_LINE = re.compile(r"total\[\(([eg]),(\d+)\)\] = (\S+)  \(gamma0 units\)$")


def _energy_ulps(n, n_final, drive):
    """Photon frequencies are differences of dressed energies near n drive."""
    return 8 * EPS * (1.0 + (n + n_final) * drive)


def _rate_tolerance(n_final, n, freq, drive):
    """Relative tolerance for a printed partial rate against the reference.

    Rates come from exp(2 ln|overlap|) freq^3.  ln|overlap| carries
    ln n! + ln n'!, so a few ulp of that magnitude is the program's own
    floor (about 1e-9 at n = 1e5); the frequency carries a few ulp of
    the dressed energies.  The 12 printed digits come on top.
    """
    return (PRINTED_RTOL + 4e-15 * (math.lgamma(n_final + 1) + math.lgamma(n + 1))
            + 3 * _energy_ulps(n, n_final, drive) / max(freq, EPS))


def _rate_op(name, branch, n, coupling, drive, sample_offset, semiclassical=False):
    argv = ["rate", "--branch", branch, "--n", str(n),
            "--omega-a", repr(coupling), "--omega-l", repr(drive)]
    sign = 1 if branch == "e" else -1
    other = "g" if branch == "e" else "e"

    def check(stdout, path):
        bad = Failures()
        lines = stdout.strip().splitlines()
        rows = [_RATE_LINE.match(line) for line in lines[:-1]]
        total = _TOTAL_LINE.match(lines[-1]) if lines else None
        if not bad.expect("table_format", rows and all(rows) and total,
                          f"unparsable rate table ({len(lines)} lines)"):
            return 0, bad
        finals = np.array([int(m.group(2)) for m in rows])
        rates = np.array([float(m.group(3)) for m in rows])
        freqs = np.array([float(m.group(4)) for m in rows])
        bad.expect("table_format", all(m.group(1) == other for m in rows)
                   and total.group(1) == branch and int(total.group(2)) == n,
                   "wrong branch or initial state")
        bad.expect("channels_contiguous_allowed",
                   np.all(np.diff(finals) == 1) and finals[0] >= 0
                   and (finals[-1] - n) * drive <= sign + 1e-9,
                   f"finals {finals[0]}..{finals[-1]}")
        bad.close("photon_frequency", freqs, sign + (n - finals) * drive, PRINTED_RTOL,
                  _energy_ulps(n, finals, drive))
        printed_total = float(total.group(3))
        bad.close("total_is_sum", printed_total, math.fsum(rates), 2 * PRINTED_RTOL)
        # Every channel is checked on some seed; each seed checks 24 of them
        # plus the strongest one.
        picks = sorted({int(np.argmax(rates))} | set(
            range(sample_offset % max(1, len(finals) // 24), len(finals),
                  max(1, len(finals) // 24))))
        for i in picks:
            k = int(finals[i])
            want = float(ref.rate_mp(branch, n, k, coupling, drive))
            tol, atol = _rate_tolerance(k, n, freqs[i], drive), 1e-300
            if abs(rates[i] - want) > tol * want + atol:
                # Near a zero of the overlap its error follows the envelope,
                # the size of the neighbouring channels, not its own size:
                # the tolerance applies to the amplitude relative to the
                # envelope amplitude.
                envelope = max([want] + [float(ref.rate_mp(branch, n, j, coupling, drive))
                                         for j in (k - 1, k + 1) if j >= 0])
                tol, atol = 0.0, tol * math.sqrt(want * envelope)
            if not bad.close("rate_vs_mpmath_series", rates[i], want, tol, atol):
                break
        # The window must hold every channel that matters: the next channel
        # on either side carries less than 1e-12 of the total.
        for outside in (finals[0] - 1, finals[-1] + 1):
            if outside >= 0 and (sign + (n - outside) * drive) > 0:
                edge = float(ref.rate_mp(branch, n, int(outside), coupling, drive))
                bad.expect("window_covers_support", edge <= 1e-12 * printed_total,
                           f"channel {outside} outside the table carries {edge:.3e}")
        if semiclassical:
            gamma_e = float(ref.semiclassical_mp(branch, n, coupling, drive))
            bad.close("total_vs_semiclassical", printed_total, gamma_e, 1e-4)
        return len(rows), bad

    return Op(name, argv, "rate_channels", None, check)


def _overlap_compare_op(sqrt_n, p_values, coupling, drive):
    name = "overlap_compare"
    argv = ["sweep", "--quantity", name, "--sqrt-n", sqrt_n.spec(),
            "--p-values", ",".join(map(str, p_values)),
            "--fix", f"omega_a={coupling!r}", "--fix", f"omega_l={drive!r}",
            "--output", f"{name}.csv"]

    def check(stdout, path):
        bad = Failures()
        comments, header, data = _read_csv(path)
        bad.expect("csv_header", header == ["sqrt_n", "p", "exact_sq", "bessel_sq"]
                   and comments[0] == f"# quantity={name}", f"{comments} {header}")
        rows = sqrt_n.steps * len(p_values)
        if not bad.expect("row_count", data.shape == (rows, 4), f"{data.shape}"):
            return 0, bad
        s, p, exact, bessel = data.T
        bad.close("grid_axes", s, np.repeat(sqrt_n.values(), len(p_values)), 1e-13)
        bad.expect("grid_axes", np.array_equal(p, np.tile(p_values, sqrt_n.steps)), "p column")
        n = np.rint(s * s).astype(np.int64)
        want = [float(ref.overlap_sq_laguerre_mp(int(k), int(q), coupling, drive))
                for k, q in zip(n, p)]
        bad.close("exact_vs_mpmath_laguerre", exact, want, 1e-6)
        x = coupling * np.sqrt(n) / drive
        want = [float(ref.besselj_sq_mp(int(q), xi)) for q, xi in zip(p, x)]
        bad.close("bessel_vs_mpmath_besselj", bessel, want, 1e-10)
        for q in p_values:
            on = p == q
            bad.expect("exact_vs_bessel_1pct", np.max(np.abs(exact[on] - bessel[on]))
                       <= 0.01 * np.max(exact[on]), f"p={q}")
        return rows, bad

    return Op(name, argv, "overlap_rows", f"{name}.csv", check)


def large_index_rates(seed, nproc):
    rng = random.Random(seed)
    return [
        _rate_op("rate_e3000", "e", 3000 + rng.randint(-20, 20), _u(rng, 0.99, 1.01), 0.5,
                 rng.randrange(1000)),
        _rate_op("rate_g3000", "g", 3000 + rng.randint(-20, 20), _u(rng, 0.99, 1.01), 0.5,
                 rng.randrange(1000)),
        _rate_op("rate_e1e5", "e", 100000 + rng.randint(-500, 500), _u(rng, 0.0099, 0.0101),
                 0.9, rng.randrange(1000), semiclassical=True),
        _overlap_compare_op(Axis(_u(rng, 98.0, 102.0), 1000.0, 40, "log"), [0, 1, 2, 3],
                            _u(rng, 0.00099, 0.00101), 0.9),
    ]


# --- cascades -------------------------------------------------------------------


def _cascade_op(n, coupling, drive, seed, trajectories, threads, bin_width=0.05):
    name = "cascade"
    argv = ["cascade", "--branch", "e", "--n", str(n), "--omega-a", repr(coupling),
            "--omega-l", repr(drive), "--seed", str(seed), "--trajectories", str(trajectories),
            "--output", f"{name}.log", "--bin-width", repr(bin_width), "--format", "json"]
    argv += ["--threads", str(threads)]

    def check(stdout, path):
        bad = Failures()
        summary = json.loads(stdout)
        with open(path, encoding="utf-8") as handle:
            header = handle.readline()
            cols = list(zip(*(line.split(",") for line in handle.read().splitlines())))
        bad.expect("log_header", header.startswith("# trajectory_id,jump_index,time"), header)
        if not bad.expect("log_format", len(cols) == 8, f"{len(cols)} columns"):
            return 0, bad
        tid, jump = np.array(cols[0], dtype=np.int64), np.array(cols[1], dtype=np.int64)
        time = np.array(cols[2], dtype=float)
        from_g, to_g = np.array(cols[3]) == "g", np.array(cols[5]) == "g"
        from_n, to_n = np.array(cols[4], dtype=np.int64), np.array(cols[6], dtype=np.int64)
        freq = np.array(cols[7], dtype=float)
        first = jump == 0
        rest = ~first[1:]
        bad.expect("trajectories_complete", summary["trajectories"] == trajectories
                   and summary["truncated"] == 0
                   and np.array_equal(tid[first], np.arange(trajectories))
                   and np.all((tid[1:] == tid[:-1])[rest])
                   and np.all((jump[1:] == jump[:-1] + 1)[rest]),
                   "trajectory ids or jump indices out of order")
        bad.expect("jumps_chain",
                   np.all(~from_g[first]) and np.all(from_n[first] == n)
                   and np.all((from_g[1:] == to_g[:-1])[rest])
                   and np.all((from_n[1:] == to_n[:-1])[rest]) and np.all(from_g != to_g),
                   "a jump does not start where the previous one ended")
        bad.expect("times_rising", np.all(time[first] > 0.0)
                   and np.all((time[1:] > time[:-1])[rest]), "times do not rise")
        sign = np.where(from_g, -1.0, 1.0)
        energy = sign + (from_n - to_n) * drive
        bad.close("energy_bookkeeping", freq, energy, 0.0,
                  _energy_ulps(from_n, to_n, drive))
        bad.expect("channels_live", np.all(freq > 0.0) and np.all(to_n >= 0), "dead channel")
        last = np.append(first[1:], True)
        bad.expect("ends_dark", np.all(to_g[last] & (to_n[last] * drive <= 1.0)),
                   "a trajectory stops in a state that can still emit")
        rows = len(tid)
        bad.expect("photons_equal_log_rows", summary["total_photons"] == rows,
                   f"{summary['total_photons']} != {rows}")
        bad.close("mean_jumps", summary["mean_jumps"], rows / trajectories, 1e-12)
        bad.close("mean_total_time", summary["mean_total_time"], np.mean(time[last]), 1e-9)
        k = np.rint(freq / bin_width).astype(np.int64)
        ks, counts = np.unique(k, return_counts=True)
        spectrum = np.array(summary["spectrum"]).reshape(-1, 2)
        if bad.expect("spectrum_is_log_histogram", spectrum.shape == (len(ks), 2),
                      f"{len(spectrum)} bins, log has {len(ks)}"):
            bad.close("spectrum_is_log_histogram", spectrum[:, 0], ks * bin_width, 1e-12)
            bad.close("spectrum_is_log_histogram", spectrum[:, 1], counts / rows, 1e-12)
        _check_first_jumps(bad, n, coupling, drive, to_n[first], time[first])
        return trajectories, bad

    return Op(name, argv, "trajectories", f"{name}.log", check)


def _check_first_jumps(bad, n, coupling, drive, finals, times):
    """First jumps against an independent rate table of the start state."""
    allowed = np.arange(0, math.floor(n + 1.0 / drive + 1e-9) + 1)
    rates = np.array([float(ref.rate_mp("e", n, int(k), coupling, drive)) for k in allowed])
    total = rates.sum()
    expected = len(finals) * rates / total
    observed = np.bincount(finals, minlength=len(allowed))[: len(allowed)]
    bad.expect("first_jump_channels_allowed", np.all(finals < len(allowed)), "final beyond range")
    # Pearson chi-square with channels expecting fewer than 10 pooled.
    big = expected >= 10.0
    obs, exp = list(observed[big]), list(expected[big])
    pooled_e, pooled_o = expected[~big].sum(), observed[~big].sum()
    if pooled_e >= 10.0 or not exp:
        obs.append(pooled_o)
        exp.append(pooled_e)
    else:
        i = int(np.argmin(exp))
        obs[i] += pooled_o
        exp[i] += pooled_e
    obs, exp = np.array(obs, dtype=float), np.array(exp)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    limit = float(stats.chi2.isf(STAT_ALPHA, len(exp) - 1))
    bad.expect("first_jump_chi_square", chi2 <= limit,
               f"chi2 {chi2:.1f} > {limit:.1f} on {len(exp) - 1} dof")
    # The first waiting times are Exp(total); their sum is Gamma(N, 1/total).
    dist = stats.gamma(len(times), scale=1.0 / total)
    lo, hi = dist.ppf(STAT_ALPHA / 2), dist.isf(STAT_ALPHA / 2)
    bad.expect("first_jump_mean_time", lo <= times.sum() <= hi,
               f"mean {times.mean():.6g}, 1/Gamma {1.0 / total:.6g}")


def cascade_fewphoton(seed, nproc):
    rng = random.Random(seed)
    return [_cascade_op(5, 0.5, 0.5, rng.getrandbits(63), 100_000, nproc)]


WORKLOADS = {
    "closed_form_sweeps": closed_form_sweeps,
    "large_index_rates": large_index_rates,
    "cascade_fewphoton": cascade_fewphoton,
}


def main(argv):
    """``ops NAME SEED NPROC`` prints the invocations as JSON;
    ``check NAME SEED NPROC DIR`` checks the outputs saved in DIR
    (``<op>.stdout`` plus the op's output file) and prints
    ``{"items": {op: count}, "failures": [...]}``.
    """
    command, name, seed, nproc = argv[:4]
    ops = WORKLOADS[name](int(seed), int(nproc))
    if command == "ops":
        print(json.dumps([{"name": op.name, "argv": op.argv, "kind": op.kind,
                           "output": op.output} for op in ops]))
        return
    folder = Path(argv[4])
    items, failures = {}, []
    for op in ops:
        stdout = (folder / f"{op.name}.stdout").read_text(encoding="utf-8")
        try:
            items[op.name], bad = op.check(stdout, folder / op.output if op.output else None)
        except Exception:
            items[op.name], bad = 0, [f"output_parse: {traceback.format_exc(limit=2)}"]
        failures += [f"{op.name}: {failure}" for failure in bad]
    print(json.dumps({"items": items, "failures": failures}))


if __name__ == "__main__":
    main(sys.argv[1:])
