"""Shows that every output check of the benchmark rejects a corrupted output.

    python3 bench/selftest.py [SEED]

Run it from the repository root.  It runs one round of every workload
through the CLI (``src/`` on PYTHONPATH, files under ``.bench_work/``),
requires the untouched outputs to pass every check, then applies, for
each named check, a corruption aimed at it and requires that check to
report a failure.  Exits 1 if any check stays silent.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "selftest"


class Output:
    """Editable copy of one op's stdout and output file lines."""

    def __init__(self, stdout, lines):
        self.stdout, self.lines = stdout, lines
        # CSV data rows follow the comment lines and the header.
        self.first_row = sum(line.startswith("#") for line in lines or ()) + 1

    def copy(self):
        return Output(self.stdout, list(self.lines) if self.lines is not None else None)

    def cell(self, row, col):
        return float(self.lines[self.first_row + row].split(",")[col])

    def set_cell(self, row, col, value):
        i = self.first_row + row
        cells = self.lines[i].split(",")
        cells[col] = repr(float(value))
        self.lines[i] = ",".join(cells)

    def column(self, col):
        return [float(line.split(",")[col]) for line in self.lines[self.first_row:]]


def scale_cell(row, col, factor):
    def corrupt(out):
        out.set_cell(row, col, out.cell(row, col) * factor)
    return corrupt


def scale_where(col, predicate, factor):
    """Scales the first cell of a column that satisfies ``predicate``."""
    def corrupt(out):
        i = next(i for i, v in enumerate(out.column(col)) if predicate(v))
        out.set_cell(i, col, out.cell(i, col) * factor)
    return corrupt


def drop_last_row(out):
    out.lines.pop()


def replace_line(index, text):
    def corrupt(out):
        out.lines[index] = text
    return corrupt


def replace_stdout(old, new):
    def corrupt(out):
        assert old in out.stdout
        out.stdout = out.stdout.replace(old, new, 1)
    return corrupt


# --- closed_form_sweeps


def drop_fixed_comment(out):
    out.lines = [line for line in out.lines if not line.startswith("# fixed")]


def absorption_peak_moved(out):
    # Far from coupling = 2 omega_L in the last drive row.
    rows = len(out.column(0))
    out.set_cell(rows - 401, 2, 10.0)


def absorption_row_lowered(out):
    drives = out.column(0)
    for i, d in enumerate(drives):
        if d == drives[-1]:
            out.set_cell(i, 2, out.cell(i, 2) * (1 - 1e-3))


def semiclassical_both_shifted(out):
    """Same shift on gamma_e and gamma_g: the difference identity still holds."""
    for i in range(len(out.column(0))):
        delta = 1e-6 * out.cell(i, 2)
        out.set_cell(i, 2, out.cell(i, 2) + delta)
        out.set_cell(i, 3, out.cell(i, 3) + delta)


def semiclassical_negative(out):
    out.set_cell(0, 2, out.cell(0, 2) - out.cell(0, 3) - 1e-3)
    out.set_cell(0, 3, -1e-3)


def semiclassical_gamma_e_only(out):
    out.set_cell(7, 2, out.cell(7, 2) * (1 + 1e-9))


GRID_COMMON = [
    ("csv_header", replace_line(0, "# quantity=something_else")),
    ("row_count", drop_last_row),
    ("grid_axes", scale_where(1, lambda v: v > 0.0, 1.001)),
    ("stdout", replace_stdout("wrote ", "wrote 1")),
]

# --- large_index_rates

_RATE = re.compile(r"(rate = )(\S+)")
_FREQ = re.compile(r"(photon_freq = )(\S+)")
_TOTAL = re.compile(r"(\] = )(\S+)")


def _table(out):
    lines = out.stdout.strip().splitlines()
    return lines[:-1], lines[-1]


def _set_table(out, rows, total_line):
    out.stdout = "\n".join(rows + [total_line]) + "\n"


def _rate(line):
    return float(_RATE.search(line).group(2))


def _with_total(total_line, value):
    return _TOTAL.sub(lambda m: f"{m.group(1)}{value:.12g}", total_line)


def rates_scaled(factor):
    """Every partial and the total scaled: sums and frequencies still agree."""
    def corrupt(out):
        rows, total = _table(out)
        rows = [_RATE.sub(lambda m: f"{m.group(1)}{float(m.group(2)) * factor:.12g}", r) for r in rows]
        _set_table(out, rows, _with_total(total, sum(map(_rate, rows))))
    return corrupt


def table_cut_to_middle(out):
    rows, total = _table(out)
    strongest = max(range(len(rows)), key=lambda i: _rate(rows[i]))
    rows = rows[strongest - 2: strongest + 3]
    _set_table(out, rows, _with_total(total, sum(map(_rate, rows))))


def table_without_total(out):
    rows, _ = _table(out)
    out.stdout = "\n".join(rows) + "\n"


def table_gap(out):
    rows, total = _table(out)
    _set_table(out, rows[:10] + rows[11:], total)


def table_total_off(out):
    rows, total = _table(out)
    _set_table(out, rows, _with_total(total, sum(map(_rate, rows)) * (1 + 1e-9)))


def table_frequency_off(out):
    rows, total = _table(out)
    rows[3] = _FREQ.sub(lambda m: f"{m.group(1)}{float(m.group(2)) + 1e-6:.12g}", rows[3])
    _set_table(out, rows, total)


RATE_COMMON = [
    ("table_format", table_without_total),
    ("channels_contiguous_allowed", table_gap),
    ("photon_frequency", table_frequency_off),
    ("total_is_sum", table_total_off),
    ("rate_vs_mpmath_series", rates_scaled(1 + 1e-7)),
    ("window_covers_support", table_cut_to_middle),
]

# --- cascades


def _log_rows(out):
    return [line.split(",") for line in out.lines[1:]]


def _set_log(out, rows):
    out.lines = out.lines[:1] + [",".join(r) for r in rows]


def _summary_edit(key, fn):
    def corrupt(out):
        summary = json.loads(out.stdout)
        summary[key] = fn(summary[key])
        out.stdout = json.dumps(summary)
    return corrupt


def _second_jump(rows):
    return next(i for i, r in enumerate(rows) if r[1] == "1")


def log_chain_broken(out):
    rows = _log_rows(out)
    rows[_second_jump(rows)][4] = "999999"
    _set_log(out, rows)


def log_times_swapped(out):
    rows = _log_rows(out)
    i = _second_jump(rows)
    rows[i - 1][2], rows[i][2] = rows[i][2], rows[i - 1][2]
    _set_log(out, rows)


def log_frequency_off(out):
    rows = _log_rows(out)
    rows[0][7] = repr(float(rows[0][7]) + 1e-9)
    _set_log(out, rows)


def log_frequency_zero(out):
    rows = _log_rows(out)
    rows[0][7] = "0.0"
    _set_log(out, rows)


def log_short_row(out):
    rows = _log_rows(out)
    rows[5] = rows[5][:7]
    _set_log(out, rows)


def log_last_trajectory_dropped(out):
    rows = _log_rows(out)
    last = rows[-1][0]
    _set_log(out, [r for r in rows if r[0] != last])


def log_last_jump_dropped(out):
    rows = _log_rows(out)
    i = _second_jump(rows)
    while i + 1 < len(rows) and rows[i + 1][1] != "0":
        i += 1
    _set_log(out, rows[:i] + rows[i + 1:])


def log_first_jumps_biased(out):
    """Every first jump re-targeted onto its most frequent channel."""
    rows = _log_rows(out)
    firsts = [r for r in rows if r[1] == "0"]
    targets = [r[6] for r in firsts]
    mode = max(set(targets), key=targets.count)
    for r in firsts:
        r[6] = mode
    _set_log(out, rows)


def log_times_stretched(out):
    rows = _log_rows(out)
    for r in rows:
        r[2] = repr(float(r[2]) * 1.3)
    _set_log(out, rows)


def spectrum_edited(out):
    summary = json.loads(out.stdout)
    summary["spectrum"][0][1] *= 1.01
    out.stdout = json.dumps(summary)


CASCADE = [
    ("log_header", replace_line(0, "# id,jump,t")),
    ("log_format", log_short_row),
    ("trajectories_complete", log_last_trajectory_dropped),
    ("jumps_chain", log_chain_broken),
    ("times_rising", log_times_swapped),
    ("energy_bookkeeping", log_frequency_off),
    ("channels_live", log_frequency_zero),
    ("ends_dark", log_last_jump_dropped),
    ("photons_equal_log_rows", _summary_edit("total_photons", lambda v: v + 1)),
    ("mean_jumps", _summary_edit("mean_jumps", lambda v: v * 1.001)),
    ("mean_total_time", _summary_edit("mean_total_time", lambda v: v * 1.001)),
    ("spectrum_is_log_histogram", spectrum_edited),
    ("first_jump_chi_square", log_first_jumps_biased),
    ("first_jump_mean_time", log_times_stretched),
]

CORRUPTIONS = {
    "suppression_e0": GRID_COMMON + [
        ("suppression_closed_form", scale_where(2, lambda v: 0.0 < v < 1.0, 1 + 1e-9)),
        ("suppression_at_most_1", scale_where(2, lambda v: 0.5 < v < 1.0, 1.9)),
        ("suppression_1_uncoupled", scale_cell(0, 2, 1 - 1e-15)),
    ],
    "absorption_g1": GRID_COMMON + [
        ("absorption_closed_form", scale_where(2, lambda v: v > 0.0, 1 + 1e-10)),
        ("absorption_argmax_2wL", absorption_peak_moved),
        ("absorption_peak_value", absorption_row_lowered),
    ],
    "partial_e0n": GRID_COMMON + [
        ("csv_header", drop_fixed_comment),
        ("partial_e0n_closed_form", scale_where(2, lambda v: v > 0.0, 1 + 1e-9)),
    ],
    "semiclassical_totals": GRID_COMMON + [
        ("semiclassical_nonnegative", semiclassical_negative),
        ("semiclassical_difference", semiclassical_gamma_e_only),
        ("semiclassical_gamma_e_bessel_sum", semiclassical_both_shifted),
        ("semiclassical_gamma_g_bessel_sum", semiclassical_both_shifted),
    ],
    "rate_e3000": RATE_COMMON,
    "rate_g3000": RATE_COMMON,
    "rate_e1e5": RATE_COMMON + [("total_vs_semiclassical", rates_scaled(1 + 1e-3))],
    "overlap_compare": [
        ("csv_header", replace_line(0, "# quantity=suppression_e0")),
        ("row_count", drop_last_row),
        ("grid_axes", scale_cell(5, 0, 1.0001)),
        ("exact_vs_mpmath_laguerre", scale_cell(6, 2, 1 + 1e-5)),
        ("bessel_vs_mpmath_besselj", scale_cell(6, 3, 1 + 1e-8)),
        ("exact_vs_bessel_1pct", scale_cell(0, 2, 1.05)),
    ],
    "cascade": CASCADE,
}


def check(op, out):
    path = None
    if op.output:
        path = WORK / f"corrupted_{op.output}"
        path.write_text("\n".join(out.lines) + "\n", encoding="utf-8")
    try:
        return op.check(out.stdout, path)[1]
    except Exception as exc:  # an unparsable output is a rejection too
        return [f"output_parse: {exc!r}"]


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    silent, tried = [], 0
    try:
        for workload, make in WORKLOADS.items():
            for op in make(seed, len(os.sched_getaffinity(0))):
                stdout = subprocess.run([sys.executable, "-m", "polartls", *op.argv], cwd=WORK,
                                        env=env, capture_output=True, text=True, check=True).stdout
                lines = (WORK / op.output).read_text(encoding="utf-8").splitlines() if op.output else None
                clean = Output(stdout, lines)
                failures = check(op, clean)
                if failures:
                    silent.append(f"{workload}/{op.name}: clean output fails: {failures}")
                for name, corrupt in CORRUPTIONS[op.name]:
                    out = clean.copy()
                    corrupt(out)
                    tried += 1
                    failures = check(op, out)
                    hit = any(f.startswith(f"{name}:") for f in failures)
                    print(f"{'rejects' if hit else 'SILENT '} {workload}/{op.name}/{name}"
                          f"  ({len(failures)} failures)", flush=True)
                    if not hit:
                        silent.append(f"{workload}/{op.name}/{name}: {failures}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in silent:
        print(f"PROBLEM {line}")
    print(f"{tried - len(silent)} of {tried} corruptions rejected by their check")
    return 1 if silent else 0


if __name__ == "__main__":
    sys.exit(main())
