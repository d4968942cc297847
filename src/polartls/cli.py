"""Command-line front end: sweeps, point queries, and cascade runs.

Subcommands
-----------
``sweep``
    Grid sweeps of the headline quantities, written as CSV or JSON.
``rate``
    Rate table (or one partial rate) for a single dressed state.
``overlap``
    One cross-ladder overlap, exact or asymptotic route.
``semiclassical``
    Large-index totals (gamma_e, gamma_g).
``cascade``
    Monte-Carlo cascade ensemble: trajectory log plus summary.
``gamma0``
    Absolute free-space decay rate in SI units.

Except for ``gamma0``, all inputs are dimensionless: frequencies and
couplings are ratios to the bare transition frequency (``--omega-a`` is
coupling/omega0, ``--omega-l`` is drive/omega0), rates come out in units
of gamma0, and photon frequencies in units of omega0.

Exit codes: 0 success, 1 compute or I/O error, 2 usage error.  Each input
limit is checked by the library function that owns it; a command calls that
check through :func:`_usage` before it computes or writes anything.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .ladder import DressedState, allowed_final_indices
from .numerics import _checked_int
from .overlaps import ModelParams, _asymptotic_args, _check_reach, _checked_index, _column_blocks
from .overlaps import overlap_bessel, overlap_exact
from .rates import DEBYE, Gamma0Params, _check_drive_reach, _semiclassical_args, gamma0_si, partial_rate
from .rates import _candidate_final_indices, total_rate
from .rates import absorption_g1_mesh, partial_e0_mesh, semiclassical_mesh, suppression_e0_mesh
from .rates import semiclassical_totals
from .rates import absorption_rate_g1, suppression_rate_e0  # noqa: F401 (for bench WRAPPED)

__all__ = ["AxisSpec", "SweepConfig", "run_sweep", "main"]


class _UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


SWEEP_QUANTITIES = (
    "suppression_e0",
    "absorption_g1",
    "partial_e0n",
    "overlap_compare",
    "semiclassical_totals",
)

_DEFAULT_COUPLING_AXIS = "0,4,101,linear"
_DEFAULT_DRIVE_AXIS = "0.05,2,101,linear"
_DEFAULT_SQRT_N_AXIS = "100,1000,20,log"
_DEFAULT_P_VALUES = "0,1,2,3"
# Cells evaluated, formatted and written per block: whole drive rows of a
# grid, or overlap_compare points.
_SWEEP_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: ``start,stop,steps[,scale]`` with scale linear or log."""

    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise _UsageError(f"axis scale must be linear or log, got {self.scale!r}")
        # an axis is an array, so its length must fit an index
        object.__setattr__(self, "steps", _usage(_checked_int, "axis", self.steps, "steps", 2, sys.maxsize))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise _UsageError("axis endpoints must be finite")
        if not self.start < self.stop:
            raise _UsageError(
                f"axis needs start < stop, got {self.start!r} >= {self.stop!r}"
            )
        if self.scale == "log" and self.start <= 0.0:
            raise _UsageError("log axis needs start > 0")

    @classmethod
    def parse(cls, text: str) -> "AxisSpec":
        parts = [p.strip() for p in str(text).split(",")]
        if len(parts) not in (3, 4):
            raise _UsageError(
                f"axis spec must be start,stop,steps[,scale], got {text!r}"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
        except ValueError as exc:
            raise _UsageError(f"bad axis spec {text!r}: {exc}") from None
        scale = parts[3] if len(parts) == 4 else "linear"
        return cls(start, stop, steps, scale)

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep request (flags and config file already merged)."""

    quantity: str
    output: str
    fmt: str = "csv"
    coupling_axis: AxisSpec | None = None
    drive_axis: AxisSpec | None = None
    sqrt_n_axis: AxisSpec | None = None
    p_values: tuple[int, ...] = ()
    fixed: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in SWEEP_QUANTITIES:
            raise _UsageError(
                f"quantity must be one of {', '.join(SWEEP_QUANTITIES)}; "
                f"got {self.quantity!r}"
            )
        if self.fmt not in ("csv", "json"):
            raise _UsageError(f"format must be csv or json, got {self.fmt!r}")
        object.__setattr__(self, "fixed", dict(self.fixed))


def _fixed_value(config: SweepConfig, key: str, required: bool, default=None):
    if key in config.fixed:
        return config.fixed[key]
    if required:
        raise _UsageError(
            f"quantity {config.quantity} requires a pinned parameter "
            f"'{key}' (use --fix {key}=VALUE)"
        )
    return default


_ALLOWED_FIXED = {
    "suppression_e0": {"phi"},
    "absorption_g1": {"phi"},
    "partial_e0n": {"phi", "n_prime"},
    "overlap_compare": {"phi", "omega_a", "omega_l"},
    "semiclassical_totals": {"phi", "n_bar"},
}


def _usage(check, flag: str, *args, refused=ValueError):
    """``check(*args)``, with a ``refused`` error turned into a usage error on ``flag``."""
    try:
        return check(*args)
    except refused as exc:
        raise _UsageError(f"bad {flag}: {exc}") from None


def _check_column(n: int, params: ModelParams, *ells: int) -> None:
    """The window of ket ``n``'s overlap column, and the blocks that reading ``ells``
    stretches it to, must fit the size limit; checked before anything is computed."""
    _usage(_column_blocks, "--omega-a/--omega-l", np.array([n, *ells]), n, params.beta)


def _grid_blocks(config: SweepConfig):
    """Columns, row count and a generator of blocks of formatted cells (whole
    drive rows, evaluated by a mesh kernel) for the coupling x drive grid."""
    if config.coupling_axis is None or config.drive_axis is None:
        raise _UsageError(
            f"quantity {config.quantity} sweeps the coupling and drive axes; "
            "both --omega-a and --omega-l axis specs are required"
        )
    if config.coupling_axis.start < 0.0 or config.drive_axis.start <= 0.0:
        raise _UsageError("the --omega-a axis must be >= 0 and the --omega-l axis > 0")
    phi = float(_fixed_value(config, "phi", required=False, default=0.0))
    if not math.isfinite(phi):
        raise _UsageError(f"phi must be finite, got {phi!r}")

    couplings = config.coupling_axis.values()
    drives = config.drive_axis.values()
    values = ["value"]
    if config.quantity == "suppression_e0":
        _usage(_check_drive_reach, "--omega-l", drives)
        kernel = suppression_e0_mesh
    elif config.quantity == "absorption_g1":
        kernel = absorption_g1_mesh
    elif config.quantity == "partial_e0n":
        n_prime = _fixed_value(config, "n_prime", required=True)
        if isinstance(n_prime, float) and n_prime.is_integer():
            n_prime = int(n_prime)  # --fix parses numbers: "2" and "2.0" are index 2
        kernel = partial(partial_e0_mesh, _usage(_checked_index, "n_prime", n_prime, "n_prime"))
    else:  # semiclassical_totals
        n_bar = float(_fixed_value(config, "n_bar", required=True))
        # the largest Bessel argument is the largest coupling's, at some drive
        _usage(_semiclassical_args, "n_bar/--omega-a/--omega-l", n_bar, couplings.max(), drives)
        kernel = partial(semiclassical_mesh, n_bar)
        values = ["gamma_e", "gamma_g"]
    columns = ["omega_L_over_omega0", "Omega_a_over_omega0", *values]

    from . import _text  # only the writers load it

    coupling_cells = _text.float_cells(couplings)
    drive_cells = _text.float_cells(drives)
    step = max(1, _SWEEP_BLOCK_CELLS // couplings.size)

    def blocks():
        for lo in range(0, drives.size, step):
            out = kernel(couplings[None, :], drives[lo : lo + step, None])
            rows = np.arange(lo, min(lo + step, drives.size))
            yield [
                drive_cells.take(np.repeat(rows, couplings.size)),
                coupling_cells.take(np.tile(np.arange(couplings.size), rows.size)),
                *np.reshape(out, (len(values), -1)),
            ]

    return columns, drives.size * couplings.size, blocks()


def _overlap_compare_blocks(config: SweepConfig):
    if config.sqrt_n_axis is None:
        raise _UsageError("overlap_compare sweeps a --sqrt-n axis; none given")
    if not config.p_values:
        raise _UsageError("overlap_compare needs at least one p value")
    coupling = float(_fixed_value(config, "omega_a", required=True))
    drive = float(_fixed_value(config, "omega_l", required=True))
    phi = float(_fixed_value(config, "phi", required=False, default=0.0))
    params = _usage(ModelParams.from_ratios, "omega_a/omega_l/phi", coupling, drive, phi)
    p_values = [_usage(_checked_int, "--p-values", p, "p") for p in config.p_values]

    points = []
    for sqrt_n in config.sqrt_n_axis.values().tolist():
        _usage(_check_reach, "--sqrt-n", sqrt_n * sqrt_n)  # a float product overflows to inf quietly
        n = round(sqrt_n**2)
        for p in p_values:
            _usage(_asymptotic_args, "--sqrt-n/--p-values/--fix", n, p, params)
            points.append((sqrt_n, n, p))
    for _, n, p in points:
        _check_column(n - p, params, n)  # overlap_exact(n, n - p) reads ket n - p at n

    columns = ["sqrt_n", "p", "exact_sq", "bessel_sq"]

    def blocks():
        for lo in range(0, len(points), _SWEEP_BLOCK_CELLS):
            block = points[lo : lo + _SWEEP_BLOCK_CELLS]
            squares = [
                (overlap_exact(n, n - p, params).abs_squared, overlap_bessel(n, p, params).abs_squared)
                for _, n, p in block
            ]
            sqrt_n, _, p = zip(*block)
            yield [np.array(sqrt_n), np.array(p, dtype=np.int64), *np.array(squares).T]

    return columns, len(points), blocks()


def run_sweep(config: SweepConfig) -> int:
    """Evaluate the configured grid and write it; returns the row count.

    Rows follow grid order (outer axis major), and each block is written
    as soon as it is evaluated to a temporary file that is renamed onto
    ``config.output`` at the end: the output is complete or absent.
    """
    unknown = set(config.fixed) - _ALLOWED_FIXED[config.quantity]
    if unknown:
        raise _UsageError(
            f"pinned parameters {sorted(unknown)} are not used by "
            f"{config.quantity}; allowed: {sorted(_ALLOWED_FIXED[config.quantity])}"
        )
    if config.quantity == "overlap_compare":
        columns, count, blocks = _overlap_compare_blocks(config)
    else:
        columns, count, blocks = _grid_blocks(config)
    from . import _text  # only the writers load it

    text = _json_chunks if config.fmt == "json" else _csv_chunks
    _text._write_atomically(config.output, text(config, columns, blocks), "sweep output")
    return count


def _csv_chunks(config: SweepConfig, columns, blocks):
    from . import _text  # only the writers load it

    head = f"# quantity={config.quantity}\n"
    if config.fixed:
        pinned = " ".join(f"{k}={config.fixed[k]!r}" for k in sorted(config.fixed))
        head += f"# fixed {pinned}\n"
    yield (head + ",".join(columns) + "\n").encode()
    for block in blocks:
        yield _text.rows_text(block, ",")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_chunks(config: SweepConfig, columns, blocks):
    """The text ``json.dump(payload, indent=1)`` writes, one block at a time."""
    import json

    from . import _text  # only the writers load it

    head = {"quantity": config.quantity, "fixed": dict(sorted(config.fixed.items())),
            "columns": list(columns)}
    separator = (json.dumps(head, indent=1)[:-2] + ',\n "rows": [\n').encode()
    for block in blocks:
        rows = _text.rows_text(block, ",\n   ", ",\n  [\n   ", "\n  ]", _JSON_NONFINITE)
        yield separator
        yield rows[2:]  # each row starts ",\n", the first row of all not
        separator = b",\n"
    yield b"\n ]\n}\n"


_CONFIG_KEYS = ("quantity", "output", "format", "omega_a", "omega_l", "sqrt_n", "p_values", "fix")


def _read_config_file(path: str) -> dict:
    """Plain declarative ``key = value`` lines; '#' starts a comment.

    Keys are the sweep flags (``_CONFIG_KEYS``); any other key is a usage
    error.  The ``fix`` key may repeat (``fix = name=value``); other
    repeated keys keep the last value, mirroring flag override order.
    """
    settings: dict = {}
    fixes: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                value = value.strip()
                if key not in _CONFIG_KEYS:
                    raise _UsageError(
                        f"{path}:{lineno}: unknown key {key!r}; allowed: {', '.join(_CONFIG_KEYS)}"
                    )
                if key == "fix":
                    fixes.append(value)
                else:
                    settings[key] = value
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from None
    if fixes:
        settings["fix"] = fixes
    return settings


def _parse_fix_entry(entry: str) -> tuple[str, float]:
    if "=" not in entry:
        raise _UsageError(f"--fix expects name=value, got {entry!r}")
    name, value = entry.split("=", 1)
    name = name.strip().replace("-", "_")
    try:
        return name, float(value)
    except ValueError:
        raise _UsageError(f"--fix {name} needs a numeric value, got {value!r}") from None


def _parse_p_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"p values must be comma-separated integers, got {text!r}") from None


def _cmd_sweep(args) -> int:
    # Flags override the file; the argparse dests are the _CONFIG_KEYS.
    settings = _read_config_file(args.config) if args.config else {}
    file_fixes = settings.pop("fix", [])
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _CONFIG_KEYS and key != "fix" and value is not None)
    if "quantity" not in settings:
        raise _UsageError("sweep needs a quantity (--quantity or config file)")
    if "output" not in settings:
        raise _UsageError("sweep needs an output path (--output or config file)")
    if settings["quantity"] == "overlap_compare":
        settings.setdefault("sqrt_n", _DEFAULT_SQRT_N_AXIS)
    else:
        settings.setdefault("omega_a", _DEFAULT_COUPLING_AXIS)
        settings.setdefault("omega_l", _DEFAULT_DRIVE_AXIS)
    axes = {key: AxisSpec.parse(settings[key]) if settings.get(key) else None
            for key in ("omega_a", "omega_l", "sqrt_n")}
    p_spec = settings.get("p_values", _DEFAULT_P_VALUES)

    config = SweepConfig(
        quantity=str(settings["quantity"]),
        output=str(settings["output"]),
        fmt=str(settings.get("format", "csv")),
        coupling_axis=axes["omega_a"],
        drive_axis=axes["omega_l"],
        sqrt_n_axis=axes["sqrt_n"],
        p_values=_parse_p_values(p_spec) if p_spec else (),
        # later entries win: flags override the file
        fixed=dict(map(_parse_fix_entry, [*file_fixes, *(args.fix or [])])),
    )
    count = run_sweep(config)
    print(f"wrote {count} rows ({config.quantity}) to {config.output}")
    return 0


def _params_from_args(args) -> ModelParams:
    return _usage(ModelParams.from_ratios, "--omega-a/--omega-l/--phi",
                  args.omega_a, args.omega_l, args.phi or 0.0)


def _state_from_args(args, params: ModelParams) -> DressedState:
    """The ``--branch``/``--n`` state, checked against the ladder-index and column limits.

    Rate tables from ``(e,n)`` reach index ``n + floor(omega0/omega_L)``
    (cascades from it reach no further); from ``(g,n)`` they stay at or
    below ``n``.  No ket past that reach is read.
    """
    state = _usage(DressedState, "--n", args.branch, args.n)
    finals = allowed_final_indices(state, params)
    reach = max(state.n, finals[-1] if finals else 0)
    _usage(_check_reach, "--n/--omega-l", reach)
    _check_column(reach, params)
    # a far-detuned (g,n) reads off its window; a photon frequency past 2**341 is refused
    channels = _usage(_candidate_final_indices, "--n/--omega-l", state, params)
    _check_column(state.n, params, *channels[:1], *channels[-1:])
    return state


def _cmd_rate(args) -> int:
    params = _params_from_args(args)
    state = _state_from_args(args, params)
    if args.to is not None:  # partial_rate refuses a final index out of reach before computing
        value = _usage(partial_rate, "--to", state, args.to, params)
        print(f"rate[({state.branch},{state.n}) -> {args.to}] = {value:.12g}  (gamma0 units)")
        return 0
    table = total_rate(state, params)
    rows = zip(table.final_n, table.rate_over_gamma0.tolist(), table.photon_freq.tolist())
    for n_prime, rate, freq in rows:
        print(f"-> ({table.final_branch},{n_prime})  rate = {rate:.12g}  "
              f"photon_freq = {freq:.12g}  (omega0 units)")
    print(f"total[({state.branch},{state.n})] = {table.total_over_gamma0:.12g}  (gamma0 units)")
    return 0


def _cmd_overlap(args) -> int:
    params = _params_from_args(args)
    _usage(_checked_index, "--ell", args.ell, "ell")
    _usage(_checked_index, "--n", args.n, "n")
    bra_sign = +1 if args.bra == "+" else -1
    if args.method == "bessel":
        if args.same:
            raise _UsageError("the asymptotic route only handles opposite ladders")
        # overlap_bessel checks its inputs (_asymptotic_args) before it computes.
        value = _usage(overlap_bessel, "--ell/--n/--omega-a/--omega-l",
                       args.ell, args.ell - args.n, params, bra_sign)
    else:
        if not args.same:
            _check_column(args.n, params, args.ell)
        ket_sign = bra_sign if args.same else None
        value = overlap_exact(args.ell, args.n, params, bra_sign, ket_sign)
    print(f"|overlap|   = {value.magnitude:.12g}")
    print(f"|overlap|^2 = {value.abs_squared:.12g}")
    print(f"ln|overlap| = {value.log_abs:.12g}")
    print(f"phase (rad) = {value.phase:.12g}")
    print(f"value       = {value.to_complex():.12g}")
    return 0


def _cmd_semiclassical(args) -> int:
    params = _params_from_args(args)
    _usage(_semiclassical_args, "--n-bar/--omega-a/--omega-l",
           args.n_bar, params.coupling_ratio, params.drive_ratio)
    totals = semiclassical_totals(args.n_bar, params)
    print(f"gamma_e = {totals.gamma_e:.12g}  (gamma0 units)")
    print(f"gamma_g = {totals.gamma_g:.12g}  (gamma0 units)")
    return 0


def _cmd_cascade(args) -> int:
    from .cascade import _MAX_SEED, _BinWidthError, _checked_bin_width, _checked_count, run_cascade

    _usage(_checked_bin_width, "--bin-width", args.bin_width)
    _usage(_checked_int, "--seed", args.seed, "seed", 0, _MAX_SEED)
    _usage(_checked_count, "--trajectories", args.trajectories)
    _usage(_checked_int, "--max-jumps", args.max_jumps, "max_jumps", 1)
    params = _params_from_args(args)
    start = _state_from_args(args, params)
    # A width too fine for the sampled frequencies is refused only after sampling.
    summary = _usage(run_cascade, "--bin-width", start, params, args.seed, args.trajectories,
                     args.output, args.max_jumps, args.bin_width, refused=_BinWidthError)
    if args.format == "json":
        import json

        print(json.dumps(summary, indent=1))
        return 0
    print(f"trajectories = {summary['trajectories']}\ntruncated = {summary['truncated']}\n"
          f"mean_jumps = {summary['mean_jumps']:.6g}\n"
          f"mean_total_time = {summary['mean_total_time']:.6g}  (1/gamma0 units)\n"
          f"total_photons = {summary['total_photons']}\nrng = {summary['rng']}\n"
          "spectrum (center omega/omega0, weight):")
    for center, weight in summary["spectrum"]:
        print(f"  {center:.6g}, {weight:.6g}")
    return 0


def _cmd_gamma0(args) -> int:
    if (args.dipole is None) == (args.dipole_debye is None):
        raise _UsageError("give exactly one of --dipole (C m) or --dipole-debye")
    dipole = args.dipole if args.dipole is not None else args.dipole_debye * DEBYE
    value = gamma0_si(_usage(Gamma0Params, "--omega0/--dipole", args.omega0, dipole))
    print(f"gamma0 = {value:.12g}  1/s")
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega-a", type=float, required=True, help="coupling magnitude over omega0")
    parser.add_argument("--omega-l", type=float, required=True, help="drive frequency over omega0")
    parser.add_argument("--phi", type=float, default=0.0, help="coupling phase in radians")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, like every other refusal
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polartls",
        description=(
            "Emission and absorption rates of a longitudinally driven polar "
            "two-level emitter (dimensionless ratios; rates in gamma0 units)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid sweep to CSV/JSON")
    sweep.add_argument("--quantity", choices=SWEEP_QUANTITIES)
    sweep.add_argument("--config", help="declarative key=value config file")
    sweep.add_argument(
        "--omega-a", metavar="START,STOP,STEPS[,SCALE]",
        help="coupling axis spec (Omega_a/omega0)",
    )
    sweep.add_argument(
        "--omega-l", metavar="START,STOP,STEPS[,SCALE]",
        help="drive axis spec (omega_L/omega0)",
    )
    sweep.add_argument(
        "--sqrt-n", metavar="START,STOP,STEPS[,SCALE]",
        help="sqrt(n) axis spec (overlap_compare only)",
    )
    sweep.add_argument("--p-values", help="comma-separated channel indices")
    sweep.add_argument(
        "--fix", action="append", metavar="NAME=VALUE",
        help="pin a scalar parameter (phi, n_prime, n_bar, omega_a, omega_l)",
    )
    sweep.add_argument("--output", help="output file path")
    sweep.add_argument("--format", choices=("csv", "json"))
    sweep.set_defaults(handler=_cmd_sweep)

    rate = sub.add_parser("rate", help="rate table or single partial rate")
    rate.add_argument("--branch", choices=("e", "g"), required=True)
    rate.add_argument("--n", type=int, required=True, help="initial ladder index")
    rate.add_argument("--to", type=int, help="final ladder index (partial rate)")
    _add_model_flags(rate)
    rate.set_defaults(handler=_cmd_rate)

    overlap = sub.add_parser("overlap", help="one cross-ladder overlap")
    overlap.add_argument("--ell", type=int, required=True, help="bra ladder index")
    overlap.add_argument("--n", type=int, required=True, help="ket ladder index")
    overlap.add_argument("--bra", choices=("+", "-"), default="+")
    ladders = overlap.add_mutually_exclusive_group()
    ladders.add_argument(
        "--opposite", dest="same", action="store_false",
        help="bra and ket on opposite ladders (default)",
    )
    ladders.add_argument(
        "--same", dest="same", action="store_true",
        help="bra and ket on the same ladder",
    )
    overlap.set_defaults(same=False)
    overlap.add_argument("--method", choices=("exact", "bessel"), default="exact")
    _add_model_flags(overlap)
    overlap.set_defaults(handler=_cmd_overlap)

    semi = sub.add_parser("semiclassical", help="large-index totals")
    semi.add_argument("--n-bar", type=float, required=True)
    _add_model_flags(semi)
    semi.set_defaults(handler=_cmd_semiclassical)

    cascade = sub.add_parser("cascade", help="cascade ensemble: log + summary")
    cascade.add_argument("--branch", choices=("e", "g"), required=True)
    cascade.add_argument("--n", type=int, required=True, help="starting ladder index")
    _add_model_flags(cascade)
    cascade.add_argument("--seed", type=int, required=True)
    cascade.add_argument("--trajectories", type=int, required=True)
    cascade.add_argument("--max-jumps", type=int, default=1000)
    cascade.add_argument("--output", required=True, help="trajectory log path")
    cascade.add_argument("--bin-width", type=float, default=0.05)
    cascade.add_argument("--format", choices=("csv", "json"), default="csv")
    cascade.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored: all trajectories advance in one numpy step",
    )
    cascade.set_defaults(handler=_cmd_cascade)

    gamma0 = sub.add_parser("gamma0", help="absolute decay rate in SI units")
    gamma0.add_argument("--omega0", type=float, required=True, help="rad/s")
    gamma0.add_argument("--dipole", type=float, help="dipole moment in C m")
    gamma0.add_argument("--dipole-debye", type=float, help="dipole moment in debye")
    gamma0.set_defaults(handler=_cmd_gamma0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # FloatingPointError: exit 1
            return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def __getattr__(name):
    # bench/inprocess.py wraps these cascade functions on cli, which imported them
    # once; they can go once it wraps run_cascade, which cli calls, instead.
    if name in ("emission_spectrum", "sample_ensemble", "write_trajectory_log"):
        from . import cascade

        return getattr(cascade, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
