"""The command line's exit-code contract as a property over generated argv.

Each argv is a valid one for its subcommand with up to two flags spoiled:
left out, or given 0, a negative, nan, +-inf, 1e300, an integer past 2**63,
a float for an integer flag, or an empty or malformed axis.  Whatever the
argv, ``cli.main`` returns 0, 1 or 2 without raising; a non-zero exit
writes one stderr line (``usage error:`` for 2, ``error:`` for 1) and
leaves no file; exit 0 writes nothing to stderr and prints only finite
rates and gamma0.

Valid sizes are capped so that the whole property runs in seconds:
at most 50 trajectories, 5 steps an axis and ladder index 50 (sqrt(n) up
to 7.5), couplings up to 4.5 and drives from 0.05 to 4.5, and every sweep
is given its axes (the default axes are 101 x 101 grids and a 20-point
sqrt(n) axis up to 1000).
Values that must be refused are drawn however large they are, since a
refusal comes before any compute; the valid seeds, jump caps and thread
counts are drawn over their whole range, since none of them sizes work.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import re
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polartls.cli import main

_PAST_INT64 = [str(2**63), str(2**64), str(-(2**63) - 1)]
BAD = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "2.5", "3.0",
                       "", "x", *_PAST_INT64])
BAD_AXIS = st.sampled_from(["", "0,1", "0,1,3,5,6", "1,0,3", "0,0,3", "0,1,1", "0,1,0", "0,1,-3",
                            "0,1,2.5", "0,1,3,cubic", "nan,1,3", "0,inf,3", "-inf,0,3", "-1,1,3",
                            "1e300,1e301,2", "1e200,1e201,2", "0,1,3,log",
                            *(f"0,1,{n}" for n in _PAST_INT64)])

RATIO = st.floats(0.05, 2.0).map(repr)
INDEX = st.integers(0, 50).map(str)
N_BAR = st.floats(1.0, 1e4).map(repr)
FLAG = st.just(None)  # a flag without a value


def _axis(lo, hi):
    @st.composite
    def axis(draw):
        start = draw(st.floats(lo, hi))
        stop = start + draw(st.floats(0.05, 2.5))
        scale = draw(st.sampled_from(["", ",linear", ",log" if start > 0 else ""]))
        return f"{start!r},{stop!r},{draw(st.integers(2, 5))}{scale}"

    return axis()


def _fix(name, values):
    return values.map(lambda value: f"{name}={value}")


MODEL = [("--omega-a", RATIO), ("--omega-l", RATIO), ("--phi", RATIO, "optional")]
STATE = [("--branch", st.sampled_from(["e", "g"])), ("--n", INDEX)]
# Per subcommand: (flag, valid values[, "optional"]).  Repeated flags (--fix) are listed once each.
SPECS = {
    "rate": [*STATE, *MODEL, ("--to", INDEX, "optional")],
    "overlap": [("--ell", INDEX), ("--n", INDEX), *MODEL, ("--bra", st.sampled_from("+-"), "optional"),
                ("--same", FLAG, "optional"), ("--method", st.sampled_from(["exact", "bessel"]))],
    "semiclassical": [("--n-bar", N_BAR), *MODEL],
    "cascade": [*STATE, *MODEL, ("--seed", st.integers(0, 2**64 - 1).map(str)),
                ("--trajectories", st.integers(0, 50).map(str)),
                ("--max-jumps", st.integers(1, 2**63).map(str), "optional"),
                ("--bin-width", st.floats(1e-3, 1.0).map(repr), "optional"),
                ("--format", st.sampled_from(["csv", "json"]), "optional"),
                ("--threads", st.integers(-(2**64), 2**64).map(str), "optional"),  # ignored
                ("--output", st.just("{out}"))],
    "gamma0": [("--omega0", st.floats(1e10, 1e17).map(repr)),
               ("--dipole", st.floats(0.0, 1e-28).map(repr), "optional"),
               ("--dipole-debye", st.floats(0.0, 10.0).map(repr), "optional")],
}
SWEEPS = {
    "suppression_e0": [("--omega-a", _axis(0.0, 2.0)), ("--omega-l", _axis(0.05, 2.0))],
    "absorption_g1": [("--omega-a", _axis(0.0, 2.0)), ("--omega-l", _axis(0.05, 2.0))],
    "partial_e0n": [("--omega-a", _axis(0.0, 2.0)), ("--omega-l", _axis(0.05, 2.0)),
                    ("--fix", _fix("n_prime", INDEX))],
    "semiclassical_totals": [("--omega-a", _axis(0.0, 2.0)), ("--omega-l", _axis(0.05, 2.0)),
                             ("--fix", _fix("n_bar", N_BAR))],
    "overlap_compare": [("--sqrt-n", _axis(1.0, 5.0)), ("--p-values", st.sampled_from(["0", "0,1"])),
                        ("--fix", _fix("omega_a", RATIO)), ("--fix", _fix("omega_l", RATIO))],
}


@st.composite
def argvs(draw):
    """A valid subcommand argv with up to two flags left out or given a bad value;
    ``{out}`` stands for the output path."""
    command = draw(st.sampled_from([*SPECS, "sweep"]))
    if command == "sweep":
        quantity = draw(st.sampled_from(list(SWEEPS)))
        # Every sweep gets its axes: the default axes are valid but large.
        specs = [("--quantity", st.just(quantity)), ("--output", st.just("{out}")), *SWEEPS[quantity],
                 ("--fix", _fix("phi", RATIO), "optional"),
                 ("--format", st.sampled_from(["csv", "json"]), "optional")]
    else:
        specs = SPECS[command]
    argv = []
    spoiled = draw(st.lists(st.integers(0, len(specs) - 1), max_size=2))
    for i, (flag, values, *optional) in enumerate(specs):
        if optional and draw(st.booleans()) or i in spoiled and (flag == "--output" or draw(st.booleans())):
            continue  # left out; a bad --output value would only name another file
        axis = flag in ("--omega-a", "--omega-l", "--sqrt-n") and command == "sweep"
        value = draw((BAD_AXIS if axis else BAD) if i in spoiled else values)
        argv += [flag] if value is None else [flag, value]
    if command == "sweep" and draw(st.integers(0, 9)) == 0:
        argv += ["--config", "{out}.cfg"]  # no such file
    return [command, *argv]


_ASSIGNED = re.compile(r"(\S+)\s*=\s*(\S+)")


def _printed_numbers(out: str):
    """``(name, value)`` of each ``name = number`` that ``out`` prints."""
    for name, token in _ASSIGNED.findall(out):
        try:
            yield name, complex(token)
        except ValueError:
            pass  # a name such as the rng scheme's


class TestContract:
    @given(argv=argvs())
    # Argv that broke the contract once: gamma0 printed inf, a float square overflowed, numpy's
    # linspace raised IndexError, the totals printed nan, a window's ends passed int64.
    @example(argv=["gamma0", "--omega0", "1e100", "--dipole", "1e10"])
    @example(argv=["sweep", "--quantity", "overlap_compare", "--sqrt-n", "1e200,1e201,2",
                   "--p-values", "0", "--fix", "omega_a=1", "--fix", "omega_l=0.5", "--output", "{out}"])
    @example(argv=["sweep", "--quantity", "absorption_g1", "--omega-a", f"0,1,{2**63}",
                   "--omega-l", "0.5,1,2", "--output", "{out}"])
    @example(argv=["semiclassical", "--n-bar", "1", "--omega-a", "0", "--omega-l", "1e300"])
    @example(argv=["overlap", "--ell", "0", "--n", "19", "--omega-a", str(2**64), "--omega-l", "1.1"])
    # Input that exited 1 before a check refused it: a photon frequency whose cube passes a
    # double, a trajectory count no array can have.
    @example(argv=["rate", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "1e300"])
    @example(argv=["cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "0.5",
                   "--seed", "1", "--trajectories", str(2**63), "--output", "{out}"])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    def test_exit_code_stderr_and_files(self, tmp_path, argv):
        workdir = Path(tempfile.mkdtemp(dir=tmp_path))
        argv = [arg.replace("{out}", str(workdir / "out")) for arg in argv]
        threads = threading.active_count()
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)  # whatever the argv, nothing lands outside the example's directory
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        out, err = out.getvalue(), err.getvalue()
        assert threading.active_count() == threads
        assert code in (0, 1, 2), (code, err)
        if code:
            prefix = "usage error: " if code == 2 else "error: "
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
            assert list(workdir.iterdir()) == []
            return
        assert err == ""
        if argv[0] == "cascade" and "json" in argv:
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out!r}"))
        for name, value in _printed_numbers(out):
            if name != "ln|overlap|":  # ln 0 = -inf for an exact zero
                assert cmath.isfinite(value), (argv, out)
