"""The float-to-text kernel behind every writer: exactly ``repr`` and ``str``."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polartls
import polartls.cascade as cascade_module
from polartls import _text, cli
from polartls.cascade import sample_ensemble, write_trajectory_log
from polartls.cli import main
from polartls.ladder import DressedState
from polartls.overlaps import ModelParams
from polartls.rates import semiclassical_mesh, suppression_e0_mesh


def rendered(values, nonfinite=None):
    return _text.rows_text([np.asarray(values, dtype=float)], "|", nonfinite=nonfinite).tobytes()


def expected(values):
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=float).tolist()).encode()


def assert_repr(values):
    got, want = rendered(values).splitlines(), expected(values).splitlines()
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad and len(got) == len(want), bad[:5]


class TestFloatsAreRepr:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, words):
        assert_repr(np.array(words, dtype=np.uint64).view(float))

    def test_random_bit_patterns(self):
        words = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
        assert_repr(words.view(float))

    @pytest.mark.parametrize("draw", ["uniform", "lognormal", "cumulative_exponential",
                                      "integers", "three_decimals"])
    def test_structured_classes(self, draw):
        rng = np.random.default_rng(7)
        values = {
            "uniform": lambda: rng.random(50_000),
            "lognormal": lambda: rng.lognormal(0.0, 30.0, 50_000),
            "cumulative_exponential": lambda: np.cumsum(rng.exponential(1.0, 50_000)),
            "integers": lambda: rng.integers(0, 2**53, 50_000).astype(float),
            "three_decimals": lambda: np.round(rng.random(50_000) * 1000.0, 3),
        }[draw]()
        assert_repr(np.concatenate([values, -values]))

    def test_powers_of_two_and_ten_with_neighbours(self):
        powers = np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)),
            np.array([float(f"1e{e}") for e in range(-323, 309)]),
        ])
        assert_repr(np.concatenate([powers, np.nextafter(powers, 0.0),
                                    np.nextafter(powers, np.inf), -powers]))

    def test_edge_cases(self):
        assert_repr([1e16, 9999999999999998.0, 1e-4, 1e-5, 0.0001, 2e23, 5e-324,
                     2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                     0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 0.3, 123456789012345680.0,
                     1e22, 1e23, 9007199254740993.0, 1.5, 100.0, 1e100, 1e-100])

    def test_nonfinite_lanes_take_the_given_text(self):
        table = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        text = rendered([np.nan, 1.0, np.inf, -np.inf, 5e-324], nonfinite=table)
        assert text.splitlines() == [b"NaN", b"1.0", b"Infinity", b"-Infinity", b"5e-324"]

    def test_empty(self):
        assert rendered([]) == b""


class TestCells:
    def test_integers_are_str(self):
        values = np.array([0, 7, -7, 10, -10, 123456789, 2**62, -(2**62), 10**18], dtype=np.int64)
        got = _text.rows_text([values], ",")
        assert got.dtype == np.uint8
        assert got.tobytes() == "".join(f"{v}\n" for v in values.tolist()).encode()

    def test_rows_are_joined_with_any_separators(self):
        floats = np.array([0.5, -1e-7, 3.0])
        ints = np.array([1, -22, 333])
        words = _text.str_cells(["a", "βγ", ""]).take(np.array([1, 2, 0]))
        for sep, start, end in ((",", "", "\n"), (" → ", "[", "]\n"), ("", "", "")):
            got = _text.rows_text([ints, words, floats], sep, start, end).tobytes()
            want = "".join(
                start + sep.join([str(i), w, repr(f)]) + end
                for i, w, f in zip(ints.tolist(), ["βγ", "", "a"], floats.tolist())
            ).encode()
            assert got == want


class TestBlockScratch:
    """rows_text's scratch per block row.  The block holds a row in fixed-width
    slots, at most about twice its text, and measuring one float column holds
    about 25 uint64 lanes (200 bytes) a value at once; nothing else is kept per
    row.  Cells copied per column, then copied again into the block, break it."""

    ROWS = 4096

    @staticmethod
    def grid(mesh, couplings, drives):
        """A sweep block as the CLI builds it: categorical axis cells and mesh values."""
        rows = np.arange(TestBlockScratch.ROWS // couplings.size)
        values = np.reshape(mesh(couplings[None, :], drives[rows, None]), (-1, rows.size * couplings.size))
        return [_text.float_cells(drives).take(np.repeat(rows, couplings.size)),
                _text.float_cells(couplings).take(np.tile(np.arange(couplings.size), rows.size)),
                *values]

    def block(self, row):
        if row == "sweep":
            return self.grid(suppression_e0_mesh, np.linspace(0.0, 4.15, 401), np.linspace(0.0514, 2.0, 401))
        if row == "semiclassical":
            return self.grid(lambda c, d: np.stack(semiclassical_mesh(9928.0, c, d)),
                             np.geomspace(1.07e-4, 1.01e-2, 101), np.linspace(0.1098, 2.0, 101))
        rng = np.random.default_rng(3)  # log: trajectory, jump, time, transition
        trajectory = np.repeat(np.arange(70_000, 70_000 + self.ROWS), 3)[: self.ROWS]
        tails = _text.str_cells(f"e,{n},g,{n + 1},{rng.random()!r}" for n in range(40))
        return [trajectory, np.arange(self.ROWS) % 3, np.cumsum(rng.exponential(0.1, self.ROWS)),
                tails.take(rng.integers(0, 40, self.ROWS))]

    @pytest.mark.parametrize("row", ["sweep", "semiclassical", "log"])
    def test_scratch_per_row(self, row):
        columns = self.block(row)
        _text.rows_text(columns, ",")  # the power and layout tables
        tracemalloc.start()
        try:
            text = _text.rows_text(columns, ",")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = text.tobytes().count(b"\n")
        assert rows >= 0.95 * self.ROWS
        scratch, width = (peak - text.nbytes) / rows, text.nbytes / rows
        assert scratch <= 2 * width + 200, (scratch, width)


class TestTrajectoryLogText:
    @staticmethod
    def reference(ensemble, delimiter):
        lines = ["# " + delimiter.join(["trajectory_id", "jump_index", "time", "from_branch",
                                         "from_n", "to_branch", "to_n", "photon_freq"]) + "\n"]
        for tid, trajectory in enumerate(ensemble):
            for j, (t, rec) in enumerate(trajectory.jumps):
                fields = [str(tid), str(j), repr(t), rec.initial.branch, str(rec.initial.n),
                          rec.final.branch, str(rec.final.n), repr(rec.photon_freq)]
                lines.append(delimiter.join(fields) + "\n")
        return "".join(lines)

    @pytest.mark.parametrize("delimiter", [",", "\t", ", ", " → "])
    def test_text_is_the_joined_fields(self, tmp_path, delimiter):
        ensemble = sample_ensemble(DressedState("e", 6), ModelParams.from_ratios(1.0, 0.45),
                                   seed=77, n_trajectories=300)
        path = tmp_path / "log.txt"
        write_trajectory_log(ensemble, path, delimiter=delimiter)
        assert path.read_text(encoding="utf-8") == self.reference(ensemble, delimiter)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_do_not_change_the_text(self, tmp_path, monkeypatch, rows):
        ensemble = sample_ensemble(DressedState("e", 4), ModelParams.from_ratios(0.8, 0.5),
                                   seed=5, n_trajectories=20)
        write_trajectory_log(ensemble, tmp_path / "whole.log")
        monkeypatch.setattr(cascade_module, "_BLOCK", rows)
        write_trajectory_log(ensemble, tmp_path / "blocks.log")
        whole = (tmp_path / "whole.log").read_text()
        assert (tmp_path / "blocks.log").read_text() == whole == self.reference(ensemble, ",")

    @pytest.mark.parametrize(
        "start, trajectories",
        [(DressedState("e", 6), 0), (DressedState("g", 0), 4)],  # none, and a dark start
    )
    def test_no_jumps_is_the_header_alone(self, tmp_path, start, trajectories):
        ensemble = sample_ensemble(start, ModelParams.from_ratios(1.0, 0.45), seed=1,
                                   n_trajectories=trajectories)
        path = tmp_path / "log.csv"
        write_trajectory_log(ensemble, path)
        assert path.read_text() == self.reference(ensemble, ",")
        assert path.read_text().count("\n") == 1


class TestSweepBlocks:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cells", [1, 3])
    def test_overlap_compare_blocks_do_not_change_the_text(self, tmp_path, monkeypatch, fmt,
                                                           cells):
        argv = ["sweep", "--quantity", "overlap_compare", "--sqrt-n", "100,300,4,log",
                "--p-values=-1,0,2", "--fix", "omega_a=0.001", "--fix", "omega_l=0.9",
                "--format", fmt]
        assert main([*argv, "--output", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", cells)
        assert main([*argv, "--output", str(tmp_path / "blocks")]) == 0
        text = (tmp_path / "whole").read_text()
        assert (tmp_path / "blocks").read_text() == text
        if fmt == "json":
            rows = json.loads(text)["rows"]
            assert [row[1] for row in rows[:3]] == [-1, 0, 2]
            assert text == json.dumps(json.loads(text), indent=1) + "\n"

    def test_json_nonfinite_cells(self, tmp_path, monkeypatch):
        def mesh(coupling, drive):
            out = np.broadcast_to(coupling * drive, np.broadcast_shapes(coupling.shape,
                                                                        drive.shape)).copy()
            out.flat[::3] = np.nan
            out.flat[1::3] = -np.inf
            return out

        monkeypatch.setattr(cli, "absorption_g1_mesh", mesh)
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 3)
        path = tmp_path / "s.json"
        argv = ["sweep", "--quantity", "absorption_g1", "--omega-a", "1,2,3",
                "--omega-l", "1,2,2", "--format", "json", "--output", str(path)]
        assert main(argv) == 0
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        values = [row[2] for row in json.loads(text)["rows"]]
        assert np.isnan(values[0]) and np.isnan(values[3])
        assert values[1] == values[4] == -np.inf and values[2] == 2.0 and values[5] == 4.0


SCRIPT = """
import json, sys
from polartls.cli import main
code = main(["gamma0", "--omega0", "2.4e15", "--dipole-debye", "1"])
text = sys.modules.get("polartls._text")
print(json.dumps({"code": code, "built": text._tables.cache_info().currsize if text else 0}))
"""


def test_gamma0_builds_no_kernel_table():
    package_root = str(Path(polartls.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"code": 0, "built": 0}
