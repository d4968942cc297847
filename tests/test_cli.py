"""Command-line interface: sweeps, queries, config merging, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polartls import _text, cascade, cli, numerics, overlaps
from polartls.cascade import RNG_SCHEME, emission_spectrum, run_cascade, sample_ensemble, write_trajectory_log
from polartls.cli import AxisSpec, SweepConfig, main, run_sweep
from polartls.ladder import DressedState, allowed_final_indices
from polartls.rates import (
    absorption_g1_mesh,
    absorption_rate_g1,
    partial_e0_mesh,
    partial_rate,
    semiclassical_totals,
    suppression_e0_mesh,
    suppression_rate_e0,
)
from polartls.overlaps import ModelParams


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestAxisSpec:
    def test_parse_linear(self):
        ax = AxisSpec.parse("0,4,101")
        assert (ax.start, ax.stop, ax.steps, ax.scale) == (0.0, 4.0, 101, "linear")
        vals = ax.values()
        assert vals[0] == 0.0 and vals[-1] == 4.0 and len(vals) == 101

    def test_parse_log(self):
        ax = AxisSpec.parse("100, 1000, 5, log")
        vals = ax.values()
        assert vals[0] == pytest.approx(100.0)
        assert vals[-1] == pytest.approx(1000.0)
        ratios = vals[1:] / vals[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_invalid(self):
        from polartls.cli import _UsageError

        with pytest.raises(_UsageError):
            AxisSpec.parse("1,2")
        with pytest.raises(_UsageError):
            AxisSpec.parse("2,1,10")
        with pytest.raises(_UsageError):
            AxisSpec.parse("0,1,1")
        with pytest.raises(_UsageError):
            AxisSpec.parse("0,10,5,log")

    def test_steps_must_fit_an_array_length(self):
        from polartls.cli import _UsageError

        assert AxisSpec.parse(f"0,1,{2**63 - 1}").steps == 2**63 - 1
        # numpy's linspace wrapped 2**63 steps to an empty array and raised IndexError
        with pytest.raises(_UsageError, match="steps must be an integer >= 2 and <= "):
            AxisSpec.parse(f"0,1,{2**63}")


class TestSweepCommand:
    def test_suppression_csv_schema(self, tmp_path):
        out = tmp_path / "sup.csv"
        code = main(
            [
                "sweep",
                "--quantity", "suppression_e0",
                "--omega-a", "0,4,6",
                "--omega-l", "0.5,2,4",
                "--output", str(out),
            ]
        )
        assert code == 0
        comments, header, rows = read_csv(out)
        assert comments[0] == "# quantity=suppression_e0"
        assert header == ["omega_L_over_omega0", "Omega_a_over_omega0", "value"]
        assert len(rows) == 24
        # spot-check one cell against the library
        drive, coupling, value = map(float, rows[7])
        assert value == suppression_rate_e0(ModelParams.from_ratios(coupling, drive))

    def test_csv_round_trips_bit_exactly(self, tmp_path):
        out = tmp_path / "a.csv"
        argv = [
            "sweep",
            "--quantity", "absorption_g1",
            "--omega-a", "0,6,9",
            "--omega-l", "1.1,2.5,5",
            "--output", str(out),
        ]
        assert main(argv) == 0
        _, _, rows = read_csv(out)
        reparsed = [[float(c) for c in row] for row in rows]
        out2 = tmp_path / "b.csv"
        assert main(argv[:-1] + [str(out2)]) == 0
        _, _, rows2 = read_csv(out2)
        again = [[float(c) for c in row] for row in rows2]
        assert reparsed == again
        # values rebuild the exact library output
        for drive, coupling, value in reparsed:
            from polartls.rates import absorption_rate_g1

            assert value == absorption_rate_g1(ModelParams.from_ratios(coupling, drive))

    def test_partial_sweep_needs_n_prime(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            [
                "sweep",
                "--quantity", "partial_e0n",
                "--omega-a", "0,2,4",
                "--omega-l", "0.3,0.9,3",
                "--output", str(out),
            ]
        )
        assert code == 2
        assert "n_prime" in capsys.readouterr().err

    def test_partial_sweep_with_closed_channels(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            [
                "sweep",
                "--quantity", "partial_e0n",
                "--omega-a", "0,2,5",
                "--omega-l", "0.3,1.5,7",
                "--fix", "n_prime=2",
                "--output", str(out),
            ]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        data = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        # channel n'=2 is closed when the drive exceeds half the bare
        # frequency, so those cells must be exactly zero
        assert data[(1.5, 2.0)] == 0.0
        assert data[(0.3, 2.0)] > 0.0

    def test_overlap_compare_sweep(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "sweep",
                "--quantity", "overlap_compare",
                "--sqrt-n", "100,200,3,log",
                "--p-values", "0,1",
                "--fix", "omega_a=0.001",
                "--fix", "omega_l=0.9",
                "--output", str(out),
            ]
        )
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == ["sqrt_n", "p", "exact_sq", "bessel_sq"]
        assert len(rows) == 6
        for row in rows:
            exact_sq, bessel_sq = float(row[2]), float(row[3])
            assert exact_sq == pytest.approx(bessel_sq, rel=1e-3)

    def test_overlap_compare_p_values_follow_the_integer_rule(self, tmp_path):
        from polartls.cli import _UsageError

        def sweep(p):
            out = tmp_path / "cmp.csv"
            run_sweep(SweepConfig(
                quantity="overlap_compare", output=str(out), sqrt_n_axis=AxisSpec(100.0, 200.0, 2),
                p_values=(p,), fixed={"omega_a": 0.001, "omega_l": 0.9},
            ))
            return out.read_text()

        assert sweep(np.int64(1)) == sweep(1)
        for bad in (True, 1.0, 1.5):
            with pytest.raises(_UsageError):
                sweep(bad)

    def test_semiclassical_sweep_two_columns(self, tmp_path):
        out = tmp_path / "semi.csv"
        code = main(
            [
                "sweep",
                "--quantity", "semiclassical_totals",
                "--omega-a", "0.001,0.01,3",
                "--omega-l", "0.5,1.5,3",
                "--fix", "n_bar=10000",
                "--output", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == [
            "omega_L_over_omega0",
            "Omega_a_over_omega0",
            "gamma_e",
            "gamma_g",
        ]
        for row in rows:
            assert float(row[2]) >= float(row[3])

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(
            [
                "sweep",
                "--quantity", "suppression_e0",
                "--omega-a", "0,1,3",
                "--omega-l", "0.4,0.8,2",
                "--format", "json",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["quantity"] == "suppression_e0"
        assert payload["columns"] == [
            "omega_L_over_omega0",
            "Omega_a_over_omega0",
            "value",
        ]
        assert len(payload["rows"]) == 6

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_file = tmp_path / "from_file.csv"
        cfg.write_text(
            "# comment line\n"
            "quantity = suppression_e0\n"
            "omega-a = 0,2,3\n"
            "omega_l = 0.4,1.2,3\n"
            f"output = {out_file}\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert out_file.exists()
        # flags override the file: same config, different axis length
        out2 = tmp_path / "override.csv"
        assert (
            main(
                [
                    "sweep",
                    "--config", str(cfg),
                    "--omega-a", "0,2,5",
                    "--output", str(out2),
                ]
            )
            == 0
        )
        _, _, rows = read_csv(out2)
        assert len(rows) == 15

    @pytest.mark.parametrize("key", ["omgea_a", "threads"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "sweep.cfg"
        out_file = tmp_path / "out.csv"
        cfg.write_text(
            "quantity = absorption_g1\n"
            f"output = {out_file}\n"
            f"{key} = 0,1,3\n"
            "omega_l = 1.1,2,3\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "omega_a" in err and "p_values" in err
        assert not out_file.exists()

    def test_n_prime_text_is_an_index(self, tmp_path):
        base = ["sweep", "--quantity", "partial_e0n",
                "--omega-a", "0,2,4", "--omega-l", "0.3,0.9,3"]
        texts = []
        for value in ("2", "2.0"):
            out = tmp_path / f"p{value}.csv"
            assert main(base + ["--fix", f"n_prime={value}", "--output", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert "# fixed n_prime=2.0\n" in texts[0]

    @pytest.mark.parametrize("value", ["2.5", "inf", "nan", "-1", "1000001"])
    def test_bad_n_prime_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "p.csv"
        argv = ["sweep", "--quantity", "partial_e0n", "--omega-a", "0,2,4",
                "--omega-l", "0.3,0.9,3", "--fix", f"n_prime={value}", "--output", str(out)]
        assert main(argv) == 2
        assert "n_prime" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_fixed_parameter_rejected(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--quantity", "suppression_e0",
                "--fix", "bogus=1",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, capsys):
        code = main(
            [
                "sweep",
                "--quantity", "suppression_e0",
                "--omega-a", "0,1,2",
                "--omega-l", "0.5,1,2",
                "--output", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 1
        assert "/nonexistent-dir/x.csv" in capsys.readouterr().err


def sweep_cells(tmp_path, name, quantity, coupling, drive, *extra):
    """Run a sweep; return its text and rows as (drive, coupling, values...)."""
    out = tmp_path / name
    argv = ["sweep", "--quantity", quantity, "--omega-a", coupling, "--omega-l", drive]
    assert main([*argv, *extra, "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    return out.read_text(), [[float(cell) for cell in row] for row in rows]


class TestSweepMesh:
    """Every CSV cell equals the scalar library call on its own ratios, on odd
    grids with zero coupling and drives on the channel boundaries, and the
    text does not depend on how the grid is cut into blocks."""

    def test_suppression(self, tmp_path):
        _, rows = sweep_cells(tmp_path, "s.csv", "suppression_e0", "0,4,5", "0.25,0.5,7")
        assert {d for d, *_ in rows} >= {0.25, 1 / 3, 0.5}
        for drive, coupling, value in rows:
            assert value == suppression_rate_e0(ModelParams.from_ratios(coupling, drive))
            assert value == 1.0 or coupling > 0.0

    def test_absorption(self, tmp_path):
        _, rows = sweep_cells(tmp_path, "a.csv", "absorption_g1", "0,4,5", "0.5,2.5,5")
        for drive, coupling, value in rows:
            assert value == absorption_rate_g1(ModelParams.from_ratios(coupling, drive))
        assert any(v > 0.0 for *_, v in rows) and any(v == 0.0 for *_, v in rows)

    def test_absorption_past_the_range_of_the_cube(self, tmp_path, capsys):
        # (omega_L - 1)^3 overflows at omega_L = 1e200 and 1e300, but each rate,
        # e^{-beta^2} beta^2 (omega_L - 1)^3 ~ Omega_a^2 omega_L / 4, is a double
        _, rows = sweep_cells(tmp_path, "a.csv", "absorption_g1", "0.5,1,2", "1e200,1e300,2")
        assert len(rows) == 4
        for drive, coupling, value in rows:
            assert value == absorption_rate_g1(ModelParams.from_ratios(coupling, drive))
            assert value == pytest.approx(coupling**2 * drive / 4.0, rel=1e-15)
        # a rate past a double's range is still an error: Omega_a^2 omega_L / 4 ~ 1e319
        argv = ["sweep", "--quantity", "absorption_g1", "--omega-a", "1e100,1e101,2",
                "--omega-l", "1e120,1e121,2", "--output", str(tmp_path / "b.csv")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: overflow encountered in multiply\n")
        assert not (tmp_path / "b.csv").exists()

    def test_partial_e0n(self, tmp_path):
        _, rows = sweep_cells(
            tmp_path, "p.csv", "partial_e0n", "0,4,5", "0.25,0.75,7", "--fix", "n_prime=2"
        )
        state, closed = DressedState("e", 0), 0
        for drive, coupling, value in rows:
            assert value == float(partial_e0_mesh(2, coupling, drive))
            params = ModelParams.from_ratios(coupling, drive)
            if 2 not in allowed_final_indices(state, params):
                assert value == 0.0
                closed += 1
            else:
                want = partial_rate(state, 2, params)
                assert abs(value - want) <= 1e-13 * want
        assert closed == 3 * 5  # drives 0.58, 0.67, 0.75

    def test_semiclassical(self, tmp_path):
        _, rows = sweep_cells(
            tmp_path, "t.csv", "semiclassical_totals", "0,0.01,5", "0.25,0.5,7",
            "--fix", "n_bar=10000",
        )
        for drive, coupling, gamma_e, gamma_g in rows:
            params = ModelParams.from_ratios(coupling, drive)
            assert (gamma_e, gamma_g) == tuple(semiclassical_totals(1e4, params))

    @pytest.mark.parametrize(
        "quantity, extra",
        [
            ("suppression_e0", []),
            ("absorption_g1", []),
            ("partial_e0n", ["--fix", "n_prime=1"]),
            ("semiclassical_totals", ["--fix", "n_bar=400"]),
        ],
    )
    def test_blocks_do_not_change_the_text(self, tmp_path, monkeypatch, quantity, extra):
        coupling = "0,0.02,5" if quantity == "semiclassical_totals" else "0,4,5"
        whole, _ = sweep_cells(tmp_path, "whole.csv", quantity, coupling, "0.25,1.5,7", *extra)
        json_argv = ["sweep", "--quantity", quantity, "--omega-a", coupling, "--omega-l",
                     "0.25,1.5,7", *extra, "--format", "json"]
        assert main([*json_argv, "--output", str(tmp_path / "whole.json")]) == 0
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 3)  # one drive row per block
        rowwise, _ = sweep_cells(tmp_path, "rows.csv", quantity, coupling, "0.25,1.5,7", *extra)
        assert rowwise == whole
        assert main([*json_argv, "--output", str(tmp_path / "rows.json")]) == 0
        assert (tmp_path / "rows.json").read_text() == (tmp_path / "whole.json").read_text()
        # the first two rows alone, as a sweep of their own
        second = float(np.linspace(0.25, 1.5, 7)[1])
        first, _ = sweep_cells(
            tmp_path, "first.csv", quantity, coupling, f"0.25,{second!r},2", *extra
        )
        lines = first.splitlines()
        assert len(lines) > 10 and whole.splitlines()[: len(lines)] == lines

    @pytest.mark.parametrize("quantity", ["suppression_e0", "overlap_compare"])
    def test_json_is_what_json_dump_writes(self, tmp_path, quantity):
        out = tmp_path / "s.json"
        argv = ["sweep", "--quantity", quantity, "--format", "json", "--output", str(out)]
        if quantity == "overlap_compare":
            argv += ["--sqrt-n", "100,200,3,log", "--p-values", "0,1",
                     "--fix", "omega_a=0.001", "--fix", "omega_l=0.9"]
        else:
            argv += ["--omega-a", "0,2,3", "--omega-l", "0.4,0.8,3", "--fix", "phi=0.5"]
        assert main(argv) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_midway_leaves_no_file(self, tmp_path, monkeypatch, capsys, fmt):
        calls = []

        def fails_on_third_block(coupling, drive):
            calls.append(drive.size)
            if len(calls) == 3:
                raise ArithmeticError("injected failure")
            return suppression_e0_mesh(coupling, drive)

        monkeypatch.setattr(cli, "suppression_e0_mesh", fails_on_third_block)
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 5)
        argv = ["sweep", "--quantity", "suppression_e0", "--omega-a", "0,1,5",
                "--omega-l", "0.5,1,6", "--format", fmt]
        out = tmp_path / "s.out"
        assert main([*argv, "--output", str(out)]) == 1
        assert calls == [1, 1, 1]
        assert "injected failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # an earlier output is left exactly as it was
        out.write_text("earlier\n")
        calls.clear()
        assert main([*argv, "--output", str(out)]) == 1
        assert list(tmp_path.iterdir()) == [out] and out.read_text() == "earlier\n"


class TestQueryCommands:
    def test_rate_uncoupled(self, capsys):
        code = main(
            ["rate", "--branch", "e", "--n", "0", "--omega-a", "0", "--omega-l", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total[(e,0)] = 1" in out

    def test_rate_single_channel(self, capsys):
        code = main(
            [
                "rate",
                "--branch", "e",
                "--n", "0",
                "--to", "1",
                "--omega-a", "0.25",
                "--omega-l", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.0821391450896" in out

    def test_rate_drive_ratio_past_index_limit(self, capsys):
        code = main(
            ["rate", "--branch", "e", "--n", "0", "--omega-a", "1", "--omega-l", "1e-9"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--omega-l" in err and "1000000" in err
        assert "ell" not in err

    @pytest.mark.parametrize("to", [[], ["--to", "0"]])
    def test_rate_photon_frequency_past_a_double_when_cubed(self, capsys, monkeypatch, to):
        # (e,5) at omega_L = 1e300 emits at 5e300 omega0, whose cube raised OverflowError (exit 1)
        def no_compute(*args, **kwargs):
            raise AssertionError("computed a rate past the photon frequency limit")

        for name in ("total_rate", "partial_rate"):
            monkeypatch.setattr(cli, name, no_compute)
        argv = ["rate", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "1e300", *to]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad --n/--omega-l:") and "2**341" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["overlap", "--ell", "2000000", "--n", "0"], "--ell"),
            (["overlap", "--ell", "3", "--n", "-1"], "--n"),
            (["overlap", "--ell", "0", "--n", "0", "--method", "bessel"], "--ell/--n"),
            (["semiclassical", "--n-bar", "-5"], "--n-bar"),
            (["semiclassical", "--n-bar", "0.4"], "--n-bar"),
        ],
    )
    def test_bad_index_is_usage_error(self, capsys, argv, flag):
        assert main([*argv, "--omega-a", "1", "--omega-l", "0.5"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--fix", "n_bar=-5"],
            ["--fix", "n_bar=0"],
            ["--fix", "n_bar=nan"],
            ["--fix", "n_bar=100", "--omega-l=-1,2,5"],
            ["--fix", "n_bar=100", "--omega-a=-1,2,5"],
            ["--fix", "n_bar=100", "--fix", "phi=inf"],
        ],
    )
    def test_bad_sweep_input_is_usage_error_and_writes_nothing(
        self, tmp_path, capsys, extra
    ):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--quantity", "semiclassical_totals", "--output", str(out)]
        assert main([*argv, *extra]) == 2
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axis, p", [("2000,3000,2", "0"), ("999,1000,2", "-1")])
    def test_ket_past_the_index_limit_is_usage_error(self, tmp_path, capsys, monkeypatch, axis, p):
        # n = round(sqrt_n**2), then n - p, passes 10**6; omega_a = 0 leaves x = 0
        def no_compute(*args, **kwargs):
            raise AssertionError("computed past the ladder-index limit")

        for module, name in [(overlaps, "_column"), (overlaps, "_cached_column"),
                             (numerics, "_miller_columns")]:
            monkeypatch.setattr(module, name, no_compute)
        argv = ["sweep", "--quantity", "overlap_compare", "--sqrt-n", axis, "--p-values", p,
                "--fix", "omega_a=0", "--fix", "omega_l=0.5", "--output", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--sqrt-n" in err and "1000000" in err
        assert list(tmp_path.iterdir()) == []

    def test_sqrt_n_past_a_double_when_squared_is_usage_error(self, tmp_path, capsys):
        # round(float(sqrt_n) ** 2) raised OverflowError (exit 1) before any limit was compared
        argv = ["sweep", "--quantity", "overlap_compare", "--sqrt-n", "1e200,1e201,2", "--p-values", "0",
                "--fix", "omega_a=1", "--fix", "omega_l=0.5", "--output", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad --sqrt-n: ") and "past the limit 1000000" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_rate_unreachable_channel(self, capsys):
        code = main(
            [
                "rate",
                "--branch", "g",
                "--n", "0",
                "--to", "0",
                "--omega-a", "1",
                "--omega-l", "0.5",
            ]
        )
        assert code == 2

    def test_overlap_ground_pair(self, capsys):
        code = main(
            [
                "overlap",
                "--ell", "0",
                "--n", "0",
                "--omega-a", "0.25",
                "--omega-l", "0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"{math.exp(-0.125):.12g}"[:12] in out

    def test_overlap_same_ladder(self, capsys):
        code = main(
            [
                "overlap",
                "--ell", "4",
                "--n", "4",
                "--same",
                "--omega-a", "1",
                "--omega-l", "0.5",
            ]
        )
        assert code == 0
        assert "|overlap|   = 1" in capsys.readouterr().out

    def test_semiclassical_pair(self, capsys):
        code = main(
            [
                "semiclassical",
                "--n-bar", "100",
                "--omega-a", "0.2",
                "--omega-l", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma_e" in out and "gamma_g" in out
        assert "0.600110949" in out

    def test_gamma0_debye(self, capsys):
        code = main(["gamma0", "--omega0", "2.4e15", "--dipole-debye", "1"])
        assert code == 0
        assert "648685.5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["--omega0", "-1", "--dipole", "1e-30"], ["--omega0", "nan", "--dipole", "1e-30"],
                 ["--omega0", "1e15", "--dipole", "-1"]],
    )
    def test_gamma0_bad_input_is_usage_error(self, capsys, argv):
        assert main(["gamma0", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad --omega0/--dipole: ")

    def test_gamma0_overflow_is_one_line_error(self, capsys):
        assert main(["gamma0", "--omega0", "1e200", "--dipole-debye", "1e200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the gamma0 result overflows a double") and err.count("\n") == 1

    def test_gamma0_product_past_a_double_is_one_line_error(self, capsys):
        # omega0**3 = 1e300 is finite; the products after it overflowed to inf quietly
        assert main(["gamma0", "--omega0", "1e100", "--dipole", "1e10"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the gamma0 result overflows a double") and err.count("\n") == 1

    def test_gamma0_needs_exactly_one_dipole(self, capsys):
        assert main(["gamma0", "--omega0", "1e15"]) == 2
        assert (
            main(
                [
                    "gamma0",
                    "--omega0", "1e15",
                    "--dipole", "1e-30",
                    "--dipole-debye", "1",
                ]
            )
            == 2
        )


class TestCascadeCommand:
    def test_log_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "cascade",
                "--branch", "e",
                "--n", "5",
                "--omega-a", "0.5",
                "--omega-l", "0.5",
                "--seed", "7",
                "--trajectories", "50",
                "--output", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "trajectories = 50" in printed
        assert "mean_jumps" in printed
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# trajectory_id")

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "cascade",
                "--branch", "e",
                "--n", "0",
                "--omega-a", "0",
                "--omega-l", "0.5",
                "--seed", "3",
                "--trajectories", "20",
                "--format", "json",
                "--output", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trajectories"] == 20
        assert summary["mean_jumps"] == 1.0

    def test_deterministic_log(self, tmp_path):
        argv = [
            "cascade",
            "--branch", "e",
            "--n", "6",
            "--omega-a", "0.9",
            "--omega-l", "0.45",
            "--seed", "11",
            "--trajectories", "30",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b), "--threads", "4"]) == 0
        assert a.read_text() == b.read_text()

    def test_summary_names_rng_and_log_header_stays_bare(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        argv = [
            "cascade", "--branch", "e", "--n", "3", "--omega-a", "0.5",
            "--omega-l", "0.5", "--seed", "1", "--trajectories", "10",
            "--output", str(out),
        ]
        assert main(argv) == 0
        assert "rng = philox4x64-inv-v2" in capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rng"] == "philox4x64-inv-v2"
        assert out.read_text().splitlines()[0] == (
            "# trajectory_id,jump_index,time,from_branch,from_n,"
            "to_branch,to_n,photon_freq"
        )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bin-width", "0"),
            ("--bin-width", "nan"),
            ("--seed", "-1"),
            ("--seed", str(2**64)),
            ("--trajectories", "-1"),
            ("--trajectories", str(2**63)),  # no array has that length; once exit 1
            ("--max-jumps", "0"),
            ("--omega-l", "0"),
            ("--omega-l", "1e300"),  # a photon frequency that cubes past a double; once exit 1
            ("--n", "-2"),
        ],
    )
    def test_bad_input_is_usage_error_and_writes_nothing(
        self, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "traj.csv"
        argv = [
            "cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5",
            "--omega-l", "0.5", "--seed", "1", "--trajectories", "1000",
            "--output", str(out),
        ]
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_bin_width_failure_leaves_no_log(self, tmp_path, capsys, monkeypatch):
        # The spectrum is built before the log is written, so a width it
        # cannot bin leaves no file.
        out = tmp_path / "traj.csv"
        argv = ["cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "0.5",
                "--seed", "1", "--trajectories", "100", "--output", str(out)]
        # bin indices near 1e300 are past 2**53 (they overflowed int64 before)
        assert main([*argv, "--bin-width", "1e-300"]) == 2
        assert "--bin-width" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # 2.5e12 bins would take 18 TiB; the allocation failure is injected
        bincount = np.bincount

        def no_memory(x, weights=None, minlength=0):
            if minlength > 1 << 30:
                raise MemoryError("Unable to allocate 18.2 TiB")
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", no_memory)
        assert main([*argv, "--bin-width", "1e-12"]) == 1
        assert "out of memory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _library_cascade(tmp_path, start, ratios, seed, count, max_jumps, bin_width):
    """The log bytes and the summary of a cascade run built from the library's
    whole-ensemble path: sample_ensemble, write_trajectory_log, emission_spectrum."""
    ens = sample_ensemble(start, ModelParams.from_ratios(*ratios), seed=seed,
                          n_trajectories=count, max_jumps=max_jumps)
    spectrum = emission_spectrum(ens, bin_width)
    write_trajectory_log(ens, tmp_path / "library.log")
    jumps = ens.jump_counts
    last = ens.time[ens.row_start[1:][jumps > 0] - 1]
    summary = {
        "trajectories": len(ens),
        "truncated": int(np.count_nonzero(ens.truncated)),
        "mean_jumps": float(np.mean(jumps)) if jumps.size else 0.0,
        "mean_total_time": float(np.mean(last)) if last.size else 0.0,
        "total_photons": spectrum.total_photons,
        "spectrum_bin_width": bin_width,
        "rng": RNG_SCHEME,
        "spectrum": [[float(c), float(w)] for c, w in zip(spectrum.bin_centers, spectrum.weights)
                     if w > 0.0],
    }
    return (tmp_path / "library.log").read_bytes(), summary


def _summary_text(summary):
    lines = [f"trajectories = {summary['trajectories']}", f"truncated = {summary['truncated']}",
             f"mean_jumps = {summary['mean_jumps']:.6g}",
             f"mean_total_time = {summary['mean_total_time']:.6g}  (1/gamma0 units)",
             f"total_photons = {summary['total_photons']}", f"rng = {summary['rng']}",
             "spectrum (center omega/omega0, weight):",
             *(f"  {c:.6g}, {w:.6g}" for c, w in summary["spectrum"])]
    return "".join(line + "\n" for line in lines)


class TestStreamedCascade:
    """The command samples, logs and tallies one window of _BLOCK trajectory ids
    at a time; its log and summary equal the whole-ensemble library path's."""

    def _check(self, tmp_path, capsys, start, ratios, count, max_jumps=1000, bin_width=0.05):
        want_log, want = _library_cascade(tmp_path, start, ratios, 31, count, max_jumps, bin_width)
        argv = ["cascade", "--branch", start.branch, "--n", str(start.n),
                "--omega-a", repr(ratios[0]), "--omega-l", repr(ratios[1]), "--seed", "31",
                "--trajectories", str(count), "--max-jumps", str(max_jumps),
                "--bin-width", repr(bin_width), "--output", str(tmp_path / "cli.log")]
        for fmt, text in (("json", json.dumps(want, indent=1) + "\n"), ("csv", _summary_text(want))):
            capsys.readouterr()
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr().out == text
            assert (tmp_path / "cli.log").read_bytes() == want_log
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cli.log", "library.log"]
        return want

    @pytest.mark.parametrize("window", [None, 1, 3])
    @pytest.mark.parametrize("windows, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_counts_around_the_window(self, tmp_path, capsys, monkeypatch, window, windows, extra):
        if window is not None:
            monkeypatch.setattr(cascade, "_BLOCK", window)
        count = windows * cascade._BLOCK + extra
        summary = self._check(tmp_path, capsys, DressedState("e", 5), (0.5, 0.5), count)
        assert summary["trajectories"] == count and (summary["total_photons"] > 0) == (count > 0)

    @pytest.mark.parametrize("window", [None, 1, 3])
    @pytest.mark.parametrize("start, ratios, count, max_jumps", [
        (DressedState("e", 40), (2.0, 1.6), 25, 3),  # truncated trajectories
        (DressedState("g", 0), (1.0, 0.5), 7, 1000),  # dark start: no jump at all
    ])
    def test_truncated_and_dark_starts(self, tmp_path, capsys, monkeypatch, window, start, ratios,
                                       count, max_jumps):
        if window is not None:
            monkeypatch.setattr(cascade, "_BLOCK", window)
        summary = self._check(tmp_path, capsys, start, ratios, count, max_jumps)
        assert (summary["truncated"] > 0) == (max_jumps == 3)
        assert (summary["total_photons"] == 0) == (start.branch == "g")

    def test_peak_memory_does_not_grow_with_jumps(self, tmp_path, capsys, monkeypatch):
        # About 1 kB a block row for the log's text, 16 bytes a trajectory for the
        # summary's jump counts and last times (17 allowed), 1 kB a channel for
        # the per-window tables, and nothing per jump: holding the ensemble (36
        # bytes a jump while it is built) breaks the bound.
        monkeypatch.setattr(cascade, "_BLOCK", 1 << 10)
        count, params = 100_000, ("--omega-a", "0.5", "--omega-l", "0.5")
        argv = ["cascade", "--branch", "e", "--n", "5", *params, "--seed", "31",
                "--output", str(tmp_path / "log.csv")]
        assert main([*argv, "--trajectories", "10"]) == 0  # rate tables, text renderer
        tracemalloc.start()
        try:
            assert main([*argv, "--trajectories", str(count)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ens = sample_ensemble(DressedState("e", 5), ModelParams.from_ratios(0.5, 0.5), seed=31,
                              n_trajectories=count)
        channels = sum(kernel.live.size for kernel in ens.kernels)
        bound = 1024 * cascade._BLOCK + 17 * count + 1024 * channels + (1 << 20)
        assert ens.time.size > 2 * count
        assert peak <= bound, (peak, bound)


class TestRunCascade(TestStreamedCascade):
    """run_cascade, the pipeline the command calls, returns the library path's summary
    and writes its log, over the same counts, starts and windows; it checks its
    inputs before it writes anything."""

    test_peak_memory_does_not_grow_with_jumps = None  # the command's bound, checked above

    def _check(self, tmp_path, capsys, start, ratios, count, max_jumps=1000, bin_width=0.05):
        want_log, want = _library_cascade(tmp_path, start, ratios, 31, count, max_jumps, bin_width)
        got = run_cascade(start, ModelParams.from_ratios(*ratios), 31, count, tmp_path / "run.log",
                          max_jumps, bin_width)
        assert json.dumps(got, indent=1) == json.dumps(want, indent=1)  # keys, order and bits
        assert (tmp_path / "run.log").read_bytes() == want_log
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["library.log", "run.log"]
        return got

    @pytest.mark.parametrize("bad", [
        {"seed": -1}, {"seed": 2**64}, {"seed": 1.0}, {"n_trajectories": -1},
        {"n_trajectories": 10.0}, {"n_trajectories": 2**63}, {"max_jumps": 0}, {"max_jumps": True},
        {"bin_width": 0.0}, {"bin_width": -0.05}, {"bin_width": math.nan}, {"bin_width": math.inf},
    ])
    def test_bad_input_is_refused_before_any_file(self, tmp_path, monkeypatch, bad):
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the inputs were checked")

        monkeypatch.setattr(cascade, "_sample", no_sample)
        monkeypatch.setattr(_text, "_write_atomically", no_sample)
        inputs = {"seed": 1, "n_trajectories": 10, "max_jumps": 5, "bin_width": 0.05, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_cascade(DressedState("e", 5), ModelParams.from_ratios(0.5, 0.5),
                        path=tmp_path / "run.log", **inputs)
        assert list(tmp_path.iterdir()) == []

    def test_too_fine_a_bin_width_is_its_own_error_and_leaves_no_file(self, tmp_path):
        # known only once the frequencies are sampled; the command maps this one error to exit 2
        with pytest.raises(cascade._BinWidthError, match="past bin index 2"):
            run_cascade(DressedState("e", 5), ModelParams.from_ratios(0.5, 0.5), 1, 10,
                        tmp_path / "run.log", bin_width=1e-300)
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["sweep", "--quantity", "nonsense"]) == 2
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out

    def test_allocation_failure_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        message = "Unable to allocate 727. TiB for an array with shape (10000000000000,)"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cascade, "_sample", no_memory)  # the command's per-window sampler
        assert main(["cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5",
                     "--omega-l", "0.5", "--seed", "1", "--trajectories", "10",
                     "--output", str(tmp_path / "c.log")]) == 1
        assert capsys.readouterr() == ("", f"error: out of memory: {message}\n")

        blocks = []

        def fails_on_second_block(coupling, drive):
            blocks.append(drive.size)
            if len(blocks) == 2:
                raise MemoryError()
            return absorption_g1_mesh(coupling, drive)

        monkeypatch.setattr(cli, "absorption_g1_mesh", fails_on_second_block)
        monkeypatch.setattr(cli, "_SWEEP_BLOCK_CELLS", 5)
        assert main(["sweep", "--quantity", "absorption_g1", "--omega-a", "0,1,5",
                     "--omega-l", "0.5,1,4", "--output", str(tmp_path / "s.csv")]) == 1
        assert blocks == [1, 1]
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert list(tmp_path.iterdir()) == []

    def test_parse_error_is_one_line(self, capsys):
        assert main(["cascade", "--branch", "e", "--n", "2.5"]) == 2
        assert capsys.readouterr() == (
            "", "usage error: polartls cascade: argument --n: invalid int value: '2.5'\n")

    def test_floating_point_overflow_is_one_line_error(self, capsys):
        # the cubed frequency factor overflows; numpy warned and the totals printed as nan
        assert main(["semiclassical", "--n-bar", "1", "--omega-a", "0", "--omega-l", "1e300"]) == 1
        assert capsys.readouterr() == ("", "error: overflow encountered in power\n")

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
        package_root = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "polartls",
                "sweep",
                "--quantity", "suppression_e0",
                "--omega-a", "0,1,2",
                "--omega-l", "0.5,1,2",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert out.exists()
        assert "wrote 4 rows" in proc.stdout


class TestBesselArgumentLimit:
    """Bessel J costs O(x) steps, so arguments past MAX_BESSEL_ARG exit 2 up front."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["overlap", "--ell", "1000000", "--n", "999999", "--method", "bessel",
             "--omega-a", "20", "--omega-l", "1"],
            ["semiclassical", "--n-bar", "1e8", "--omega-a", "1.5", "--omega-l", "1"],
            ["sweep", "--quantity", "semiclassical_totals", "--fix", "n_bar=1e8",
             "--omega-a", "0,1.5,3", "--omega-l", "1,2,2"],
            ["sweep", "--quantity", "overlap_compare", "--sqrt-n", "100,1000,3",
             "--fix", "omega_a=20", "--fix", "omega_l=1"],
        ],
    )
    def test_past_the_limit_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_compute(*args, **kwargs):
            raise AssertionError("computed past the Bessel limit")

        monkeypatch.setattr(numerics, "_miller_columns", no_compute)
        monkeypatch.setattr(overlaps, "_column", no_compute)
        monkeypatch.setattr(overlaps, "_cached_column", no_compute)
        out = tmp_path / "s.csv"
        extra = ["--output", str(out)] if argv[0] == "sweep" else []
        assert main([*argv, *extra]) == 2
        assert "past the limit 10000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_at_the_limit_runs(self, capsys):
        # x = 10 sqrt(10^6) / 1 = 10^4 exactly
        argv = ["overlap", "--ell", "1000000", "--n", "999999", "--method", "bessel"]
        assert main([*argv, "--omega-a", "10", "--omega-l", "1"]) == 0
        assert "|overlap|" in capsys.readouterr().out


class TestLadderIndexLimit:
    """Closed-form tables run to ladder index floor(omega0/omega_L), so a drive
    past MAX_LADDER_INDEX exits 2 before anything is computed or written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--quantity", "suppression_e0", "--omega-a", "0,1,3",
             "--omega-l", "1e-300,1,3,linear"],
            ["sweep", "--quantity", "semiclassical_totals", "--fix", "n_bar=1e4",
             "--omega-a", "0,1e-3,3", "--omega-l", "1e-7,1,3"],
            ["semiclassical", "--n-bar", "1e4", "--omega-a", "0", "--omega-l", "1e-7"],
        ],
    )
    def test_past_the_limit_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_compute(*args, **kwargs):
            raise AssertionError("computed past the ladder-index limit")

        for name in ("suppression_e0_mesh", "semiclassical_mesh", "semiclassical_totals"):
            monkeypatch.setattr(cli, name, no_compute)
        extra = ["--output", str(tmp_path / "s.csv")] if argv[0] == "sweep" else []
        assert main([*argv, *extra]) == 2
        err = capsys.readouterr().err
        assert "--omega-l" in err and "past the limit 1000000" in err
        assert list(tmp_path.iterdir()) == []

    def test_at_the_limit_runs(self, tmp_path):
        # floor(1 / 1e-6) is the limit itself; beta <= 0.5 keeps the Poisson window small
        out = tmp_path / "s.csv"
        argv = ["sweep", "--quantity", "suppression_e0", "--omega-a", "0,1e-6,2",
                "--omega-l", "1e-6,1,2", "--output", str(out)]
        assert main(argv) == 0
        rows = [[float(cell) for cell in row] for row in read_csv(out)[2]]
        assert [row[:2] for row in rows] == [[1e-6, 0.0], [1e-6, 1e-6], [1.0, 0.0], [1.0, 1e-6]]
        for drive, coupling, value in rows:
            assert value == suppression_rate_e0(ModelParams.from_ratios(coupling, drive))


class TestColumnSizeLimit:
    """An overlap column of 2**21 entries or more is refused: each command checks
    the column of the largest ket it reads, and the blocks that its reads off a
    column's window stretch it to, and exits 2 before anything is computed or
    written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--branch", "e", "--n", "0", "--omega-a", "3000", "--omega-l", "1"],
            ["rate", "--branch", "g", "--n", "0", "--to", "0", "--omega-a", "3000",
             "--omega-l", "0.25"],
            ["overlap", "--ell", "0", "--n", "0", "--omega-a", "3000", "--omega-l", "1"],
            ["cascade", "--branch", "e", "--n", "0", "--omega-a", "3000", "--omega-l", "1",
             "--seed", "1", "--trajectories", "10"],
            # beta = 1450: the column of ket 1 is too long while x = 2900 passes the Bessel limit
            ["sweep", "--quantity", "overlap_compare", "--sqrt-n", "1,1.2,2", "--p-values", "0",
             "--fix", "omega_a=2900", "--fix", "omega_l=1"],
            # beta = 445: the window of ket 10**6 fits, the block that reading 0 builds does not
            ["overlap", "--ell", "0", "--n", "1000000", "--omega-a", "890", "--omega-l", "1"],
            # the one channel of this far-detuned lower level, 0, is read from that block too
            ["rate", "--branch", "g", "--n", "1000000", "--omega-a", "0.00089", "--omega-l", "1e-6"],
            # windows whose ends pass int64 (beta = 8.4e18) or a double (beta**2 = inf)
            ["overlap", "--ell", "0", "--n", "19", "--omega-a", str(2**64), "--omega-l", "1.1"],
            ["rate", "--branch", "e", "--n", "11", "--omega-a", "1e300", "--omega-l", "1.4"],
        ],
    )
    def test_past_the_limit_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_column(*args, **kwargs):
            raise AssertionError("a column was computed past the size limit")

        monkeypatch.setattr(overlaps, "_column", no_column)
        monkeypatch.setattr(overlaps, "_cached_column", no_column)
        extra = ["--output", str(tmp_path / "out")] if argv[0] in ("sweep", "cascade") else []
        assert main([*argv, *extra]) == 2
        err = capsys.readouterr().err
        assert "--omega-a/--omega-l" in err and "past the limit 2097152" in err
        assert list(tmp_path.iterdir()) == []

    def test_routes_that_read_no_column_run(self, capsys):
        for argv in (["--same"], ["--method", "bessel", "--ell", "1", "--n", "1"]):
            args = ["overlap", "--ell", "0", "--n", "0", "--omega-a", "3000", "--omega-l", "1"]
            assert main([*args, *argv]) == 0, argv
        assert "|overlap|" in capsys.readouterr().out
