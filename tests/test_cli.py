"""Command-line interface: sweeps, queries, config merging, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from polartls.cli import AxisSpec, SweepConfig, main, run_sweep
from polartls.rates import suppression_rate_e0
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

    def test_threads_do_not_change_output(self, tmp_path):
        base = [
            "sweep",
            "--quantity", "suppression_e0",
            "--omega-a", "0,3,7",
            "--omega-l", "0.2,1.8,5",
        ]
        a, b = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(base + ["--output", str(a), "--threads", "1"]) == 0
        assert main(base + ["--output", str(b), "--threads", "8"]) == 0
        assert a.read_text() == b.read_text()

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
            "threads = 2\n"
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
        assert "rng = philox4x64-inv-v1" in capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rng"] == "philox4x64-inv-v1"
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
            ("--max-jumps", "0"),
            ("--omega-l", "0"),
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


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["sweep", "--quantity", "nonsense"]) == 2
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
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
        )
        assert proc.returncode == 0
        assert out.exists()
        assert "wrote 4 rows" in proc.stdout
