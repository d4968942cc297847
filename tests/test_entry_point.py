"""``python -m polartls`` and ``import polartls``: what they load, what they write, and
what they leave of the garbage collector."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polartls
from polartls.cli import main

_PACKAGE_ROOT = str(Path(polartls.__file__).resolve().parent.parent)
_ENV = {**os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}


def _python(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=_ENV)


class TestPackageImport:
    def test_loads_no_submodule_and_no_numpy(self):
        proc = _python("-c", "import sys, polartls; print(sorted(m for m in sys.modules "
                             "if m.startswith(('polartls', 'numpy'))))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['polartls']\n"

    def test_every_public_name_is_its_module_object(self):
        assert sorted(polartls._MODULE_OF) == sorted(polartls.__all__)
        for name in polartls.__all__:
            module = importlib.import_module(f"polartls.{polartls._MODULE_OF[name]}")
            assert getattr(polartls, name) is getattr(module, name), name
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            getattr(polartls, "nonesuch")

    def test_import_and_in_process_main_leave_the_collector_alone(self, tmp_path):
        script = """
import gc, sys
import polartls
states = [(gc.isenabled(), gc.get_freeze_count())]
from polartls.cli import main
for argv in (["gamma0", "--omega0", "2.4e15", "--dipole-debye", "1"],
             ["cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "0.5",
              "--seed", "1", "--trajectories", "5", "--output", sys.argv[1]]):
    assert main(argv) == 0
    states.append((gc.isenabled(), gc.get_freeze_count()))
print(states)
"""
        proc = _python("-c", script, str(tmp_path / "c.log"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str([(True, 0)] * 3)

    def test_module_run_freezes_what_the_command_imported(self, tmp_path):
        # ``python -m polartls`` freezes after its imports and again once the
        # command returns, so the exit collection skips the writers it loaded.
        script = """
import gc, runpy, sys
sys.argv = ["polartls", "cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5",
            "--omega-l", "0.5", "--seed", "1", "--trajectories", "5", "--output", sys.argv[1]]
try:
    runpy.run_module("polartls", run_name="__main__")
except SystemExit as exit:
    code = exit.code
tracked = {id(obj) for obj in gc.get_objects()}  # the permanent generation is not listed
loaded = [sys.modules[name].__dict__ for name in ("polartls._text", "polartls.cascade")]
print([code, gc.isenabled(), [id(namespace) in tracked for namespace in loaded]])
"""
        proc = _python("-c", script, str(tmp_path / "c.log"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str([0, True, [False, False]])


class TestModuleEntryPoint:
    """``python -m polartls`` prints and writes what ``cli.main`` does in-process."""

    def _both(self, tmp_path, monkeypatch, capsys, argv, output):
        (tmp_path / "sub").mkdir()
        (tmp_path / "in").mkdir()
        proc = _python("-m", "polartls", *argv, cwd=tmp_path / "sub")
        monkeypatch.chdir(tmp_path / "in")
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        if output is None:
            assert list((tmp_path / "sub").iterdir()) == list((tmp_path / "in").iterdir()) == []
        else:
            assert (tmp_path / "sub" / output).read_bytes() == (tmp_path / "in" / output).read_bytes()
        return proc

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_bytes(self, tmp_path, monkeypatch, capsys, fmt):
        argv = ["sweep", "--quantity", "suppression_e0", "--omega-a", "0,2,5", "--omega-l", "0.3,1.7,4",
                "--format", fmt, "--output", f"s.{fmt}"]
        proc = self._both(tmp_path, monkeypatch, capsys, argv, f"s.{fmt}")
        assert proc.returncode == 0 and proc.stdout == f"wrote 20 rows (suppression_e0) to s.{fmt}\n"
        if fmt == "json":
            assert len(json.loads((tmp_path / "sub" / "s.json").read_text())["rows"]) == 20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cascade_bytes(self, tmp_path, monkeypatch, capsys, fmt):
        argv = ["cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "0.5",
                "--seed", "7", "--trajectories", "50", "--format", fmt, "--output", "c.log"]
        proc = self._both(tmp_path, monkeypatch, capsys, argv, "c.log")
        assert proc.returncode == 0 and "philox4x64-inv-v2" in proc.stdout

    def test_usage_error_is_2_with_one_line_and_no_file(self, tmp_path, monkeypatch, capsys):
        argv = ["cascade", "--branch", "e", "--n", "5", "--omega-a", "0.5", "--omega-l", "0.5",
                "--seed", "7", "--trajectories", str(2**63), "--output", "c.log"]
        proc = self._both(tmp_path, monkeypatch, capsys, argv, None)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage error: bad --trajectories:") and proc.stderr.count("\n") == 1

    def test_compute_error_is_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        argv = ["gamma0", "--omega0", "1e100", "--dipole", "1e10"]
        proc = self._both(tmp_path, monkeypatch, capsys, argv, None)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: the gamma0 result overflows") and proc.stderr.count("\n") == 1
