"""The package runs on numpy and the standard library alone.

scipy stays a test-only reference (``scipy.special.gammaln`` and ``jv``
check the numerics kernels); no command may import it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polartls

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from polartls.cli import main
out = sys.argv[1]
model = ["--omega-a", "1", "--omega-l", "0.5"]
runs = [
    ["gamma0", "--omega0", "2.4e15", "--dipole-debye", "1"],
    ["sweep", "--quantity", "suppression_e0", "--omega-a", "0,2,5", "--omega-l", "0.2,1.5,4",
     "--output", out + "/suppression.csv"],
    ["sweep", "--quantity", "semiclassical_totals", "--fix", "n_bar=1e4",
     "--omega-a", "1e-4,1e-2,5,log", "--omega-l", "0.2,1.5,4", "--output", out + "/semi.csv"],
    ["rate", "--branch", "e", "--n", "20", *model],
    ["overlap", "--ell", "400", "--n", "398", "--method", "bessel", *model],
    ["cascade", "--branch", "e", "--n", "5", "--seed", "1", "--trajectories", "50",
     "--output", out + "/cascade.log", *model],
]
codes = [main(argv) for argv in runs]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_commands_never_import_scipy(tmp_path):
    package_root = str(Path(polartls.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * 6
    assert report["scipy"] == []


def test_runtime_dependencies_name_no_scipy():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert not any(dep.lower().startswith("scipy") for dep in project["dependencies"])
    assert any(dep.lower().startswith("scipy") for dep in project["optional-dependencies"]["test"])
