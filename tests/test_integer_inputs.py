"""One integer rule for every integer input, one message per limit, the names
the benchmark uses, and no module-level import left unused.

Every integer input goes through ``numerics._checked_int``: a Python or
numpy integer is accepted, a bool or a float (even an integral one) is a
``ValueError``, and the range edges are exact.  Every entry that reaches the
Bessel bound or a computed ladder index past 10**6 raises that limit's one
message before it computes.
"""

import ast
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from polartls import cli, numerics, overlaps, rates
from polartls.cascade import sample_ensemble, sample_trajectory
from polartls.ladder import DressedState, photon_frequency
from polartls.numerics import _bessel_j_orders, assoc_laguerre, assoc_laguerre_sequence, bessel_j
from polartls.overlaps import (
    ModelParams,
    displacement_matrix_oracle,
    overlap_bessel,
    overlap_exact,
    overlap_log_abs,
)
from polartls.rates import PhotonDistribution, partial_e0_mesh, partial_rate, semiclassical_mesh
from polartls.rates import semiclassical_partial, semiclassical_totals, suppression_rate_e0, total_rate

P = ModelParams.from_ratios(0.5, 0.5)
E2 = DressedState("e", 2)

# Each call takes one integer argument, for which 3 is a valid value.
SITES = {
    "sample_ensemble.seed": lambda v: sample_ensemble(E2, P, seed=v, n_trajectories=4),
    "sample_ensemble.n_trajectories": lambda v: sample_ensemble(E2, P, 1, n_trajectories=v),
    "sample_ensemble.max_jumps": lambda v: sample_ensemble(E2, P, 1, 4, max_jumps=v),
    "sample_trajectory.stream": lambda v: sample_trajectory(E2, P, 1, stream=v),
    "DressedState.n": lambda v: DressedState("e", v),
    "photon_frequency.to_index": lambda v: photon_frequency(E2, v, P),
    "partial_rate.n_prime": lambda v: partial_rate(E2, v, P),
    "assoc_laguerre.n": lambda v: assoc_laguerre(v, 1.5, 0.7),
    "assoc_laguerre_sequence.n_max": lambda v: assoc_laguerre_sequence(v, 1.5, 0.7)[0].tolist(),
    "bessel_j.p": lambda v: bessel_j(v, 2.5),
    "overlap_exact.ell": lambda v: overlap_exact(v, 0, P),
    "overlap_log_abs.n": lambda v: overlap_log_abs(0, v, P),
    "overlap_bessel.n": lambda v: overlap_bessel(v, 0, P),
    "overlap_bessel.p": lambda v: overlap_bessel(40, v, P),
    "displacement_matrix_oracle.dim": lambda v: displacement_matrix_oracle(0.0, v)[0].tolist(),
    "partial_e0_mesh.n_prime": lambda v: partial_e0_mesh(v, 0.5, 0.25).tolist(),
    "semiclassical_partial.p": lambda v: semiclassical_partial("e", 100.0, v, P),
    "PhotonDistribution.key": lambda v: PhotonDistribution({v: 1.0}).weights,
    "AxisSpec.steps": lambda v: cli.AxisSpec(0.0, 1.0, v).values().tolist(),
}
# The largest valid value and the smallest invalid one above it.
EDGES = {
    "sample_ensemble.seed": (2**64 - 1, 2**64),
    "sample_trajectory.stream": (2**64 - 1, 2**64),
    "bessel_j.p": (10**6, 10**6 + 1),
    "overlap_exact.ell": (10**6, 10**6 + 1),
    "overlap_log_abs.n": (10**6, 10**6 + 1),
    "partial_e0_mesh.n_prime": (10**6, 10**6 + 1),
    "DressedState.n": (10**6, 10**6 + 1),
    "PhotonDistribution.key": (10**6, 10**6 + 1),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_integer_rule(site):
    call = SITES[site]
    error = cli._UsageError if site.startswith("AxisSpec") else ValueError
    assert call(np.int64(3)) == call(3)
    for bad in (True, 3.0):
        with pytest.raises(error):
            call(bad)
    if site in EDGES:
        last_ok, first_bad = EDGES[site]
        call(last_ok)
        with pytest.raises(error):
            call(first_bad)


# x = 20 sqrt(10**6) / 1 = 2e4 at every entry, twice MAX_BESSEL_ARG.
FAR = ModelParams.from_ratios(20.0, 1.0)
BESSEL_ENTRIES = {
    "bessel_j": lambda: bessel_j(0, 2e4),
    "_bessel_j_orders": lambda: _bessel_j_orders([0, 1], [1.0, 2e4]),
    "overlap_bessel": lambda: overlap_bessel(10**6, 0, FAR),
    "semiclassical_partial": lambda: semiclassical_partial("e", 1e6, 0, FAR),
    "semiclassical_totals": lambda: semiclassical_totals(1e6, FAR),
    "semiclassical_mesh": lambda: semiclassical_mesh(1e6, [0.0, 20.0], 1.0),
}
# Each reaches ladder index 2,000,000: floor(omega0/omega_L) at omega_L = 5e-7 for
# the closed forms and the e-branch channels, the top of the Poisson window here.
FAR_DRIVE = 5e-7
REACH_ENTRIES = {
    "total_rate": lambda: total_rate(DressedState("e", 0), ModelParams.from_ratios(2e-3, FAR_DRIVE)),
    "PhotonDistribution.poisson": lambda: PhotonDistribution.poisson(1944206.0),
    "suppression_rate_e0": lambda: suppression_rate_e0(ModelParams.from_ratios(1.0, FAR_DRIVE)),
    "semiclassical_totals": lambda: semiclassical_totals(100.0, ModelParams.from_ratios(1e-6, FAR_DRIVE)),
}


def _no_compute(*args, **kwargs):
    raise AssertionError("computed past a limit")


@pytest.mark.parametrize("entry", sorted(BESSEL_ENTRIES))
def test_one_bessel_message(monkeypatch, entry):
    monkeypatch.setattr(numerics, "_miller_columns", _no_compute)
    with pytest.raises(ValueError) as refused:
        BESSEL_ENTRIES[entry]()
    assert str(refused.value) == "the Bessel argument x = 20000 is past the limit 10000 (MAX_BESSEL_ARG)"


@pytest.mark.parametrize("entry", sorted(REACH_ENTRIES))
def test_one_reach_message(monkeypatch, entry):
    for module, name in [(overlaps, "_column"), (overlaps, "_cached_column"), (rates, "_ordered_sum"),
                         (rates, "_semiclassical_gamma_g"), (numerics, "_miller_columns")]:
        monkeypatch.setattr(module, name, _no_compute)
    with pytest.raises(ValueError) as refused:
        REACH_ENTRIES[entry]()
    assert str(refused.value) == (
        "the computed ladder index 2000000 is past the limit 1000000 (MAX_LADDER_INDEX)")


def test_dressed_state_index_is_a_python_int():
    state = DressedState("g", np.int64(7))
    assert type(state.n) is int
    assert state == DressedState("g", 7) and hash(state) == hash(DressedState("g", 7))


def _load_bench(name):
    """Run ``bench/<name>.py`` as a fresh module, read-only (no bytecode cache)."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_benchmark_names_resolve():
    # bench/inprocess.py wraps these names by getattr and bench/layers.py
    # imports its functions from polartls; loading either runs no benchmark.
    wrapped = _load_bench("inprocess").WRAPPED
    for module_name, names in wrapped.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    _load_bench("layers")


def _module_imports(tree):
    """``(line, bound name)`` of each module-level import but ``__future__``'s."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_every_module_import_is_used():
    # Used in its module, exported by __all__, or looked up there by the
    # benchmark's tracer (bench/inprocess.py WRAPPED): nothing else.
    wrapped = _load_bench("inprocess").WRAPPED
    unused = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "polartls").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                used |= set(ast.literal_eval(node.value))
        used |= set(wrapped.get(f"polartls.{path.stem}", ()))
        unused += [f"{path.name}:{line} {name}" for line, name in _module_imports(tree) if name not in used]
    assert unused == []
