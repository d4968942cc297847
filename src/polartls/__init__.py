"""Emission and absorption rates of a longitudinally driven polar emitter.

A two-level system whose drive couples to the same dipole operator as
its static transition splits into two displaced oscillator ladders.
This package computes the cross-ladder overlaps that control photon
emission and absorption between those ladders (exact, from one Miller
recurrence kernel per overlap column, or large-index asymptotic), the
resulting rates, and Monte-Carlo cascade statistics, all in dimensionless
units plus one SI conversion helper.
"""

import importlib

__version__ = "0.1.0"

# The module of each public name.  A name is imported from it on first use
# (PEP 562), so ``import polartls`` loads no submodule and no numpy, and
# ``python -m polartls`` loads only what its command runs.
_MODULE_OF = {
    name: module
    for module, names in {
        "cascade": ("Ensemble", "SpectrumHistogram", "Trajectory", "emission_spectrum",
                    "run_cascade", "sample_ensemble", "sample_trajectory", "write_trajectory_log"),
        "cli": ("AxisSpec", "SweepConfig", "main", "run_sweep"),
        "ladder": ("DressedState", "TransitionRecord", "allowed_final_indices", "dressed_energy",
                   "photon_frequency"),
        "numerics": ("PrecisionLossWarning", "SignedLog", "assoc_laguerre",
                     "assoc_laguerre_sequence", "bessel_j", "bessel_truncation_order"),
        "overlaps": ("ModelParams", "OverlapValue", "displacement_matrix_oracle", "overlap_bessel",
                     "overlap_exact", "overlap_log_abs"),
        "rates": ("DEBYE", "REDUCED_PLANCK", "SPEED_OF_LIGHT", "VACUUM_PERMITTIVITY",
                  "Gamma0Params", "PhotonDistribution", "RateTable", "SemiclassicalTotals",
                  "absorption_rate_g1", "gamma0_si", "partial_rate", "semiclassical_partial",
                  "semiclassical_totals", "suppression_rate_e0", "total_rate",
                  "weighted_total_rate"),
    }.items()
    for name in names
}

__all__ = [
    "AxisSpec",
    "DEBYE",
    "DressedState",
    "Ensemble",
    "Gamma0Params",
    "ModelParams",
    "OverlapValue",
    "PhotonDistribution",
    "PrecisionLossWarning",
    "RateTable",
    "REDUCED_PLANCK",
    "SemiclassicalTotals",
    "SignedLog",
    "SPEED_OF_LIGHT",
    "SpectrumHistogram",
    "SweepConfig",
    "Trajectory",
    "TransitionRecord",
    "VACUUM_PERMITTIVITY",
    "absorption_rate_g1",
    "allowed_final_indices",
    "assoc_laguerre",
    "assoc_laguerre_sequence",
    "bessel_j",
    "bessel_truncation_order",
    "displacement_matrix_oracle",
    "dressed_energy",
    "emission_spectrum",
    "gamma0_si",
    "main",
    "overlap_bessel",
    "overlap_exact",
    "overlap_log_abs",
    "partial_rate",
    "photon_frequency",
    "run_cascade",
    "run_sweep",
    "sample_ensemble",
    "sample_trajectory",
    "semiclassical_partial",
    "semiclassical_totals",
    "suppression_rate_e0",
    "total_rate",
    "weighted_total_rate",
    "write_trajectory_log",
]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # found directly from now on
    return value
