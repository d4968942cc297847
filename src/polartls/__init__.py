"""Emission and absorption rates of a longitudinally driven polar emitter.

A two-level system whose drive couples to the same dipole operator as
its static transition splits into two displaced oscillator ladders.
This package computes the cross-ladder overlaps that control photon
emission and absorption between those ladders (exact, from one Miller
recurrence kernel per overlap column, or large-index asymptotic), the
resulting rates, and Monte-Carlo cascade statistics, all in dimensionless
units plus one SI conversion helper.
"""

from .cascade import (
    Ensemble,
    SpectrumHistogram,
    Trajectory,
    emission_spectrum,
    run_cascade,
    sample_ensemble,
    sample_trajectory,
    write_trajectory_log,
)
from .cli import AxisSpec, SweepConfig, main, run_sweep
from .ladder import (
    DressedState,
    TransitionRecord,
    allowed_final_indices,
    dressed_energy,
    photon_frequency,
)
from .numerics import (
    PrecisionLossWarning,
    SignedLog,
    assoc_laguerre,
    assoc_laguerre_sequence,
    bessel_j,
    bessel_truncation_order,
)
from .overlaps import (
    ModelParams,
    OverlapValue,
    displacement_matrix_oracle,
    overlap_bessel,
    overlap_exact,
    overlap_log_abs,
)
from .rates import (
    DEBYE,
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    Gamma0Params,
    PhotonDistribution,
    RateTable,
    SemiclassicalTotals,
    absorption_rate_g1,
    gamma0_si,
    partial_rate,
    semiclassical_partial,
    semiclassical_totals,
    suppression_rate_e0,
    total_rate,
    weighted_total_rate,
)

__version__ = "0.1.0"

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
