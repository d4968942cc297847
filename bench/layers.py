"""Per-layer micro-timings: public functions of each module at fixed inputs.

    python3 bench/layers.py RESULT.json NPROC

Run with the repository's ``src`` on PYTHONPATH; files are written to
the current directory.  Each timing is the median over repeated calls
(calls batched to at least a millisecond each), except the ensemble
runs, which take seconds and are timed once.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time

from polartls import (
    AxisSpec,
    DressedState,
    ModelParams,
    SweepConfig,
    absorption_rate_g1,
    allowed_final_indices,
    assoc_laguerre,
    bessel_j,
    emission_spectrum,
    overlap_bessel,
    overlap_exact,
    overlap_log_abs,
    partial_rate,
    photon_frequency,
    run_sweep,
    sample_ensemble,
    sample_trajectory,
    semiclassical_totals,
    suppression_rate_e0,
    total_rate,
    write_trajectory_log,
)

# The cascade_fewphoton problem.
FEWPHOTON_TRAJECTORIES = 100_000


def median_time(fn, budget_s=0.4, min_samples=3):
    """Median seconds per call of ``fn``."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    batch = max(1, int(1e-3 / max(first, 1e-9)))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def main():
    result_path, nproc = sys.argv[1], int(sys.argv[2])
    P = ModelParams.from_ratios
    m = {}
    us, ms = 1e6, 1e3

    m["numerics.assoc_laguerre.n3000_us"] = us * median_time(lambda: assoc_laguerre(2950, 50.0, 1.0))
    m["numerics.bessel_j_us"] = us * median_time(lambda: bessel_j(7, 31.6))

    m["overlaps.overlap_log_abs.n5_us"] = us * median_time(lambda: overlap_log_abs(3, 5, P(0.5, 0.5)))
    m["overlaps.overlap_log_abs.n150_us"] = us * median_time(lambda: overlap_log_abs(145, 150, P(1.0, 0.5)))
    # beta = 1 at n = 3000: the series cancels and the Laguerre route runs.
    m["overlaps.overlap_log_abs.n3000_rescue_us"] = us * median_time(
        lambda: overlap_log_abs(2950, 3000, P(1.0, 0.5)))
    m["overlaps.overlap_log_abs.n1e5_us"] = us * median_time(
        lambda: overlap_log_abs(99998, 100000, P(0.01, 0.9)))
    m["overlaps.overlap_exact.n1e6_ms"] = ms * median_time(
        lambda: overlap_exact(999998, 10**6, P(0.001, 0.9)), budget_s=1.0)
    m["overlaps.overlap_bessel.n1e6_us"] = us * median_time(lambda: overlap_bessel(10**6, 2, P(0.001, 0.9)))

    e250 = DressedState("e", 250)
    m["ladder.allowed_final_indices_us"] = us * median_time(lambda: allowed_final_indices(e250, P(1.0, 0.5)))
    m["ladder.photon_frequency_us"] = us * median_time(lambda: photon_frequency(e250, 240, P(1.0, 0.5)))

    m["rates.partial_rate.e0_us"] = us * median_time(lambda: partial_rate(DressedState("e", 0), 2, P(1.0, 0.3)))
    m["rates.suppression_rate_e0_us"] = us * median_time(lambda: suppression_rate_e0(P(2.0, 0.3)))
    m["rates.absorption_rate_g1_us"] = us * median_time(lambda: absorption_rate_g1(P(3.0, 1.5)))
    m["rates.semiclassical_totals.n1e4_us"] = us * median_time(lambda: semiclassical_totals(1e4, P(0.005, 0.5)))
    for label, state, params in (
        ("e5", DressedState("e", 5), P(0.5, 0.5)),
        ("e250", e250, P(1.0, 0.5)),
        ("e3000", DressedState("e", 3000), P(1.0, 0.5)),
        ("e1e5", DressedState("e", 100_000), P(0.01, 0.9)),
    ):
        m[f"rates.total_rate.{label}_ms"] = ms * median_time(
            lambda: total_rate(state, params), budget_s=1.0)

    start, params = DressedState("e", 5), P(0.5, 0.5)
    sample_trajectory(start, params, 1)  # builds and caches the jump kernels
    streams = itertools.count(1)
    m["cascade.sample_trajectory.e5_us"] = us * median_time(
        lambda: sample_trajectory(start, params, 1, stream=next(streams)))
    t0 = time.perf_counter()
    sample_ensemble(start, params, 1, FEWPHOTON_TRAJECTORIES, threads=1)
    m["cascade.sample_ensemble.e5_threads1_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    trajectories = sample_ensemble(start, params, 1, FEWPHOTON_TRAJECTORIES, threads=nproc)
    m["cascade.sample_ensemble.e5_threadsN_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    write_trajectory_log(trajectories, "layers_trajectories.log")
    elapsed = time.perf_counter() - t0
    m["cascade.write_trajectory_log_mb_per_s"] = os.path.getsize("layers_trajectories.log") / 1e6 / elapsed
    os.remove("layers_trajectories.log")
    m["cascade.emission_spectrum_ms"] = ms * median_time(lambda: emission_spectrum(trajectories, 0.05))
    del trajectories

    # O(1) points: what is left is the sweep loop and the CSV writer.
    config = SweepConfig(quantity="absorption_g1", output="layers_sweep.csv",
                         coupling_axis=AxisSpec(0.0, 8.0, 201), drive_axis=AxisSpec(1.05, 3.0, 201))
    m["cli.run_sweep.absorption_points_per_s"] = 201 * 201 / median_time(lambda: run_sweep(config))
    os.remove("layers_sweep.csv")
    imports = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import polartls"], check=True)
        imports.append(time.perf_counter() - t0)
    m["cli.import_s"] = statistics.median(imports)

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(m, handle)


if __name__ == "__main__":
    main()
