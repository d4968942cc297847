"""Monte-Carlo cascade sampling: determinism, statistics, log format."""

import math

import numpy as np
import pytest

import polartls.cascade as cascade_module
from polartls.cascade import (
    RNG_SCHEME,
    Trajectory,
    _jump_kernel,
    _philox4x64,
    emission_spectrum,
    sample_ensemble,
    sample_trajectory,
    write_trajectory_log,
)
from polartls.ladder import DressedState, allowed_final_indices
from polartls.overlaps import ModelParams
from polartls.rates import total_rate


class TestSampleTrajectory:
    def test_uncoupled_two_level_limit(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        t = sample_trajectory(DressedState("e", 0), p, seed=42)
        assert len(t.jumps) == 1
        time, rec = t.jumps[0]
        assert rec.final == DressedState("g", 0)
        assert time > 0.0
        assert not t.truncated

    def test_dark_start_empty(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        t = sample_trajectory(DressedState("g", 0), p, seed=1)
        assert t.jumps == ()
        assert not t.truncated

    def test_deterministic_given_seed(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        a = sample_trajectory(DressedState("e", 8), p, seed=987)
        b = sample_trajectory(DressedState("e", 8), p, seed=987)
        assert a == b
        c = sample_trajectory(DressedState("e", 8), p, seed=988)
        assert a != c

    def test_times_increase_and_records_chain(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        for seed in range(12):
            t = sample_trajectory(DressedState("e", 9), p, seed=seed)
            times = [time for time, _ in t.jumps]
            assert all(a < b for a, b in zip(times, times[1:]))
            for (_, first), (_, second) in zip(t.jumps, t.jumps[1:]):
                assert second.initial == first.final
            if not t.truncated and t.jumps:
                last = t.jumps[-1][1].final
                assert len(allowed_final_indices(last, p)) == 0

    def test_truncation_flag(self):
        # blue-detuned ground start bounces between ladders indefinitely
        p = ModelParams.from_ratios(2.0, 1.6)
        t = sample_trajectory(DressedState("e", 40), p, seed=5, max_jumps=3)
        assert t.truncated
        assert len(t.jumps) == 3

    def test_seed_validation(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        with pytest.raises(ValueError):
            sample_trajectory(DressedState("e", 0), p, seed=-1)
        with pytest.raises(ValueError):
            sample_trajectory(DressedState("e", 0), p, seed=2**64)
        with pytest.raises(ValueError):
            sample_trajectory(DressedState("e", 0), p, seed=0, max_jumps=0)


class TestSampleEnsemble:
    def test_streams_differ_and_reproduce(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        ens = sample_ensemble(DressedState("e", 5), p, seed=31, n_trajectories=6)
        assert len(ens) == 6
        assert len({t.jumps[0][0] for t in ens}) == 6  # distinct first times
        again = sample_ensemble(DressedState("e", 5), p, seed=31, n_trajectories=6)
        assert ens == again

    def test_thread_count_invisible(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        one = sample_ensemble(
            DressedState("e", 7), p, seed=11, n_trajectories=40, threads=1
        )
        many = sample_ensemble(
            DressedState("e", 7), p, seed=11, n_trajectories=40, threads=8
        )
        assert one == many

    def test_mean_waiting_time(self):
        p = ModelParams.from_ratios(1.0, 0.5)
        start = DressedState("e", 0)
        ens = sample_ensemble(start, p, seed=2024, n_trajectories=20_000, threads=4)
        times = np.array([t.jumps[0][0] for t in ens])
        mu = 1.0 / total_rate(start, p).total_over_gamma0
        sigma = mu / math.sqrt(len(times))
        assert abs(times.mean() - mu) <= 3.0 * sigma


class TestEmissionSpectrum:
    def test_uncoupled_single_line(self):
        p = ModelParams.from_ratios(0.0, 0.5)
        ens = sample_ensemble(DressedState("e", 0), p, seed=3, n_trajectories=200)
        spec = emission_spectrum(ens, bin_width=0.05)
        assert spec.total_photons == 200
        assert np.count_nonzero(spec.weights) == 1
        center = spec.bin_centers[int(np.argmax(spec.weights))]
        assert center == pytest.approx(1.0, abs=0.025)
        assert spec.weights.sum() == pytest.approx(1.0)

    def test_blue_detuned_fundamental_line(self):
        p = ModelParams.from_ratios(0.2, 2.0)
        ens = sample_ensemble(DressedState("g", 1), p, seed=9, n_trajectories=100)
        spec = emission_spectrum(ens, bin_width=0.05)
        # every trajectory's first photon sits at drive - bare = 1.0
        top = spec.bin_centers[int(np.argmax(spec.weights))]
        assert top == pytest.approx(1.0, abs=0.025)

    def test_comb_spacing(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        ens = sample_ensemble(DressedState("e", 9), p, seed=17, n_trajectories=400)
        spec = emission_spectrum(ens, bin_width=0.45)
        populated = spec.bin_centers[spec.weights > 0]
        gaps = np.diff(np.sort(populated))
        # lines live on a lattice with the drive frequency as spacing
        assert np.allclose(gaps / 0.45, np.round(gaps / 0.45), atol=1e-9)

    def test_empty_input(self):
        spec = emission_spectrum([], bin_width=0.1)
        assert spec.total_photons == 0
        assert spec.weights.size == 0

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            emission_spectrum([], bin_width=0.0)


class TestTrajectoryLog:
    def test_file_format_and_round_trip(self, tmp_path):
        p = ModelParams.from_ratios(1.0, 0.45)
        ens = sample_ensemble(DressedState("e", 6), p, seed=77, n_trajectories=5)
        path = tmp_path / "log.csv"
        write_trajectory_log(ens, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[0].lstrip("# ").split(",")
        assert header == [
            "trajectory_id",
            "jump_index",
            "time",
            "from_branch",
            "from_n",
            "to_branch",
            "to_n",
            "photon_freq",
        ]
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == sum(len(t.jumps) for t in ens)
        # float fields round-trip exactly through repr
        first = body[0]
        tid, jidx = int(first[0]), int(first[1])
        assert float(first[2]) == ens[tid].jumps[jidx][0]
        assert float(first[7]) == ens[tid].jumps[jidx][1].photon_freq

    def test_custom_delimiter(self, tmp_path):
        p = ModelParams.from_ratios(0.0, 0.5)
        ens = sample_ensemble(DressedState("e", 0), p, seed=1, n_trajectories=2)
        path = tmp_path / "log.tsv"
        write_trajectory_log(ens, path, delimiter="\t")
        lines = path.read_text().splitlines()
        assert "\t" in lines[1]
        assert len(lines[1].split("\t")) == 8


def _replay(start, params, seed, stream, max_jumps=1000):
    """One trajectory stepped in Python from numpy's own Philox stream."""
    words = np.random.Philox(key=seed + (stream << 64)).random_raw(4 * max_jumps)
    state, time, jumps = start, 0.0, []
    while True:
        table = total_rate(state, params)
        live = [t for t in table.transitions if t.rate_over_gamma0 > 0.0]
        if not live:
            return jumps, False
        if len(jumps) == max_jumps:
            return jumps, True
        w0, w1 = (int(w) for w in words[4 * len(jumps) : 4 * len(jumps) + 2])
        cumulative = np.cumsum([t.rate_over_gamma0 for t in live])
        total = float(cumulative[-1])
        cumulative /= total
        cumulative[-1] = 1.0
        time -= math.log(((w0 >> 11) + 1) * 2.0**-53) / total
        pick = int(np.searchsorted(cumulative, (w1 >> 11) * 2.0**-53, side="right"))
        record = live[min(pick, len(live) - 1)]
        jumps.append((time, record))
        state = record.final


class TestRandomStream:
    def test_philox_matches_numpy(self):
        rng = np.random.default_rng(8)
        top = 2**64 - 1
        key0s = [int(k) for k in rng.integers(0, 2**64, 6, dtype=np.uint64)]
        key0s += [0, top, top - 1]
        key1 = np.concatenate(
            [rng.integers(0, 2**64, 8, dtype=np.uint64),
             np.array([0, 1, top - 2, top], dtype=np.uint64)]
        )
        for key0 in key0s:
            streams = [
                np.random.Philox(key=key0 + (k << 64)).random_raw(32)
                for k in key1.tolist()
            ]
            for counter in range(1, 9):
                block = np.stack(_philox4x64(counter, key0, key1), axis=1)
                expected = np.stack([w[4 * (counter - 1) : 4 * counter] for w in streams])
                assert np.array_equal(block, expected)

    def test_matches_python_replay(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        start = DressedState("e", 9)
        ens = sample_ensemble(start, p, seed=2**64 - 5, n_trajectories=12)
        for i, traj in enumerate(ens):
            jumps, truncated = _replay(start, p, 2**64 - 5, i)
            assert traj.jumps == tuple(jumps)
            assert traj.truncated == truncated
        t = sample_trajectory(DressedState("e", 40), ModelParams.from_ratios(2.0, 1.6),
                              seed=5, max_jumps=3, stream=77)
        jumps, truncated = _replay(
            DressedState("e", 40), ModelParams.from_ratios(2.0, 1.6), 5, 77, max_jumps=3
        )
        assert (t.jumps, t.truncated) == (tuple(jumps), truncated)

    def test_golden_first_jumps(self):
        # Pins philox4x64-inv-v1; a change here is a stream break to version.
        assert RNG_SCHEME == "philox4x64-inv-v1"
        p = ModelParams.from_ratios(1.0, 0.45)
        ens = sample_ensemble(DressedState("e", 6), p, seed=2718, n_trajectories=4)
        assert [t.jumps[0][0] for t in ens] == [
            0.013829541545490263,
            0.24007577414117034,
            0.04433641986177986,
            0.010345365546626602,
        ]
        assert [t.jumps[0][1].final.n for t in ens] == [1, 1, 3, 2]
        assert [t.jumps[-1][1].final for t in ens] == [
            DressedState("g", 1),
            DressedState("g", 1),
            DressedState("g", 0),
            DressedState("g", 2),
        ]
        # The first uniform of stream 63 is one where AVX-512 np.log and
        # the C library's log differ in the last bit; the stream uses libm.
        t = sample_trajectory(DressedState("e", 6), p, seed=2718, stream=63)
        assert t.jumps[0][0] == 0.0057528919585224415

    def test_trajectory_depends_only_on_seed_and_stream(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        start = DressedState("e", 7)
        small = sample_ensemble(start, p, seed=99, n_trajectories=10)
        large = sample_ensemble(start, p, seed=99, n_trajectories=40)
        assert small == large[:10]
        assert small != large
        for i in (0, 9, 39):
            assert sample_trajectory(start, p, seed=99, stream=i) == large[i]

    def test_kernels_built_only_for_visited_states(self):
        p = ModelParams.from_ratios(2.0, 1.6)
        start = DressedState("e", 40)
        _jump_kernel.cache_clear()
        ens = sample_ensemble(start, p, seed=5, n_trajectories=50, max_jumps=3)
        visited = {start} | {ens.states[k] for k in ens.to_state.tolist()}
        assert ens.truncated.any()
        assert _jump_kernel.cache_info().misses <= len(visited)


class TestEnsembleColumns:
    def test_columns_match_trajectories(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        ens = sample_ensemble(DressedState("e", 6), p, seed=4, n_trajectories=25)
        rows = [
            (i, j, time, rec.initial, rec.final, rec.photon_freq)
            for i, traj in enumerate(ens)
            for j, (time, rec) in enumerate(traj.jumps)
        ]
        assert ens.trajectory_id.tolist() == [r[0] for r in rows]
        assert ens.jump_index.tolist() == [r[1] for r in rows]
        assert ens.time.tolist() == [r[2] for r in rows]
        assert [ens.states[k] for k in ens.from_state.tolist()] == [r[3] for r in rows]
        assert [ens.states[k] for k in ens.to_state.tolist()] == [r[4] for r in rows]
        assert ens.photon_freq.tolist() == [r[5] for r in rows]
        assert ens.jump_counts.tolist() == [len(t.jumps) for t in ens]
        assert not ens.time.flags.writeable

    def test_spectrum_same_from_columns_and_objects(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        ens = sample_ensemble(DressedState("e", 9), p, seed=17, n_trajectories=60)
        a = emission_spectrum(ens, bin_width=0.45)
        b = emission_spectrum(list(ens), bin_width=0.45)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)


class TestAtomicLog:
    def test_failure_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch):
        p = ModelParams.from_ratios(1.0, 0.45)
        ens = sample_ensemble(DressedState("e", 6), p, seed=77, n_trajectories=5)
        real_chunks = cascade_module._log_chunks

        def failing_chunks(ensemble, delimiter):
            chunks = real_chunks(ensemble, delimiter)
            yield next(chunks)
            raise OSError("disk full")

        monkeypatch.setattr(cascade_module, "_log_chunks", failing_chunks)
        path = tmp_path / "log.csv"
        with pytest.raises(OSError, match="disk full"):
            write_trajectory_log(ens, path)
        assert list(tmp_path.iterdir()) == []

        path.write_text("previous\n")
        with pytest.raises(OSError):
            write_trajectory_log(ens, path)
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]
