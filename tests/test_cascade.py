"""Monte-Carlo cascade sampling: determinism, statistics, log format."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polartls.cascade as cascade_module
from polartls.cascade import (
    RNG_SCHEME,
    Trajectory,
    _jump_kernel,
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

    def test_bin_index_past_2_53_is_refused(self):
        # the only frequency is 1.0; rint(1 / width) must stay an exact integer
        ens = sample_ensemble(DressedState("e", 0), ModelParams.from_ratios(0.0, 0.5), 1, 5)
        for width in (1e-300, 2.0**-54, 5e-324):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                emission_spectrum(ens, bin_width=width)
        spec = emission_spectrum(ens, bin_width=2.0**-53)
        assert spec.bin_centers.tolist() == [1.0] and spec.counts.tolist() == [5]


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


_MASK64 = 2**64 - 1


def _philox_block(key, counter):
    """Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
    1, 2, 3", SC'11) in Python integers: the 4-word block at the 256-bit
    ``counter`` under the 128-bit ``key``, both as little-endian words."""
    c = [(counter >> (64 * k)) & _MASK64 for k in range(4)]
    k0, k1 = key & _MASK64, key >> 64
    for r in range(10):
        if r:
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ c[3] ^ k1, p0 & _MASK64]
    return c


def _first_wait(seed, stream, total):
    """The first waiting time of a stream, by inversion of the reference's word 0."""
    w0 = _philox_block(seed, stream + (1 << 64))[0]
    return -math.log(((w0 >> 11) + 1) * 2.0**-53) / total


def _replay(start, params, seed, stream, max_jumps=1000):
    """One trajectory stepped in Python from the scalar Philox reference."""
    state, time, jumps = start, 0.0, []
    while True:
        table = total_rate(state, params)
        live = [t for t in table.transitions if t.rate_over_gamma0 > 0.0]
        if not live:
            return jumps, False
        if len(jumps) == max_jumps:
            return jumps, True
        w0, w1, _, _ = _philox_block(seed, stream + ((len(jumps) + 1) << 64))
        cumulative = np.cumsum([t.rate_over_gamma0 for t in live])
        total = float(cumulative[-1])
        cumulative /= total
        cumulative[-1] = 1.0
        time -= math.log(((w0 >> 11) + 1) * 2.0**-53) / total
        pick = int(np.searchsorted(cumulative, (w1 >> 11) * 2.0**-53, side="right"))
        record = live[min(pick, len(live) - 1)]
        jumps.append((time, record))
        state = record.final


_IMPORT_SCRIPT = """
import json, sys
from polartls.cli import main
out = sys.argv[1]
model = ["--omega-a", "1", "--omega-l", "0.5"]
runs = [
    ["gamma0", "--omega0", "2.4e15", "--dipole-debye", "1"],
    ["sweep", "--quantity", "absorption_g1", "--omega-a", "0,2,5", "--omega-l", "0.2,1.5,4",
     "--output", out + "/absorption.csv"],
    ["rate", "--branch", "e", "--n", "20", *model],
    ["overlap", "--ell", "400", "--n", "398", *model],
    ["semiclassical", "--n-bar", "1e4", *model],
    ["cascade", "--branch", "e", "--n", "5", "--seed", "1", "--trajectories", "50",
     "--output", out + "/cascade.log", *model],
]
loaded = []
for argv in runs:
    assert main(argv) == 0, argv
    loaded.append(["polartls.cascade" in sys.modules, "numpy.random" in sys.modules])
print(json.dumps(loaded))
"""


class TestRandomStream:
    def test_numpy_philox_matches_reference(self):
        # The sampler reads block (i, j + 1) as numpy's first block after
        # counter (i, j + 1) - 1, several trajectories per call; check both
        # sides of the word-0 carry, the extreme keys and a multi-block read.
        top = 2**64 - 1
        for key in (0, 1, 2718, top):
            for i in (0, 1, 2**63, top - 1, top):
                for j in (0, 1, 41):
                    counter = i + ((j + 1) << 64)
                    block = np.random.Philox(key=key, counter=counter - 1).random_raw(4)
                    assert block.tolist() == _philox_block(key, counter)
            for first, last in ((0, 3), (top - 2, top)):
                words = np.random.Philox(key=key, counter=(5 << 64) + first - 1)
                expected = [
                    w for i in range(first, last + 1) for w in _philox_block(key, i + (5 << 64))
                ]
                assert words.random_raw(4 * (last - first + 1)).tolist() == expected

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

    def test_sparse_late_jumps_match_replay(self):
        # The last jump reads one long counter span for a few scattered live lanes.
        p = ModelParams.from_ratios(2.0, 1.6)
        start = DressedState("e", 40)
        ens = sample_ensemble(start, p, seed=404, n_trajectories=150, max_jumps=12)
        last = np.flatnonzero(ens.jump_counts == 12)
        assert 2 <= last.size <= 8 and last[-1] - last[0] > 10 * last.size
        for i in range(len(ens)):
            jumps, truncated = _replay(start, p, 404, i, max_jumps=12)
            assert (ens[i].jumps, ens[i].truncated) == (tuple(jumps), truncated)

    def test_last_stream_matches_replay(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        start = DressedState("e", 9)
        for seed in (0, 2**64 - 1):
            t = sample_trajectory(start, p, seed=seed, stream=2**64 - 1)
            jumps, truncated = _replay(start, p, seed, 2**64 - 1)
            assert (t.jumps, t.truncated) == (tuple(jumps), truncated)
            assert t.jumps

    def test_golden_first_jumps(self):
        # Pins philox4x64-inv-v2; a change here is a stream break to version.
        assert RNG_SCHEME == "philox4x64-inv-v2"
        p = ModelParams.from_ratios(1.0, 0.45)
        start = DressedState("e", 6)
        total = total_rate(start, p).total_over_gamma0
        ens = sample_ensemble(start, p, seed=2718, n_trajectories=4)
        firsts = [t.jumps[0][0] for t in ens]
        assert firsts == [_first_wait(2718, i, total) for i in range(4)]
        assert firsts == [
            0.1008888956831804,
            0.10340906207155409,
            0.038913415750689066,
            0.09158109153599102,
        ]
        assert [t.jumps[0][1].final.n for t in ens] == [2, 3, 3, 3]
        assert [t.jumps[-1][1].final for t in ens] == [
            DressedState("g", 2),
            DressedState("g", 0),
            DressedState("g", 1),
            DressedState("g", 1),
        ]
        # The first uniform of stream 120 is one where AVX-512 np.log and
        # the C library's log differ in the last bit; the stream uses libm.
        t = sample_trajectory(start, p, seed=2718, stream=120)
        assert t.jumps[0][0] == _first_wait(2718, 120, total) == 0.005834924236736532

    def test_only_cascade_loads_numpy_random(self, tmp_path):
        # polartls.cascade and numpy.random cost import time and memory that only sampling needs.
        package_root = str(Path(cascade_module.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[False, False]] * 5 + [[True, True]]

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

    def test_derived_columns_are_cached_read_only_int64(self):
        p = ModelParams.from_ratios(1.0, 0.45)
        start = DressedState("e", 6)
        ens = sample_ensemble(start, p, seed=4, n_trajectories=25)
        for name in ("trajectory_id", "jump_index", "to_state"):
            column = getattr(ens, name)
            assert column.dtype == np.int64 and column.shape == ens.time.shape
            assert not column.flags.writeable
            assert getattr(ens, name) is column
        # a row lands where the next row of its trajectory starts
        same = ens.trajectory_id[1:] == ens.trajectory_id[:-1]
        assert np.array_equal(ens.to_state[:-1][same], ens.from_state[1:][same])
        assert ens == list(ens) == sample_ensemble(start, p, seed=4, n_trajectories=25)
        assert ens[-1] == ens[24] == sample_trajectory(start, p, seed=4, stream=24)
        assert ens[3:5] == [ens[3], ens[4]]
        with pytest.raises(IndexError):
            ens[25]

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


def _columns(ens):
    names = ("row_start", "time", "from_state", "channel", "truncated",
             "trajectory_id", "jump_index", "to_state")
    return {name: getattr(ens, name).tolist() for name in names} | {
        "states": ens.states, "targets": [t.tolist() for t in ens.targets]}


class TestWindows:
    @pytest.mark.parametrize(
        "start, ratios, count, max_jumps",
        [
            (DressedState("e", 6), (1.0, 0.45), 200, 1000),
            (DressedState("e", 40), (2.0, 1.6), 60, 3),  # truncated lanes
            (DressedState("g", 0), (1.0, 0.5), 20, 1000),  # dark start: no live lane
        ],
    )
    def test_columns_and_log_do_not_depend_on_the_window(
        self, tmp_path, monkeypatch, start, ratios, count, max_jumps
    ):
        p = ModelParams.from_ratios(*ratios)
        runs = []
        for window in (cascade_module._BLOCK, 1, 3):
            monkeypatch.setattr(cascade_module, "_BLOCK", window)
            ens = sample_ensemble(start, p, seed=31, n_trajectories=count, max_jumps=max_jumps)
            path = tmp_path / f"log{window}.csv"
            write_trajectory_log(ens, path)
            runs.append((_columns(ens), path.read_bytes()))
        assert runs[0] == runs[1] == runs[2]
        assert (max_jumps == 3) == any(runs[0][0]["truncated"])
        assert (start.branch == "g") == (runs[0][0]["row_start"][-1] == 0)

    def test_windows_cut_once_per_occupied_window(self):
        block = cascade_module._BLOCK
        windows = cascade_module._windows
        spread = np.array([3, block, 2 * block + 1, 2 * block + 5])
        assert windows(spread) == [slice(0, 1), slice(1, 2), slice(2, 4)]
        gapped = np.array([3, 4, 3 * block + 1])  # windows 1 and 2 hold no id
        assert windows(gapped) == [slice(0, 2), slice(2, 3)]
        assert windows(np.array([block + 3, block + 9, 2 * block - 1])) == [slice(0, 3)]
        assert windows(np.array([], dtype=np.int64)) == []


class TestMemory:
    """tracemalloc peaks against the sampler's design.  A jump keeps 12 bytes
    (time, int32 channel) until the columns are scattered, and the stored columns
    take 24 (time, from_state, channel).  A trajectory holds at most its lane
    (id, state, clock), its row_start entry and its truncated flag: 33 bytes.  A
    window of _BLOCK ids reads 32 bytes of Philox words per id and a few dozen
    lane-sized transients; 256 bytes an id bounds it."""

    START, PARAMS, COUNT = DressedState("e", 5), ModelParams.from_ratios(0.5, 0.5), 100_000

    def _traced(self, run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sampling_peak(self):
        sample_ensemble(self.START, self.PARAMS, seed=1, n_trajectories=10)  # rate tables
        ens, peak = self._traced(
            lambda: sample_ensemble(self.START, self.PARAMS, seed=31, n_trajectories=self.COUNT)
        )
        bound = 36 * ens.time.size + 33 * self.COUNT + 256 * cascade_module._BLOCK + (1 << 18)
        assert ens.time.size > 2 * self.COUNT
        assert peak <= bound, (peak, bound)

    def test_spectrum_and_log_peak_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        # Both read the rows a block at a time: nothing per row, under 1 kB a
        # block row for the log's text (its slot matrix and one float column's
        # digits), and small per-channel tables.  Short blocks make one row-sized array (2.2 MB at
        # 8 bytes a row) break the bound.
        monkeypatch.setattr(cascade_module, "_BLOCK", 1 << 10)
        small = sample_ensemble(self.START, self.PARAMS, seed=1, n_trajectories=10)
        write_trajectory_log(small, tmp_path / "warm.csv")  # loads the text renderer
        ens = sample_ensemble(self.START, self.PARAMS, seed=31, n_trajectories=self.COUNT)
        channels = sum(kernel.live.size for kernel in ens.kernels)

        def tail():
            emission_spectrum(ens, bin_width=0.05)
            write_trajectory_log(ens, tmp_path / "log.csv")

        _, peak = self._traced(tail)
        bound = 1024 * cascade_module._BLOCK + 1024 * channels + (1 << 20)
        assert ens.time.size > 2 * self.COUNT
        assert peak <= bound, (peak, bound)
