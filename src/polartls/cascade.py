"""Monte-Carlo sampling of radiative cascades over the two-ladder rate graph.

A trajectory starts in one dressed state and hops between the branches,
waiting an exponential time set by the current state's total rate and
choosing the next level in proportion to the partial rates, until it
reaches a dark state (or a jump cap).  Times are in units of
``1/gamma0``.  Jumps read the states' rate tables as columns; transition
records are built only when a :class:`Trajectory` is asked for.

All trajectories of an ensemble advance in lockstep, one jump per numpy
step.  The random stream is versioned as ``philox4x64-inv-v2``
(:data:`RNG_SCHEME`): an ensemble with seed ``s`` uses the
Philox4x64-10 key ``(s, 0)``, and jump ``j`` of trajectory ``i`` reads
the 4-word block at the 256-bit counter ``(i, j + 1, 0, 0)``, the block
numpy's ``Philox(key=s, counter=((j + 1) << 64) + i - 1).random_raw(4)``
returns (numpy steps the counter before each block).  A jump reads the
blocks of its live trajectories one window of ``2**13`` trajectory ids
at a time, one such call per window.  Word 0 gives
the waiting time by inversion, ``-log(u) / total`` with
``u = ((w0 >> 11) + 1) * 2**-53`` and the logarithm from the platform C
library; word 1 gives ``v = (w1 >> 11) * 2**-53``, which picks the
channel from the state's normalized cumulative rates.  Trajectory ``i``
therefore depends only on ``(seed, i)``: it is the same bits whatever
the ensemble size, and :func:`sample_trajectory` with ``stream=i``
reproduces it alone.

*Memory.*  While sampling, a jump keeps 12 bytes: its time (float64) and
its channel (int32).  An :class:`Ensemble` stores ``time``,
``from_state`` and ``channel`` (24 bytes a jump), ``row_start`` and
``truncated`` per trajectory, and each state's channel-to-target map;
``trajectory_id``, ``jump_index`` and ``to_state`` are derived from
those on first use.  The spectrum and the log read the rows a block of
``2**13`` at a time.  Since trajectory ``i`` depends only on
``(seed, i)``, the ``cascade`` command samples, logs and tallies one
window of ``2**13`` trajectory ids at a time and keeps 16 bytes a
trajectory (jump count and last time) plus a photon count per channel,
whatever the number of jumps.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .ladder import DressedState, TransitionRecord
from .numerics import _checked_int
from .overlaps import ModelParams
from .rates import RateTable, total_rate

__all__ = [
    "RNG_SCHEME",
    "Trajectory",
    "Ensemble",
    "SpectrumHistogram",
    "sample_trajectory",
    "sample_ensemble",
    "emission_spectrum",
    "write_trajectory_log",
]

RNG_SCHEME = "philox4x64-inv-v2"

_MAX_SEED = 2**64 - 1  # a seed is one 64-bit key word, a stream one counter word

_U11 = np.uint64(11)
_ONE = np.uint64(1)
_TWO_M53 = 2.0**-53

# Trajectory ids per random-number read and per ``cascade`` command window,
# and rows per spectrum or log block.
_BLOCK = 1 << 13
_UNNUMBERED = -2  # a target map's mark for a channel taken but not yet numbered


@dataclass(frozen=True)
class Trajectory:
    """One sampled cascade.

    ``jumps`` holds ``(time, record)`` pairs with strictly increasing
    absolute times; consecutive records chain.  ``truncated`` marks a
    trajectory stopped by the jump cap rather than by reaching a dark
    state.
    """

    seed: int
    stream: int
    start: DressedState
    jumps: tuple[tuple[float, TransitionRecord], ...]
    truncated: bool = False


@dataclass(frozen=True, eq=False)
class SpectrumHistogram:
    """Photon-frequency histogram normalized to the total photon count.

    ``bin_edges`` has one more entry than ``weights``; bins are centered
    on multiples of the bin width so comb lines do not straddle edges.
    """

    bin_edges: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    total_photons: int

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True, eq=False)
class _JumpKernel:  # the table's channels of nonzero rate: positions, sum, normalized cumsum
    table: RateTable
    live: np.ndarray
    total: float
    cumulative: np.ndarray


@functools.lru_cache(maxsize=4096)
def _jump_kernel(state: DressedState, params: ModelParams) -> _JumpKernel:
    table = total_rate(state, params)
    live = np.flatnonzero(table.rate_over_gamma0 > 0.0)
    if not live.size:
        return _JumpKernel(table, live, 0.0, np.empty(0))
    cumulative = np.cumsum(table.rate_over_gamma0[live])
    total = float(cumulative[-1])
    cumulative /= total
    cumulative[-1] = 1.0
    return _JumpKernel(table, live, total, cumulative)


@dataclass(frozen=True, eq=False)
class Ensemble(Sequence):
    """Columnar cascade ensemble; also a read-only sequence of trajectories.

    Each row is one jump, in trajectory-major order: the rows of
    trajectory ``i`` are ``row_start[i]:row_start[i + 1]``, by jump
    index.  ``from_state`` indexes ``states``, and ``channel`` indexes
    the live channels of the ``from_state`` jump kernel, which land in
    state ``targets[from_state][channel]`` (-1 for a channel no row
    takes).  ``truncated`` has one entry per trajectory.  The columns
    ``trajectory_id``, ``jump_index`` and ``to_state`` are derived on
    first use and then kept.  Indexing builds a :class:`Trajectory`,
    with records from the rate tables, on demand (its stream is
    ``first_stream + i``; a slice gives a list); two ensembles compare
    equal when they are equal trajectory by trajectory.
    """

    seed: int
    first_stream: int
    start: DressedState
    states: tuple[DressedState, ...]
    kernels: tuple[_JumpKernel, ...] = field(repr=False)
    targets: tuple[np.ndarray, ...] = field(repr=False)
    row_start: np.ndarray
    time: np.ndarray
    from_state: np.ndarray
    channel: np.ndarray
    truncated: np.ndarray

    def __len__(self) -> int:
        return self.truncated.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        lo, hi = int(self.row_start[i]), int(self.row_start[i + 1])
        rows = zip(self.time[lo:hi].tolist(), self.from_state[lo:hi].tolist(),
                   self.channel[lo:hi].tolist())
        kernels = self.kernels
        jumps = tuple((t, kernels[f].table.transitions[kernels[f].live[c]]) for t, f, c in rows)
        return Trajectory(
            seed=self.seed,
            stream=self.first_stream + i,
            start=self.start,
            jumps=jumps,
            truncated=bool(self.truncated[i]),
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    @property
    def jump_counts(self) -> np.ndarray:
        """Number of jumps of each trajectory."""
        return np.diff(self.row_start)

    @functools.cached_property
    def trajectory_id(self) -> np.ndarray:
        """Per row, the trajectory it belongs to."""
        return _frozen(np.repeat(np.arange(len(self), dtype=np.int64), self.jump_counts))

    @functools.cached_property
    def jump_index(self) -> np.ndarray:
        """Per row, its jump's index within the trajectory."""
        return _frozen(np.arange(self.time.size) - np.repeat(self.row_start[:-1], self.jump_counts))

    @functools.cached_property
    def to_state(self) -> np.ndarray:
        """Per row, the state the jump lands in (an index into ``states``)."""
        return _frozen(np.concatenate(self.targets)[self._flat_channel()])

    @functools.cached_property
    def _channel_offsets(self) -> np.ndarray:
        """Per state, where its live channels start among all kernels' live channels."""
        sizes = [kernel.live.size for kernel in self.kernels]
        return np.concatenate(([0], np.cumsum(sizes[:-1], dtype=np.int64)))

    def _flat_channel(self, rows=slice(None)) -> np.ndarray:
        """Per row, the index of its channel among all kernels' live channels."""
        return self._channel_offsets[self.from_state[rows]] + self.channel[rows]

    def _channel_freqs(self) -> np.ndarray:
        """Photon frequency of each flat channel."""
        return np.concatenate([kernel.table.photon_freq[kernel.live] for kernel in self.kernels])

    def _channel_counts(self) -> np.ndarray:
        """Rows of each flat channel, counted a block of rows at a time."""
        counts = np.zeros(sum(kernel.live.size for kernel in self.kernels), dtype=np.int64)
        for lo in range(0, self.time.size, _BLOCK):
            counts += np.bincount(self._flat_channel(slice(lo, lo + _BLOCK)), minlength=counts.size)
        return counts

    @property
    def photon_freq(self) -> np.ndarray:
        """Frequency of the photon emitted in each jump."""
        return self._channel_freqs()[self._flat_channel()]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _windows(ids: np.ndarray) -> list[slice]:
    """Slices of the ascending ``ids``, one per window of ``_BLOCK`` ids that holds any."""
    if not ids.size:
        return []
    bounds = np.arange(int(ids[0]) // _BLOCK + 1, int(ids[-1]) // _BLOCK + 1) * _BLOCK
    cuts = list(dict.fromkeys(np.searchsorted(ids, bounds).tolist()))  # ascending; empty windows repeat a cut
    return [slice(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, ids.size])]


class _RateGraph:
    """States numbered in the order trajectories first occupy them.

    A state's jump kernel is built when the state gets its number, so a
    state no trajectory reaches costs nothing.  Channel ``c`` of state
    ``sid`` lands in state ``targets[offsets[sid] + c]``, -1 until a
    trajectory takes it.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.ids: dict[DressedState, int] = {}
        self.states: list[DressedState] = []
        self.kernels: list[_JumpKernel] = []
        self.totals: list[float] = []
        self.offsets: list[int] = []
        self.size = 0  # channels in the map; its buffer grows by doubling
        self.targets = np.empty(0, dtype=np.int64)
        self.pending: set[int] = set()  # states with channels marked by pick

    def number(self, state: DressedState) -> int:
        sid = self.ids.get(state)
        if sid is None:
            kernel = _jump_kernel(state, self.params)
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            self.kernels.append(kernel)
            self.totals.append(kernel.total)
            self.offsets.append(self.size)
            self.size += kernel.live.size
            if self.size > self.targets.size:
                grown = np.full(2 * self.size, -1, dtype=np.int64)
                grown[: self.targets.size] = self.targets
                self.targets = grown
        return sid

    def pick(self, state: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Channels that uniforms ``v`` pick in states ``state``; marks the first takers."""
        channel = np.empty(v.size, dtype=np.int32)
        order = np.argsort(state, kind="stable")
        grouped = state[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, v.size]):
            rows, sid = order[lo:hi], int(grouped[lo])
            kernel, offset = self.kernels[sid], self.offsets[sid]
            picked = np.searchsorted(kernel.cumulative, v[rows], side="right")
            np.minimum(picked, kernel.live.size - 1, out=picked)
            channel[rows] = picked
            targets = self.targets[offset : offset + kernel.live.size]
            fresh = picked[targets[picked] == -1]
            if fresh.size:
                targets[fresh] = _UNNUMBERED
                self.pending.add(sid)
        return channel

    def settle(self) -> None:
        """Number the targets of the marked channels, by state and then by channel."""
        for sid in sorted(self.pending):
            kernel, offset = self.kernels[sid], self.offsets[sid]
            marked = self.targets[offset : offset + kernel.live.size] == _UNNUMBERED
            for c in np.flatnonzero(marked).tolist():
                final_n = kernel.table.final_n[kernel.live[c]]
                target = self.number(DressedState(kernel.table.final_branch, final_n))
                self.targets[offset + c] = target  # number() may have grown the buffer
        self.pending.clear()

    def advance(self, live: np.ndarray, state: np.ndarray, channel: np.ndarray, *lanes) -> int:
        """Move each lane to the state its ``channel`` lands in and keep, in place and in
        order, those whose new state still emits (``lanes`` are compacted alike); returns
        how many stay."""
        emits = np.array(self.totals) > 0.0
        offsets = np.array(self.offsets, dtype=np.int64)
        kept = 0
        for rows in _windows(live):
            target = self.targets[offsets[state[rows]] + channel[rows]]
            keep = emits[target]
            end = kept + int(np.count_nonzero(keep))
            for column in (live, *lanes):
                column[kept:end] = column[rows][keep]
            state[kept:end] = target[keep]
            kept = end
        return kept


def _sample(
    start: DressedState,
    params: ModelParams,
    seed: int,
    first_stream: int,
    count: int,
    max_jumps: int,
) -> Ensemble:
    """Lockstep sampler: streams ``first_stream .. first_stream+count-1``."""
    from numpy.random import Philox  # only sampling pays for numpy.random

    graph = _RateGraph(params)
    graph.number(start)
    emitting = count if graph.totals[0] > 0.0 else 0
    live = np.arange(emitting)  # ascending ids of the live lanes, compacted after each jump
    state = np.zeros(emitting, dtype=np.int64)
    clock = np.zeros(emitting)
    row_start = np.zeros(count + 1, dtype=np.int64)  # jump counts until the cumsum
    steps = []  # per jump, the time and channel of each live lane
    for jump in range(max_jumps):
        if not live.size:
            break
        totals = np.array(graph.totals)
        times, channels = np.empty(live.size), np.empty(live.size, dtype=np.int32)
        for lanes in _windows(live):
            # One call reads the blocks at counters (i, jump + 1) for the ids i
            # from the window's first live one to its last; numpy steps before a block.
            ids = live[lanes]
            first = int(ids[0])
            bits = Philox(key=seed, counter=((jump + 1) << 64) + first_stream + first - 1)
            words = bits.random_raw(4 * (int(ids[-1]) - first + 1))
            lane = (ids - first) * 4
            u = ((words[lane] >> _U11) + _ONE) * _TWO_M53
            v = (words[lane + 1] >> _U11) * _TWO_M53
            # libm, not np.log: SIMD logarithms differ between builds in the last bit.
            log_u = np.fromiter(map(math.log, u.tolist()), dtype=float, count=ids.size)
            clock[lanes] -= log_u / totals[state[lanes]]
            times[lanes] = clock[lanes]
            channels[lanes] = graph.pick(state[lanes], v)
        graph.settle()
        steps.append((times, channels))
        row_start[1:][live] = jump + 1
        kept = graph.advance(live, state, channels, clock)
        live, state, clock = live[:kept], state[:kept], clock[:kept]

    truncated = np.zeros(count, dtype=bool)
    truncated[live] = True
    del live, state, clock

    # A trajectory live at a step was live at every earlier one, so its
    # row for jump j is row_start[id] + j.  Replay the lanes through the
    # target map, scatter each step into place and drop it once written.
    np.cumsum(row_start, out=row_start)
    n_rows = int(row_start[-1])
    time = np.empty(n_rows)
    from_state, channel = np.empty(n_rows, dtype=np.int64), np.empty(n_rows, dtype=np.int64)
    live, state = np.arange(emitting), np.zeros(emitting, dtype=np.int64)
    for jump in range(len(steps)):
        times, channels = steps[jump]
        steps[jump] = None
        for lanes in _windows(live):
            at = row_start[live[lanes]] + jump
            time[at], from_state[at], channel[at] = times[lanes], state[lanes], channels[lanes]
        kept = graph.advance(live, state, channels)
        live, state = live[:kept], state[:kept]
    targets = _frozen(graph.targets[: graph.size].copy())
    return Ensemble(
        seed=seed,
        first_stream=first_stream,
        start=start,
        states=tuple(graph.states),
        kernels=tuple(graph.kernels),
        targets=tuple(targets[offset : offset + kernel.live.size]
                      for offset, kernel in zip(graph.offsets, graph.kernels)),
        row_start=_frozen(row_start),
        time=_frozen(time),
        from_state=_frozen(from_state),
        channel=_frozen(channel),
        truncated=_frozen(truncated),
    )


def sample_trajectory(
    start: DressedState,
    params: ModelParams,
    seed: int,
    max_jumps: int = 1000,
    stream: int = 0,
) -> Trajectory:
    """Sample one cascade, deterministically for a given (seed, stream).

    Equal to trajectory ``stream`` of any :func:`sample_ensemble` run
    with the same seed that is long enough to contain it.
    """
    seed = _checked_int(seed, "seed", 0, _MAX_SEED)
    stream = _checked_int(stream, "stream", 0, _MAX_SEED)
    max_jumps = _checked_int(max_jumps, "max_jumps", 1)
    return _sample(start, params, seed, stream, 1, max_jumps)[0]


def sample_ensemble(
    start: DressedState,
    params: ModelParams,
    seed: int,
    n_trajectories: int,
    max_jumps: int = 1000,
    threads: int = 1,
) -> Ensemble:
    """Sample ``n_trajectories`` cascades on streams ``0..n-1``.

    ``threads`` is accepted and ignored: every trajectory already
    advances in the same numpy step, which a thread pool only slowed.
    """
    seed = _checked_int(seed, "seed", 0, _MAX_SEED)
    n_trajectories = _checked_int(n_trajectories, "n_trajectories", 0)
    max_jumps = _checked_int(max_jumps, "max_jumps", 1)
    return _sample(start, params, seed, 0, n_trajectories, max_jumps)


def emission_spectrum(trajectories, bin_width: float) -> SpectrumHistogram:
    """Histogram of all emitted photon frequencies, normalized to count 1.

    Bin ``k`` is centered on ``k * bin_width``.  Frequencies are in the
    units of the rate tables' ``photon_freq`` (the bare transition
    frequency for tables built by this package).  ``trajectories`` is an
    :class:`Ensemble` or any iterable of :class:`Trajectory`.
    """
    bin_width = float(bin_width)
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ValueError(f"bin_width must be > 0, got {bin_width!r}")
    if isinstance(trajectories, Ensemble):
        freqs, photons = trajectories._channel_freqs(), trajectories._channel_counts()
    else:
        freqs = np.array(
            [rec.photon_freq for traj in trajectories for _, rec in traj.jumps],
            dtype=float,
        )
        photons = np.ones(freqs.size, dtype=np.int64)
    return _binned_spectrum(freqs, photons, bin_width)


def _binned_spectrum(freqs: np.ndarray, photons: np.ndarray, bin_width: float) -> SpectrumHistogram:
    """The histogram of ``photons[i]`` photons at each frequency ``freqs[i]``."""
    emitted = np.flatnonzero(photons)
    freqs, photons = freqs[emitted], photons[emitted]
    total = int(photons.sum())
    if total == 0:
        return SpectrumHistogram(
            bin_edges=np.empty(0),
            weights=np.empty(0),
            counts=np.empty(0, dtype=np.int64),
            total_photons=0,
        )
    if freqs.max() > 2.0**53 * bin_width:  # past 2**53 a bin index is no longer exact
        raise ValueError(f"bin_width {bin_width!r} puts a frequency past bin index 2**53")
    ks = np.rint(freqs / bin_width).astype(np.int64)
    k_lo, k_hi = int(ks.min()), int(ks.max())
    # Weighted sums of whole counts are exact in float64 below 2**53.
    counts = np.bincount(ks - k_lo, photons, minlength=k_hi - k_lo + 1).astype(np.int64)
    edges = (np.arange(k_lo, k_hi + 2) - 0.5) * bin_width
    return SpectrumHistogram(
        bin_edges=edges,
        weights=counts / total,
        counts=counts,
        total_photons=total,
    )


def _log_header(delimiter: str) -> bytes:
    """The log's first line, its column names after a ``#``."""
    names = "trajectory_id,jump_index,time,from_branch,from_n,to_branch,to_n,photon_freq"
    return f"# {names}\n".replace(",", delimiter).encode()


def _log_chunks(ensemble: Ensemble, delimiter: str):
    """The log's rows as UTF-8 bytes in blocks of lines; trajectory ids count
    from ``ensemble.first_stream``."""
    from . import _text  # only the writers load it

    # Everything after the time depends only on the (state, channel) pair, and
    # only the pairs some row takes (a target other than -1) are rendered.
    taken = [kernel.live[target >= 0] for kernel, target in zip(ensemble.kernels, ensemble.targets)]
    tails = _text.str_cells(
        delimiter.join((kernel.table.initial.branch, str(kernel.table.initial.n),
                        kernel.table.final_branch, str(kernel.table.final_n[k]), repr(freq)))
        for kernel, live in zip(ensemble.kernels, taken)
        for k, freq in zip(live.tolist(), kernel.table.photon_freq[live].tolist())
    )
    tail_of = np.cumsum(np.concatenate(ensemble.targets) >= 0) - 1  # flat channel -> tail
    for lo in range(0, ensemble.time.size, _BLOCK):
        block = slice(lo, min(lo + _BLOCK, ensemble.time.size))
        rows = np.arange(block.start, block.stop)
        trajectory = np.searchsorted(ensemble.row_start, rows, side="right") - 1
        yield _text.rows_text(
            [trajectory + ensemble.first_stream, rows - ensemble.row_start[trajectory],
             ensemble.time[block], tails.take(tail_of[ensemble._flat_channel(block)])],
            delimiter,
        )


def write_trajectory_log(ensemble: Ensemble, path, delimiter: str = ",") -> None:
    """Write one line per jump: trajectory id, jump index, time, states, photon.

    Each line is exactly ``delimiter.join(fields) + "\\n"`` with integers as
    ``str`` and floats as ``repr`` gives them, so the log round-trips
    exactly; ``delimiter`` is any string, written as UTF-8.  The text is
    rendered a block of rows at a time by :mod:`polartls._text`.  The log
    is written to a temporary file beside ``path`` and renamed into
    place, so ``path`` ends up either complete or untouched.
    """
    if not isinstance(ensemble, Ensemble):
        raise TypeError(
            f"write_trajectory_log takes the Ensemble from sample_ensemble, "
            f"got {type(ensemble).__name__}"
        )
    chunks = itertools.chain([_log_header(delimiter)], _log_chunks(ensemble, delimiter))
    _write_atomically(path, chunks, "trajectory log")


def _write_atomically(path, chunks, what: str) -> None:
    """Write the byte ``chunks`` to a temporary file beside ``path`` and rename it
    into place, so ``path`` ends up complete or untouched and no temporary stays,
    also when producing a chunk raises."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        handle = open(tmp, "xb")
    except OSError as exc:
        raise OSError(f"cannot write {what} {path!r}: {exc}") from exc
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
