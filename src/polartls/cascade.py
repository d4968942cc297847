"""Monte-Carlo sampling of radiative cascades over the two-ladder rate graph.

A trajectory starts in one dressed state and hops between the branches,
waiting an exponential time set by the current state's total rate and
choosing the next level in proportion to the partial rates, until it
reaches a dark state (or a jump cap).  Times are in units of
``1/gamma0``.

All trajectories of an ensemble advance in lockstep, one jump per numpy
step.  The random stream is versioned as ``philox4x64-inv-v2``
(:data:`RNG_SCHEME`): an ensemble with seed ``s`` uses the
Philox4x64-10 key ``(s, 0)``, and jump ``j`` of trajectory ``i`` reads
the 4-word block at the 256-bit counter ``(i, j + 1, 0, 0)``, the block
numpy's ``Philox(key=s, counter=((j + 1) << 64) + i - 1).random_raw(4)``
returns (numpy steps the counter before each block).  One such call per
jump reads the blocks of every live trajectory at once.  Word 0 gives
the waiting time by inversion, ``-log(u) / total`` with
``u = ((w0 >> 11) + 1) * 2**-53`` and the logarithm from the platform C
library; word 1 gives ``v = (w1 >> 11) * 2**-53``, which picks the
channel from the state's normalized cumulative rates.  Trajectory ``i``
therefore depends only on ``(seed, i)``: it is the same bits whatever
the ensemble size, and :func:`sample_trajectory` with ``stream=i``
reproduces it alone.  There is no thread pool: the ``threads`` argument
of :func:`sample_ensemble` (and ``cascade --threads``) is accepted and
ignored.  Version 2 replaced the per-trajectory keys ``(s, i)`` of
``philox4x64-inv-v1``, so a given seed yields different bits than
before it, with the same statistics.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ladder import DressedState, TransitionRecord
from .numerics import _checked_int
from .overlaps import ModelParams
from .rates import total_rate

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

# Rows of the trajectory log formatted per write.
_LOG_CHUNK_ROWS = 1 << 14


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


@dataclass(frozen=True)
class _JumpKernel:
    total: float
    records: tuple[TransitionRecord, ...]
    cumulative: np.ndarray = field(compare=False)


@lru_cache(maxsize=4096)
def _jump_kernel(state: DressedState, params: ModelParams) -> _JumpKernel:
    table = total_rate(state, params)
    live = tuple(t for t in table.transitions if t.rate_over_gamma0 > 0.0)
    if not live:
        return _JumpKernel(0.0, (), np.empty(0))
    rates = np.array([t.rate_over_gamma0 for t in live])
    cumulative = np.cumsum(rates)
    total = float(cumulative[-1])
    cumulative /= total
    cumulative[-1] = 1.0
    return _JumpKernel(total, live, cumulative)


@dataclass(frozen=True, eq=False)
class Ensemble(Sequence):
    """Columnar cascade ensemble; also a read-only sequence of trajectories.

    Each row is one jump, in trajectory-major order: the rows of
    trajectory ``i`` are ``row_start[i]:row_start[i + 1]``, by jump
    index.  ``from_state`` and ``to_state`` index ``states``, and
    ``channel`` indexes the live channels of the ``from_state`` jump
    kernel.  ``truncated`` has one entry per trajectory.  Indexing
    builds a :class:`Trajectory` on demand (its stream is
    ``first_stream + i``; a slice gives a list); two ensembles compare
    equal when they are equal trajectory by trajectory.
    """

    seed: int
    first_stream: int
    start: DressedState
    states: tuple[DressedState, ...]
    kernels: tuple[_JumpKernel, ...] = field(repr=False)
    row_start: np.ndarray
    trajectory_id: np.ndarray
    jump_index: np.ndarray
    time: np.ndarray
    from_state: np.ndarray
    to_state: np.ndarray
    channel: np.ndarray
    truncated: np.ndarray

    def __len__(self) -> int:
        return self.truncated.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        lo, hi = int(self.row_start[i]), int(self.row_start[i + 1])
        jumps = tuple(
            (t, self.kernels[f].records[c])
            for t, f, c in zip(
                self.time[lo:hi].tolist(),
                self.from_state[lo:hi].tolist(),
                self.channel[lo:hi].tolist(),
            )
        )
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

    def _flat_channel(self) -> np.ndarray:
        """Per row, the index of its channel among all kernels' records."""
        sizes = [len(kernel.records) for kernel in self.kernels]
        offsets = np.concatenate(([0], np.cumsum(sizes[:-1], dtype=np.int64)))
        return offsets[self.from_state] + self.channel

    @property
    def photon_freq(self) -> np.ndarray:
        """Frequency of the photon emitted in each jump."""
        freqs = np.array(
            [rec.photon_freq for kernel in self.kernels for rec in kernel.records],
            dtype=float,
        )
        return freqs[self._flat_channel()]


class _RateGraph:
    """States numbered in the order trajectories first occupy them.

    A state's jump kernel is built when the state gets its number, so a
    state no trajectory reaches costs nothing.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.ids: dict[DressedState, int] = {}
        self.states: list[DressedState] = []
        self.kernels: list[_JumpKernel] = []
        self.totals: list[float] = []
        # per state: channel -> id of the state it lands in, -1 until taken
        self.targets: list[np.ndarray] = []

    def number(self, state: DressedState) -> int:
        sid = self.ids.get(state)
        if sid is None:
            kernel = _jump_kernel(state, self.params)
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            self.kernels.append(kernel)
            self.totals.append(kernel.total)
            self.targets.append(np.full(len(kernel.records), -1, dtype=np.int64))
        return sid

    def jump(self, sid: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Channels that uniforms ``v`` pick in state ``sid``, and their targets."""
        kernel = self.kernels[sid]
        channel = np.searchsorted(kernel.cumulative, v, side="right")
        np.minimum(channel, len(kernel.records) - 1, out=channel)
        targets = self.targets[sid]
        for c in np.unique(channel[targets[channel] < 0]).tolist():
            targets[c] = self.number(kernel.records[c].final)
        return channel, targets[channel]


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
    clock = np.zeros(count)
    live = np.arange(count if graph.totals[0] > 0.0 else 0)
    state = np.zeros(live.size, dtype=np.int64)
    jump_counts = np.zeros(count, dtype=np.int64)
    steps = []
    for jump in range(max_jumps):
        if not live.size:
            break
        # One call reads the blocks at counters (i, jump + 1) for the streams
        # i from the first live one to the last; numpy steps before a block.
        first = int(live[0])
        bits = Philox(key=seed, counter=((jump + 1) << 64) + first_stream + first - 1)
        words = bits.random_raw(4 * (int(live[-1]) - first + 1))
        lane = (live - first) * 4
        w0, w1 = words[lane], words[lane + 1]
        u = ((w0 >> _U11) + _ONE) * _TWO_M53
        v = (w1 >> _U11) * _TWO_M53
        # libm, not np.log: SIMD logarithms differ between builds in the last bit.
        log_u = np.fromiter(map(math.log, u.tolist()), dtype=float, count=live.size)
        clock[live] -= log_u / np.array(graph.totals)[state]

        channel = np.empty(live.size, dtype=np.int64)
        target = np.empty(live.size, dtype=np.int64)
        order = np.argsort(state, kind="stable")
        grouped = state[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, live.size]):
            rows = order[lo:hi]
            channel[rows], target[rows] = graph.jump(int(grouped[lo]), v[rows])
        steps.append((live, clock[live], state, target, channel))
        jump_counts[live] = jump + 1

        going = np.array(graph.totals)[target] > 0.0
        live, state = live[going], target[going]

    truncated = np.zeros(count, dtype=bool)
    truncated[live] = True

    # A trajectory live at a step was live at every earlier one, so its
    # row for jump j is row_start[id] + j: scatter each step into place
    # and drop it once written.
    row_start = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(jump_counts, out=row_start[1:])
    rows = int(row_start[-1])
    trajectory_id, jump_index, from_state, to_state, channel = (
        np.empty(rows, dtype=np.int64) for _ in range(5)
    )
    time = np.empty(rows)
    columns = (trajectory_id, time, from_state, to_state, channel)
    for jump in range(len(steps)):
        step, steps[jump] = steps[jump], None
        at = row_start[step[0]] + jump
        for column, values in zip(columns, step):
            column[at] = values
        jump_index[at] = jump
    for array in (row_start, truncated, jump_index, *columns):
        array.flags.writeable = False
    return Ensemble(
        seed=seed,
        first_stream=first_stream,
        start=start,
        states=tuple(graph.states),
        kernels=tuple(graph.kernels),
        row_start=row_start,
        trajectory_id=trajectory_id,
        jump_index=jump_index,
        time=time,
        from_state=from_state,
        to_state=to_state,
        channel=channel,
        truncated=truncated,
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
    units carried by the transition records (the bare transition
    frequency for tables built by this package).  ``trajectories`` is an
    :class:`Ensemble` or any iterable of :class:`Trajectory`.
    """
    bin_width = float(bin_width)
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ValueError(f"bin_width must be > 0, got {bin_width!r}")
    if isinstance(trajectories, Ensemble):
        freqs = trajectories.photon_freq
    else:
        freqs = np.array(
            [rec.photon_freq for traj in trajectories for _, rec in traj.jumps],
            dtype=float,
        )
    if freqs.size == 0:
        return SpectrumHistogram(
            bin_edges=np.empty(0),
            weights=np.empty(0),
            counts=np.empty(0, dtype=np.int64),
            total_photons=0,
        )
    ks = np.rint(freqs / bin_width).astype(np.int64)
    k_lo, k_hi = int(ks.min()), int(ks.max())
    counts = np.bincount(ks - k_lo, minlength=k_hi - k_lo + 1)
    edges = (np.arange(k_lo, k_hi + 2) - 0.5) * bin_width
    return SpectrumHistogram(
        bin_edges=edges,
        weights=counts / freqs.size,
        counts=counts,
        total_photons=int(freqs.size),
    )


def _log_chunks(ensemble: Ensemble, delimiter: str):
    """The log text: the header line, then rows in blocks of lines."""
    from . import _text  # only the writers load it

    yield (
        "# trajectory_id,jump_index,time,from_branch,from_n,"
        "to_branch,to_n,photon_freq\n".replace(",", delimiter)
    )
    # Everything after the time depends only on the (state, channel) pair.
    tails = _text.str_cells(
        delimiter.join((rec.initial.branch, str(rec.initial.n), rec.final.branch,
                        str(rec.final.n), repr(rec.photon_freq)))
        for kernel in ensemble.kernels
        for rec in kernel.records
    )
    flat = ensemble._flat_channel()
    for lo in range(0, flat.size, _LOG_CHUNK_ROWS):
        rows = slice(lo, lo + _LOG_CHUNK_ROWS)
        yield _text.rows_text(
            [ensemble.trajectory_id[rows], ensemble.jump_index[rows], ensemble.time[rows],
             tails.take(flat[rows])],
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
    _write_atomically(path, _log_chunks(ensemble, delimiter), "trajectory log")


def _write_atomically(path, chunks, what: str) -> None:
    """Write ``chunks`` to a temporary file beside ``path`` and rename it into
    place, so ``path`` ends up complete or untouched and no temporary stays."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8")
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
