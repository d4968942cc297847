"""Monte-Carlo sampling of radiative cascades over the two-ladder rate graph.

A trajectory starts in one dressed state and hops between the branches,
waiting an exponential time set by the current state's total rate and
choosing the next level in proportion to the partial rates, until it
reaches a dark state (or a jump cap).  Times are in units of
``1/gamma0``.

All trajectories of an ensemble advance in lockstep, one jump per numpy
step.  The random stream is versioned as ``philox4x64-inv-v1``
(:data:`RNG_SCHEME`): trajectory ``i`` of an ensemble with seed ``s``
uses the Philox4x64-10 key ``(s, i)``, the key numpy's
``Philox(key=s + (i << 64))`` takes, and its jump ``j`` uses the 4-word
block at counter ``j + 1`` (block ``j`` of that numpy stream).  Word 0
gives the waiting time by inversion, ``-log(u) / total`` with
``u = ((w0 >> 11) + 1) * 2**-53`` and the logarithm from the platform C
library; word 1 gives ``v = (w1 >> 11) * 2**-53``, which picks the
channel from the state's normalized cumulative rates.  Trajectory ``i``
therefore depends only on ``(seed, i)``: it is the same bits whatever
the ensemble size, and :func:`sample_trajectory` with ``stream=i``
reproduces it alone.  There is no thread pool: the ``threads`` argument
of :func:`sample_ensemble` (and ``cascade --threads``) is accepted and
ignored.  This scheme replaced per-trajectory numpy ``Generator`` draws,
so a given seed yields different bits than before it, with the same
statistics.
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

RNG_SCHEME = "philox4x64-inv-v1"

_MASK64 = 2**64 - 1
_MAX_SEED = _MASK64  # a seed or stream is one 64-bit key word

# Philox4x64-10 constants (Salmon et al., "Parallel random numbers: as
# easy as 1, 2, 3", SC'11): round multipliers and key-schedule increments.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)
_ONE = np.uint64(1)
_TWO_M53 = 2.0**-53

# Rows of the trajectory log formatted per write.
_LOG_CHUNK_ROWS = 1 << 16


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


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products ``a * m``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _U32
    cross_lo, cross_hi = a_lo * m_hi, a_hi * m_lo
    mid = ((a_lo * m_lo) >> _U32) + (cross_lo & _LOW32) + (cross_hi & _LOW32)
    hi = a_hi * m_hi + (cross_lo >> _U32) + (cross_hi >> _U32) + (mid >> _U32)
    return a * np.uint64(m), hi


def _philox4x64(counter: int, key0: int, key1: np.ndarray) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 blocks at counter ``(counter, 0, 0, 0)``, one per ``key1``.

    The key of block ``i`` is ``(key0, key1[i])``: the block equals words
    ``4*(counter-1) .. 4*counter-1`` of
    ``np.random.Philox(key=key0 + (key1[i] << 64)).random_raw()``.
    """
    zeros = np.zeros(key1.size, dtype=np.uint64)
    c0, c1, c2, c3 = zeros + np.uint64(counter), zeros, zeros, zeros
    k1 = key1.copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0 = (key0 + _PHILOX_W0) & _MASK64
            k1 += np.uint64(_PHILOX_W1)
        lo0, hi0 = _mulhilo(c0, _PHILOX_M0)
        lo1, hi1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _sample(
    start: DressedState,
    params: ModelParams,
    seed: int,
    first_stream: int,
    count: int,
    max_jumps: int,
) -> Ensemble:
    """Lockstep sampler: streams ``first_stream .. first_stream+count-1``."""
    graph = _RateGraph(params)
    graph.number(start)
    keys = np.arange(count, dtype=np.uint64) + np.uint64(first_stream)
    clock = np.zeros(count)
    live = np.arange(count if graph.totals[0] > 0.0 else 0)
    state = np.zeros(live.size, dtype=np.int64)
    steps = []
    for jump in range(max_jumps):
        if not live.size:
            break
        w0, w1, _, _ = _philox4x64(jump + 1, seed, keys[live])
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

        going = np.array(graph.totals)[target] > 0.0
        live, state = live[going], target[going]

    truncated = np.zeros(count, dtype=bool)
    truncated[live] = True

    def column(k, dtype):
        return np.concatenate([step[k] for step in steps]) if steps else np.empty(0, dtype)

    trajectory_id, time = column(0, np.int64), column(1, float)
    from_state, to_state, channel = (column(k, np.int64) for k in (2, 3, 4))
    jump_index = np.repeat(
        np.arange(len(steps), dtype=np.int64), [step[0].size for step in steps]
    )
    row_start = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(trajectory_id, minlength=count), out=row_start[1:])
    position = row_start[trajectory_id] + jump_index

    def in_order(column):
        out = np.empty_like(column)
        out[position] = column
        out.flags.writeable = False
        return out

    for array in (row_start, truncated):
        array.flags.writeable = False
    return Ensemble(
        seed=seed,
        first_stream=first_stream,
        start=start,
        states=tuple(graph.states),
        kernels=tuple(graph.kernels),
        row_start=row_start,
        trajectory_id=in_order(trajectory_id),
        jump_index=in_order(jump_index),
        time=in_order(time),
        from_state=in_order(from_state),
        to_state=in_order(to_state),
        channel=in_order(channel),
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
    yield (
        "# trajectory_id,jump_index,time,from_branch,from_n,"
        "to_branch,to_n,photon_freq\n".replace(",", delimiter)
    )
    # Everything after the time depends only on the (state, channel) pair.
    tails = [
        delimiter.join(
            (rec.initial.branch, str(rec.initial.n), rec.final.branch,
             str(rec.final.n), repr(rec.photon_freq))
        ) + "\n"
        for kernel in ensemble.kernels
        for rec in kernel.records
    ]
    flat = ensemble._flat_channel()
    for lo in range(0, flat.size, _LOG_CHUNK_ROWS):
        hi = lo + _LOG_CHUNK_ROWS
        yield "".join([
            f"{i}{delimiter}{j}{delimiter}{t!r}{delimiter}{tails[c]}"
            for i, j, t, c in zip(
                ensemble.trajectory_id[lo:hi].tolist(),
                ensemble.jump_index[lo:hi].tolist(),
                ensemble.time[lo:hi].tolist(),
                flat[lo:hi].tolist(),
            )
        ])


def write_trajectory_log(ensemble: Ensemble, path, delimiter: str = ",") -> None:
    """Write one line per jump: trajectory id, jump index, time, states, photon.

    Floats are written with ``repr`` so the log round-trips exactly.  The
    log is written to a temporary file beside ``path`` and renamed into
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
