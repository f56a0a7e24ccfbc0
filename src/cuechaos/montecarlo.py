"""Reproducible Monte Carlo engine built on counter-based random streams.

Every sample index owns its own Philox stream, and ``mc_map_blocks``
evaluates the samples serially in index order, a block of consecutive
indices per call of a block functional, so results depend only on the seed.
Failed evaluations (e.g. a quadrature node landing on an eigenangle) are
retried index by index on a shifted substream and counted; a run aborts if
failures stop looking like measure-zero accidents.  Every sampled quantity
in the package goes through ``mc_map_blocks``: directly when one call can
draw and evaluate many samples at once (the registry's Verblunsky and
Gaussian draws), or through ``mc_map``, which applies a per-draw functional
stream by stream.  ``run_mc_detailed`` reduces ``mc_map`` to a mean and a
standard error.  There is no worker pool: threads compete with the BLAS
threads inside each draw and made runs slower.

Blocks hold up to 256 draws, fixed here and chosen by nothing a caller
sets.  A draw whose working set is a coefficient vector or one angle costs
a block little memory, and larger blocks pay numpy's per-call overhead
less often; a functional whose draws are evaluated on a grid reduces 16
rows at a time (``grids.grid_reduce``), so its transient stays at 16 x
grid-size values.  A block reads its draws through ``stream_draws``: one
Philox bit generator re-keyed to each stream in turn, bitwise the draws of
``RngStream.generator()`` without building a generator per stream.  Every
Philox here is built on a seed sequence that reads no OS entropy and then
given its stream's key by one state set (``_rekey``), so a fresh
``RngStream.generator()`` costs no entropy either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RngStream",
    "MCEstimate",
    "MCRunStats",
    "RetryableSampleError",
    "MCFailureError",
    "as_generator",
    "mc_map",
    "mc_map_blocks",
    "stream_draws",
    "run_mc_detailed",
    "ks_distance",
]

_MASK64 = (1 << 64) - 1
# Retry attempt r of sample i uses stream id i + (r << 48): disjoint from the
# plain sample indices for any realistic sample count.
_RETRY_SHIFT = 48
_MAX_RETRIES = 8
_ABORT_FRACTION = 1e-3
# Samples per call of a block functional (module docstring): a block of
# coefficient vectors is small, and grid-valued functionals reduce 16 rows
# at a time.
_BLOCK = 256


class _NoEntropy(ISeedSequence):
    """Seeds a Philox with zeros and reads no OS entropy; _rekey then sets
    the key the Philox actually uses."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_NO_ENTROPY = _NoEntropy()
_ZEROS = np.zeros(4, dtype=np.uint64)  # the state setter copies, so one array serves


def _rekey(bitgen: Philox, key: np.ndarray) -> None:
    """Set a Philox to the start of the stream with this key: counter 0 and
    an empty buffer, where Philox(key=key) starts."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


class RetryableSampleError(RuntimeError):
    """Base class for per-sample failures that may be resampled."""


class MCFailureError(RuntimeError):
    """Raised when too many Monte Carlo samples fail to evaluate."""


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream addressed by (seed, stream_id).

    Distinct stream ids give statistically independent Philox sequences, and
    a fixed (seed, stream_id) pair reproduces the same draws regardless of
    scheduling, process or thread count.  The Philox key is
    (seed mod 2^64, stream_id mod 2^64): a negative seed s keys the same
    stream as s + 2^64, and seeds in [0, 2^64) key distinct streams.
    """

    seed: int
    stream_id: int = 0

    @property
    def key(self) -> np.ndarray:
        """The Philox key of this stream, as two uint64 words."""
        return np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)

    def generator(self) -> Generator:
        """A fresh numpy Generator positioned at the start of this stream,
        bitwise Generator(Philox(key=self.key))."""
        bitgen = Philox(_NO_ENTROPY)
        _rekey(bitgen, self.key)
        return Generator(bitgen)

    def substream(self, index: int) -> "RngStream":
        """Derived stream disjoint from all plain sample indices."""
        return RngStream(self.seed, (self.stream_id + (index << _RETRY_SHIFT)) & _MASK64)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error.

    stderr is the sample standard deviation (ddof=1) divided by sqrt(count).
    """

    mean: float
    stderr: float
    count: int


@dataclass(frozen=True)
class MCRunStats:
    """Bookkeeping for a Monte Carlo run.

    retries counts failed attempts over all samples.  failures counts lost
    samples; a lost sample aborts the run, so a returned run reports 0.
    """

    retries: int
    failures: int


def as_generator(stream) -> Generator:
    """Coerce a randomness source to a numpy Generator.

    An RngStream yields a fresh generator at the start of its stream, a
    Generator passes through unchanged, and an int is a seed (stream id 0).
    """
    if isinstance(stream, RngStream):
        return stream.generator()
    if isinstance(stream, Generator):
        return stream
    if isinstance(stream, (int, np.integer)):
        return RngStream(int(stream)).generator()
    raise TypeError(f"expected RngStream, Generator or int seed, got {type(stream)!r}")


def stream_draws(streams: Sequence[RngStream], draw: Callable[[Generator], np.ndarray]) -> np.ndarray:
    """np.array([draw(stream.generator()) for stream in streams]), bitwise.

    One Philox bit generator serves the whole block: before each stream's
    draw its state is set to that stream's key, with counter 0 and an empty
    buffer, which is where a fresh generator starts.  draw must return one
    array of the same shape for every stream and leave no reference to the
    generator it is given.
    """
    bitgen = Philox(_NO_ENTROPY)
    rng = Generator(bitgen)
    rows = []
    for stream in streams:
        _rekey(bitgen, stream.key)
        rows.append(draw(rng))
    return np.array(rows)


def mc_map_blocks(
    block_functional: Callable[[list[RngStream]], np.ndarray],
    samples: int,
    seed: int,
    dim: int | None = None,
    first_index: int = 0,
) -> tuple[np.ndarray, MCRunStats]:
    """Evaluate ``block_functional`` on runs of consecutive sample streams.

    Samples are taken _BLOCK (256) at a time in index order: the functional
    gets the streams (seed, first_index + i) of one run of indices i and
    returns one value per stream; one that evaluates its draws on a grid
    reduces them 16 at a time (module docstring).  If it raises
    RetryableSampleError the run is evaluated again index by index, each on
    a one-stream list, and an index that fails is retried on its stream's
    next substream, at most _MAX_RETRIES times.  So the value of sample i depends only on the seed
    and i, as long as the functional treats its streams independently.

    Parameters
    ----------
    block_functional : callable
        Maps a list of RngStreams to an array of one real value per stream,
        shape (len(streams),), or (len(streams), dim) if dim is given.
    samples : int
        Number of sample indices.
    seed : int
        Master seed.
    dim : int or None
        None for a scalar functional; otherwise the vector length.
    first_index : int
        Stream id of sample 0; disjoint index ranges give independent
        sample sets under one seed.

    Returns
    -------
    (values, MCRunStats)
        values has shape (samples,) if dim is None, else (samples, dim).

    Raises
    ------
    MCFailureError
        If a sample exhausts its retries, or more than 0.1% of samples
        need a retry at all.
    """
    samples = int(samples)
    values = np.empty((samples,) if dim is None else (samples, int(dim)), dtype=float)
    retries = retried_samples = 0
    for start in range(0, samples, _BLOCK):
        stop = min(start + _BLOCK, samples)
        try:
            values[start:stop] = block_functional(
                [RngStream(seed, first_index + i) for i in range(start, stop)]
            )
            continue
        except RetryableSampleError:
            pass
        for i in range(start, stop):
            for attempt in range(_MAX_RETRIES + 1):
                try:
                    value = block_functional([RngStream(seed, first_index + i).substream(attempt)])
                    break
                except RetryableSampleError:
                    pass
            else:
                raise MCFailureError(f"sample {first_index + i} failed {attempt + 1} attempts; aborting")
            values[i] = value[0]
            if attempt:
                retries += attempt
                retried_samples += 1
                if retried_samples > _ABORT_FRACTION * samples:
                    raise MCFailureError(
                        f"{retried_samples} of {samples} samples needed retries; "
                        f"aborting (threshold {_ABORT_FRACTION:.1%})"
                    )
    return values, MCRunStats(retries=retries, failures=0)


def mc_map(
    functional: Callable[[RngStream], float | np.ndarray],
    samples: int,
    seed: int,
    dim: int | None = None,
    first_index: int = 0,
) -> tuple[np.ndarray, MCRunStats]:
    """Evaluate ``functional`` once per sample index, through mc_map_blocks.

    Sample i draws from stream (seed, first_index + i); each time the
    functional raises RetryableSampleError it is retried on that stream's
    next substream, at most _MAX_RETRIES times.  Arguments, return value
    and MCFailureError are those of mc_map_blocks, with ``functional``
    mapping one RngStream to a real value or a length-``dim`` vector.
    """
    shape = () if dim is None else (int(dim),)

    def block_functional(streams: list[RngStream]) -> np.ndarray:
        out = np.empty((len(streams),) + shape)
        for j, stream in enumerate(streams):
            value = functional(stream)
            out[j] = float(value) if dim is None else value
        return out

    return mc_map_blocks(block_functional, samples, seed, dim, first_index)


def run_mc_detailed(
    functional: Callable[[RngStream], float],
    samples: int,
    seed: int,
) -> tuple[MCEstimate, MCRunStats]:
    """Mean and standard error of a scalar ``functional`` over mc_map.

    samples must be >= 2; sample i uses stream (seed, i).  Raises
    MCFailureError under the same retry policy as mc_map.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError(f"run_mc_detailed requires samples >= 2, got {samples}")
    values, stats = mc_map(functional, samples, seed)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return MCEstimate(mean=mean, stderr=stderr, count=samples), stats


def ks_distance(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    Both inputs must be nonempty; the result lies in [0, 1].
    """
    a = np.sort(np.asarray(samples_a, dtype=float).ravel())
    b = np.sort(np.asarray(samples_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_distance requires two nonempty sample sets")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
