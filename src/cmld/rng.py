"""Counter-based random number streams for reproducible parallel runs.

Every stochastic routine in the package draws from a stream keyed by
``(master_seed, stream_index)``.  The i-th variate of a stream is a pure
function of ``(key, i)`` (SplitMix64 in counter mode), so results never
depend on sharding, worker count, or draw-consumption history: a scalar
run that stops early and a vectorized lockstep run that keeps drawing in
an absorbing state see identical uniforms at identical step indices.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD1342543DE82EF95
_LAZY_DRAWS = 64  # read ahead one at a time: a short run never pays for a vector block
_BLOCK_DRAWS = 1 << 16  # the largest vector block read ahead


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps; identical bit-for-bit to _mix64.  The first
    # line makes a fresh array, which the rest updates in place.
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, stream: int) -> int:
    """Derive the 64-bit key of stream ``stream`` under ``seed``."""
    a = _mix64((seed & _MASK64) + _GOLDEN)
    b = _mix64(((stream & _MASK64) * _STREAM_SALT + _GOLDEN) & _MASK64)
    return _mix64(a ^ b)


def stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stream_key` for an array of stream indices."""
    a = np.uint64(_mix64((seed & _MASK64) + _GOLDEN))
    b = _mix64_vec(streams.astype(np.uint64) * np.uint64(_STREAM_SALT) + np.uint64(_GOLDEN))
    return _mix64_vec(a ^ b)


def counter_uniform(key: int, counter: int) -> float:
    """The ``counter``-th uniform [0,1) variate of the stream with ``key``."""
    word = _mix64((key + ((counter + 1) * _GOLDEN)) & _MASK64)
    return (word >> 11) * (1.0 / 9007199254740992.0)  # 53-bit mantissa


def _unit_floats(words: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a [0,1) float, as in :func:`counter_uniform`;
    ``words`` is consumed."""
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u *= 1.0 / 9007199254740992.0
    return u


def counter_uniforms(keys: np.ndarray, counter: int) -> np.ndarray:
    """Vectorized :func:`counter_uniform`: one variate per key at a fixed counter."""
    shift = np.uint64(((counter + 1) * _GOLDEN) & _MASK64)
    return _unit_floats(_mix64_vec(keys + shift))


@dataclass
class CounterRNG:
    """Sequential view of one keyed stream.

    Draw i (zero-based) equals ``counter_uniform(stream_key(seed, stream), i)``
    regardless of how draws are interleaved with other streams.
    """

    seed: int
    stream: int = 0
    _key: int = field(init=False, repr=False)
    _ctr: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self._key = stream_key(self.seed, self.stream)

    def uniform(self) -> float:
        u = counter_uniform(self._key, self._ctr)
        self._ctr += 1
        return u

    def uniforms(self, count: int) -> np.ndarray:
        u = self._block(self._ctr, count)
        self._ctr += count
        return u

    def _block(self, start: int, count: int) -> np.ndarray:
        """Draws start, ..., start + count - 1, without moving the counter."""
        ctrs = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        return _unit_floats(_mix64_vec(np.uint64(self._key) + ctrs * np.uint64(_GOLDEN)))

    def read_ahead(self, bound: int) -> Iterator[float]:
        """The next ``bound`` draws in order, without moving the counter.

        A caller that takes the first ``used`` of them then calls
        ``skip(used)``, which leaves the stream exactly where ``used`` calls
        to :meth:`uniform` would.  The first 64 draws are computed one at a
        time as they are taken, so a short run costs no more than
        :meth:`uniform`; the rest come in vector blocks of at most 2^16
        draws, so memory stays bounded and stopping early wastes less than
        one block.
        """
        key, start, stop = self._key, self._ctr, self._ctr + bound
        lazy = min(stop, start + _LAZY_DRAWS)
        for c in range(start, lazy):
            yield counter_uniform(key, c)
        for c in range(lazy, stop, _BLOCK_DRAWS):
            yield from self._block(c, min(_BLOCK_DRAWS, stop - c)).tolist()

    def skip(self, count: int) -> None:
        """Move the counter past ``count`` draws without computing them."""
        self._ctr += count

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle.

        Position i = L-1, ..., 1 swaps with ``j = randrange(i + 1)``; the
        L - 1 draws are taken at once, with the same product and truncation.
        """
        L = len(arr)
        js = (self.uniforms(max(L - 1, 0)) * np.arange(L, 1, -1)).astype(np.int64).tolist()
        a = arr.tolist()
        for i, j in zip(range(L - 1, 0, -1), js):
            a[i], a[j] = a[j], a[i]
        arr[:] = a
