"""Counter-based random number streams for reproducible parallel runs.

Every stochastic routine in the package draws from a stream keyed by
``(master_seed, stream_index)``.  The i-th variate of a stream is a pure
function of ``(key, i)`` (SplitMix64 in counter mode), so results never
depend on sharding, worker count, or draw-consumption history: a scalar
run that stops early and a vectorized lockstep run that keeps drawing in
an absorbing state see identical uniforms at identical step indices.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_CHUNK = 1 << 16  # draws and index entries per chunk of a shuffle
# the int32 words holding the high and the low half of an int64
_HI, _LO = (0, 1) if sys.byteorder == "big" else (1, 0)
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD1342543DE82EF95
# the same constants as uint64 scalars, built once: numpy re-converts a
# Python int or a fresh np.uint64 on every call, a fixed cost per block
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U_SALT = np.uint64(_STREAM_SALT)
_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`_mix64` on every word of uint64 ``z``, bit for bit (uint64
    arithmetic wraps), written to ``out``, a uint64 array of z's shape.
    ``z`` is consumed, and ``out`` holds the shifts until the last step,
    so the two arrays are the only memory used.  Returns ``out``."""
    np.right_shift(z, _U30, out=out)
    z ^= out
    z *= _U_MIX1
    np.right_shift(z, _U27, out=out)
    z ^= out
    z *= _U_MIX2
    np.right_shift(z, _U31, out=out)
    out ^= z
    return out


def stream_key(seed: int, stream: int) -> int:
    """Derive the 64-bit key of stream ``stream`` under ``seed``."""
    a = _mix64((seed & _MASK64) + _GOLDEN)
    b = _mix64(((stream & _MASK64) * _STREAM_SALT + _GOLDEN) & _MASK64)
    return _mix64(a ^ b)


def stream_keys(seed: int, streams: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`stream_key` for an array of stream indices.

    The keys are written to ``out``, a uint64 array of ``len(streams)``;
    ``scratch`` is a uint64 array of the same length.  The two are all the
    memory used, and either one left out is allocated.  Returns ``out``.
    """
    if out is None:
        out = np.empty(len(streams), dtype=np.uint64)
    if scratch is None:
        scratch = np.empty_like(out)
    np.copyto(out, streams, casting="unsafe")  # astype(np.uint64)'s conversion
    out *= _U_SALT
    out += _U_GOLDEN
    b = _mix64_vec(out, scratch)
    b ^= np.uint64(_mix64((seed & _MASK64) + _GOLDEN))
    return _mix64_vec(b, out)


def counter_uniform(key: int, counter: int) -> float:
    """The ``counter``-th uniform [0,1) variate of the stream with ``key``."""
    word = _mix64((key + ((counter + 1) * _GOLDEN)) & _MASK64)
    return (word >> 11) * (1.0 / 9007199254740992.0)  # 53-bit mantissa


def _unit_floats(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a [0,1) float, as in :func:`counter_uniform`,
    written to float64 ``out``; ``words`` is consumed.  ``out`` must not
    share memory with ``words``: numpy would copy ``words`` first."""
    words >>= _U11
    # each word is now below 2^53, the same integer as an int64, which numpy
    # turns into a float faster than a uint64; both conversions are exact
    return np.multiply(words.view(np.int64), 1.0 / 9007199254740992.0, out=out)


def counter_uniforms(keys: np.ndarray, counter: int, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`counter_uniform`: one variate per key at a fixed counter.

    The variates are written to ``out``, a float64 array of ``len(keys)``;
    ``scratch`` is a uint64 array of the same length.  The two are all the
    memory the draw uses, so a caller drawing many times passes the same
    two each time; either one left out is allocated.  Returns ``out``.
    """
    if out is None:
        out = np.empty(len(keys))
    if scratch is None:
        scratch = np.empty(len(keys), dtype=np.uint64)
    shift = np.uint64(((counter + 1) * _GOLDEN) & _MASK64)
    words = np.add(keys, shift, out=out.view(np.uint64))
    return _unit_floats(_mix64_vec(words, scratch), out)


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
    # the key as a uint64 scalar, converted once rather than on every block
    _ukey: np.uint64 = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._key = stream_key(self.seed, self.stream)
        self._ukey = np.uint64(self._key)

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
        ctrs *= _U_GOLDEN
        ctrs += self._ukey
        return _unit_floats(_mix64_vec(ctrs, np.empty_like(ctrs)), ctrs.view(np.float64))

    def skip(self, count: int) -> None:
        """Move the counter past ``count`` draws without computing them."""
        self._ctr += count

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle, without a loop over the swaps.

        Step i = L-1, ..., 1 swaps positions i and ``j_i = randrange(i + 1)``;
        the result is the swap loop's exactly, for every length up to 2^31
        and every dtype (see :meth:`_fy_sources`).  A longer array raises
        :class:`DomainError` before any draw is made.
        """
        arr[:] = arr[self._fy_sources(len(arr))]

    def _fy_sources(self, L: int) -> np.ndarray:
        """Where each entry of a Fisher-Yates shuffle of length ``L`` comes
        from: int32 ``src`` such that ``arr[src]`` is :meth:`shuffle`'s result.

        The L - 1 draws are the swap loop's, taken with the same product and
        truncation, and the counter moves past them.  Three facts resolve the
        swaps:

        - position i is final after step i, and takes what position j_i
          holds just before it;
        - before step i, a position p <= i holds what the smallest step
          i' > i with j_i' = p wrote there, or its original entry if there
          is none;
        - that write carries what position i' held just before step i',
          which resolves by the same rule.

        So with the steps sorted by (j, i), step i receives what its
        successor i'' in its group held just before step i'', or the
        original entry at j_i if it is last.  What a position p holds just
        before step p (and what position 0 ends with) follows a chain of
        group-first steps p -> i' -> ..., each larger than the last,
        resolved by pointer jumping in about log2 of its length rounds.  A
        step with j_p = p heads group p, so the chain of p stops at p
        itself; no step reads it, since step p takes what its successor
        held like any other step.

        The draws are made 2^16 at a time, straight into one int64 sort key
        j 2^32 + i per step, written as its two int32 words; after the sort
        the words are the sorted j and i, read in place.  Every full-width
        take and put runs on int32 indices 2^16 entries at a time, since
        numpy copies an index array to intp first.  The words are exact up
        to L = 2^31, so a longer shuffle raises :class:`DomainError`; below
        it the result is bitwise the loop's.  The working set is 16 bytes
        per entry: the keys, ``src`` and the jumping's second buffer.
        """
        if L > 1 << 31:
            raise DomainError(f"a shuffle of {L} entries is longer than 2^31")
        if L < 2:  # no step, no draw
            return np.arange(L, dtype=np.int32)
        steps = L - 1
        # one int64 key j 2^32 + i per step, written as its two int32 words
        # (j and i are below 2^31); a last key of j = -1, i = 0 lets every
        # chunk compare each step with the next and read its position
        keys = np.empty(steps + 1, dtype=np.int64)
        keys[-1] = -1 << 32
        words = keys.view(np.int32)
        sj, si = words[_HI::2], words[_LO::2]
        for a in range(0, steps, _CHUNK):
            b = min(a + _CHUNK, steps)
            u = self._block(self._ctr + a, b - a)
            # i + 1 for the steps i drawn here, as exact floats
            u *= np.arange(L - a, L - b, -1.0)
            np.copyto(sj[a:b], u, casting="unsafe")  # j_i, truncated as astype does
            si[a:b] = np.arange(L - 1 - a, L - 1 - b, -1, dtype=np.int32)
        self._ctr += steps
        # one sort groups the steps by target, ascending i in each group
        keys[:-1].sort()
        # src[p] starts as the smallest step writing into p, the last write
        # before step p: put writes in index order, so put in reverse the
        # first of each group is written last.  Jumped to its fixed point it
        # is the position whose original entry p holds just before step p
        src = np.arange(L, dtype=np.int32)
        rj, ri = sj[-2::-1], si[-2::-1]
        for a in range(0, steps, _CHUNK):
            src.put(rj[a:a + _CHUNK], ri[a:a + _CHUNK])
        # pointers never decrease, so the sum stops changing exactly at the fixed point
        nxt = np.empty_like(src)
        total = np.add.reduce(src)
        while True:
            for a in range(0, L, _CHUNK):
                # indices are in range by construction, and "clip" writes straight into out
                src.take(src[a:a + _CHUNK], out=nxt[a:a + _CHUNK], mode="clip")
            s = np.add.reduce(nxt)
            src, nxt = nxt, src
            if s == total:
                break
            total = s
        del nxt
        # step si[k] takes what its group successor held, else the entry at
        # sj[k]; a chunk reads only positions that no earlier chunk wrote
        for a in range(0, steps, _CHUNK):
            b = min(a + _CHUNK, steps)
            j = sj[a:b]
            np.copyto(j, src.take(si[a + 1:b + 1]), where=sj[a + 1:b + 1] == j)
            src.put(si[a:b], j)
        return src
