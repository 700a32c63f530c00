"""Exact simulation of the configuration model.

Two routes are provided: uniform half-edge matching (a whole multigraph at
once) and the edge-exploration chain on the state (A, V): A active
half-edges and V_k sleeping vertices of degree k.  One chain step either
wakes exactly one vertex or kills exactly two half-edges:

    from A = 0: wake a degree-k vertex with probability k V_k / sum_i i V_i;
    from A = a > 0, with denominator s + (a-1), s = sum_i i V_i:
        kill-pair with probability (a-1)/(s + a-1)  ->  A = a - 2,
        wake degree k with probability k V_k/(s + a-1)  ->  A = a + k - 2.

Excursions of A away from zero delimit components: an excursion's step
count is the component's edge count, and the vertices woken during it are
its vertices.  The resulting component partition is distributed exactly as
the configuration model's.

Overall the chain takes m + C steps (C components, m edges), at most
m + n; vertex identity is never needed.  A scalar step samples its bucket
by inversion, O(#distinct degrees) in Python.  While A is large,
:func:`eea_run` instead decides blocks of up to A/2 steps with numpy: in
such a block A stays >= 2, so the denominator s + A - 1 falls by exactly 2
per step and every state is a cumulative sum of the degrees woken before
it.  Each round decides every step from the exact masses that its
guessed prefix takes and commits up to the first disagreement with the
guess; that prefix is the scalar chain's own, so a run is the same bit for
bit either way.  Where no block fits, or after one stops short, a stretch
of scalar steps comes before the next try; each draws the uniforms of the
steps it may take.  A recorded run keeps one number per step, the degree
woken (0 for a kill), and :meth:`ExplorationRecord.rows` reads A and V
from it at the step indices asked for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import DegreeDistribution, _degree
from .errors import DomainError, ParityError, StateError
from .fluid import FluidPath
from .rng import _CHUNK, CounterRNG

_MIN_BLOCK = 512  # fewer steps than this do not repay a block's fixed cost
_MIN_COMMIT = 32  # a round committing fewer steps ends its block
_STRETCH = 256  # scalar steps taken before a block is tried again
_CELLS = 1 << 17  # steps times degree columns of the largest block, bounding its arrays
_S_RATIO = 2  # a block's steps times the largest degree stay within s / _S_RATIO


@dataclass(frozen=True)
class DegreeSequence:
    """Explicit degree list d_i >= 1 with even total."""

    degrees: tuple[int, ...]
    parity_fix: dict | None = None  # set when built from a distribution and adjusted

    def __post_init__(self) -> None:
        if len(self.degrees) == 0:
            raise DomainError("degree sequence is empty")
        # each distinct value is judged and counted once
        tally = Counter(self.degrees)
        counts = {_degree(k, "DegreeSequence"): c for k, c in tally.items()}
        total = sum(k * c for k, c in counts.items())
        if total % 2 != 0:
            raise ParityError(f"half-edge total {total} is odd")
        if type(self.degrees) is not tuple or set(map(type, self.degrees)) != {int}:
            object.__setattr__(self, "degrees", tuple(map(int, self.degrees)))
        object.__setattr__(self, "_counts", dict(sorted(counts.items())))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def m(self) -> int:
        return sum(k * c for k, c in self._counts.items()) // 2

    def counts(self) -> dict[int, int]:
        """Vertex count of each degree, in increasing degree order; a fresh
        copy, so a caller cannot change the sequence's own."""
        return dict(self._counts)

    @classmethod
    def from_counts(cls, counts: dict[int, int], parity_fix: dict | None = None) -> "DegreeSequence":
        degs: list[int] = []
        for k in sorted(counts):
            degs.extend([int(k)] * int(counts[k]))
        return cls(tuple(degs), parity_fix)

    @classmethod
    def from_distribution(cls, p: DegreeDistribution, n: int) -> "DegreeSequence":
        """Counts n_k = round(n p_k); an odd half-edge total is fixed by
        decrementing the largest odd-degree bucket, and the fix is reported."""
        counts = {k: int(round(n * v)) for k, v in p.weights.items()}
        counts = {k: c for k, c in counts.items() if c > 0}
        if not counts:
            raise DomainError(f"n = {n} too small: all rounded counts vanish")
        fix = None
        if sum(k * c for k, c in counts.items()) % 2 != 0:
            # an odd total has an odd term k n_k, so an odd degree k is present
            k = max(k for k in counts if k % 2 == 1)
            counts[k] -= 1
            fix = {"degree": k, "removed": 1}
            if counts[k] == 0:
                del counts[k]
        return cls.from_counts(counts, fix)


@dataclass(frozen=True)
class ComponentRecord:
    degree_config: dict[int, int]  # degree -> vertex count
    n_vertices: int
    n_edges: int


@dataclass
class ExplorationRecord:
    """One full run of the exploration chain."""

    degrees: tuple[int, ...]  # distinct degrees, the columns of V in rows
    counts: tuple[int, ...]  # sleeping vertices of each degree before the first step
    n: int
    m: int
    n_steps: int
    components: list[ComponentRecord]  # in order; each spans n_edges + 1 steps
    woke: np.ndarray | None = None  # degree woken at each step, 0 for a kill; None unless recorded

    def rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A, V (one column per degree) and the components begun before each
        step index in ``idx``, as int64.  V_k is n_k less the wakes of degree
        k before the index.  Each step takes 2 from A and adds the degree it
        wakes, and each component begun gives 2 back, as its first step
        starts from A = 0."""
        if self.woke is None:
            raise StateError("record has no trajectory; rerun with record_trajectory=True")
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and not 0 <= idx.min() <= idx.max() <= self.n_steps:
            raise DomainError(f"step indices must lie in [0, {self.n_steps}]")
        spans = np.array([c.n_edges + 1 for c in self.components], dtype=np.int64)
        starts = np.searchsorted(np.add.accumulate(spans) - spans, idx)
        A = 2 * (starts - idx)
        V = np.empty(idx.shape + (len(self.degrees),), dtype=np.int64)
        for col, (k, n_k) in enumerate(zip(self.degrees, self.counts)):
            woken = np.searchsorted(np.flatnonzero(self.woke == k), idx)
            np.subtract(n_k, woken, out=V[..., col])
            A += k * woken
        return A, V, starts


def sample_multigraph(d: DegreeSequence, rng: CounterRNG) -> np.ndarray:
    """Uniform matching of the 2m half-edges into m edges.

    Realized by a Fisher-Yates shuffle of the half-edge array
    (:meth:`CounterRNG.shuffle`, 2m - 1 draws) followed by consecutive
    pairing; multi-edges and self-loops are retained.  Returns an (m, 2)
    int64 array whose row e holds the vertices of shuffled half-edges 2e
    and 2e + 1.

    The shuffle's int32 sources come first; only once its scratch is freed
    are the int32 half-edge-to-vertex map and the result allocated, and the
    result is gathered 2^16 entries at a time, so no full-width intp index
    is made.  The shuffle and the gather each hold 16 bytes per half-edge.
    More than 2^31 half-edges raise :class:`DomainError`.
    """
    size = 2 * d.m
    src = rng._fy_sources(size)
    vertex = np.repeat(np.arange(d.n, dtype=np.int32), d.degrees)
    half = np.empty(size, dtype=np.int64)
    for a in range(0, size, _CHUNK):
        half[a:a + _CHUNK] = vertex.take(src[a:a + _CHUNK])
    return half.reshape(-1, 2)


def eea_run(d: DegreeSequence, rng: CounterRNG,
            record_trajectory: bool = False) -> ExplorationRecord:
    """Run the exploration chain to termination.

    Components are always recorded; the full (A, V) step sequence only
    when ``record_trajectory`` is set.  Each block and each stretch of
    scalar steps draws the uniforms of the steps it may take, at most 2^16
    at once, so memory stays bounded; step j always reads draw j of the
    run, and a run leaves the stream's counter ``n_steps`` past its start.

    While A is large the chain decides many steps at once.  In a block of
    B <= A/2 steps A is at least 2 before every step, so the kill weight
    is A - 1 throughout, the denominator s + A - 1 falls by exactly 2 per
    step, no component closes before the block's last step, and A, s and
    the cumulative sleeping masses before each step are cumulative sums of
    the degrees woken before it.  Each decision is first guessed from the
    state at the block's start, letting every bucket lose its expected
    mass per step.  Each round then decides every step again from the
    exact masses that its guessed prefix takes: one table holds the
    cumulative sleeping masses that the guessed wakes before each step
    leave, and the scalar step's product x = u (s + A - 1) is compared with
    them.  x < A - 1 iff floor(x) < A - 1, and for a wake y = x - (A - 1)
    is exact, so integer comparisons on floor(x) give the scalar step's
    kill and bucket.  Up to the first step where guess and recomputation
    differ the guess is the chain's, so the recomputation there is too:
    each round commits that prefix and guesses the rest from its
    recomputation.  By induction on the step the result is the scalar
    chain's, bit for bit.  Where no block fits (A small, or the sleeping
    mass s small next to what a block can take) or a block stops short (a
    round committing only a few steps), the chain takes a stretch of
    scalar steps before it tries a block again.

    A recorded run keeps only the woken degree of each step (0 for a kill),
    in a preallocated buffer of the smallest unsigned type that holds the
    largest degree; :meth:`ExplorationRecord.rows` reads (A, V) from it.
    """
    counts = d._counts
    n, m = d.n, d.m
    max_steps = m + n
    chain = _Chain(counts, max_steps if record_trajectory else 0)
    c0 = rng._ctr
    # _CELLS bounds steps times columns, but a block's per-step arrays count
    # too: one column would take blocks of 2^17 steps, which ran slower than
    # 2^16 at twice the peak memory
    cap = _CELLS // max(len(chain.degs), 2)
    while not chain.done and chain.j < max_steps:
        size = min(chain.a // 2, max_steps - chain.j, cap)
        if _S_RATIO * chain.degs[-1] * size > chain.s:
            size = chain.s // (_S_RATIO * chain.degs[-1])
        if size >= _MIN_BLOCK and chain.block(rng._block(c0 + chain.j, size)) == size:
            continue
        chain.scalar(rng._block(c0 + chain.j, min(_STRETCH, max_steps - chain.j)).tolist())
    j = chain.j
    rng.skip(j)
    if not chain.done:
        raise StateError(f"exploration exceeded the step bound m + n = {max_steps}")

    rec = ExplorationRecord(degrees=chain.degs, counts=tuple(counts.values()), n=n, m=m,
                            n_steps=j, components=chain.components,
                            woke=chain.woke[:j].copy() if record_trajectory else None)
    _check_conservation_totals(rec, counts)
    return rec


class _Chain:
    """The chain's state, stepped by stretches of scalar steps and by blocks."""

    def __init__(self, counts: dict[int, int], buffer_steps: int) -> None:
        self.degs = tuple(counts)
        self.dk = np.array(self.degs + (0,), dtype=np.int64)  # dk[-1] = 0: a kill wakes nothing
        self.kv = dict(counts)  # sleeping vertices V_k
        self.s = sum(k * c for k, c in counts.items())  # sum_i i V_i
        self.a = self.j = 0
        self.done = False
        self.components: list[ComponentRecord] = []
        self.start, self.start_kv = 0, dict(counts)  # where the open component began
        self.woke = (np.empty(buffer_steps, dtype=np.min_scalar_type(self.degs[-1]))
                     if buffer_steps else None)

    def close(self, j: int) -> None:
        """Record the component that ends as A returns to 0 after ``j`` steps.

        Its degrees sum to 2 n_edges, so no larger degree can have been woken:
        a small component costs a few lookups however many degrees there are.
        """
        kv, start_kv = self.kv, self.start_kv
        n_edges = j - self.start - 1
        config = {}
        for k in self.degs:
            if k > 2 * n_edges:
                break
            if start_kv[k] != kv[k]:
                config[k] = start_kv[k] - kv[k]
        self.components.append(ComponentRecord(config, sum(config.values()), n_edges))
        self.start, self.start_kv = j, kv.copy()

    def scalar(self, draws: list[float]) -> None:
        """One step per draw until the draws run out or the chain ends."""
        degs, kv = self.degs, self.kv
        a, s, j = self.a, self.s, self.j
        j0 = j
        record = self.woke is not None
        rec_w: list[int] = []
        killw = a - 1 if a > 1 else 0
        denom = s + killw
        for u in draws:
            x = u * denom
            if x < killw:
                a -= 2
                woken = 0
            else:
                y = x - killw
                cum = 0
                for woken in degs:  # u < 1 keeps y below the total weight s
                    cum += woken * kv[woken]
                    if y < cum:
                        break
                kv[woken] -= 1
                s -= woken
                a = a + woken - 2 if a > 0 else woken
            j += 1
            if record:
                rec_w.append(woken)
            if a == 0:
                self.close(j)
            killw = a - 1 if a > 1 else 0
            denom = s + killw
            if denom == 0:  # checked before the next draw is taken
                break
        self.a, self.s, self.j, self.done = a, s, j, denom == 0
        if record:
            self.woke[j0:j] = rec_w

    def block(self, u: np.ndarray) -> int:
        """Decide up to len(u) <= A/2 steps in rounds; returns the steps committed."""
        # sums are np.add.accumulate: np.cumsum's wrapper costs more than a short sum
        degs, kv, dk = self.degs, self.kv, self.dk
        D = len(degs)
        vk = np.array([kv[k] for k in degs], dtype=np.int64)
        C = np.add.accumulate(dk[:-1] * vk)  # cumulative sleeping masses
        size = len(u)
        a0 = a = self.a
        s, j = self.s, self.j
        two_i = np.arange(0, 2 * size, 2)  # 2i for i = 0, ..., size - 1
        # Before step i, s_i = s - W_i and A - 1 = a0 - 1 - 2i + W_i, with W_i
        # the mass woken in the block before it, and x = u (s + a0 - 1 - 2i)
        # is the scalar step's product.  x < A - 1 iff floor(x) < A - 1, and
        # for a wake y = x - (A - 1) is exact (0 <= y <= x), so C <= y iff
        # C <= floor(x) - (A - 1) = z_i + s_i: integers decide every step.
        z = (u * (s + a0 - 1 - two_i)).astype(np.int64)
        z += two_i
        z -= s + a0 - 1
        # the first guess lets every bucket lose its expected mass per step
        rate = np.add.accumulate(dk[:-1] * dk[:-1] * vk) / (s + a0 - 1)
        i = np.arange(size)
        y = (z + s) - i * rate[-1]
        bdt = np.int8 if D < 128 else np.intp  # the bucket index is below D
        guess = np.add.reduce(C[:-1, None] - rate[:-1, None] * i <= y, axis=0, dtype=bdt)
        guess[y < 0] = -1  # -1 for a kill, else the bucket woken
        # z lies in [1 - a0 - s, 0], the masses in [0, s], and a round's
        # guessed wakes take at most size * degs[-1]: the narrowest signed
        # type that holds -(s + a0 + size * degs[-1]) holds every value below
        idt = np.min_scalar_type(-(s + a0 + size * degs[-1]))
        z = z.astype(idt)
        dki = dk.astype(idt)
        rows = np.arange(D)[:, None]
        done = 0
        while done < size:
            g = guess[done:]
            L = size - done
            # R[d]: the sleeping mass of buckets <= d before each step of the
            # round, were its guessed wakes the chain's; the last row is s
            R = np.empty((D, L), dtype=idt)
            R[:, 0] = C
            np.multiply(g[:-1] <= rows, -dki[g[:-1]], out=R[:, 1:])
            np.add.accumulate(R, axis=1, out=R)
            y = z[done:] + R[-1]
            new = np.add.reduce(R[:-1] <= y, axis=0, dtype=bdt)
            np.putmask(new, y < 0, -1)
            # the guess holds up to its first difference, so new holds one further
            diff = new != g
            f = int(diff.argmax())
            take = f + 1 if diff[f] else L
            c = new[:take]
            wc = dk[c]
            if self.woke is not None:
                self.woke[j:j + take] = wc
            woken = int(wc.sum())
            a += woken - 2 * take
            s -= woken
            j += take
            vk -= np.bincount(c + 1, minlength=D + 1)[1:]
            C = np.add.accumulate(dk[:-1] * vk)
            guess[done + take:] = new[take:]
            done += take
            if take < _MIN_COMMIT and done < size:
                break
        for k, v in zip(degs, vk.tolist()):
            kv[k] = v
        self.a, self.s, self.j = a, s, j
        if a == 0:  # only after a whole block of kills from A = 2 size
            self.close(j)
            self.done = s == 0
        return done


def _check_conservation_totals(rec: ExplorationRecord, counts: dict[int, int]) -> None:
    total_config: dict[int, int] = {}
    total_edges = 0
    for c in rec.components:
        total_edges += c.n_edges
        for k, v in c.degree_config.items():
            total_config[k] = total_config.get(k, 0) + v
    if total_edges != rec.m or total_config != counts:
        raise StateError("component totals do not reproduce the input degree histogram")


def extract_components(rec: ExplorationRecord) -> tuple[float, int, list[ComponentRecord]]:
    """(largest vertex fraction, component count, components sorted by size)."""
    comps = sorted(rec.components, key=lambda c: (-c.n_vertices, -c.n_edges))
    largest = comps[0].n_vertices / rec.n if comps else 0.0
    return largest, len(comps), comps


def empirical_path(rec: ExplorationRecord, n: int, grid: np.ndarray) -> FluidPath:
    """Piecewise-constant fluid rescaling zeta_k(t) = V_k(floor(nt))/n of a
    run on n = ``rec.n`` vertices; another n is a DomainError.

    Times beyond termination read the absorbing all-zero state.  psi is the
    active density minus twice the per-vertex count of fresh component
    starts, so that the reflection identity holds at fluid scale.
    """
    if n != rec.n:
        raise DomainError(f"n = {n} is not the run's {rec.n} vertices")
    grid = np.asarray(grid, dtype=float)
    idx = np.minimum((n * grid).astype(np.int64), rec.n_steps)
    A, V, starts = rec.rows(np.maximum(idx, 0))
    zeta0 = A / n
    eta = 2.0 * starts / n  # starts before step idx
    psi = zeta0 - eta
    return FluidPath(grid=grid, degrees=rec.degrees, zeta0=zeta0, zetak=V / n, psi=psi,
                     meta={"n": n, "n_steps": rec.n_steps})
