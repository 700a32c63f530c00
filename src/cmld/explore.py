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
m + n.  Bucket sampling by inversion keeps each step O(#distinct degrees);
vertex identity is never needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import DegreeDistribution, _degree
from .errors import DomainError, ParityError, StateError
from .fluid import FluidPath
from .rng import CounterRNG


@dataclass(frozen=True)
class DegreeSequence:
    """Explicit degree list d_i >= 1 with even total."""

    degrees: tuple[int, ...]
    parity_fix: dict | None = None  # set when built from a distribution and adjusted

    def __post_init__(self) -> None:
        if len(self.degrees) == 0:
            raise DomainError("degree sequence is empty")
        for k in set(self.degrees):  # judged once per distinct value
            _degree(k, "DegreeSequence")
        degs = tuple(map(int, self.degrees))
        if sum(degs) % 2 != 0:
            raise ParityError(f"half-edge total {sum(degs)} is odd")
        object.__setattr__(self, "degrees", degs)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def counts(self) -> dict[int, int]:
        """Vertex count of each degree, in increasing degree order."""
        return dict(sorted(Counter(self.degrees).items()))

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
            odd_ks = [k for k, c in counts.items() if k % 2 == 1 and c > 0]
            if not odd_ks:
                raise ParityError("cannot fix parity: no odd-degree bucket to decrement")
            k = max(odd_ks)
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

    degrees: tuple[int, ...]  # distinct degrees, the columns of steps_V
    n: int
    m: int
    n_steps: int
    components: list[ComponentRecord]  # in order; each spans n_edges + 1 steps
    steps_A: np.ndarray | None = None  # (n_steps + 1,) when trajectory recorded
    steps_V: np.ndarray | None = None  # (n_steps + 1, len(degrees))
    new_component_at: np.ndarray | None = None  # step indices of fresh wakes


def sample_multigraph(d: DegreeSequence, rng: CounterRNG) -> np.ndarray:
    """Uniform matching of the 2m half-edges into m edges.

    Realized by a Fisher-Yates shuffle of the half-edge array
    (:meth:`CounterRNG.shuffle`, 2m - 1 draws) followed by consecutive
    pairing; multi-edges and self-loops are retained.  Returns an (m, 2)
    int64 array whose row e holds the vertices of shuffled half-edges 2e
    and 2e + 1.
    """
    half = np.repeat(np.arange(d.n, dtype=np.int64),
                     np.array(d.degrees, dtype=np.int64))
    rng.shuffle(half)
    return half.reshape(-1, 2)


def eea_run(d: DegreeSequence, rng: CounterRNG,
            record_trajectory: bool = False) -> ExplorationRecord:
    """Run the exploration chain to termination.

    Components are always recorded; the full (A, V) step
    sequence only when ``record_trajectory`` is set.  The chain reads its
    stream ahead in blocks of at most 2^16 draws (:meth:`CounterRNG.read_ahead`),
    so memory stays bounded, and leaves the counter ``n_steps`` past its
    start.  A recorded run keeps only A and the woken degree of each step
    (0 for a kill); ``steps_V`` is rebuilt from the wakes by one
    cumulative sum.
    """
    counts = d.counts()
    degs = tuple(counts)
    kv = {k: counts[k] for k in degs}
    s = sum(k * c for k, c in kv.items())  # sum_i i V_i
    a = 0
    n, m = d.n, d.m
    max_steps = m + n

    record_A = [a]
    woke: list[int] = []  # per step: the woken degree, 0 for a kill
    components: list[ComponentRecord] = []
    cur_config: dict[int, int] = {}
    j = start = 0  # start: the step that opened the current component

    killw, denom = 0, s  # from A = 0; s > 0 since every degree is >= 1
    for u in rng.read_ahead(max_steps):
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
            cur_config[woken] = cur_config.get(woken, 0) + 1
        j += 1
        if record_trajectory:
            record_A.append(a)
            woke.append(woken)
        if a == 0:
            components.append(ComponentRecord(
                degree_config=dict(sorted(cur_config.items())),
                n_vertices=sum(cur_config.values()),
                n_edges=j - start - 1,
            ))
            cur_config, start = {}, j
        killw = a - 1 if a > 1 else 0
        denom = s + killw
        if denom == 0:  # checked before the next draw is taken
            break
    rng.skip(j)
    if denom:
        raise StateError(f"exploration exceeded the step bound m + n = {max_steps}")

    rec = ExplorationRecord(degrees=degs, n=n, m=m, n_steps=j, components=components)
    if record_trajectory:
        rec.steps_A = np.array(record_A, dtype=np.int64)
        woken_deg = np.array(woke, dtype=np.int64)
        wakes = np.flatnonzero(woken_deg)
        # row 0 holds the initial counts, row i + 1 a -1 in the column woken
        # at step i; summing down the rows in place gives V after each step
        V = np.zeros((j + 1, len(degs)), dtype=np.int64)
        V[0] = [counts[k] for k in degs]
        V[wakes + 1, np.searchsorted(degs, woken_deg[wakes])] = -1
        rec.steps_V = np.cumsum(V, axis=0, out=V)
        rec.new_component_at = wakes[rec.steps_A[wakes] == 0]  # wakes from A = 0
    _check_conservation_totals(rec, counts)
    return rec


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
    """Piecewise-constant fluid rescaling zeta_k(t) = V_k(floor(nt))/n.

    Times beyond termination read the absorbing all-zero state.  psi is the
    active density minus twice the per-vertex count of fresh component
    starts, so that the reflection identity holds at fluid scale.
    """
    if rec.steps_A is None:
        raise StateError("record has no trajectory; rerun with record_trajectory=True")
    grid = np.asarray(grid, dtype=float)
    idx = np.minimum((n * grid).astype(np.int64), rec.n_steps)
    idx = np.maximum(idx, 0)
    zeta0 = rec.steps_A[idx] / n
    zetak = rec.steps_V[idx] / n
    starts = np.zeros(rec.n_steps + 1, dtype=np.int64)
    np.add.at(starts, rec.new_component_at + 1, 1)
    eta = 2.0 * np.cumsum(starts)[idx] / n
    psi = zeta0 - eta
    return FluidPath(grid=grid, degrees=rec.degrees, zeta0=zeta0,
                     zetak=zetak, psi=psi,
                     meta={"n": n, "n_steps": rec.n_steps})
