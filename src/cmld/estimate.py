"""Parallel Monte Carlo estimation of rare component events.

The target event: some component's degree configuration (m_k) satisfies
n(q_k - eps) <= m_k <= n(q_k + eps) for every degree k simultaneously
(degrees absent from the graph contribute m_k = 0 and therefore require
q_k <= eps).  Replications are exploration-chain runs; replication r draws
from the stream keyed by (master_seed, r), so the estimate is a pure
function of (input, seed, reps) and is bitwise identical for any worker
count or shard schedule.  Hits accumulate as integers, so summation order
cannot matter.

The inner loop is a lockstep-vectorized version of
:func:`cmld.explore.eea_run` over blocks of replications; it reproduces
the scalar chain decision-for-decision because both consume the uniform of
step j from the same counter position.  A replication leaves the block
once its outcome is settled: when it hits, when its chain stops, or when
its sleeping half-edge mass shows that no component can reach the window.
That test is exact, since every hitting component's half-edge mass lies
between those of the window's integer edges.  Once at most half of a
block is still live, the live replications are gathered into smaller
arrays.  Shards run in one process, or in a pool of at most one process
per shard and per usable core.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DegreeDistribution, SubProfile
from .errors import DomainError, FitError
from .explore import DegreeSequence, eea_run, empirical_path, extract_components
from .lln import lln_path
from .rng import CounterRNG, counter_uniforms, stream_keys

_DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class EstimateResult:
    """Event-probability estimate with an exact binomial interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    reps: int
    hits: int
    n: int
    seed: int
    per_n_rate: float  # -log(p_hat)/n, +inf when no hits

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "p_hat": self.p_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "reps": self.reps,
            "hits": self.hits,
            "seed": self.seed,
            "per_n_rate": self.per_n_rate if math.isfinite(self.per_n_rate) else None,
        }


def clopper_pearson(hits: int, reps: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval."""
    from scipy.stats import beta as beta_dist

    alpha = 0.05
    lo = 0.0 if hits == 0 else float(beta_dist.ppf(alpha / 2.0, hits, reps - hits + 1))
    hi = 1.0 if hits == reps else float(beta_dist.ppf(1.0 - alpha / 2.0, hits + 1, reps - hits))
    return lo, hi


def _event_windows(n: int, q: dict[int, float], eps: float,
                   graph_degrees: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-degree inclusive count windows over the graph's degree columns.

    Returns (lo, hi, possible); ``possible`` is False when a degree carrying
    q-mass does not occur in the graph and q_k > eps.
    """
    lo = np.array([n * (q.get(k, 0.0) - eps) for k in graph_degrees])
    hi = np.array([n * (q.get(k, 0.0) + eps) for k in graph_degrees])
    possible = all(q[k] <= eps for k in q if k not in graph_degrees)
    return lo, hi, possible


def _batch_hits(counts: dict[int, int], rep_lo: int, rep_hi: int, seed: int,
                lo: np.ndarray, hi: np.ndarray) -> int:
    """Event hits among replications [rep_lo, rep_hi), lockstep-vectorized.

    State is degree-major: row d of ``V`` holds the sleeping count of degree
    ``degs[d]`` for every lane (replication), so each step is a few
    contiguous full-width operations.  ``Vstart`` is ``V`` when the current
    component started; at a close, ``Vstart - V`` is the component's
    configuration.  ``lo`` and ``hi`` are inclusive per-degree windows; only
    the integer counts inside them, and within ``[0, counts[k]]``, matter.

    A lane retires once its outcome is settled: when it hits (it counts
    once), when its chain stops, or when no component of it can reach the
    window any more.  The last test reads one number per lane, the
    sleeping half-edge mass ``s``.  A component's half-edge mass
    sum_k k m_k is twice its edge count, so a hitting one has an even mass
    of at least 2 in [L, H], the masses of the integer windows' lower and
    upper edges (L rounded up and H down to even).  A later component is
    drawn from mass ``s``, so it needs ``s >= L``; the current one started
    from mass ``s0`` and has taken ``s0 - s`` so far, so it needs
    ``s0 - s <= H`` and ``s0 >= L``.  These are necessary for a hit, so
    retiring on them drops none and the test is exact.  Each close folds
    them into one threshold ``need``, fixed until the next close: a lane
    is live while ``s >= need``, and a stopped chain (``s = 0`` after its
    last close) fails it.  Retired lanes keep stepping, unread, until at
    most half the width is live: their ``s`` only falls and their ``need``
    no longer moves, so they stay retired.  Then the live lanes are
    gathered into smaller arrays, and the loop ends when none is left.  A
    lane draws the uniform of step j from its own key, so gathering moves
    no draw.
    """
    degs = np.array(sorted(counts), dtype=np.int64)
    size = np.array([counts[int(k)] for k in degs], dtype=np.int64)
    D = len(degs)
    R = rep_hi - rep_lo
    n = sum(counts.values())
    m = sum(k * c for k, c in counts.items()) // 2

    lo = np.maximum(np.ceil(lo), 0.0)
    hi = np.minimum(np.floor(hi), size)
    if not np.all(lo <= hi):  # no integer count fits, or an edge is NaN
        return 0
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    L, H = int(degs @ lo), int(degs @ hi)
    L, H = max(L + L % 2, 2), H - H % 2  # a component's mass is even and >= 2
    retired = 2 * m + 1  # a need that no s reaches
    lo, hi = lo[:, None], hi[:, None]

    V = np.repeat(size[:, None], R, axis=1)
    Vstart = V.copy()
    A = np.zeros(R, dtype=np.int64)
    s = np.full(R, 2 * m, dtype=np.int64)
    need = np.full(R, min(L, 2 * m - H), dtype=np.int64)
    keys = stream_keys(seed, np.arange(rep_lo, rep_hi, dtype=np.uint64))
    cols = np.arange(D)[:, None]
    hits = 0

    for j in range(m + n):
        killw = np.maximum(A - 1, 0)
        # y < 0 (exactly when x = u * denom < killw) kills, else the bucket
        # holding y wakes; u < 1 keeps y below s, the last cumulative
        # weight, so the last bucket needs no test
        denom = s + killw
        y = counter_uniforms(keys, j) * denom - killw
        wakes = y >= 0
        cum = np.zeros(len(s), dtype=np.int64)
        b = np.zeros(len(s), dtype=np.int64)
        for d in range(D - 1):
            cum += degs[d] * V[d]
            b += cum <= y

        woken = degs[b] * wakes
        V -= (b == cols) & wakes
        s -= woken
        busy = A > 0  # a kill and a wake from A > 0 both spend two half-edges
        A += woken - 2 * busy

        idx = np.flatnonzero(busy & (A == 0))
        if idx.size:
            # a hitting component ends with s >= s0 - H >= need, so a lane
            # below its need is retired or can no longer hit
            idx = idx[s[idx] >= need[idx]]
            conf = Vstart[:, idx] - V[:, idx]
            hit = np.all((conf >= lo) & (conf <= hi), axis=0)
            hits += int(np.count_nonzero(hit))
            s0 = s[idx]
            need[idx] = np.where(hit | (s0 < L), retired, np.minimum(L, s0 - H))
            Vstart[:, idx] = V[:, idx]

        live = s >= need
        left = int(np.count_nonzero(live))
        if 2 * left <= len(s):
            if left == 0:
                break
            keep = np.flatnonzero(live)
            V, Vstart, A, s, need, keys = (V[:, keep], Vstart[:, keep], A[keep],
                                           s[keep], need[keep], keys[keep])
    return hits


def _usable_cores() -> int:
    """Cores this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _resolve_input(p_or_d, n: int | None) -> tuple[DegreeSequence, dict[int, int]]:
    if isinstance(p_or_d, DegreeDistribution):
        if n is None:
            raise DomainError("n is required when estimating from a distribution")
        d = DegreeSequence.from_distribution(p_or_d, n)
    else:
        d = p_or_d if isinstance(p_or_d, DegreeSequence) else DegreeSequence(tuple(p_or_d))
        if n is not None and n != d.n:
            raise DomainError(f"n = {n} does not match the {d.n}-vertex degree sequence")
    return d, d.counts()


def estimate_event_prob(p_or_d, q, eps: float, reps: int, seed: int,
                        n: int | None = None, workers: int = 1,
                        chunk_size: int = _DEFAULT_CHUNK) -> EstimateResult:
    """Probability that some component's degree configuration is eps-close to n*q.

    Replications run in shards of ``chunk_size``; a pool starts only for
    more than one shard, with ``min(workers, shards, usable cores)``
    processes, since a fork pool starts all its processes up front.
    """
    if reps <= 0:
        raise DomainError(f"reps must be positive, got {reps}")
    if not eps > 0.0:  # also rejects NaN
        raise DomainError(f"eps must be positive, got {eps}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be at least 1, got {chunk_size}")
    d, counts = _resolve_input(p_or_d, n)
    n_actual = d.n
    qw = q.weights if isinstance(q, SubProfile) else {int(k): float(v) for k, v in q.items()}

    lo, hi, possible = _event_windows(n_actual, qw, eps, tuple(sorted(counts)))
    hits = 0
    if possible:
        shards = [(a, min(a + chunk_size, reps)) for a in range(0, reps, chunk_size)]
        procs = min(workers, len(shards), _usable_cores())
        if procs == 1:
            for a, b in shards:
                hits += _batch_hits(counts, a, b, seed, lo, hi)
        else:
            with ProcessPoolExecutor(max_workers=procs) as pool:
                futs = [pool.submit(_batch_hits, counts, a, b, seed, lo, hi)
                        for a, b in shards]
                hits = sum(f.result() for f in futs)

    p_hat = hits / reps
    ci_lo, ci_hi = clopper_pearson(hits, reps)
    rate = -math.log(p_hat) / n_actual if p_hat > 0.0 else math.inf
    return EstimateResult(p_hat=p_hat, ci_low=ci_lo, ci_high=ci_hi, reps=reps,
                          hits=hits, n=n_actual, seed=seed, per_n_rate=rate)


def rate_fit(results: list[EstimateResult]) -> tuple[float, float]:
    """Least-squares fit of -log p_hat against n; the slope is the decay rate."""
    usable = []
    for r in results:
        if r.hits == 0:
            warnings.warn(f"excluding n = {r.n}: no hits", stacklevel=2)
            continue
        usable.append(r)
    if len(usable) < 3:
        raise FitError(f"need >= 3 points with hits, have {len(usable)}")
    x = np.array([r.n for r in usable], dtype=float)
    y = np.array([-math.log(r.p_hat) for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def lln_check(p: DegreeDistribution, n: int, seed: int,
              grid_points: int = 401) -> tuple[float, float]:
    """One trajectory-recorded run against the zero-cost fluid limit.

    Returns (largest component vertex fraction, sup over the grid and over
    degrees k <= max_degree of |empirical zeta_k - fluid zeta_k|).
    """
    if n < 1000:
        raise DomainError(f"n >= 1000 required for a meaningful check, got {n}")
    d = DegreeSequence.from_distribution(p, n)
    rec = eea_run(d, CounterRNG(seed, 0), record_trajectory=True)
    largest, _, _ = extract_components(rec)

    T = max(rec.n_steps / d.n, 0.5 * p.mu + 1e-9)
    grid = np.linspace(0.0, T, grid_points)
    emp = empirical_path(rec, d.n, grid)
    fluid = lln_path(p, grid=grid)
    sup = 0.0
    for k in range(0, p.max_degree + 1):
        sup = max(sup, float(np.max(np.abs(emp.zeta(k) - fluid.zeta(k)))))
    return largest, sup
