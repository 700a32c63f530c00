"""Parallel Monte Carlo estimation of rare component events.

The target event: some component's degree configuration (m_k) satisfies
n(q_k - eps) <= m_k <= n(q_k + eps) for every degree k simultaneously
(degrees absent from the graph contribute m_k = 0 and therefore require
q_k <= eps).  Only :func:`_event_windows` turns (q, eps) into integer
windows; when no count fits, no chain is stepped and no pool started.
Replication r draws from the stream keyed by (master_seed, r), so the
estimate is a pure function of (input, seed, reps) and is bitwise
identical for any worker count or shard schedule.  Hits accumulate as
integers, so summation order cannot matter.

The inner loop is a lockstep-vectorized version of
:func:`cmld.explore.eea_run` over blocks of replications; it reproduces
the scalar chain decision-for-decision because both consume the uniform
of step j from the same counter position.  Its state is each
replication's cumulative sleeping half-edge mass by degree, in the
narrowest signed integer type that holds the graph's 2m + 1 (int8 up to
127, then int16, int32 and int64).  A step is decided on the integer
x = floor(u * denominator), exactly as the float decision would be, so it
finds the woken degree with one integer compare and removes it with one
broadcast subtract; a graph of one degree needs neither, and its first
step, a certain wake, is taken without a draw.  The stream keys and the
draw's two buffers are a shard's lane buffers (:func:`_lane_buffers`).
A replication leaves the block once its outcome is settled: when it
hits, when its chain stops, or when its sleeping half-edge mass shows
that no component can reach the window.  That test is exact, since every
hitting component's half-edge mass lies between those of the window's
integer edges.  Once at most half of a block is still live, the live
replications are gathered into smaller arrays.  :func:`_batch_hits` runs
a shard in any process: the shards run in this one, or a pool of at most
one process per shard and per usable core maps them.  The pool is kept
for later calls of the same size in the same process; it is replaced
when the size changes or when it breaks and joined at interpreter exit,
and a forked child starts with no pool and a free lock.  Its workers are
forked at the first parallel call, so they run the code as it was then:
a monkeypatch made later does not reach them.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from itertools import repeat
from multiprocessing.util import Finalize

import numpy as np

from .core import DegreeDistribution, SubProfile, _clean_weights, bisect_increasing
from .errors import DomainError, FitError
from .explore import DegreeSequence
from .rng import counter_uniforms, stream_keys

_DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class EstimateResult:
    """Event-probability estimate with an exact binomial interval; the
    fields are in the order a record prints them."""

    n: int
    p_hat: float
    ci_low: float
    ci_high: float
    reps: int
    hits: int
    seed: int
    per_n_rate: float  # -log(p_hat)/n, +0.0 when every replication hits, +inf when none

    def as_dict(self) -> dict:
        return asdict(self)


_CI_TAIL = 0.025  # mass of each tail outside the 95% interval
_LOG_X_MIN = -745.0  # about the log of the smallest positive double
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series of log Gamma(x) - (x - 1/2) log x + x - log sqrt(2 pi),
# coefficients of 1/x, 1/x^3, ..., 1/x^15
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _stirling_remainder(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log sqrt(2 pi) for x >= 10.

    The first omitted term of the series is below 2e-18 at x = 10.
    """
    r = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0.

    Once the larger argument q reaches 10, lgamma(a) + lgamma(b) -
    lgamma(a + b) cancels (to about 1e-8 relative at q = 1e9).  There the
    leading Stirling terms are combined by hand, as R's ``lbeta`` does, and
    only the remainders are added.
    """
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    s = p + q
    corr = _stirling_remainder(q) - _stirling_remainder(s)
    if p < 10.0:
        return math.lgamma(p) + corr + p - p * math.log(s) + (q - 0.5) * math.log1p(-p / s)
    return (_LN_SQRT_2PI - 0.5 * math.log(q) + corr + _stirling_remainder(p)
            + (p - 0.5) * math.log(p / s) + q * math.log1p(-p / s))


def _beta_fraction(a: int, b: int, x: float, y: float, lam: float) -> float:
    """I_x(a, b) B(a, b) / (x^a y^b) for integers a, b >= 1, y = 1 - x.

    The continued fraction BFRAC of Didonato and Morris (ACM TOMS 708),
    summed by modified Lentz.  It takes y and lam = (a + b) y - b as given,
    so no term is a difference of numbers near 1; the textbook fraction in
    x alone loses about half its digits when y is within 1e-8 of 1, as it
    is for an upper bound near 1e-9.  With lam > -1 every partial
    numerator is >= 0 and every denominator > 0, so Lentz needs no guard;
    the numerator vanishes at n = b, so the fraction ends there at the
    latest.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = 1.0 + y
    f = C = c / c1
    D = 0.0
    p = 1.0
    s = a + 1.0
    for n in range(1, b + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        D = 1.0 / (beta + alpha * D)
        C = beta + alpha / C
        step = C * D
        f *= step
        if -1e-15 <= step - 1.0 <= 1e-15:
            break
    return 1.0 / f


def _beta_tails(t: float, a: int, b: int, log_beta: float) -> tuple[float, float, float]:
    """(I_x(a, b), 1 - I_x(a, b), dI_x(a, b)/dt) at x = e^t, t < 0, for
    integers a, b >= 1.

    ``log_beta`` is log B(a, b), passed in because a root search holds a
    and b fixed.  The fraction gives the lower tail below the switch
    x = (a+1)/(a+b+2) and the upper tail, as I_y(b, a), at or above it;
    the other tail is 1 minus that one.  Neither tail is small at the
    switch, so whichever tail is small is summed directly.  log y is
    log1p(-x) for x < 1/2, which keeps the digits of a small x.  The
    slope is x times the density, x^a y^(b-1) / B(a, b).
    """
    x = math.exp(t)
    y = -math.expm1(t)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * t + b * log_y - log_beta)  # x^a y^b / B(a, b)
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _beta_fraction(a, b, x, y, lam) if front else 0.0
        return lower, 1.0 - lower, front / y
    upper = front * _beta_fraction(b, a, y, x, -lam) if front else 0.0
    return 1.0 - upper, upper, front / y


def _beta_quantile(a: int, b: int, upper: bool) -> float:
    """The x at which the lower (or, if ``upper``, the upper) tail of
    Beta(a, b) holds mass _CI_TAIL."""
    lb = _log_beta(a, b)

    def f(t):
        lower, upper_tail, slope = _beta_tails(t, a, b, lb)
        return (_CI_TAIL - upper_tail if upper else lower - _CI_TAIL), slope

    return math.exp(bisect_increasing(f, _LOG_X_MIN, 0.0))


def clopper_pearson(hits: int, reps: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval.

    The bounds are beta quantiles: lo solves I_lo(hits, reps - hits + 1) =
    0.025 and hi solves 1 - I_hi(hits + 1, reps - hits) = 0.025, from the
    upper tail itself.  Each is found by :func:`core.bisect_increasing` in
    t = log x over [-745, 0], where its absolute stop is a relative one in
    x, with Newton steps from the slope dI_x/dt = x^a y^(b-1) / B(a, b).
    The bounds match the exact binomial quantiles to 1e-12 relative when
    hits or reps - hits is small (the tests check hits of 0, 1, 2, 10, 1000,
    reps - 1 and reps, for reps up to 1e9).  When both run to 1e8 and more,
    x^a y^b / B(a, b) is the exp of three ~1e8 terms that cancel, and only
    about 2e-12 is kept: at 333333333 hits of 1e9 the lower bound is
    2.1e-12 and the upper 8.3e-13 relative off their 40-digit values, at
    5e8 hits 1.0e-12 and 8.4e-13.
    """
    if reps < 1 or not 0 <= hits <= reps:
        raise DomainError(f"need reps >= 1 and 0 <= hits <= reps, got hits = {hits}, "
                          f"reps = {reps}")
    lo = 0.0 if hits == 0 else _beta_quantile(hits, reps - hits + 1, upper=False)
    hi = 1.0 if hits == reps else _beta_quantile(hits + 1, reps - hits, upper=True)
    return lo, hi


def _event_windows(counts: dict[int, int], q, eps: float
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """The event as inclusive integer windows (lo, hi), or None if nothing can hit.

    ``q`` is a :class:`SubProfile` or a {degree: weight} dict.  Column d is
    degree ``sorted(counts)[d]``: the integers m in [n(q_k - eps), n(q_k +
    eps)] and [0, counts[k]].  None also when a degree absent from the
    graph (m_k = 0) has q_k > eps.
    """
    qw = q.weights if isinstance(q, SubProfile) else _clean_weights(q, "q")
    if any(v > eps for k, v in qw.items() if k not in counts):
        return None
    n = sum(counts.values())
    degs = sorted(counts)
    qk = np.array([qw.get(k, 0.0) for k in degs])
    # a count lies in [0, n], so clipping q_k -+ eps to [0, 1] moves no window,
    # and n times a huge eps cannot overflow
    lo = np.ceil(n * np.maximum(qk - eps, 0.0))
    hi = np.minimum(np.floor(n * np.minimum(qk + eps, 1.0)), [counts[k] for k in degs])
    if not np.all(lo <= hi):
        return None
    return lo.astype(np.int64), hi.astype(np.int64)


# the calling thread's lane buffers, as its attribute "buffers"
_lanes = threading.local()


def _lane_buffers(R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The calling thread's lane buffers, at least R wide: the stream keys,
    and the draw's two.

    They are the only lane memory, and each thread keeps its own, so two
    threads running shards at once never share one.  They grow to the
    widest shard the thread has run: a pool worker keeps them for its
    later shards, and an in-process estimate makes its thread's afresh and
    drops them when it returns.
    """
    buffers = getattr(_lanes, "buffers", None)
    if buffers is None or len(buffers[0]) < R:
        buffers = np.empty(R, dtype=np.uint64), np.empty(R), np.empty(R, dtype=np.uint64)
        _lanes.buffers = buffers
    return buffers


def _batch_hits(counts: dict[int, int], rep_lo: int, rep_hi: int, seed: int,
                lo: np.ndarray, hi: np.ndarray) -> int:
    """Event hits among replications [rep_lo, rep_hi), lockstep-vectorized.

    State is degree-major and cumulative: row d of ``C`` holds, for every
    lane (replication), the sleeping half-edge mass of the degrees up to
    ``degs[d]``, sum_{d' <= d} degs[d'] V[d'], so its last row is the
    whole sleeping mass ``s``.  ``C`` is non-decreasing down its rows, so
    one compare of ``C[:-1]`` against the floor of the lane's target marks
    the row b of the bucket a wake falls in and every row after it.  The
    woken degree ``degs[b]`` is the largest degree less the degree steps
    ``degs[d + 1] - degs[d]`` of the marked rows, one narrow product and
    sum, and the wake subtracts it from the marked rows and from ``s``; no
    bucket index is formed or looked up.  With one degree there is one row
    and no compare.  ``C``,
    ``Cstart``, ``A``, ``need`` and the woken degrees have the narrowest
    signed type that holds 2m + 1: every value the kernel forms lies in
    [-2m, 2m + 1], ``s + killw``, ``s0 - H`` and the retired need 2m + 1
    among them.  So R lanes on D degrees start at 2DR entries of that type,
    beside the first R entries of the lane buffers (:func:`_lane_buffers`).
    ``Cstart`` is ``C`` when the current component started; at a close,
    ``Cstart - C`` differenced along the degree axis and divided by the
    degrees is the component's configuration.  ``lo`` and ``hi`` are the
    event's integer windows from :func:`_event_windows`.

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
    no draw; the live keys are gathered into the draw's scratch buffer,
    which is free between draws, and the old keys' buffer becomes the
    scratch, so a shard allocates no R-wide word array but the stream
    indices it hashes into keys.

    A step is decided on integers.  With den = s + killw, the scalar
    chain's float decision is y = fl(fl(u * den) - killw): a kill when
    y < 0, else a wake of the bucket holding y.  The kernel takes
    x = floor(fl(u * den)) instead, the float's cast to the state's type.
    killw is an integer, so y < 0 iff x < killw, and for a wake
    fl(u * den) - killw is exact, so C[d] <= y iff C[d] <= x - killw (see
    :func:`cmld.explore.eea_run`).  Every lane starts at A = 0, so step 0
    is a wake; with one degree it wakes that degree whatever the draw, so
    it is taken before the loop and draw 0 is never made.  Step j still
    reads draw j.  A step from A = 0 always wakes, so a lane whose A is 0
    after a step has just closed its component: the close test reads A
    alone, and A after the step is killw + woken - busy.
    """
    degs = np.array(sorted(counts), dtype=np.int64)
    size = np.array([counts[int(k)] for k in degs], dtype=np.int64)
    D = len(degs)
    R = rep_hi - rep_lo
    n = sum(counts.values())
    m = sum(k * c for k, c in counts.items()) // 2
    L, H = int(degs @ lo), int(degs @ hi)
    L, H = max(L + L % 2, 2), H - H % 2  # a component's mass is even and >= 2
    retired = 2 * m + 1  # a need that no s reaches
    lo, hi = np.asarray(lo)[:, None], np.asarray(hi)[:, None]
    # every value the state takes or forms lies in [-2m, 2m + 1], and 2m + 1
    # is odd, so the narrowest signed type holding -(2m + 1) holds them all
    idt = np.min_scalar_type(-retired)
    k = degs.astype(idt)
    # the degree steps, in a signed type holding the largest degree: their
    # sums over any rows are below it
    dk = np.diff(degs).astype(np.min_scalar_type(-int(degs[-1])))[:, None]

    C = np.repeat(np.cumsum(degs * size).astype(idt)[:, None], R, axis=1)
    Cstart = C.copy()
    s = C[-1]
    A = np.zeros(R, dtype=idt)
    need = np.full(R, min(L, 2 * m - H), dtype=idt)
    keys, u, scratch = (buf[:R] for buf in _lane_buffers(R))
    keys = stream_keys(seed, np.arange(rep_lo, rep_hi, dtype=np.uint64), keys, scratch)
    hits = 0
    j0 = 0
    if D == 1:  # every lane starts at A = 0, so step 0 wakes the one degree
        C -= k[0]
        A += k[0]
        j0 = 1

    for j in range(j0, m + n):
        busy = A > 0  # a kill and a wake from A > 0 both spend two half-edges
        killw = A - busy  # max(A - 1, 0)
        # x = floor(u * denom) < killw kills, else the bucket holding x - killw
        # wakes: b counts the cumulative masses C[d] <= x - killw, and u < 1
        # keeps x - killw below s = C[-1], so the last row needs no compare
        y = counter_uniforms(keys, j, u, scratch)
        y *= s + killw
        x = y.astype(idt)
        wakes = x >= killw
        if D > 1:
            x -= killw
            # C is non-decreasing down its rows, so g marks the bucket's row
            # and the rows after it, and the woken degree is k[-1] less the
            # degree steps that g marks
            g = C[:-1] > x
            del x  # so the subtract below, the step's peak, does not hold it
            woken = k[-1] - (g * dk).sum(axis=0, dtype=dk.dtype)
            woken *= wakes
            C[:-1] -= g * woken  # the marked rows lose the woken degree
            del g  # else it lives on beside the next step's compare, raising the peak
            C[-1] -= woken  # and so does s
        else:  # one degree: a wake takes it from the one row
            woken = wakes * k[0]
            C -= woken
        killw += woken  # A + woken - 2 busy
        killw -= busy
        A = killw

        # a step from A = 0 always wakes, so A = 0 after a step is a close
        idx = np.flatnonzero(A == 0)
        if idx.size:
            # a hitting component ends with s >= s0 - H >= need, so a lane
            # below its need is retired or can no longer hit
            idx = idx[s[idx] >= need[idx]]
            taken = np.diff(Cstart[:, idx] - C[:, idx], axis=0, prepend=idt.type(0))
            conf = taken // k[:, None]  # each row's mass is a multiple of its degree
            hit = np.all((conf >= lo) & (conf <= hi), axis=0)
            hits += int(np.count_nonzero(hit))
            s0 = s[idx]
            need[idx] = np.where(hit | (s0 < L), retired, np.minimum(L, s0 - H))
            Cstart[:, idx] = C[:, idx]

        live = s >= need
        left = int(np.count_nonzero(live))
        if 2 * left <= len(s):
            if left == 0:
                break
            keep = np.flatnonzero(live)
            C, Cstart, A, need = C[:, keep], Cstart[:, keep], A[keep], need[keep]
            # the live keys move into the draw's scratch, which is free
            # between draws, and the old keys' buffer becomes the scratch;
            # "clip" writes straight into out ("raise" would fill a copy
            # first), and every index in keep is in range
            keys, scratch = keys.take(keep, out=scratch[:left], mode="clip"), keys[:left]
            u = u[:left]
            s = C[-1]
    return hits


def _usable_cores() -> int:
    """Cores this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# the kept pool as (processes, executor, its shutdown at exit), or None;
# read and replaced only under _POOL_LOCK, which a parallel call holds
# until its last result
_pool: tuple[int, ProcessPoolExecutor, Finalize] | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool_in_child() -> None:
    """Give a forked child no pool and a free lock: the parent's workers are
    not its children, and another thread of the parent may hold the lock."""
    global _pool, _POOL_LOCK
    _pool = None
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool_in_child)


def _drop_pool() -> None:
    """Forget the kept pool and join its workers."""
    global _pool
    stop = _pool[2]
    _pool = None
    stop()


def _pool_hits(procs: int, counts: dict[int, int], shards: list[tuple[int, int]],
               seed: int, event: tuple[np.ndarray, np.ndarray]) -> int:
    """Hits of ``shards`` on the kept pool of ``procs`` processes.

    A kept pool of another size is dropped first, so a new pool never
    forks beside the old one's manager thread.  A broken pool is replaced
    and the call run once more; the hits are a pure function of the
    arguments, so the retry gives the same number.  On any other failure
    the map cancels the shards not yet started, so the pool does not run
    them ahead of the next call's.
    """
    global _pool
    starts, stops = zip(*shards)
    lo, hi = event
    with _POOL_LOCK:
        for retry in (False, True):
            if _pool is not None and _pool[0] != procs:
                _drop_pool()
            if _pool is None:
                pool = ProcessPoolExecutor(max_workers=procs)
                # a multiprocessing child joins its children before the
                # threading exit hook that would stop the pool runs, so the
                # pool is also shut down by a finalizer that runs first, and
                # before its call queue's own (priority 10) stops the queue
                _pool = procs, pool, Finalize(pool, pool.shutdown, exitpriority=20)
            try:
                return sum(_pool[1].map(_batch_hits, repeat(counts), starts, stops,
                                        repeat(seed), repeat(lo), repeat(hi)))
            except BrokenProcessPool:
                _drop_pool()
                if retry:
                    raise


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

    Replications run in shards of ``chunk_size``; a pool is used only for
    more than one shard, with ``min(workers, shards, usable cores)``
    processes, since a fork pool starts all its processes up front.  The
    pool is kept for later calls of the same size in this process; it is
    replaced when the size changes or when it breaks, joined at
    interpreter exit, and not inherited by a forked child.  Its workers
    are forked at the first parallel call and run the code as it was
    then, so a monkeypatch made later does not reach them.  An event that
    no count can hit returns 0 hits with no shard run.
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
    event = _event_windows(counts, q, eps)
    hits = 0
    if event is not None:
        shards = [(a, min(a + chunk_size, reps)) for a in range(0, reps, chunk_size)]
        procs = min(workers, len(shards), _usable_cores())
        if procs == 1:  # on lane buffers made for this call and dropped after it
            _lanes.buffers = None
            try:
                hits = sum(_batch_hits(counts, a, b, seed, *event) for a, b in shards)
            finally:
                _lanes.buffers = None
        else:
            hits = _pool_hits(procs, counts, shards, seed, event)

    p_hat = hits / reps
    ci_lo, ci_hi = clopper_pearson(hits, reps)
    rate = abs(math.log(p_hat)) / d.n if p_hat > 0.0 else math.inf
    return EstimateResult(n=d.n, p_hat=p_hat, ci_low=ci_lo, ci_high=ci_hi, reps=reps,
                          hits=hits, seed=seed, per_n_rate=rate)


def rate_fit(results: list[EstimateResult]) -> tuple[float, float]:
    """Least-squares fit of -log p_hat against n; the slope is the decay rate.

    Needs hits at three distinct sizes at least: repeated sizes add points
    but no abscissa, and a line through fewer than three is no check."""
    usable = []
    for r in results:
        if r.hits == 0:
            warnings.warn(f"excluding n = {r.n}: no hits", stacklevel=2)
            continue
        usable.append(r)
    if len(usable) < 3:
        raise FitError(f"need >= 3 points with hits, have {len(usable)}")
    sizes = len({r.n for r in usable})
    if sizes < 3:
        raise FitError(f"need >= 3 distinct sizes with hits, have {sizes}")
    x = np.array([r.n for r in usable], dtype=float)
    y = np.array([-math.log(r.p_hat) for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)

