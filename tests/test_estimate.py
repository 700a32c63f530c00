import functools
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import cmld
from cmld import (
    CounterRNG,
    DegreeDistribution,
    DegreeSequence,
    DomainError,
    EstimateResult,
    FitError,
    SubProfile,
    eea_run,
    estimate_event_prob,
    lln_check,
    rate_fit,
    survival_rho,
)
from cmld.estimate import _batch_hits, _event_windows, clopper_pearson
from cmld.rng import counter_uniforms, stream_keys


def _event(d, q, eps):
    """The integer windows the estimator reads for (q, eps) on ``d``; the
    event must be one that some count can hit."""
    event = _event_windows(d.counts(), q, eps)
    assert event is not None
    return event


def _scalar_hits(d, seed, reps, event):
    """(replications with a hitting component, hitting components) from
    per-replication eea_run runs, the kernel's oracle."""
    ks = sorted(d.counts())
    lo, hi = event
    per_rep = []
    for r in range(reps):
        configs = np.array([[c.degree_config.get(k, 0) for k in ks]
                            for c in eea_run(d, CounterRNG(seed, r)).components])
        per_rep.append(int(np.count_nonzero(np.all((configs >= lo) & (configs <= hi), axis=1))))
    return sum(h > 0 for h in per_rep), sum(per_rep)


@pytest.fixture
def no_kept_pool():
    """The estimate module with no kept pool, before the test and after it."""
    import cmld.estimate as est

    def drop():
        with est._POOL_LOCK:
            if est._pool is not None:
                est._drop_pool()

    drop()
    yield est
    drop()


_CP_REPS = (10, 200, 2**19, 2**20, 20000, 10**6, 10**9)
# with the 170 hits of 300000 that the CLI's regular estimate pins
_CP_CASES = sorted({(h, r) for r in _CP_REPS for h in (0, 1, 2, 10, 1000, r - 1, r) if h <= r}
                   | {(170, 300000)})


class TestEventProbability:
    def test_certain_event(self):
        res = estimate_event_prob((1, 1), {1: 1.0}, eps=0.1, reps=500, seed=3)
        assert res.p_hat == 1.0
        assert res.hits == 500
        assert res.ci_high == 1.0

    def test_impossible_event(self):
        res = estimate_event_prob((1, 1), {1: 0.25}, eps=0.1, reps=500, seed=3)
        assert res.p_hat == 0.0
        assert res.ci_low == 0.0
        assert math.isinf(res.per_n_rate)

    def test_zero_reps_rejected(self):
        with pytest.raises(DomainError):
            estimate_event_prob((1, 1), {1: 1.0}, eps=0.1, reps=0, seed=3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"eps": math.nan}, "eps must be positive"),
        ({"eps": 0.0}, "eps must be positive"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"workers": -2}, "workers must be at least 1"),
        ({"chunk_size": 0}, "chunk_size must be at least 1"),
        ({"chunk_size": -64}, "chunk_size must be at least 1"),
    ])
    def test_bad_arguments_rejected(self, kwargs, message):
        args = {"eps": 0.1, "reps": 100, "seed": 3, **kwargs}
        with pytest.raises(DomainError, match=message):
            estimate_event_prob((1, 1), {1: 1.0}, **args)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected(self, weight):
        with pytest.raises(DomainError, match=f"weight {weight} at degree 3 is not finite"):
            estimate_event_prob((3,) * 12, {3: weight}, eps=0.1, reps=100, seed=1)

    def test_negative_q_rejected(self):
        # a plain-dict q is judged by the same rules as a SubProfile's weights
        with pytest.raises(DomainError, match="negative weight -0.05 at degree 3"):
            estimate_event_prob((3,) * 12, {3: -0.05}, eps=0.1, reps=100, seed=1)

    def test_non_integral_q_degree_rejected(self):
        # not truncated to a window on degree 3
        with pytest.raises(DomainError, match="degree 3.7 is not a positive integer"):
            estimate_event_prob((3,) * 12, {3.7: 0.5}, eps=0.1, reps=100, seed=1)

    def test_infinite_eps_hits_every_replication(self):
        res = estimate_event_prob((3,) * 12, {3: 0.5}, eps=math.inf, reps=300, seed=5)
        assert res.hits == res.reps and res.p_hat == 1.0

    def test_any_eps_above_one_is_the_whole_window_without_warning(self):
        # n (q_k + eps) overflowed at eps = 1e308 with two RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = [estimate_event_prob((3,) * 12, {3: 0.5}, eps=eps, reps=300, seed=5)
                   for eps in (2.0, 1e308, math.inf)]
            windows = [_event_windows({3: 12}, {3: 0.5}, eps) for eps in (2.0, 1e308, math.inf)]
        assert res[0] == res[1] == res[2]
        for lo, hi in windows:
            assert lo.tolist() == [0] and hi.tolist() == [12]

    def test_every_replication_hitting_has_rate_plus_zero(self, tmp_path):
        # the rate was -log(1)/n = -0.0, printed "-0" in the CSV
        from cmld.serialize import estimates_to_csv

        res = estimate_event_prob((3,) * 12, {3: 0.5}, eps=math.inf, reps=300, seed=5)
        assert res.per_n_rate == 0.0 and math.copysign(1.0, res.per_n_rate) == 1.0
        estimates_to_csv([res], tmp_path / "est.csv")
        assert (tmp_path / "est.csv").read_text().splitlines()[1].split(",")[-1] == "0"

    def test_pool_capped_at_shards_and_cores(self, monkeypatch, no_kept_pool):
        est = no_kept_pool
        started = []

        class Recording(est.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(est, "ProcessPoolExecutor", Recording)
        p = DegreeDistribution({3: 1.0})
        args = dict(q={3: 0.5}, eps=0.25, reps=3000, seed=12, n=12, chunk_size=1000)
        many = estimate_event_prob(p, workers=64, **args)
        cores = est._usable_cores()
        assert started == ([min(3, cores)] if cores > 1 else [])
        kept = est._pool[0] if est._pool else None  # the pool the call ran on
        assert kept == (min(3, cores) if cores > 1 else None)
        monkeypatch.setattr(est, "_usable_cores", lambda: 1)
        assert estimate_event_prob(p, workers=64, **args) == many
        assert len(started) == (cores > 1)  # one usable core starts no pool
        assert estimate_event_prob(p, workers=1, **args) == many

    @pytest.mark.parametrize("q, eps", [
        ({3: 0.53125}, 0.01),  # n q_3 lies in [8.34, 8.66], which holds no integer
        ({2: 0.5, 3: 0.5}, 0.25),  # degree 2 is absent from the graph and q_2 > eps
    ])
    def test_event_nothing_can_hit_starts_no_pool(self, monkeypatch, no_kept_pool, q, eps):
        est = no_kept_pool

        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError(f"pool of {max_workers} started")

        monkeypatch.setattr(est, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(est, "_usable_cores", lambda: 4)
        p = DegreeDistribution({3: 1.0})
        assert _event_windows(DegreeSequence.from_distribution(p, 16).counts(), q, eps) is None
        res = estimate_event_prob(p, q, eps, reps=10**6, seed=11, n=16, workers=4)
        assert res.hits == 0 and res.p_hat == 0.0
        assert (res.ci_low, res.ci_high) == clopper_pearson(0, 10**6)
        assert estimate_event_prob(p, q, eps, reps=10**6, seed=11, n=16, workers=1) == res

    def test_event_windows_are_clamped_integers(self):
        counts = {1: 4, 2: 2, 3: 4}
        lo, hi = _event_windows(counts, {1: 0.05, 2: 0.2, 3: 0.2}, 0.1)
        # n(q -/+ eps) = 10 (q -/+ 0.1): [-0.5, 1.5], then [1, 3.0000000000000004]
        # twice, the first clamped to the two vertices of degree 2
        assert lo.dtype == hi.dtype == np.int64
        assert lo.tolist() == [0, 1, 1] and hi.tolist() == [1, 2, 3]
        # an absent degree within eps of 0 is no obstacle; a SubProfile reads the same
        sub = SubProfile({3: 0.2}, DegreeDistribution({3: 0.5, 4: 0.5}))
        for q in (sub, {3: 0.2, 4: 0.05}):
            lo, hi = _event_windows(counts, q, 0.1)
            assert lo.tolist() == [0, 0, 1] and hi.tolist() == [1, 1, 3]
        assert _event_windows(counts, {3: 0.2, 4: 0.15}, 0.1) is None

    def test_sequence_length_must_match_n(self):
        seq = (1, 1, 3, 3)
        with pytest.raises(DomainError, match="4-vertex"):
            estimate_event_prob(seq, {3: 0.5}, eps=0.3, reps=10, seed=9, n=24)
        with pytest.raises(DomainError, match="4-vertex"):
            estimate_event_prob(DegreeSequence(seq), {3: 0.5}, eps=0.3, reps=10, seed=9, n=24)
        assert estimate_event_prob(seq, {3: 0.5}, eps=0.3, reps=10, seed=9, n=4).n == 4

    def test_worker_invariance(self):
        p = DegreeDistribution({3: 1.0})
        base = None
        for workers in (1, 4, 16):
            res = estimate_event_prob(p, {3: 0.5}, eps=0.25, reps=20000, seed=77,
                                      n=16, workers=workers, chunk_size=1024)
            if base is None:
                base = res
            else:
                assert res == base

    def test_chunking_invariance(self):
        p = DegreeDistribution({3: 1.0})
        a = estimate_event_prob(p, {3: 0.5}, eps=0.25, reps=5000, seed=8, n=12,
                                chunk_size=100)
        b = estimate_event_prob(p, {3: 0.5}, eps=0.25, reps=5000, seed=8, n=12,
                                chunk_size=4096)
        assert a == b

    def test_eps_monotonicity(self):
        p = DegreeDistribution({3: 1.0})
        prev = -1.0
        for eps in (0.05, 0.1, 0.2, 0.4):
            res = estimate_event_prob(p, {3: 0.5}, eps=eps, reps=4000, seed=55, n=12)
            assert res.p_hat >= prev
            prev = res.p_hat

    def test_matches_scalar_chain(self):
        d = DegreeSequence((1, 1, 1, 1, 2, 3, 3, 2, 1, 1, 3, 3))
        counts = d.counts()
        lo, hi = _event(d, {3: 2 / 12}, 0.5 / 12)
        vec = _batch_hits(counts, 0, 2000, 123, lo, hi)
        scalar = 0
        for r in range(2000):
            rec = eea_run(d, CounterRNG(123, r))
            for comp in rec.components:
                m = np.array([comp.degree_config.get(k, 0) for k in sorted(counts)])
                if np.all((m >= lo) & (m <= hi)):
                    scalar += 1
                    break
        assert vec == scalar

    def test_matches_scalar_chain_on_many_degrees(self):
        # seven degree columns, in the giant's LLN window and in the rarer
        # window "the whole graph is one component"
        p_mix = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}
        p = DegreeDistribution(p_mix)
        d = DegreeSequence.from_distribution(p, 100)
        ks = tuple(sorted(d.counts()))
        assert len(ks) == 7
        rho = survival_rho(p)
        giant = {k: v * (1.0 - rho ** k) for k, v in p_mix.items()}
        reps, seed = 300, 4242
        configs = [np.array([[c.degree_config.get(k, 0) for k in ks]
                             for c in eea_run(d, CounterRNG(seed, r)).components])
                   for r in range(reps)]
        for q, eps in ((giant, 3 / d.n), (p_mix, 0.5 / d.n)):
            lo, hi = _event(d, q, eps)
            scalar = sum(bool(np.any(np.all((m >= lo) & (m <= hi), axis=1)))
                         for m in configs)
            assert 0 < scalar < reps
            default = estimate_event_prob(d, q, eps, reps=reps, seed=seed)
            small = estimate_event_prob(d, q, eps, reps=reps, seed=seed, chunk_size=64)
            assert default.hits == small.hits == scalar

    def test_matches_scalar_chain_on_thirty_degrees(self):
        # thirty degree columns, one step apart, at int16 state: the wake
        # compare has 29 rows.  The window is a component of at most three
        # vertices of each degree and four leaves, about one replication in 50
        p30 = {k: 0.06 if k <= 10 else 0.03 if k <= 20 else 0.01 for k in range(1, 31)}
        d = DegreeSequence.from_distribution(DegreeDistribution(p30), 100)
        assert sorted(d.counts()) == list(range(1, 31))
        event = _event(d, {1: 0.01}, 0.03)
        reps, seed = 2000, 4242
        scalar, _ = _scalar_hits(d, seed, reps, event)
        assert 10 <= scalar < reps
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    def test_matches_scalar_chain_on_rare_regular(self):
        # criterion 6's shape: an 8-vertex component of a 16-vertex 3-regular
        # graph; a lane whose first component is small goes on to hit with a
        # later one, so its threshold must restart at each close
        d = DegreeSequence((3,) * 16)
        event = _event(d, {3: 0.5}, 1 / 16)
        reps, seed = 12000, 61
        scalar, _ = _scalar_hits(d, seed, reps, event)
        assert scalar >= 5
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    @pytest.mark.parametrize("leaves", [1, 41])
    def test_matches_scalar_chain_past_int8_buckets(self, leaves):
        # degrees 1..130 once each and leaves for parity: 130 columns, so
        # the bucket index no longer fits int8.  With one extra leaf every
        # lane is one component; with 41, two leaves sometimes pair off
        d = DegreeSequence((1,) * leaves + tuple(range(1, 131)))
        assert len(d.counts()) == 130
        reps, seed = 40, 130
        comps = [c for r in range(reps) for c in eea_run(d, CounterRNG(seed, r)).components]
        smallest = min(comps, key=lambda c: c.n_vertices)
        event = _event(d, {k: v / d.n for k, v in smallest.degree_config.items()}, 0.5 / d.n)
        scalar, _ = _scalar_hits(d, seed, reps, event)
        assert scalar == reps if leaves == 1 else 0 < scalar < reps
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    @pytest.mark.parametrize("degrees, q, eps", [
        ((3,) * 12, {3: 0.5}, 1 / 12),
        ((2,) * 9, {2: 1 / 3}, 0.5 / 9),
        ((4,) * 7, {4: 4 / 7}, 1.5 / 7),
        # the two leaves always pair off, and no component has one leaf: the
        # first step already leaves every lane below its need
        ((1, 1), {1: 0.5}, 0.1),
        ((1,) * 6 + (3,) * 6, {1: 2 / 12, 3: 2 / 12}, 0.5 / 12),
        ((2,) * 5 + (5,) * 4, {2: 0.2, 5: 0.2}, 1.5 / 9),
    ])
    def test_one_and_two_columns_match_scalar_chain(self, degrees, q, eps):
        d = DegreeSequence(degrees)
        event = _event(d, q, eps)
        reps, seed = 1500, 907
        scalar, _ = _scalar_hits(d, seed, reps, event)
        assert scalar < reps
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    def test_int64_state_when_masses_pass_int32(self):
        # 2^31 leaves: 2m + 1 does not fit int32.  Every component is one
        # edge, so the lane hits at its second step and the loop ends there;
        # no scalar chain of this size can run as the oracle
        assert _batch_hits({1: 2**31}, 0, 1, 5, [2], [2]) == 1

    @pytest.mark.parametrize("n", [42, 44])
    def test_matches_scalar_chain_at_int8_state_edge(self, n):
        # 2m + 1 is 127 at n = 42, the largest int8, and 133 at n = 44, so
        # the state is int8 and then int16.  The window is a 40- or
        # 42-vertex component: a lane whose first component is the small
        # one goes on to hit with the second
        d = DegreeSequence((3,) * n)
        event = _event(d, {3: (n - 2) / n}, 0.5 / n)
        reps, seed = 3000, 43
        scalar, _ = _scalar_hits(d, seed, reps, event)
        assert 0 < scalar < reps
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    @pytest.mark.parametrize("leaves", [32766, 32768])
    def test_state_at_int16_edge(self, leaves):
        # 2m + 1 is 32767, the largest int16, then 32769, which needs int32;
        # as with 2^31 leaves, the lane hits at its second step
        assert _batch_hits({1: leaves}, 0, 1, 5, [2], [2]) == 1

    def test_wide_shard_memory(self):
        # one full-width shard on seven columns at n = 100: 2m + 1 = 341
        # gives int16 state, and the draw reuses two buffers.  It peaks at
        # about 5.9 MiB; int32 state or int64 configurations at a close
        # would each add more than 1 MiB
        p_mix = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}
        d = DegreeSequence.from_distribution(DegreeDistribution(p_mix), 100)
        event = _event(d, p_mix, 0.5 / d.n)
        tracemalloc.start()
        try:
            _batch_hits(d.counts(), 0, 1 << 16, 4242, *event)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20

    def test_lane_with_several_hitting_components_counts_once(self):
        # a hit is a single edge between two leaves, so many lanes hit more
        # than once and must still count once
        d = DegreeSequence((1,) * 8 + (2,) * 8)
        event = _event(d, {1: 2 / 16}, 0.5 / 16)
        reps, seed = 2000, 17
        scalar, components = _scalar_hits(d, seed, reps, event)
        assert 0 < scalar < reps < components
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    def test_window_with_negative_and_integer_edges(self):
        # n(q_k -/+ eps) is [0, 2] for m_1 and [-1, 1] for m_2 (integer
        # edges, one negative) and [1.99.., 4] for m_3, so the windows are
        # [0, 2], [0, 1] and [2, 4] and a hit has half-edge mass 6 to 16;
        # lanes that sit exactly on the live test's edge go on to hit
        d = DegreeSequence((1, 1, 1, 1, 2, 2, 3, 3, 3, 3))
        event = _event(d, {1: 0.1, 3: 0.3}, 0.1)
        assert [w.tolist() for w in event] == [[0, 0, 2], [2, 1, 4]]
        reps, seed = 6000, 29
        scalar, _ = _scalar_hits(d, seed, reps, event)
        assert 0 < scalar < reps
        assert _batch_hits(d.counts(), 0, reps, seed, *event) == scalar

    def test_matches_scalar_chain_across_draw_blocks(self):
        # the scalar chain draws 256 uniforms per stretch of scalar steps; this
        # run ends inside its second stretch, leaving draws it never took
        d = DegreeSequence((1,) * 200 + (3,) * 200)
        seed, r = 2024, 3
        rng = CounterRNG(seed, r)
        rec = eea_run(d, rng)
        assert rec.n_steps > 64 + 256
        assert rng._ctr == rec.n_steps
        largest = max(rec.components, key=lambda c: c.n_vertices)
        q = {k: v / d.n for k, v in largest.degree_config.items()}
        event = _event(d, q, 0.5 / d.n)
        assert _batch_hits(d.counts(), r, r + 1, seed, *event) == 1
        # the stream continues where it would after n_steps single draws
        small = DegreeSequence((1, 1, 2, 3, 3, 4))
        again = eea_run(small, rng, record_trajectory=True)
        fresh_rng = CounterRNG(seed, r)
        fresh_rng.skip(rec.n_steps)
        fresh = eea_run(small, fresh_rng, record_trajectory=True)
        assert again.components == fresh.components
        every = np.arange(fresh.n_steps + 1)
        for x, y in zip(again.rows(every), fresh.rows(every)):  # A, V, components begun
            assert np.array_equal(x, y)
        assert rng._ctr == fresh_rng._ctr == rec.n_steps + fresh.n_steps

    def test_largest_uniform_stays_inside_last_bucket(self):
        # Neither chain has a fallback for a wake past the last bucket: with
        # the largest uniform, y = fl(fl(u * denom) - killw) stays below
        # s = denom - killw (s = 0 forces a kill), for every integer denom < 2^53.
        u_max = (2 ** 53 - 1) * (1.0 / 9007199254740992.0)
        assert u_max == np.nextafter(1.0, 0.0)
        for denom in range(1, 2001):
            killw = np.arange(denom + 1)
            y = u_max * np.float64(denom) - killw
            assert np.all(y < denom - killw), denom
        rng = np.random.default_rng(53)
        denom = rng.integers(1, 2 ** 50, size=200_000, endpoint=True)
        killw = rng.integers(0, denom, endpoint=True)
        y = u_max * denom.astype(np.float64) - killw
        assert np.all(y < denom - killw)
        for dn, kw in zip(denom[:2000].tolist(), killw[:2000].tolist()):
            assert u_max * dn - kw < dn - kw
        # the lockstep kernel's integer form: x = floor(fl(u * denom)), and
        # x - killw stays below s
        x = (u_max * denom.astype(np.float64)).astype(np.int64)
        assert np.all(x - killw < denom - killw)

    def test_integer_decisions_match_float_decisions(self):
        # The kernel decides a step from x = floor(fl(u * den)) instead of
        # y = fl(fl(u * den) - killw): it kills iff x < killw, and a wake
        # compares the integer masses with x - killw.  Both hold exactly for
        # integers 0 <= killw < den < 2^15, here on counter uniforms and on
        # the doubles next to killw / den and to each bucket edge.
        rng = np.random.default_rng(30)
        size = 1 << 16
        den = rng.integers(1, 2 ** 15, size=size)
        killw = rng.integers(0, den)
        edge = killw + rng.integers(0, den - killw)  # a bucket edge C + killw < den
        u = counter_uniforms(stream_keys(30, np.arange(size, dtype=np.uint64)), 0)
        near = [np.nextafter(e / den, t) for e in (killw, edge) for t in (0.0, 1.0)]
        us = np.concatenate([u, killw / den, edge / den, *near])
        den, killw, edge = (np.tile(a, len(us) // size) for a in (den, killw, edge))
        assert np.all((us >= 0.0) & (us < 1.0))
        y = us * den
        x = y.astype(np.int16)  # the kernel's cast; y < den fits int16
        assert np.array_equal(x, np.floor(y))
        assert np.array_equal(x < killw, y - killw < 0)
        wake = x >= killw
        assert 0 < np.count_nonzero(wake) < len(us)
        assert np.array_equal((x - killw)[wake], np.floor(y - killw)[wake])
        c = edge - killw  # C <= x - killw exactly when C <= y - killw
        assert np.array_equal((c <= x - killw)[wake], (c <= y - killw)[wake])

    def test_absent_degree_requires_small_q(self):
        # q puts mass on a degree not present in the graph: impossible unless q_k <= eps
        res = estimate_event_prob((3, 3, 3, 3), {2: 0.5}, eps=0.1, reps=100, seed=1)
        assert res.p_hat == 0.0

    def test_result_invariants(self):
        p = DegreeDistribution({3: 1.0})
        for eps in (0.05, 0.2, 0.5):
            res = estimate_event_prob(p, {3: 0.5}, eps=eps, reps=3000, seed=2, n=12)
            assert 0.0 <= res.ci_low <= res.p_hat <= res.ci_high <= 1.0
            assert res.hits <= res.reps

    def test_matches_independent_matching_sampler(self):
        # the lockstep engine's event probability agrees with a uniform-matching
        # sampler plus union-find components, sharing no code path
        from collections import Counter

        from cmld import sample_multigraph

        deg = (1, 1, 1, 2, 2, 3, 3, 3, 2, 1, 1, 2)
        d = DegreeSequence(deg)
        counts = d.counts()
        q = {3: 2 / 12, 2: 1 / 12}
        eps = 1.2 / 12
        lo, hi = _event(d, q, eps)
        reps = 30000
        p_engine = _batch_hits(counts, 0, reps, 5150, lo, hi) / reps

        def configs(edges):
            parent = list(range(d.n))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for u, v in edges.tolist():
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            groups = {}
            for i in range(d.n):
                groups.setdefault(find(i), []).append(deg[i])
            return [Counter(g) for g in groups.values()]

        ks = sorted(counts)
        hits = 0
        for s in range(reps):
            for cfg in configs(sample_multigraph(d, CounterRNG(999, s))):
                m = np.array([cfg.get(k, 0) for k in ks])
                if np.all((m >= lo) & (m <= hi)):
                    hits += 1
                    break
        p_match = hits / reps
        se = (math.sqrt(p_engine * (1 - p_engine) / reps)
              + math.sqrt(p_match * (1 - p_match) / reps))
        assert abs(p_engine - p_match) <= 4.0 * se


_KEPT_ARGS = dict(q={3: 0.5}, eps=0.25, reps=3000, seed=12, n=12, chunk_size=1000)


def _kept_run(workers: int):
    """A half-size component of a 3-regular graph at n = 12, in three shards."""
    return estimate_event_prob(DegreeDistribution({3: 1.0}), workers=workers, **_KEPT_ARGS)


def _estimate_in_child(conn) -> None:
    conn.send(_kept_run(2))
    conn.close()


def _logged_shard(log: Path, counts, rep_lo, rep_hi, seed, lo, hi) -> int:
    """A stand-in kernel: shard 0 fails at once, and every other shard
    sleeps 50 ms and then leaves a file named by its first replication."""
    if rep_lo == 0:
        raise RuntimeError("shard 0 fails")
    time.sleep(0.05)
    (log / str(rep_lo)).touch()
    return 0


class TestKeptPool:
    @pytest.fixture
    def est(self, monkeypatch, no_kept_pool):
        # pools of 2 and 3 processes on any machine, one core included
        monkeypatch.setattr(no_kept_pool, "_usable_cores", lambda: 4)
        return no_kept_pool

    def test_parallel_calls_reuse_the_workers(self, est):
        serial = _kept_run(1)
        assert _kept_run(2) == serial
        pool = est._pool[1]
        pids = set(pool._processes)
        assert len(pids) == 2
        assert _kept_run(2) == serial
        assert est._pool[1] is pool and set(pool._processes) == pids

    def test_kept_lane_buffers_give_the_serial_hits(self, est):
        # each worker keeps its lane buffers from shard to shard: estimates
        # run back to back on one pool, on one and on seven columns, with a
        # short last shard and with another seed, hit as they do in-process.
        # The first makes 1000-lane buffers, which the next one outgrows
        assert _kept_run(2) == _kept_run(1)
        p_mix = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}
        runs = [
            (DegreeDistribution({3: 1.0}), {3: 0.5}, 1 / 16, 3 * 2**16 + 5, 11, 16),
            (DegreeDistribution(p_mix), p_mix, 0.005, 2**16 + 5, 4242, 100),
            (DegreeDistribution({3: 1.0}), {3: 0.5}, 1 / 16, 3 * 2**16 + 5, 12, 16),
        ]
        serial = [estimate_event_prob(*run[:5], n=run[5], workers=1) for run in runs]
        pooled = [estimate_event_prob(*run[:5], n=run[5], workers=2) for run in runs]
        assert pooled == serial
        assert est._pool[0] == 2

    def test_in_process_estimate_keeps_no_lane_buffer(self, est):
        # an in-process call makes its three 512 KiB lane buffers once and
        # drops them when it returns
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = estimate_event_prob(DegreeDistribution({3: 1.0}), {3: 0.5}, 1 / 16,
                                      2 * 2**16, 11, n=16, workers=1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.hits > 0 and est._pool is None
        assert peak - base >= 3 * 2**19
        assert held - base < 2**19

    def test_two_threads_estimating_at_once_get_their_serial_hits(self, est):
        # each thread runs its shards on its own lane buffers: one column and
        # seven columns in process at the same time hit as each does alone
        p_mix = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}
        runs = [
            (DegreeDistribution({3: 1.0}), {3: 0.5}, 1 / 16, 2**18, 11, 16),
            (DegreeDistribution(p_mix), p_mix, 0.005, 2**17, 4242, 100),
        ]
        serial = [estimate_event_prob(*run[:5], n=run[5]) for run in runs]
        start = threading.Barrier(len(runs))

        def run_at_once(run):
            start.wait()
            return estimate_event_prob(*run[:5], n=run[5])

        with ThreadPoolExecutor(len(runs)) as threads:
            assert list(threads.map(run_at_once, runs)) == serial
        assert est._pool is None

    def test_failing_shard_cancels_the_shards_not_yet_started(self, est, monkeypatch,
                                                              tmp_path):
        # the stand-in kernel is in place before the pool's first fork.  Shard
        # 0 fails while the other worker sleeps on shard 1, so the workers may
        # finish the few shards already handed to them, but not the other 39
        monkeypatch.setattr(est, "_batch_hits", functools.partial(_logged_shard, tmp_path))
        with pytest.raises(RuntimeError, match="shard 0 fails"):
            estimate_event_prob(DegreeDistribution({3: 1.0}), {3: 0.5}, 0.25, reps=40 * 64,
                                seed=12, n=12, chunk_size=64, workers=2)
        assert est._pool[0] == 2
        with est._POOL_LOCK:
            est._drop_pool()  # joins the workers once their shards have ended
        assert len(list(tmp_path.iterdir())) < 20

    def test_new_size_joins_the_old_workers_first(self, est, monkeypatch):
        serial = _kept_run(1)
        assert _kept_run(2) == serial
        old = list(est._pool[1]._processes.values())
        exits = []

        class Recording(est.ProcessPoolExecutor):
            def __init__(self, max_workers):
                exits.append([w.exitcode for w in old])
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(est, "ProcessPoolExecutor", Recording)
        assert _kept_run(3) == serial
        assert exits == [[0, 0]]
        assert est._pool[0] == 3 and len(est._pool[1]._processes) == 3

    def test_killed_worker_is_replaced(self, est):
        serial = _kept_run(1)
        assert _kept_run(2) == serial
        pool = est._pool[1]
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
        assert _kept_run(2) == serial
        assert est._pool[1] is not pool and victim.pid not in est._pool[1]._processes
        assert _kept_run(2) == serial

    def test_forked_child_starts_its_own_pool(self, est):
        serial = _kept_run(1)
        assert _kept_run(2) == serial  # the parent now keeps a pool
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_estimate_in_child, args=(send,))
        assert not child.daemon  # a daemonic process may not start a pool
        child.start()
        send.close()
        try:
            assert recv.poll(60), "the child's estimate did not finish"
            got = recv.recv()
            child.join(timeout=60)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert got == serial
        assert _kept_run(2) == serial  # the parent's pool still works

    def test_child_forked_beside_a_held_lock_runs_its_own_pool(self):
        # the parent keeps a pool and another of its threads holds the pool
        # lock across an os.fork; the child must still run a parallel
        # estimate, which a lock held since the fork would block for good
        src = Path(cmld.__file__).resolve().parents[1]
        code = """if True:
            import os, signal, sys, threading, time
            import cmld.estimate as est
            from cmld import DegreeDistribution
            est._usable_cores = lambda: 4
            def run(workers):
                return est.estimate_event_prob(
                    DegreeDistribution({3: 1.0}), {3: 0.5}, 0.25, reps=3000, seed=12,
                    n=12, chunk_size=1000, workers=workers)
            serial = run(1)
            assert run(2) == serial
            held, release = threading.Event(), threading.Event()
            def hold():
                with est._POOL_LOCK:
                    held.set()
                    release.wait()
            holder = threading.Thread(target=hold)
            holder.start()
            held.wait()
            pid = os.fork()
            if pid == 0:
                sys.exit(0 if run(2) == serial else 3)
            release.set()
            holder.join()
            for _ in range(1200):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    sys.exit(os.waitstatus_to_exitcode(status))
                time.sleep(0.05)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            sys.exit("the forked child's estimate did not finish within 60 s")
            """
        proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True,
                                env={**os.environ, "PYTHONPATH": str(src)},
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
        assert proc.returncode == 0, err

    def test_no_process_outlives_the_interpreter(self):
        # a pool of 2 is joined when the size changes, the kept pool of 3 at exit
        src = Path(cmld.__file__).resolve().parents[1]
        code = ("import cmld.estimate as est; from cmld import DegreeDistribution; "
                "est._usable_cores = lambda: 4; "
                "r = [est.estimate_event_prob(DegreeDistribution({3: 1.0}), {3: 0.5}, 0.25, "
                "reps=3000, seed=12, n=12, chunk_size=1000, workers=w) for w in (1, 2, 3)]; "
                "assert r[0] == r[1] == r[2], r; assert est._pool[0] == 3")
        proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.wait(timeout=120) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestConfidenceIntervals:
    def test_exact_interval_bounds(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0 and 0.95 < lo < 1.0

    def test_coverage_meta_trial(self):
        # 95% interval covers the truth in >= 93% of 1000 synthetic trials
        rng = np.random.default_rng(2718)
        p_true = 0.3
        reps = 200
        covered = 0
        for _ in range(1000):
            hits = int(rng.binomial(reps, p_true))
            lo, hi = clopper_pearson(hits, reps)
            covered += lo <= p_true <= hi
        assert covered >= 930

    @pytest.mark.parametrize("hits, reps", [(-1, 10), (11, 10), (0, 0), (1, 0), (0, -5)])
    def test_invalid_counts_rejected(self, hits, reps):
        with pytest.raises(DomainError, match="0 <= hits <= reps"):
            clopper_pearson(hits, reps)

    @pytest.mark.parametrize("hits, reps", _CP_CASES)
    def test_matches_scipy_and_exact_quantiles(self, hits, reps, exact_rel_err):
        # Both bounds lie within 1e-12 relative of the exact binomial
        # quantile, and of scipy.stats.beta.ppf wherever scipy is itself
        # within 1e-12 of it.  scipy 1.17.1 is not on a few upper bounds
        # with hits <= 10 and reps >= 2^19 (by up to 9e-9 at reps = 1e9),
        # nor on the lower bound at hits = 1000, reps = 1e9, where it
        # returns 1.9e-6 for 9.4e-7.
        from scipy.stats import beta

        lo, hi = clopper_pearson(hits, reps)
        bounds = []
        if hits > 0:
            bounds.append((lo, float(beta.ppf(0.025, hits, reps - hits + 1)), hits, 0.025))
        if hits < reps:
            bounds.append((hi, float(beta.ppf(0.975, hits + 1, reps - hits)), hits + 1, 0.975))
        for ours, ref, k, level in bounds:
            assert abs(exact_rel_err(ours, k, reps, level)) <= 1e-12
            if abs(ours - ref) > 1e-12 * ref:
                assert abs(exact_rel_err(ref, k, reps, level)) > 1e-12


class TestRateFit:
    def _synthetic(self, c, b, ns):
        out = []
        for n in ns:
            p = math.exp(-c * n + b)
            out.append(EstimateResult(p_hat=p, ci_low=p, ci_high=p, reps=10,
                                      hits=1, n=n, seed=0, per_n_rate=-math.log(p) / n))
        return out

    def test_exact_exponential(self):
        slope, intercept = rate_fit(self._synthetic(0.35, 0.0, [10, 20, 30, 40]))
        assert slope == pytest.approx(0.35, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-10)

    def test_exact_with_prefactor(self):
        slope, intercept = rate_fit(self._synthetic(0.2, 1.5, [8, 16, 24]))
        assert slope == pytest.approx(0.2, abs=1e-12)
        assert intercept == pytest.approx(-1.5, abs=1e-10)

    def test_zero_hits_excluded_with_warning(self):
        results = self._synthetic(0.3, 0.0, [10, 20, 30, 40])
        dead = EstimateResult(p_hat=0.0, ci_low=0.0, ci_high=0.1, reps=10, hits=0,
                              n=50, seed=0, per_n_rate=math.inf)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            slope, _ = rate_fit(results + [dead])
        assert any("no hits" in str(w.message) for w in caught)
        assert slope == pytest.approx(0.3, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            rate_fit(self._synthetic(0.3, 0.0, [10, 20]))

    def test_too_few_distinct_sizes(self):
        for ns in ([12, 12, 12], [10, 20, 20, 10]):
            with pytest.raises(FitError, match="distinct sizes"):
                rate_fit(self._synthetic(0.3, 0.0, ns))
        slope, _ = rate_fit(self._synthetic(0.3, 0.0, [10, 20, 20, 30]))
        assert slope == pytest.approx(0.3, abs=1e-12)


class TestLLNCheck:
    def test_pure_three_regular(self):
        p = DegreeDistribution({3: 1.0})
        largest, sup = lln_check(p, 10000, seed=11)
        assert largest > 0.98
        assert sup <= 0.05

    def test_subcritical_leaves(self):
        p = DegreeDistribution({1: 1.0})
        largest, sup = lln_check(p, 2000, seed=4)
        assert largest == pytest.approx(2.0 / 2000.0, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            lln_check(DegreeDistribution({3: 1.0}), 100, seed=0)
