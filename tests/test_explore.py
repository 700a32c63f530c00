import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import cmld.explore
from cmld import (
    CounterRNG,
    DegreeDistribution,
    DegreeSequence,
    DomainError,
    ParityError,
    StateError,
    eea_run,
    empirical_path,
    extract_components,
    sample_multigraph,
)
from cmld.explore import ComponentRecord

P_MIX = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}


def _every_row(rec):
    """A, V and components begun at every step index, 0 to n_steps."""
    return rec.rows(np.arange(rec.n_steps + 1))


class TestDegreeSequence:
    def test_odd_total_rejected(self):
        with pytest.raises(ParityError):
            DegreeSequence((1, 1, 1))

    def test_zero_degree_rejected(self):
        with pytest.raises(DomainError):
            DegreeSequence((0, 2))

    @pytest.mark.parametrize("degrees", [(2.5, 2.5), (2, float("nan")), (2, "2")])
    def test_non_integral_degree_rejected(self, degrees):
        # 2.5 was truncated to 2
        with pytest.raises(DomainError, match="integer"):
            DegreeSequence(degrees)

    def test_integral_values_stored_as_int(self):
        for values in ((2.0, np.int64(2)), (2, np.int64(2))):
            degs = DegreeSequence(values).degrees
            assert degs == (2, 2) and all(type(d) is int for d in degs)

    def test_from_distribution_counts(self):
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        d = DegreeSequence.from_distribution(p, 100)
        assert d.counts() == {1: 50, 3: 50}
        assert d.parity_fix is None

    def test_counts_sorted_by_degree(self):
        rng = np.random.default_rng(5)
        degs = [int(k) for k in rng.integers(1, 12, size=2001)]
        degs.append(2 - sum(degs) % 2)
        reference: dict[int, int] = {}
        for k in degs:
            reference[k] = reference.get(k, 0) + 1
        counts = DegreeSequence(tuple(degs)).counts()
        assert type(counts) is dict
        assert list(counts.items()) == sorted(reference.items())

    def test_counts_are_a_fresh_copy(self):
        d = DegreeSequence((1, 1, 3, 3))
        counts = d.counts()
        counts[1] = 99
        del counts[3]
        assert d.counts() == {1: 2, 3: 2}

    def test_parity_fix_reported(self):
        p = DegreeDistribution({3: 1.0})
        d = DegreeSequence.from_distribution(p, 101)
        assert sum(d.degrees) % 2 == 0
        assert d.parity_fix == {"degree": 3, "removed": 1}
        assert d.n == 100


class TestMatching:
    def test_self_loop_forced(self):
        edges = sample_multigraph(DegreeSequence((2,)), CounterRNG(1, 0))
        assert edges.tolist() == [[0, 0]]

    def test_single_edge_forced(self):
        edges = sample_multigraph(DegreeSequence((1, 1)), CounterRNG(1, 0))
        assert sorted(edges[0]) == [0, 1]

    def test_uniform_over_three_matchings(self):
        # d = (1,1,1,1): each of the (2m-1)!! = 3 matchings has probability 1/3
        from scipy.stats import chisquare

        d = DegreeSequence((1, 1, 1, 1))
        counts = Counter()
        for s in range(30000):
            edges = sample_multigraph(d, CounterRNG(424242, s))
            counts[tuple(sorted(tuple(sorted(e)) for e in edges.tolist()))] += 1
        assert len(counts) == 3
        stat = chisquare(list(counts.values()))
        assert stat.pvalue > 0.001

    @staticmethod
    def _loop_shuffle(seed, stream, items):
        # the reference: Fisher-Yates one swap at a time, one randrange per step
        rng = CounterRNG(seed, stream)
        ref = list(items)
        for i in range(len(ref) - 1, 0, -1):
            j = rng.randrange(i + 1)
            ref[i], ref[j] = ref[j], ref[i]
        return ref, rng._ctr

    def test_shuffle_matches_randrange_loop(self):
        # the shuffle draws and indexes 2^16 entries at a time: 65537 entries
        # fill one draw chunk, and the longer lengths end one short of, on and
        # one past the second chunk's end, and one past the third's
        for length in (0, 1, 2, 3, 7, 64, 1000, 65537, 131071, 131072, 131073, 196609):
            for seed in (3, 2024):
                ref, ref_ctr = self._loop_shuffle(seed, 5, range(length))
                rng = CounterRNG(seed, 5)
                arr = np.arange(length, dtype=np.int64)
                rng.shuffle(arr)
                assert arr.tolist() == ref
                assert rng._ctr == ref_ctr == max(length - 1, 0)
        values = np.random.default_rng(8).standard_normal(501)
        ref, _ = self._loop_shuffle(17, 2, values.tolist())
        arr = values.copy()
        CounterRNG(17, 2).shuffle(arr)
        assert arr.dtype == np.float64 and arr.tolist() == ref

    def test_multigraph_pairs_the_reference_shuffle(self):
        # at n = 40000 there are about 1.4e5 half-edges: three draw chunks
        p = DegreeDistribution(P_MIX)
        for n in (2000, 40000):
            d = DegreeSequence.from_distribution(p, n)
            half = np.repeat(np.arange(d.n), d.degrees).tolist()
            for seed in (1, 9):
                ref, ref_ctr = self._loop_shuffle(seed, 1, half)
                rng = CounterRNG(seed, 1)
                edges = sample_multigraph(d, rng)
                assert edges.shape == (d.m, 2) and edges.dtype == np.int64
                assert edges.tolist() == [ref[k:k + 2] for k in range(0, 2 * d.m, 2)]
                assert rng._ctr == ref_ctr == 2 * d.m - 1

    def test_multigraph_working_set(self):
        # the shuffle's keys, sources and second buffer, then the sources, the
        # int32 vertex map and the int64 result: 16 bytes per half-edge each,
        # beside 2^16-entry chunks
        d = DegreeSequence.from_distribution(DegreeDistribution(P_MIX), 100_000)
        tracemalloc.start()
        try:
            sample_multigraph(d, CounterRNG(7, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2 * d.m

    def test_shuffle_longer_than_2_31_rejected(self):
        # j 2^32 + i keys and int32 indices are exact up to 2^31 entries; the
        # check reads the length alone, so a zero-stride view of 2^31 + 1
        # entries, which holds one byte, stands for the array
        rng = CounterRNG(3, 0)
        with pytest.raises(DomainError, match="2\\^31"):
            rng._fy_sources(2**31 + 1)
        with pytest.raises(DomainError, match="2\\^31"):
            rng.shuffle(np.broadcast_to(np.int8(0), (2**31 + 1,)))
        assert rng._ctr == 0


class TestExplorationRuns:
    def test_two_leaves_hand_trace(self):
        rec = eea_run(DegreeSequence((1, 1)), CounterRNG(0, 0), record_trajectory=True)
        assert rec.n_steps == 2
        assert _every_row(rec)[0].tolist() == [0, 1, 0]
        assert len(rec.components) == 1
        comp = rec.components[0]
        assert comp.degree_config == {1: 2}
        assert comp.n_vertices == 2 and comp.n_edges == 1

    def test_self_loop_hand_trace(self):
        rec = eea_run(DegreeSequence((2,)), CounterRNG(0, 0), record_trajectory=True)
        assert rec.n_steps == 2
        assert _every_row(rec)[0].tolist() == [0, 2, 0]
        assert rec.components[0].n_vertices == 1
        assert rec.components[0].n_edges == 1


class TestComponents:
    def test_four_leaves_two_components(self):
        for s in range(30):
            rec = eea_run(DegreeSequence((1, 1, 1, 1)), CounterRNG(13, s))
            _, n_comp, _ = extract_components(rec)
            assert n_comp == 2

    def test_single_component_fraction(self):
        rec = eea_run(DegreeSequence((1, 1)), CounterRNG(0, 0))
        largest, n_comp, comps = extract_components(rec)
        assert largest == 1.0 and n_comp == 1

    def test_counts_consistent(self):
        rec = eea_run(DegreeSequence((1, 1, 2, 3, 3)), CounterRNG(5, 3), record_trajectory=True)
        _, n_comp, _ = extract_components(rec)
        A, _, starts = _every_row(rec)
        assert n_comp == starts[-1] == np.count_nonzero(A[:-1] == 0)
        assert sum(c.n_edges + 1 for c in rec.components) == rec.n_steps


class TestEmpiricalPath:
    def test_initial_condition(self):
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        d = DegreeSequence.from_distribution(p, 1000)
        rec = eea_run(d, CounterRNG(3, 0), record_trajectory=True)
        fp = empirical_path(rec, d.n, np.linspace(0.0, 1.5, 101))
        assert fp.zeta(1)[0] == pytest.approx(0.5, abs=1e-12)
        assert fp.zeta(3)[0] == pytest.approx(0.5, abs=1e-12)
        assert fp.zeta(0)[0] == 0.0

    def test_absorbing_beyond_termination(self):
        rec = eea_run(DegreeSequence((1, 1)), CounterRNG(0, 0), record_trajectory=True)
        fp = empirical_path(rec, 2, np.array([0.0, 5.0]))
        assert fp.zeta(0)[-1] == 0.0
        assert fp.zeta(1)[-1] == 0.0

    def test_another_n_is_a_domain_error(self):
        # 3n once read zeta_1(0) as 1/6 instead of 1/2: the path was rescaled
        d = DegreeSequence.from_distribution(DegreeDistribution({1: 0.5, 3: 0.5}), 1000)
        rec = eea_run(d, CounterRNG(3, 0), record_trajectory=True)
        for n in (3 * d.n, d.n - 1):
            with pytest.raises(DomainError, match=f"n = {n} is not the run's {d.n} vertices"):
                empirical_path(rec, n, np.linspace(0.0, 1.5, 101))

    def test_requires_trajectory(self):
        rec = eea_run(DegreeSequence((1, 1)), CounterRNG(0, 0))
        with pytest.raises(StateError):
            empirical_path(rec, 2, np.array([0.0, 1.0]))
        with pytest.raises(StateError):
            rec.rows(np.array([0]))

    def test_reflection_identity_at_fluid_scale(self):
        # the reflected driver reproduces the active density up to O(1/n)
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        d = DegreeSequence.from_distribution(p, 10000)
        rec = eea_run(d, CounterRNG(42, 0), record_trajectory=True)
        fp = empirical_path(rec, d.n, np.linspace(0.0, rec.n_steps / d.n, 301))
        fp.check_invariants(tol=0.02)

    def test_recorded_run_memory_stays_near_unrecorded(self):
        # the woken degrees are the only per-step array a recorded run keeps,
        # and reading 401 rows from them never holds a row for every step
        d = DegreeSequence.from_distribution(DegreeDistribution(P_MIX), 100_000)

        def peak(record: bool) -> int:
            tracemalloc.start()
            try:
                rec = eea_run(d, CounterRNG(7, 0), record_trajectory=record)
                if record:
                    empirical_path(rec, d.n, np.linspace(0.0, rec.n_steps / d.n, 401))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(True) - peak(False) <= 1 << 20


def _reference_chain(d: DegreeSequence, rng: CounterRNG):
    """The chain one ``rng.uniform()`` per step: its components, A after each
    step and the degree woken at each step (0 for a kill)."""
    kv = d.counts()
    degs = tuple(kv)
    s = sum(k * c for k, c in kv.items())
    a = 0
    steps_A, woke, components, config, start = [0], [], [], {}, 0
    while True:
        killw = a - 1 if a > 1 else 0
        if s + killw == 0:
            return components, steps_A, woke
        x = rng.uniform() * (s + killw)
        if x < killw:
            a -= 2
            woken = 0
        else:
            y, cum = x - killw, 0
            for woken in degs:
                cum += woken * kv[woken]
                if y < cum:
                    break
            kv[woken] -= 1
            s -= woken
            a = a + woken - 2 if a > 0 else woken
            config[woken] = config.get(woken, 0) + 1
        steps_A.append(a)
        woke.append(woken)
        if a == 0:
            components.append(ComponentRecord(dict(sorted(config.items())),
                                              sum(config.values()), len(woke) - start - 1))
            config, start = {}, len(woke)


def _same_run(a, b) -> None:
    assert a.components == b.components and a.n_steps == b.n_steps
    x, y = a.woke, b.woke
    assert (x is None and y is None) or (
        x.dtype == y.dtype == np.min_scalar_type(a.degrees[-1]) and np.array_equal(x, y))


def _random_sequences(count: int, seed: int, wide: int = 0):
    """``count`` sequences of 1 to 7 degree columns below 13, then ``wide``
    of 30 to 40 columns below 61 that each use every column."""
    g = np.random.default_rng(seed)
    for i in range(count + wide):
        if i < count:
            ks = np.sort(g.choice(np.arange(1, 13), size=int(g.integers(1, 8)), replace=False))
            degs = g.choice(ks, size=int(g.integers(2, 3000))).tolist()
        else:
            ks = np.sort(g.choice(np.arange(1, 61), size=int(g.integers(30, 41)), replace=False))
            degs = ks.tolist() + g.choice(ks, size=int(g.integers(4000, 12000))).tolist()
        if sum(degs) % 2:
            degs.append(1)
        yield DegreeSequence(tuple(degs))


class TestBlockSteps:
    """eea_run decides steps in vector blocks while A is large; every run is
    the scalar chain's bit for bit."""

    SCALAR = {"_MIN_BLOCK": 1 << 62}  # no block is ever large enough
    EAGER = {"_MIN_BLOCK": 1, "_MIN_COMMIT": 1, "_S_RATIO": 0}  # a block wherever A >= 2
    # every block whose first round does not commit it whole stops there and
    # hands a stretch to scalar steps
    SHORT = {"_MIN_BLOCK": 1, "_S_RATIO": 0, "_MIN_COMMIT": 1 << 30}

    @staticmethod
    def _run(monkeypatch, gates, d, seed, stream, skip=0, record=True):
        with monkeypatch.context() as mp:
            for name, value in gates.items():
                mp.setattr(cmld.explore, name, value)
            rng = CounterRNG(seed, stream)
            rng.skip(skip)
            rec = eea_run(d, rng, record_trajectory=record)
        return rec, rng._ctr

    def test_blocks_match_scalar_steps_on_many_degrees(self, monkeypatch):
        d = DegreeSequence.from_distribution(DegreeDistribution(P_MIX), 20000)
        for seed in (1, 2):
            for record in (True, False):
                block, ctr = self._run(monkeypatch, {}, d, seed, 0, record=record)
                scalar, scalar_ctr = self._run(monkeypatch, self.SCALAR, d, seed, 0, record=record)
                _same_run(block, scalar)
                assert ctr == scalar_ctr == block.n_steps

    def test_blocks_match_scalar_steps_on_random_sequences(self, monkeypatch):
        for i, d in enumerate(_random_sequences(50, 99, wide=4)):
            skip = 1000 * i
            scalar, ctr = self._run(monkeypatch, self.SCALAR, d, 5, i, skip)
            for gates in ({}, self.EAGER, self.SHORT):
                block, block_ctr = self._run(monkeypatch, gates, d, 5, i, skip)
                _same_run(block, scalar)
                assert block_ctr == ctr == skip + scalar.n_steps

    def test_block_of_kills_closes_at_zero(self, monkeypatch):
        # one vertex of degree 1000: after its wake s = 0, so every later step
        # kills, and past the run's first 256 scalar steps one block of 245
        # kills takes A from 490 to 0 and ends the run
        d = DegreeSequence((1000,))
        closed = []
        block = cmld.explore._Chain.block

        def spy(chain, u):
            done = block(chain, u)
            if chain.a == 0:
                closed.append((len(u), done, chain.done))
            return done

        monkeypatch.setattr(cmld.explore._Chain, "block", spy)
        rec, ctr = self._run(monkeypatch, self.EAGER, d, 3, 0)
        assert closed == [(245, 245, True)]
        scalar, scalar_ctr = self._run(monkeypatch, self.SCALAR, d, 3, 0)
        _same_run(rec, scalar)
        assert rec.components == [ComponentRecord({1000: 1}, 1, 500)] and ctr == scalar_ctr == 501
        # on a 2-regular graph a block from A = 2 is one step; a kill there
        # closes a cycle while other vertices still sleep
        closed.clear()
        d = DegreeSequence((2,) * 600)
        rec, _ = self._run(monkeypatch, self.EAGER, d, 4, 0)
        assert (1, 1, False) in closed and len(rec.components) == 2
        scalar, _ = self._run(monkeypatch, self.SCALAR, d, 4, 0)
        _same_run(rec, scalar)

    def test_one_column_caps_its_blocks(self, monkeypatch):
        # _CELLS // D alone would let one column take blocks of 2^17 steps
        d = DegreeSequence((3,) * 500_000)
        sizes = []
        block = cmld.explore._Chain.block

        def spy(chain, u):
            sizes.append(len(u))
            return block(chain, u)

        monkeypatch.setattr(cmld.explore._Chain, "block", spy)
        rec, ctr = self._run(monkeypatch, {}, d, 7, 0)
        assert max(sizes) == 1 << 16
        scalar, scalar_ctr = self._run(monkeypatch, self.SCALAR, d, 7, 0)
        _same_run(rec, scalar)
        assert ctr == scalar_ctr == rec.n_steps

    def test_matches_one_draw_per_step_across_the_draw_block_seam(self):
        # 68 606 steps from a counter just below 2^16, in blocks and scalar
        # stretches that each draw where they step: every step reads the
        # draw of its own counter, below, at and past 2^16
        d = DegreeSequence.from_distribution(DegreeDistribution(P_MIX), 40000)
        rng = CounterRNG(11, 3)
        rng.skip((1 << 16) - 3)
        rec = eea_run(d, rng, record_trajectory=True)
        ref_rng = CounterRNG(11, 3)
        ref_rng.skip((1 << 16) - 3)
        components, steps_A, woke = _reference_chain(d, ref_rng)
        assert rec.n_steps > 64 + (1 << 16)
        assert rec.components == components
        assert rec.woke.dtype == np.uint8 and rec.woke.tolist() == woke
        every = _every_row(rec)
        A, V, starts = every
        assert A.tolist() == steps_A
        fresh = [t for t in range(len(woke)) if steps_A[t] == 0]
        assert starts.tolist() == np.searchsorted(fresh, np.arange(rec.n_steps + 1)).tolist()
        drop = V[:-1] - V[1:]
        assert (drop @ np.array(rec.degrees)).tolist() == woke
        assert rng._ctr == ref_rng._ctr
        # rows at unsorted and repeated indices, both ends among them, are
        # the same rows read all at once
        idx = np.random.default_rng(0).integers(0, rec.n_steps + 1, size=500)
        idx = np.concatenate([[rec.n_steps, 0, 40000], idx, [0, 40000, rec.n_steps]])
        some = rec.rows(idx)
        for got, full in zip(some, every):
            assert got.dtype == np.int64 and np.array_equal(got, full[idx])
        assert some[0].tolist() == [steps_A[i] for i in idx]
        for outside in (-1, rec.n_steps + 1):
            with pytest.raises(DomainError):
                rec.rows(np.array([0, outside]))

    def test_many_degree_run_is_pinned(self):
        # sha256 of the outputs of the one-step-at-a-time chain that
        # preceded the blocks, on the benchmark's seven degree columns
        d = DegreeSequence.from_distribution(DegreeDistribution(P_MIX), 100_000)
        rng = CounterRNG(7, 0)
        rec = eea_run(d, rng, record_trajectory=True)
        A, V, starts = _every_row(rec)
        assert rec.n_steps == rng._ctr == 171441 and V.shape == (171442, 7)
        spans = np.array([c.n_edges + 1 for c in rec.components])
        new_component_at = np.cumsum(spans) - spans
        assert np.array_equal(starts, np.searchsorted(new_component_at, np.arange(171442)))

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        assert sha(A.astype("<i8").tobytes()) == (
            "94ff6849e37d0b4ff8bbe4e80a9aa096d3c1315679632d9b847e85ee7a8339fe")
        assert sha(V.astype("<i8").tobytes()) == (
            "3b02e73ec0c81a812e6581453f6d0935512b9447bafbad88d14eb829e61d73d2")
        assert sha(new_component_at.astype("<i8").tobytes()) == (
            "609276bc62a1fc84f51c15f57b9d6d7416d08924b140f8f330841dfd681d2f56")
        components = [(c.degree_config, c.n_vertices, c.n_edges) for c in rec.components]
        assert sha(repr(components).encode()) == (
            "c3d50a45eb7d9a679e5ec7165c44d89cee5602a6083e7389b7d8bc89c2560d17")
