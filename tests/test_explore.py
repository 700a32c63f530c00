from collections import Counter

import numpy as np
import pytest

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


class TestDegreeSequence:
    def test_odd_total_rejected(self):
        with pytest.raises(ParityError):
            DegreeSequence((1, 1, 1))

    def test_zero_degree_rejected(self):
        with pytest.raises(DomainError):
            DegreeSequence((0, 2))

    def test_from_distribution_counts(self):
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        d = DegreeSequence.from_distribution(p, 100)
        assert d.counts() == {1: 50, 3: 50}
        assert d.parity_fix is None

    def test_parity_fix_reported(self):
        p = DegreeDistribution({3: 1.0})
        d = DegreeSequence.from_distribution(p, 101)
        assert sum(d.degrees) % 2 == 0
        assert d.parity_fix == {"degree": 3, "removed": 1}
        assert d.n == 100


class TestMatching:
    def test_self_loop_forced(self):
        edges = sample_multigraph(DegreeSequence((2,)), CounterRNG(1, 0))
        assert edges == [(0, 0)]

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
            counts[tuple(sorted(tuple(sorted(e)) for e in edges))] += 1
        assert len(counts) == 3
        stat = chisquare(list(counts.values()))
        assert stat.pvalue > 0.001

    def test_shuffle_matches_randrange_loop(self):
        for length in (0, 1, 2, 7, 1000):
            for seed in (3, 2024):
                ref_rng = CounterRNG(seed, 5)
                ref = list(range(length))
                for i in range(length - 1, 0, -1):
                    j = ref_rng.randrange(i + 1)
                    ref[i], ref[j] = ref[j], ref[i]
                rng = CounterRNG(seed, 5)
                arr = np.arange(length, dtype=np.int64)
                rng.shuffle(arr)
                assert arr.tolist() == ref
                assert rng._ctr == ref_rng._ctr == max(length - 1, 0)


class TestExplorationRuns:
    def test_two_leaves_hand_trace(self):
        rec = eea_run(DegreeSequence((1, 1)), CounterRNG(0, 0), record_trajectory=True)
        assert rec.n_steps == 2
        assert list(rec.steps_A) == [0, 1, 0]
        assert len(rec.components) == 1
        comp = rec.components[0]
        assert comp.degree_config == {1: 2}
        assert comp.n_vertices == 2 and comp.n_edges == 1

    def test_self_loop_hand_trace(self):
        rec = eea_run(DegreeSequence((2,)), CounterRNG(0, 0), record_trajectory=True)
        assert rec.n_steps == 2
        assert list(rec.steps_A) == [0, 2, 0]
        assert rec.components[0].n_vertices == 1
        assert rec.components[0].n_edges == 1

    def test_conservation_randomized(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            n = int(rng.integers(2, 30))
            degs = rng.integers(1, 6, size=n)
            if degs.sum() % 2 == 1:
                degs[0] += 1
            d = DegreeSequence(tuple(int(x) for x in degs))
            rec = eea_run(d, CounterRNG(7, i), record_trajectory=True)
            # step bound
            assert rec.n_steps <= d.m + d.n
            A, V = rec.steps_A, rec.steps_V
            ks = np.array(rec.degrees)
            # every step wakes exactly one vertex or kills exactly two half-edges
            wakes = (V[:-1] - V[1:]).sum(axis=1)
            dA = A[1:] - A[:-1]
            assert np.all((wakes == 1) | ((wakes == 0) & (dA == -2)))
            # living-mass monotonicity
            r = np.where(A > 0, A - 1, 0) + V @ ks
            assert np.all(np.diff(r) <= 0)
            # components recover the degree histogram
            total = Counter()
            for c in rec.components:
                total.update(c.degree_config)
            assert dict(total) == d.counts()
            assert sum(c.n_edges for c in rec.components) == d.m


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
        assert n_comp == len(rec.new_component_at)
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

    def test_requires_trajectory(self):
        rec = eea_run(DegreeSequence((1, 1)), CounterRNG(0, 0))
        with pytest.raises(StateError):
            empirical_path(rec, 2, np.array([0.0, 1.0]))

    def test_reflection_identity_at_fluid_scale(self):
        # the reflected driver reproduces the active density up to O(1/n)
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        d = DegreeSequence.from_distribution(p, 10000)
        rec = eea_run(d, CounterRNG(42, 0), record_trajectory=True)
        fp = empirical_path(rec, d.n, np.linspace(0.0, rec.n_steps / d.n, 301))
        fp.check_invariants(tol=0.02)
