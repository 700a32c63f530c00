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
from cmld.verify import _check_conservation


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
        degs = DegreeSequence((2.0, np.int64(2))).degrees
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
        for length in (0, 1, 2, 3, 7, 64, 1000, 65537):
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
        p = DegreeDistribution({1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05})
        d = DegreeSequence.from_distribution(p, 2000)
        half = np.repeat(np.arange(d.n), d.degrees).tolist()
        for seed in (1, 9):
            ref, ref_ctr = self._loop_shuffle(seed, 1, half)
            rng = CounterRNG(seed, 1)
            edges = sample_multigraph(d, rng)
            assert edges.shape == (d.m, 2) and edges.dtype == np.int64
            assert edges.tolist() == [ref[k:k + 2] for k in range(0, 2 * d.m, 2)]
            assert rng._ctr == ref_ctr == 2 * d.m - 1


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
        # step bound, one wake or one kill per step, the woken degree moving
        # A and living-mass monotonicity over 100 random sequences; eea_run
        # itself raises if its components miss the degree histogram
        check = _check_conservation(fast=True)
        assert check.passed, check.detail


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
