import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmld
from cmld import (
    BOUND_LOWER_ONLY,
    BOUND_TWO_SIDED,
    DegreeDistribution,
    DomainError,
    FeasibilityError,
    SubProfile,
    K_of_q,
    beta_of_q,
    entropy_H,
    rate_component_degree,
    rate_component_size,
    rate_conjectured_largest,
    rate_conjectured_multi,
    rate_d_regular,
    rate_d_regular_subgraph,
)

# frozen from a 50-digit evaluation of the defining series at the exact roots
K_EXPECTED = 0.006066873509048356
I1_MIXED_EXPECTED = 0.11250700879527151
DREG_SUB_EXPECTED = 0.56269112819842929
HALF_LOG2 = 0.5 * math.log(2.0)

P13 = DegreeDistribution({1: 0.5, 3: 0.5})
Q13 = SubProfile({1: 0.1, 3: 0.3}, P13)


class TestEntropy:
    def test_degree_two_mass_vanishes(self):
        for c in (0.1, 0.5, 1.0):
            assert entropy_H({2: c}) == pytest.approx(0.0, abs=1e-15)

    def test_direct_series_mixed(self):
        assert entropy_H(P13) == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_direct_series_three_regular(self):
        assert entropy_H({3: 1.0}) == pytest.approx(-1.5 * math.log(1.5), abs=1e-14)

    def test_empty(self):
        assert entropy_H({}) == 0.0


class TestBetaRoot:
    def test_zero_when_no_degree_one(self):
        assert beta_of_q(SubProfile({3: 0.5}, DegreeDistribution({3: 1.0}))) == 0.0

    def test_exact_quadratic_13(self):
        assert beta_of_q(Q13) == pytest.approx(4.0 - math.sqrt(15.0), abs=1e-12)

    def test_exact_quadratic_14(self):
        q = SubProfile({1: 0.2, 4: 0.2}, DegreeDistribution({1: 0.4, 4: 0.6}))
        assert beta_of_q(q) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(FeasibilityError):
            beta_of_q({1: 0.5, 2: 0.1})

    def test_root_residual(self):
        # |F(beta)| <= 1e-10 for feasible profiles with q_1 > 0
        rng = np.random.default_rng(5)
        for _ in range(200):
            q1 = rng.uniform(0.01, 0.3)
            k = int(rng.integers(3, 9))
            qk = rng.uniform(q1 / (k - 2) + 0.01, 0.6)
            q = {1: q1, k: qk}
            beta = beta_of_q(q)
            resid = k * qk * (beta - beta ** (k - 1)) / (1 - beta ** k) - q1
            assert abs(resid) <= 1e-10

    @given(st.floats(0.01, 0.98), st.floats(0.01, 0.98), st.integers(3, 8),
           st.floats(0.01, 0.5), st.floats(0.2, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_F_strictly_increasing(self, a1, a2, k, qk, frac):
        # F_k is strictly increasing on (0, 1)
        if abs(a1 - a2) < 1e-9:
            return
        lo, hi = min(a1, a2), max(a1, a2)
        q1 = frac * (k - 2) * qk  # keeps the profile feasible

        def F(a):
            return k * qk * (a - a ** (k - 1)) / (1 - a ** k) - q1

        assert F(lo) < F(hi)


class TestKCorrection:
    def test_zero_without_degree_one(self):
        assert K_of_q({3: 0.5}) == 0.0

    def test_extended_precision_value(self):
        assert K_of_q(Q13) == pytest.approx(K_EXPECTED, abs=1e-12)

    def test_empty(self):
        assert K_of_q({}) == 0.0

    def test_finiteness_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q1 = rng.uniform(0.0, 0.2)
            q5 = rng.uniform(q1 / 3 + 0.01, 0.5)
            q = {1: q1, 5: q5} if q1 > 0 else {5: q5}
            assert math.isfinite(K_of_q(q))
            assert math.isfinite(entropy_H(q))


class TestComponentDegreeRate:
    def test_regular_reduction(self):
        rb = rate_component_degree(DegreeDistribution({3: 1.0}), {3: 0.5})
        assert rb.I1 == pytest.approx(HALF_LOG2, abs=1e-12)
        assert rb.bound_kind == BOUND_TWO_SIDED

    def test_full_profile_zero(self):
        rb = rate_component_degree(DegreeDistribution({3: 1.0}), {3: 1.0})
        assert rb.I1 == pytest.approx(0.0, abs=1e-12)

    def test_mixed_value_and_bound_kind(self):
        rb = rate_component_degree(P13, Q13)
        assert rb.I1 == pytest.approx(I1_MIXED_EXPECTED, abs=1e-10)
        assert rb.bound_kind == BOUND_LOWER_ONLY
        assert rb.beta == beta_of_q(Q13)
        assert rb.K == K_of_q(Q13)

    def test_q_above_p_rejected(self):
        with pytest.raises(DomainError):
            rate_component_degree(P13, {1: 0.6, 3: 0.1})

    def test_matches_regular_formula(self):
        for D in (3, 4, 5):
            for qD in (0.2, 0.5, 0.8):
                rb = rate_component_degree(DegreeDistribution({D: 1.0}), {D: qD})
                assert abs(rb.I1 - rate_d_regular(D, qD)) <= 1e-12

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w3 = rng.uniform(0.2, 0.8)
            p = DegreeDistribution({3: w3, 4: 1.0 - w3})
            q = {3: rng.uniform(0.01, w3), 4: rng.uniform(0.01, 1.0 - w3)}
            assert rate_component_degree(p, q).I1 >= -1e-12


class TestDRegular:
    def test_half(self):
        assert rate_d_regular(3, 0.5) == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_full_is_zero(self):
        for D in (3, 4, 7):
            assert rate_d_regular(D, 1.0) == 0.0

    def test_quarter(self):
        assert rate_d_regular(4, 0.25) == pytest.approx(0.5623351446188084, abs=1e-12)

    def test_symmetry_exact(self):
        for D in (3, 4, 5, 6):
            for q in (0.1, 0.25, 0.3, 0.5, 0.7734, 0.9):
                assert rate_d_regular(D, q) == rate_d_regular(D, 1.0 - q)

    def test_low_degree_rejected(self):
        with pytest.raises(DomainError):
            rate_d_regular(2, 0.5)


class TestDRegularSubgraph:
    def test_reduces_to_regular(self):
        p = DegreeDistribution({3: 1.0})
        assert rate_d_regular_subgraph(p, 3, 0.5) == pytest.approx(
            rate_d_regular(3, 0.5), abs=1e-12)

    def test_mixed_value(self):
        p = DegreeDistribution({3: 0.5, 4: 0.5})
        assert rate_d_regular_subgraph(p, 3, 0.25) == pytest.approx(
            DREG_SUB_EXPECTED, abs=1e-10)

    def test_saturated_profile_zero(self):
        assert rate_d_regular_subgraph(DegreeDistribution({4: 1.0}), 4, 1.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_degree_one_mass_rejected(self):
        with pytest.raises(FeasibilityError):
            rate_d_regular_subgraph(P13, 3, 0.2)


class TestComponentSize:
    def test_single_feasible_point(self):
        rate, argmin = rate_component_size(DegreeDistribution({3: 1.0}), 0.5)
        assert rate == pytest.approx(HALF_LOG2, abs=1e-9)
        assert argmin == pytest.approx({3: 0.5}, abs=1e-9)

    def test_whole_graph_zero(self):
        rate, _ = rate_component_size(DegreeDistribution({3: 1.0}), 1.0)
        assert rate == pytest.approx(0.0, abs=1e-10)

    def test_grid_oracle_two_degrees(self):
        # {3: .9, 30: .1} has three stationary points at r = 0.3 and 0.5:
        # the objective is not convex there
        from cmld.core import entropy_H as H
        for w, r in (({3: 0.5, 4: 0.5}, 0.9), ({3: 0.9, 30: 0.1}, 0.5),
                     ({3: 0.9, 30: 0.1}, 0.3)):
            p = DegreeDistribution(w)
            (k1, p1), (k2, p2) = w.items()
            rate, argmin = rate_component_size(p, r)
            # brute-force grid over the one free coordinate
            H_p = H(p)
            best = math.inf
            for a in np.arange(max(0.0, r - p2), min(p1, r) + 1e-12, 1e-4):
                b = r - a
                val = H({k1: a, k2: b}) + H({k1: p1 - a, k2: p2 - b}) - H_p
                best = min(best, val)
            assert rate <= best + 1e-9
            assert rate == pytest.approx(best, abs=1e-6)

    def test_optimizer_never_beaten_by_grid(self):
        p = DegreeDistribution({3: 0.3, 5: 0.7})
        rate, _ = rate_component_size(p, 0.6)
        from cmld.core import entropy_H as H
        H_p = H(p)
        for q3 in np.linspace(0.0, 0.3, 301):
            q5 = 0.6 - q3
            if not 0.0 <= q5 <= 0.7:
                continue
            val = H({3: q3, 5: q5}) + H({3: 0.3 - q3, 5: 0.7 - q5}) - H_p
            assert rate <= val + 1e-9

    def test_three_degree_support_local_optimality(self):
        p = DegreeDistribution({3: 0.4, 4: 0.3, 5: 0.3})
        rate, argmin = rate_component_size(p, 0.7)
        assert sum(argmin.values()) == pytest.approx(0.7, abs=1e-9)
        from cmld.core import entropy_H as H
        H_p = H(p)
        rng = np.random.default_rng(17)
        pv = np.array([0.4, 0.3, 0.3])
        for _ in range(200):
            w = rng.uniform(size=3) * pv
            q = np.minimum(w * 0.7 / w.sum(), pv)
            for _ in range(40):  # water-fill clipped mass back onto the slice
                gap = 0.7 - q.sum()
                if abs(gap) < 1e-12:
                    break
                room = (pv - q) if gap > 0 else q
                q = np.clip(q + gap * room / room.sum(), 0, pv)
            val = (H({3: q[0], 4: q[1], 5: q[2]})
                   + H({3: 0.4 - q[0], 4: 0.3 - q[1], 5: 0.3 - q[2]}) - H_p)
            assert rate <= val + 1e-9
        # grid oracle on the constraint slice: a 1e-3 scan of (q_3, q_4),
        # then a 1e-4 scan within 2e-3 of the best coarse point
        ks = np.array([3.0, 4.0, 5.0])

        def xlogx(x):
            return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)

        def objective(q):  # H(q) + H(p - q) - H(p), one profile per row
            out = -H_p
            for m in (q, pv - q):
                out = out + xlogx(m).sum(axis=-1) - xlogx(0.5 * m @ ks)
            return out

        a_lo, a_hi, b_lo, b_hi = 0.0, pv[0], 0.0, pv[1]
        for step in (1e-3, 1e-4):
            a, b = np.meshgrid(np.linspace(a_lo, a_hi, int(round((a_hi - a_lo) / step)) + 1),
                               np.linspace(b_lo, b_hi, int(round((b_hi - b_lo) / step)) + 1))
            c = 0.7 - a - b
            ok = (c >= -1e-12) & (c <= pv[2] + 1e-12)
            q = np.stack([a[ok], b[ok], np.clip(c[ok], 0.0, pv[2])], axis=-1)
            val = objective(q)
            i = int(np.argmin(val))
            a_c, b_c = q[i, 0], q[i, 1]
            assert rate <= val[i] + 1e-9
            a_lo, a_hi = max(0.0, a_c - 2e-3), min(pv[0], a_c + 2e-3)
            b_lo, b_hi = max(0.0, b_c - 2e-3), min(pv[1], b_c + 2e-3)

    def test_low_degree_mass_rejected(self):
        with pytest.raises(DomainError):
            rate_component_size(P13, 0.5)


class TestConjectured:
    def test_full_zero(self):
        assert rate_conjectured_largest(3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        assert rate_conjectured_largest(3, 0.5) == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_matches_regular_above_half(self):
        for x in (0.55, 0.7, 0.99):
            assert rate_conjectured_largest(3, x) == pytest.approx(
                rate_d_regular(3, x), abs=1e-12)

    def test_zero_size(self):
        assert rate_conjectured_largest(4, 0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            rate_conjectured_largest(3, 1.2)

    def test_multi_single_component_consistent(self):
        assert rate_conjectured_multi(3, [0.5]) == pytest.approx(
            rate_d_regular(3, 0.5), abs=1e-12)

    def test_multi_two_halves(self):
        # two components of half the graph each: remainder empty
        val = rate_conjectured_multi(3, [0.5, 0.5])
        assert val == pytest.approx(-(1 - 1.5) * math.log(2.0), abs=1e-12)


class TestTypes:
    def test_distribution_must_normalize(self):
        with pytest.raises(DomainError):
            DegreeDistribution({3: 0.5})

    def test_subprofile_bounded_by_reference(self):
        with pytest.raises(DomainError):
            SubProfile({3: 1.1}, DegreeDistribution({3: 1.0}))

    def test_feasibility_flag(self):
        assert SubProfile({3: 0.5}, DegreeDistribution({3: 1.0})).feasible
        p2 = DegreeDistribution({2: 1.0})
        assert not SubProfile({2: 0.5}, p2).feasible


def test_import_loads_no_scipy():
    # scipy is imported lazily, by the few routines that need it
    src = Path(cmld.__file__).resolve().parents[1]
    code = ("import sys, cmld; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
