import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
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
from cmld import core, estimate, lln
from cmld.core import bisect_increasing
from cmld.estimate import clopper_pearson
from cmld.lln import inverse_Fs, survival_rho

# frozen from a 50-digit evaluation of the defining series at the exact roots;
# scripts/frozen_constants.py regenerates them
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

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_near_one(self, delta):
        # 1 - beta is about 5.5e-5 at delta = 1e-10; F' is proportional to
        # 1 - beta there, so the root itself is known to about 1e-16 / (1 - beta)
        q = {1: 0.1, 3: 0.1 + delta}
        want = _mp_beta(q)
        assert abs(beta_of_q(q) - want) <= 4e-16 / (1 - want)

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


class TestBisectSlope:
    @staticmethod
    def solve(f, lo, hi):
        points = []

        def counted(x):
            points.append(x)
            return f(x)

        return bisect_increasing(counted, lo, hi), points

    def test_cube_root_against_mpmath(self):
        root, points = self.solve(lambda x: (x ** 3 - 2.0, 3.0 * x * x), 0.0, 4.0)
        assert root == pytest.approx(float(mpmath.cbrt(2)), rel=2.3e-16)
        # plain halving, slope 0.0, takes 52 points to reach 1e-15
        assert len(points) <= 8
        assert len(self.solve(lambda x: (x ** 3 - 2.0, 0.0), 0.0, 4.0)[1]) > 40

    def test_flat_tails_fall_back_to_halving(self):
        # from x = 30 the logistic is flat, so its Newton step leaves
        # [-40, 100] and the next point is the midpoint of [-40, 30]
        def f(x):
            s = core._logistic(3.0 * x)
            return s - 0.7, 3.0 * s * (1.0 - s)

        root, points = self.solve(f, -40.0, 100.0)
        want = mpmath.log(mpmath.mpf(7) / 3) / 3
        assert root == pytest.approx(float(want), rel=4.5e-16)
        assert points[:2] == [30.0, -5.0]
        assert len(points) <= 12

    def test_exact_zero_stops(self):
        root, points = self.solve(lambda x: (x - 0.5, 1.0), 0.0, 2.0)
        assert root == 0.5 and points == [1.0, 0.5]

    def test_component_size_logistic_calls(self, monkeypatch):
        # a tenth of the 6324 calls that a bisection nested in a bisection makes
        calls, solves = [], []
        logistic, bisect = core._logistic, core.bisect_increasing

        def counted(x):
            calls.append(x)
            return logistic(x)

        def counted_bisect(f, lo, hi):
            solves.append(lo)
            return bisect(f, lo, hi)

        monkeypatch.setattr(core, "_logistic", counted)
        monkeypatch.setattr(core, "bisect_increasing", counted_bisect)
        rate_component_size(DegreeDistribution({3: 0.5, 4: 0.5}), 0.3)
        assert 0 < len(calls) <= 632
        # at most one u(t) per point of a 16-point scan, per point of the one root
        # in t and for its profile, plus that root: with the slope g'(t) the
        # root takes a few points (3 here), and with a wrong slope about 20
        assert len(solves) <= 16 + 6 + 1 + 1

    def test_component_size_narrow_scan(self, monkeypatch):
        # (4 - 3)^2 < 8 * 3 proves one root, so the scan is the bracket's two
        # ends, whose signs are known: the root in t, a u(t) for each of its
        # few points, and one for its profile
        solves, bisect = [], core.bisect_increasing

        def counted_bisect(f, lo, hi):
            solves.append(lo)
            return bisect(f, lo, hi)

        monkeypatch.setattr(core, "bisect_increasing", counted_bisect)
        rate_component_size(DegreeDistribution({3: 0.5, 4: 0.5}), 0.3)
        assert len(solves) <= 1 + 6 + 1

    @staticmethod
    def points_per_solve(module, monkeypatch):
        """The number of points each root of ``module.bisect_increasing`` takes."""
        counts, bisect = [], module.bisect_increasing

        def counted_bisect(f, lo, hi):
            points = []
            root = bisect(lambda x: points.append(x) or f(x), lo, hi)
            counts.append(len(points))
            return root

        monkeypatch.setattr(module, "bisect_increasing", counted_bisect)
        return counts

    # plain halving of [0, 1] to 1e-15 takes 50 points per root
    def test_beta_of_q_points(self, monkeypatch):
        counts = self.points_per_solve(core, monkeypatch)
        for q in _BETA_GRID:
            beta_of_q(q)
        assert len(counts) == len(_BETA_GRID) and max(counts) <= 10

    def test_survival_rho_points(self, monkeypatch):
        counts = self.points_per_solve(lln, monkeypatch)
        for p in _RHO_GRID:
            survival_rho(p)
        assert len(counts) == len(_RHO_GRID) and max(counts) <= 10

    @pytest.mark.parametrize("hits, reps", [(2379, 2 ** 19), (17114, 20000)])
    def test_clopper_pearson_tail_calls(self, monkeypatch, hits, reps):
        # halving [-745, 0] takes about 60 tail evaluations per bound
        calls, tails = [], estimate._beta_tails

        def counted(*args):
            calls.append(args)
            return tails(*args)

        monkeypatch.setattr(estimate, "_beta_tails", counted)
        estimate._beta_quantile(hits, reps - hits + 1, upper=False)
        assert 0 < len(calls) <= 50
        calls.clear()
        estimate._beta_quantile(hits + 1, reps - hits, upper=True)
        assert 0 < len(calls) <= 50


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _mp_bisect(f, dps=60):
    """The root of an increasing f on [0, 1], by 200 halvings at dps digits."""
    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        return (lo + hi) / 2


def _mp_geometric(a, j):
    return sum(a ** i for i in range(j))


def _mp_beta(q, dps=60):
    """beta(q) for the float weights of q, in dps digits."""
    w = {k: mpmath.mpf(v) for k, v in q.items()}
    return _mp_bisect(lambda a: -w.get(1, 0) + sum(
        k * v * a * _mp_geometric(a, k - 2) / _mp_geometric(a, k)
        for k, v in w.items() if k >= 3), dps)


def _mp_rho(p, dps=50):
    """rho = G1(rho) for the float weights of p, in dps digits."""
    w = {k: mpmath.mpf(v) for k, v in p.weights.items()}
    with mpmath.workdps(dps):  # at double precision mu would drop a p_1 below 1e-16
        mu = sum(k * v for k, v in w.items())
    return _mp_bisect(lambda z: sum(k * v * _mp_geometric(z, k - 1)
                                    for k, v in w.items()) / mu - 1, dps)


_BETA_GRID = [{1: a, 3: b} for a in (0.02, 0.1, 0.25) for b in (0.3, 0.45, 0.6)]
_BETA_GRID += [{1: 0.2, 4: 0.2}, {1: 0.05, 3: 0.1, 5: 0.2, 9: 0.05}]
_RHO_GRID = [DegreeDistribution(p) for p in [{1: a, 3: 1 - a} for a in (0.05, 0.2, 0.5, 0.7)]
             + [{1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}, {1: 0.4, 4: 0.6}]]
_CP_GRID = [(h, n) for n in (1, 10, 1000, 2 ** 19, 10 ** 9)
            for h in (0, 1, 7, n // 3, n) if h <= n]


class TestRootCallersKeepBits:
    # each digest pins the float64 output bytes of a root caller; beta and
    # rho are also held within 1e-15 of their roots to 50 digits, and the
    # Clopper-Pearson bounds within 1e-12 relative of the binomial quantiles
    def test_beta_of_q(self):
        betas = [beta_of_q(q) for q in _BETA_GRID]
        assert _sha256(betas) == \
            "425aa944de5cc38a46d212aadd3758e2fa561a70f751ec27b657940a9686c8da"
        for q, beta in zip(_BETA_GRID, betas):
            assert abs(beta - _mp_beta(q, 50)) <= 1e-15, q

    def test_survival_rho(self):
        rhos = [survival_rho(p) for p in _RHO_GRID]
        assert _sha256(rhos) == \
            "5b1e8b24930a1bfe4222f649d541b5f7d3a668cd1331956aec1170a3f4896a21"
        for p, rho in zip(_RHO_GRID, rhos):
            assert abs(rho - _mp_rho(p)) <= 1e-15, p.weights

    def test_clopper_pearson(self, exact_rel_err):
        bounds = [clopper_pearson(h, n) for h, n in _CP_GRID]
        assert _sha256(bounds) == \
            "86944ef12136e2e324af7b59ddec9629509300a60b5ad68742122824e504ff77"
        for (h, n), (lo, hi) in zip(_CP_GRID, bounds):
            if n == 10 ** 9 and h == n // 3:
                continue  # the exact tail would sum 3.3e8 terms at 40 digits
            if h > 0:
                assert abs(exact_rel_err(lo, h, n, 0.025)) <= 1e-12, (h, n)
            if h < n:
                assert abs(exact_rel_err(hi, h + 1, n, 0.975)) <= 1e-12, (h, n)

    def test_inverse_Fs(self, inverse_Fs_rel_err):
        t = np.linspace(0.0, 0.6, 41)
        u = inverse_Fs(P13, 0.8, t)
        assert _sha256(u) == "18ebcdf8053eaf34a9bc862c33489a5dfaf9971b4f73a1e1bf8fcddf05ea6d97"
        for ti, ui in zip(t[1:], u[1:]):  # t = 0 gives 1 exactly
            assert abs(inverse_Fs_rel_err(P13, 0.8, ti, ui)) <= 1e-15, ti


class TestTinyRoots:
    # a root below 1e-15 on [0, 1] was returned as a midpoint near 1e-16
    # while the bracket stop was absolute; survival_rho({1: 1e-20, 4: 1})
    # read 2.698e-16 for 2.5e-21
    @pytest.mark.parametrize("q1", [1e-15, 1e-20, 1e-30])
    def test_beta_of_q(self, q1):
        for q in ({1: q1, 3: 0.3}, {1: q1, 4: 0.2, 7: 0.1}):
            want = _mp_beta(q)
            assert abs(beta_of_q(q) - want) <= 1e-15 * want, q

    @pytest.mark.parametrize("p1", [1e-15, 1e-20, 1e-30])
    def test_survival_rho(self, p1):
        for w in ({1: p1, 3: 1.0}, {1: p1, 4: 1.0}, {1: p1, 2: 0.3, 5: 0.7}):
            p = DegreeDistribution(w)
            want = _mp_rho(p)
            assert abs(survival_rho(p) - want) <= 1e-15 * want, w


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

    @pytest.mark.parametrize("w", [{3: 0.5, 40: 0.5}, {3: 0.4, 4: 0.3, 5: 0.3},
                                   {3: 0.3, 7: 0.2, 12: 0.2, 25: 0.15, 40: 0.15}])
    def test_tiny_size_keeps_its_vertex_mass(self, w):
        # where the vertex mass M(u) is exponential in u, Newton steps on
        # M(u) - r move u by about 1 each and run out of steps far from the
        # root: solved that way, these profiles held 1e6 to 1e15 times r
        for r in (1e-30, 1e-200):
            rate, argmin = rate_component_size(DegreeDistribution(w), r)
            assert math.fsum(argmin.values()) == pytest.approx(r, rel=1e-12, abs=0.0)
            assert 0.0 <= rate <= 1e-25

    def test_low_degree_mass_rejected(self):
        with pytest.raises(DomainError):
            rate_component_size(P13, 0.5)

    @staticmethod
    def _family(w, r, ts):
        """u(t) on the stationary family q_k = p_k sigma(u + k t) at vertex
        mass r, one t per lane, by 200 halvings of the mass; returns the
        (degrees, weights, sigma, 1 - sigma) arrays, one row per degree."""
        ks = np.array(list(w), dtype=float)[:, None]
        pk = np.array(list(w.values()))[:, None]
        logit_r = math.log(r / (pk.sum() - r))
        kt = ks * ts
        lo, hi = logit_r - kt.max(axis=0), logit_r - kt.min(axis=0)

        def sig(x):
            return 0.5 * (1.0 + np.tanh(0.5 * x))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            low = (pk * sig(mid + kt)).sum(axis=0) < r
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        x = 0.5 * (lo + hi) + kt
        return ks, pk, sig(x), sig(-x)

    @staticmethod
    def _bracket(w, r):
        ks = sorted(w)
        c = 0.5 * math.log(r / (math.fsum(w.values()) - r))
        half = 0.5 * math.log(ks[-1] / ks[0])
        return c - half, c + half

    @pytest.mark.parametrize("r, rate, argmin", [
        (0.5, 2.513247625302231, {3: 0.4999999110849887, 30: 8.89150113040932e-08}),
        (0.48, 2.359530092369061, {3: 0.47999999999979276, 30: 2.0722291049569679e-13}),
    ])
    def test_wide_support_scan(self, r, rate, argmin):
        # (30 - 3)^2 >= 8 * 3: g has several roots here, so the 16-point scan
        # runs, and the falling zeros alone give the bits that solving every
        # sign change gave
        w = {3: 0.5, 30: 0.5}
        got_rate, got = rate_component_size(DegreeDistribution(w), r)
        assert (got_rate, got) == (rate, argmin)
        ks, pk, a, b = self._family(w, r, np.linspace(*self._bracket(w, r), 20001))

        def xlogx(x):
            return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)

        H_p = core.entropy_H(w)
        val = -H_p
        for m in (pk * a, pk * b):
            half_edge = 0.5 * (ks * m).sum(axis=0)
            val = val + xlogx(m).sum(axis=0) - xlogx(half_edge)
        assert abs(got_rate - val.min()) <= 1e-9

    def test_narrow_supports_have_one_falling_root(self):
        # g'(t) <= (k_max - k_min)^2 / (4 k_min) - 2 < 0 on these supports
        rng = np.random.default_rng(31)
        for _ in range(100):
            kmin = int(rng.integers(3, 21))
            span = math.isqrt(8 * kmin - 1)  # the largest span with span^2 < 8 k_min
            inner = [k for k in range(kmin + 1, kmin + span) if rng.uniform() < 0.5]
            ks = [kmin, *inner, kmin + span]
            v = rng.uniform(0.05, 1.0, size=len(ks))
            w = dict(zip(ks, v / v.sum()))
            r = float(rng.uniform(0.05, 0.95))
            ts = np.linspace(*self._bracket(w, r), 200)
            ks_, pk, a, b = self._family(w, r, ts)
            g = np.log((ks_ * pk * a).sum(axis=0)) - np.log((ks_ * pk * b).sum(axis=0)) - 2.0 * ts
            assert np.all(np.diff(g) < 0.0), (w, r)

    # (p, r, rate, argmin) from the nested bisection that the slope steps
    # replaced, printed with format(x, ".17g"): the twelve supports and sizes
    # of perfbench's theory workload, then a support with three stationary
    # points, a five-degree support up to degree 40, r = 0.999, and a degree
    # gap so wide that sum_k p_k sigma'_k underflows to 0 within the scan
    FROZEN_SIZE = [
        ({3: 0.5, 4: 0.5}, 0.3, 0.4532766961877237,
         {3: 0.17292901109451206, 4: 0.12707098890548799}),
        ({3: 0.5, 4: 0.5}, 0.5, 0.51986038541995905,
         {3: 0.25, 4: 0.24999999999999997}),
        ({3: 0.3, 5: 0.7}, 0.3, 0.71482566859277918,
         {3: 0.13348769120386078, 5: 0.16651230879613918}),
        ({3: 0.3, 5: 0.7}, 0.5, 0.8317766166719347,
         {3: 0.15000000000000002, 5: 0.34999999999999992}),
        ({3: 0.4, 4: 0.3, 5: 0.3}, 0.3, 0.56635398384310243,
         {3: 0.15480876567811638, 4: 0.085257570062698504,
          5: 0.059933664259185102}),
        ({3: 0.4, 4: 0.3, 5: 0.3}, 0.5, 0.65848982153194857,
         {3: 0.20000000000000007, 4: 0.14999999999999999, 5: 0.14999999999999997}),
        ({3: 0.2, 4: 0.3, 6: 0.5}, 0.3, 0.82028395474525118,
         {3: 0.099356458823912364, 4: 0.11188044602942236,
          6: 0.088763095146665263}),
        ({3: 0.2, 4: 0.3, 6: 0.5}, 0.5, 0.97040605278392356,
         {3: 0.10000000000000003, 4: 0.14999999999999999, 6: 0.24999999999999994}),
        ({3: 0.25, 4: 0.25, 5: 0.25, 7: 0.25}, 0.3, 0.79198731002637679,
         {3: 0.12240736586533441, 4: 0.090031025154289207, 5: 0.06205337959827479,
          7: 0.025508229382101549}),
        ({3: 0.25, 4: 0.25, 5: 0.25, 7: 0.25}, 0.5, 0.9530773732699247,
         {3: 0.12500000000000003, 4: 0.125, 5: 0.12499999999999997, 7: 0.12499999999999993}),
        ({4: 0.5, 6: 0.3, 9: 0.2}, 0.3, 1.0228554680879349,
         {4: 0.22667478396321397, 6: 0.063775093017559917, 9: 0.0095501230192259947}),
        ({4: 0.5, 6: 0.3, 9: 0.2}, 0.5, 1.2476649250079008,
         {4: 0.25000000000000006, 6: 0.14999999999999997, 9: 0.099999999999999922}),
        ({3: 0.9, 30: 0.1}, 0.3, 0.67019987587523611,
         {3: 0.29999999999233551, 30: 7.6645591249794579e-12}),
        ({3: 0.9, 30: 0.1}, 0.5, 1.0242867302785572,
         {3: 0.49999988510733018, 30: 1.1489266989623504e-07}),
        ({3: 0.9, 30: 0.1}, 0.7, 0.67019987587523611,
         {3: 0.6000000000076644, 30: 0.099999999992335442}),
        ({3: 0.3, 7: 0.2, 12: 0.2, 25: 0.15, 40: 0.15}, 0.4, 2.3702082322930949,
         {3: 0.29555938014395716, 7: 0.10323123177913762, 12: 0.0012093867399909004,
          25: 1.3369141159121578e-09, 40: 2.4796124616463806e-16}),
        ({3: 0.5, 4: 0.5}, 0.999, 0.0048496163708515727,
         {3: 0.49902864029902916, 4: 0.49997135970097084}),
        ({3: 0.3, 5: 0.7}, 0.999, 0.0057318989764740813,
         {3: 0.29900159645520247, 5: 0.69999840354479748}),
        ({3: 0.5, 5000: 0.5}, 0.5, 6.3141606320768915,
         {3: 0.49999999999999989, 5000: 0.0}),
    ]

    @pytest.mark.parametrize("w, r, rate, argmin", FROZEN_SIZE)
    def test_frozen_rate_and_argmin(self, w, r, rate, argmin):
        got_rate, got = rate_component_size(DegreeDistribution(w), r)
        assert got_rate == pytest.approx(rate, rel=1e-12, abs=1e-14)
        assert got.keys() == argmin.keys()
        mirror = {k: w[k] - v for k, v in argmin.items()}
        # at r = (1/2) sum p the objective is symmetric under q <-> p - q, so
        # either of a mirror pair is a minimizer
        wants = [argmin, mirror] if r == 0.5 * math.fsum(w.values()) else [argmin]
        assert any(all(got[k] == pytest.approx(v, rel=1e-12, abs=1e-12) for k, v in want.items())
                   for want in wants), (got, argmin)


class TestConjectured:
    def test_full_zero(self):
        assert rate_conjectured_largest(3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rates_are_plus_zero(self):
        # the whole graph as one component: (1 - D/2) times a zero entropy
        # is -0.0 unless the sign is put right
        for D in (3, 4, 7):
            for rate in (rate_d_regular(D, 1.0), rate_d_regular(D, 1e-320),
                         rate_conjectured_largest(D, 1.0), rate_conjectured_multi(D, [1.0])):
                assert rate == 0.0 and math.copysign(1.0, rate) == 1.0

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

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # a NaN weight was dropped, so the rest of the profile was rated
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        for build in (lambda: DegreeDistribution({3: 1.0, 4: weight}),
                      lambda: SubProfile({3: weight}, p),
                      lambda: rate_component_degree(p, {1: weight, 3: 0.3})):
            with pytest.raises(DomainError, match="is not finite"):
                build()

    def test_feasibility_flag(self):
        assert SubProfile({3: 0.5}, DegreeDistribution({3: 1.0})).feasible
        p2 = DegreeDistribution({2: 1.0})
        assert not SubProfile({2: 0.5}, p2).feasible


def test_frozen_constants_reproduce_offline(frozen_constants):
    assert frozen_constants["K_EXPECTED"] == K_EXPECTED
    assert frozen_constants["I1_MIXED_EXPECTED"] == I1_MIXED_EXPECTED
    assert frozen_constants["DREG_SUB_EXPECTED"] == DREG_SUB_EXPECTED


def test_import_loads_no_scipy():
    # no module of the package imports scipy
    src = Path(cmld.__file__).resolve().parents[1]
    # numpy.polynomial is loaded lazily too, by path_cost's first call
    code = ("import sys, cmld; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy') "
            "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_estimate_loads_no_scipy():
    # an estimate with 0 < hits < reps computes both interval bounds
    src = Path(cmld.__file__).resolve().parents[1]
    code = ("import sys, cmld; "
            "r = cmld.estimate_event_prob((3,) * 12, {3: 0.5}, eps=0.1, reps=4000, seed=1); "
            "assert 0 < r.hits < r.reps and 0 < r.ci_low < r.p_hat < r.ci_high < 1, r; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
