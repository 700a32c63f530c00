import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmld import (
    DegreeDistribution,
    DomainError,
    criticality_nu,
    gen_G0,
    gen_G1,
    giant_fraction,
    inverse_Fs,
    lln_path,
    path_cost,
    survival_rho,
)
from cmld import lln
from cmld.core import bisect_increasing

P13 = DegreeDistribution({1: 0.5, 3: 0.5})
P3 = DegreeDistribution({3: 1.0})
P1 = DegreeDistribution({1: 1.0})
P_MIX = DegreeDistribution({1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05})
POST_TAU_CASES = [P1, DegreeDistribution({1: 0.5, 2: 0.5}),
                  DegreeDistribution({1: 0.6, 2: 0.3, 3: 0.1}), P13, P_MIX]


class TestGeneratingFunctions:
    def test_normalization(self):
        for p in (P13, P3, DegreeDistribution({2: 0.3, 5: 0.7})):
            assert gen_G0(p, 1.0) == pytest.approx(1.0, abs=1e-14)
            assert gen_G1(p, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_size_biased_value(self):
        assert gen_G1(P13, 0.5) == pytest.approx(0.4375, abs=1e-15)

    def test_no_constant_term(self):
        assert gen_G0(P13, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_G0(P13, 1.5)
        with pytest.raises(DomainError):
            gen_G1(P13, -0.1)


class TestCriticality:
    def test_three_regular(self):
        assert criticality_nu(P3) == pytest.approx(2.0, abs=1e-14)

    def test_two_regular_critical(self):
        assert criticality_nu(DegreeDistribution({2: 1.0})) == pytest.approx(1.0, abs=1e-14)

    def test_mixed(self):
        assert criticality_nu(P13) == pytest.approx(1.5, abs=1e-14)


class TestSurvivalRoot:
    def test_quadratic_oracle(self):
        # G1(z) = 1/4 + (3/4) z^2 has roots 1/3 and 1
        assert survival_rho(P13) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_no_degree_one(self):
        assert survival_rho(P3) == 0.0

    def test_subcritical_sentinel(self):
        assert survival_rho(P1) == 1.0

    def test_fixed_point_residual(self):
        for p in (P13, DegreeDistribution({1: 0.3, 4: 0.7}),
                  DegreeDistribution({1: 0.6, 2: 0.1, 5: 0.3})):
            rho = survival_rho(p)
            if 0.0 < rho < 1.0:
                assert abs(gen_G1(p, rho) - rho) <= 1e-10

    @pytest.mark.parametrize("a", [0.749, 0.7499999, 0.749999999, 0.74999999999])
    def test_near_one(self, a):
        # z - G1(z) vanishes at the root and at 1; here 1 - rho is 5.3e-3
        # down to 5.3e-11, and rho = w1 / (3 w3) for the float weights
        p = DegreeDistribution({1: a, 3: 1 - a})
        w1, w3 = p.pk(1), p.pk(3)
        rho = w1 / (3.0 * w3)
        assert abs(survival_rho(p) - rho) <= 1e-15
        want = 1.0 - w1 * rho - w3 * rho ** 3
        assert abs(giant_fraction(p) - want) <= 1e-6 * want


class TestGiantFraction:
    def test_mixed(self):
        assert giant_fraction(P13) == pytest.approx(22.0 / 27.0, abs=1e-12)

    def test_no_degree_one(self):
        assert giant_fraction(P3) == pytest.approx(1.0, abs=1e-14)

    def test_subcritical(self):
        assert giant_fraction(P1) == 0.0


class TestInverseFs:
    def test_at_zero(self):
        for s in (0.2, 0.7, 1.0):
            assert inverse_Fs(P13, s, 0.0) == 1.0

    def test_at_exhaustion(self):
        for s in (0.2, 0.7, 1.0):
            assert inverse_Fs(P13, s, gen_G0(P13, s)) == 0.0

    def test_analytic_sqrt(self):
        p2 = DegreeDistribution({2: 1.0})
        for t in (0.1, 0.36, 0.75, 0.99):
            assert inverse_Fs(p2, 1.0, t) == pytest.approx(math.sqrt(1.0 - t), abs=1e-10)

    def test_nan_time_rejected(self):
        # NaN fails every compare, so it would be neither 0 nor past G0(s)
        for t in (math.nan, np.array([0.1, math.nan])):
            with pytest.raises(DomainError):
                inverse_Fs(P13, 0.8, t)
        assert inverse_Fs(P13, 0.8, math.inf) == 0.0
        assert inverse_Fs(P13, 0.8, np.array([math.inf, 0.0])).tolist() == [0.0, 1.0]

    def test_only_open_times_are_solved(self, monkeypatch):
        lanes, pair = [], lln._g0_and_slope  # the lanes of each array the descent evaluates

        def counted(p, s, u):
            if np.ndim(u):
                lanes.append(np.size(u))
            return pair(p, s, u)

        monkeypatch.setattr(lln, "_g0_and_slope", counted)
        g0s = gen_G0(P13, 0.8)
        t = np.array([0.0, 0.3 * g0s, g0s, 2.0, 0.7 * g0s, math.inf])
        u = inverse_Fs(P13, 0.8, t)
        # every lane stops for good, so each round evaluates no more lanes than the last
        assert lanes[0] == 2 and lanes == sorted(lanes, reverse=True)
        assert u[[0, 2, 3, 5]].tolist() == [1.0, 0.0, 0.0, 0.0]
        lanes.clear()
        assert inverse_Fs(P13, 0.8, 0.3 * g0s) == u[1] and max(lanes) == 1
        lanes.clear()
        assert inverse_Fs(P13, 0.8, 2.0) == 0.0 and lanes == []
        # lln_path's default grid for p_mix: most post-tau points are past G0(rho)
        lanes.clear()
        fp = lln_path(P_MIX, T=0.5 * P_MIX.mu + 2.0)
        post = fp.grid[fp.grid > fp.meta["tau"]] - fp.meta["tau"]
        n_open = int(np.count_nonzero(post < gen_G0(P_MIX, fp.meta["rho"])))
        assert lanes[0] == n_open and max(lanes) == n_open and 0 < 2 * n_open < post.size

    @pytest.mark.parametrize("w", [{100: 1.0}, {2: 1.0}, {30: 0.5, 400: 0.5},
                                   {1: 1e-12, 2: 0.5, 1000: 0.5 - 1e-12}])
    @pytest.mark.parametrize("s", [1.0, 0.5, 1e-3])
    def test_descent_ends(self, monkeypatch, w, s):
        # each round is one evaluation; a steep G0 makes the lanes near
        # exhaustion fall about a factor 1 - 1/k per round from u = 1
        p = DegreeDistribution(w)
        g0s = gen_G0(p, s)
        t = np.append(g0s * np.array([1e-16, 1e-8, 0.5, 1.0 - 1e-8]), np.nextafter(g0s, 0.0))
        rounds, pair = [], lln._g0_and_slope
        monkeypatch.setattr(lln, "_g0_and_slope", lambda *a: rounds.append(1) or pair(*a))
        u = inverse_Fs(p, s, t)
        assert len(rounds) <= 50
        assert np.all((0.0 < u) & (u <= 1.0))

    @pytest.mark.parametrize("p", POST_TAU_CASES + [DegreeDistribution({1: 1e-6, 5: 1.0 - 1e-6})],
                             ids=lambda p: str(p.weights))
    def test_against_50_digit_roots(self, p, inverse_Fs_rel_err):
        # times from 1e-16 G0(s) up to one ulp below G0(s), where the target
        # G0(s) - t is one ulp of G0(s) and, with a degree-one weight, the root tiny
        frac = np.array([1e-16, 1e-12, 1e-6, 0.1, 0.5, 0.9])
        for s in {survival_rho(p), 0.5, 1.0}:
            g0s = gen_G0(p, s)
            t = np.concatenate([g0s * frac, g0s - g0s * frac[1:3], [np.nextafter(g0s, 0.0)]])
            assert np.all((0.0 < t) & (t < g0s))
            u = inverse_Fs(p, s, t)
            for ti, ui in zip(t, u):
                assert abs(inverse_Fs_rel_err(p, s, ti, ui)) <= 1e-15, (s, ti)

    @given(st.floats(0.05, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, s, frac):
        t = frac * gen_G0(P13, s)
        u = inverse_Fs(P13, s, t)
        assert abs((gen_G0(P13, s) - gen_G0(P13, s * u)) - t) <= 1e-10


class TestInverseFsArray:
    """One descent over every post-tau point of lln_path's default grid."""

    @pytest.mark.parametrize("p", POST_TAU_CASES, ids=lambda p: str(p.weights))
    def test_array_matches_scalar_and_inverts(self, p):
        fp = lln_path(p, T=0.5 * p.mu + 0.5)
        rho, tau = fp.meta["rho"], fp.meta["tau"]
        g0s = gen_G0(p, rho)
        t = np.concatenate([fp.grid[fp.grid > tau] - tau, [0.0, g0s]])
        u = inverse_Fs(p, rho, t)
        assert u.shape == t.shape
        assert u[-2] == 1.0 and u[-1] == 0.0
        scalar = np.array([inverse_Fs(p, rho, float(x)) for x in t])
        assert np.max(np.abs(u - scalar)) <= 1e-15
        resid = [abs(g0s - gen_G0(p, rho * ui) - ti) for ui, ti in zip(u, t) if ti <= g0s]
        assert max(resid) <= 1e-12

    @pytest.mark.parametrize("p", POST_TAU_CASES, ids=lambda p: str(p.weights))
    def test_lln_path_matches_per_point_reference(self, p):
        fp = lln_path(p, T=0.5 * p.mu + 0.5)
        mu, rho, tau = p.mu, fp.meta["rho"], fp.meta["tau"]
        g0s = gen_G0(p, rho)

        def y(t):
            if t <= tau:
                return math.sqrt(max(1.0 - 2.0 * t / mu, 0.0))
            target = g0s - (t - tau)
            if target <= 0.0:
                return 0.0
            return rho * bisect_increasing(lambda u: (gen_G0(p, rho * u) - target, 0.0),
                                           0.0, 1.0)

        ys = np.array([y(float(t)) for t in fp.grid])
        for j, k in enumerate(p.degrees):
            assert np.max(np.abs(fp.zetak[:, j] - p.weights[k] * ys ** k)) <= 1e-14
        fp.check_invariants()


class TestFluidTrajectory:
    def test_initial_conditions(self):
        fp = lln_path(P13, T=1.2)
        assert fp.zeta(1)[0] == pytest.approx(0.5, abs=1e-14)
        assert fp.zeta(3)[0] == pytest.approx(0.5, abs=1e-14)
        assert fp.psi[0] == 0.0

    def test_giant_window_values(self):
        fp = lln_path(P13, T=1.2)
        tau = fp.tau_markers["tau"]
        assert tau == pytest.approx(8.0 / 9.0, abs=1e-12)
        z3_tau = np.interp(tau, fp.grid, fp.zeta(3))
        assert z3_tau == pytest.approx(1.0 / 54.0, abs=1e-10)
        z0_tau = np.interp(tau, fp.grid, fp.zeta(0))
        assert z0_tau == pytest.approx(0.0, abs=1e-10)

    def test_unit_pace_before_tau(self):
        fp = lln_path(P13, T=1.2, grid_points=2001)
        tau = fp.tau_markers["tau"]
        mask = fp.grid <= tau + 1e-12
        r = fp.r()[mask]
        assert np.max(np.abs(r - (2.0 - 2.0 * fp.grid[mask]))) <= 1e-9

    def test_invariants(self):
        # zeta_0 and psi are closed forms of the profile, so zeta_0 = Gamma(psi)
        # holds at the default tolerance however coarse the grid
        for p in (P13, P3, DegreeDistribution({1: 0.3, 4: 0.7}), P_MIX):
            for n in (301, 4001):
                lln_path(p, T=0.5 * p.mu + 0.5, grid_points=n).check_invariants()

    def test_refined_grid_hits_tau_exactly(self):
        # tau falls 2e-15 from a base grid point here; a near-duplicate
        # point there made path_cost reject the path as not unit-pace
        p = DegreeDistribution({1: .3, 2: .1, 3: .2, 4: .15, 5: .1, 7: .1, 10: .05})
        fp = lln_path(p, T=0.5 * p.mu + 0.5, grid_points=4001)
        tau = fp.tau_markers["tau"]
        assert tau in fp.grid
        assert path_cost(fp, 0.0, tau) <= 1e-5

    def test_drain_ode_residual(self):
        # interior of [0, tau]: d zeta_k/dt = -k zeta_k/(mu - 2t) to 1e-6
        tau = 8.0 / 9.0
        grid = np.linspace(0.0, 0.95 * tau, 20001)
        fp = lln_path(P13, T=1.2, grid=np.append(grid, [1.0, 1.2]))
        sl = slice(1, len(grid) - 1)
        for k in (1, 3):
            z = fp.zeta(k)[:len(grid)]
            dz = np.gradient(z, grid)
            resid = dz + k * z / (2.0 - 2.0 * grid)
            assert np.max(np.abs(resid[sl])) <= 1e-6

    def test_subcritical_branch(self):
        p2 = DegreeDistribution({2: 0.5, 1: 0.5})
        fp = lln_path(p2, T=1.0)
        assert np.all(fp.zeta0 == 0.0)
        fp.check_invariants(tol=1e-9)

    def test_horizon_too_short(self):
        with pytest.raises(DomainError):
            lln_path(P13, T=0.5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_grid_points_rejected(self, n):
        with pytest.raises(DomainError, match="grid_points"):
            lln_path(P13, T=1.2, grid_points=n)

    @pytest.mark.parametrize("grid", [[], [0.0, math.nan, 1.2], [0.0, 0.5, math.inf],
                                      [-0.1, 0.5, 1.2]])
    def test_bad_explicit_grid_rejected(self, grid):
        # [-0.1, 0.5, 1.2] is strictly increasing but gave zeta_1(-0.1) > p_1
        with pytest.raises(DomainError, match="grid"):
            lln_path(P13, grid=np.array(grid))

    def test_non_finite_horizon_rejected(self):
        for T in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                lln_path(P13, T=T)

    def test_reflection_identity_exact_on_any_grid(self):
        for n in (501, 8001):
            fp = lln_path(P13, T=1.2, grid_points=n)
            shifted = fp.psi - fp.psi[0]
            gamma = shifted - np.minimum(np.minimum.accumulate(shifted), 0.0)
            assert np.max(np.abs(gamma - fp.zeta0)) <= 1e-12
