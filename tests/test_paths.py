import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmld import (
    CASE_I,
    CASE_II,
    DegreeDistribution,
    DomainError,
    FeasibilityError,
    FluidPath,
    LocalVelocity,
    PreconditionError,
    StatePoint,
    SubProfile,
    beta_of_q,
    cost_closed_form,
    lln_path,
    local_rate_L,
    make_segment_spec,
    minimizer_path,
    path_cost,
    rate_component_degree,
    rate_conjectured_largest,
    rate_conjectured_multi,
    survival_rho,
)
from cmld import paths
from cmld.fluid import reflect
from cmld.paths import _segment_grid, _segment_state
from cmld.verify import _check_quadrature, _segment_battery

HALF_LOG2 = 0.5 * math.log(2.0)
# frozen from a 50-digit closed-form evaluation at the exact root,
# 0.12669761393649971420...; scripts/frozen_constants.py regenerates it
COST_ACTIVE_ENDPOINTS = 0.126697613936499714

X1_REG = StatePoint(0.0, {3: 1.0})
X2_REG = StatePoint(0.0, {3: 0.5})
X1_ACT = StatePoint(1.0, {3: 1.0})
X2_ACT = StatePoint(0.5, {3: 0.5})
# case (i) with an untouched degree-one mass
X1_LEAF = StatePoint(0.0, {1: 0.2, 3: 1.0})
X2_LEAF = StatePoint(0.0, {1: 0.2, 3: 0.5})
# segments 2, 8 and 18 of the battery generator at seeds 67, 103 and 246:
# case (ii), x2_0 = 0, beta = 0.9747, 0.9944 and 0.9755
BETA_NEAR_ONE = [
    (StatePoint(0.2622554002808585, {1: 0.4912128746542553, 5: 0.10694336451634415}),
     StatePoint(0.0, {1: 0.08793639512810121, 5: 0.05770419083167288})),
    (StatePoint(0.17811420009550638, {1: 0.5949995265441596, 4: 0.13006241668863816}),
     StatePoint(0.0, {1: 0.36991778168318323, 4: 0.10607848419395322})),
    (StatePoint(0.1545532305717372, {1: 0.3011395217637244, 5: 0.07825216987848999}),
     StatePoint(0.0, {1: 0.08085869457853032, 5: 0.05507361243466088})),
]


def _plain(path):
    """The path's grid arrays without its segment: path_cost takes the grid route."""
    return FluidPath(grid=path.grid, degrees=path.degrees, zeta0=path.zeta0,
                     zetak=path.zetak, psi=path.psi)


def _forward_form(spec, grid):
    """The minimizer zeta_k(t) = x1_k - z~_k [1 - (1 - t/varsigma~)^{k/2}]
    evaluated forward in t, as written, on ``grid``."""
    ks = np.array(spec.degrees, dtype=float)
    x1 = np.array([spec.x1.mass(k) for k in spec.degrees])
    ztil = np.array([spec.z.get(k, 0.0) for k in spec.degrees]) / (1.0 - spec.beta ** ks)
    zetak = x1 - ztil * (1.0 - (1.0 - grid / spec.varsigma_tilde)[:, None] ** (0.5 * ks))
    psi = (x1 - zetak) @ ks - 2.0 * grid
    return FluidPath(grid=grid, degrees=spec.degrees, zeta0=np.maximum(spec.x1.x0 + psi, 0.0),
                     zetak=zetak, psi=psi)


def _root(x1, x2):
    """The segment's transition root and case."""
    spec = make_segment_spec(x1, x2)
    return spec.beta, spec.case


def _reference_integrand(zeta0, zetak, dzetak, ks, floor=paths._NU_FLOOR,
                         slack=paths._NU_FLOOR):
    """paths._rate_integrand written with stacked nu and mu and np.where
    temporaries, as it read before it was evaluated in place."""
    z0 = np.maximum(zeta0, 0.0)
    r = z0 + ks @ zetak
    empty = r <= 0.0
    nu_k = np.maximum(-dzetak, 0.0)
    nu0 = 1.0 - nu_k.sum(axis=0)
    nu = np.vstack([np.maximum(nu0, 0.0), nu_k])
    mu = np.vstack([z0, ks[:, None] * np.maximum(zetak, 0.0)]) / np.where(empty, 1.0, r)
    mu[:, empty] = 0.0
    mu[0, empty] = 1.0
    live = nu > floor
    bad = live & (mu <= 0.0)
    ok = live & ~bad
    ratio = np.where(ok, nu / np.where(ok, mu, 1.0), 1.0)
    out = np.sum(np.where(ok, nu * np.log(ratio), 0.0), axis=0)
    out[np.any(bad, axis=0) | (nu0 < -slack) | np.any(dzetak > slack, axis=0)] = math.inf
    return out


# zeros of both signs, entries at the 1e-8 velocity floor, and non-finite ones
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 2e-8, -2e-8, 1e-300, math.inf,
                                    -math.inf, math.nan]),
                   st.floats(-1.5, 1.5))


@st.composite
def _integrand_inputs(draw):
    d, n = draw(st.integers(1, 8)), draw(st.integers(1, 64))
    ks = np.array(sorted(draw(st.lists(st.integers(1, 12), min_size=d, max_size=d,
                                       unique=True))), dtype=float)
    zeta0 = draw(arrays(np.float64, n, elements=_ENTRY))
    zetak = draw(arrays(np.float64, (d, n), elements=_ENTRY))
    # velocities from -1.5 (nu_0 far below 0) to 1.5 (a rising zeta_k)
    dzetak = draw(arrays(np.float64, (d, n), elements=_ENTRY))
    empty = draw(arrays(np.bool_, n))  # nodes with no mass left: r <= 0
    zeta0[empty] = -np.abs(zeta0[empty])
    zetak[:, empty] = -np.abs(zetak[:, empty])
    if draw(st.booleans()):  # the closed-form route passes transposes
        zetak, dzetak = np.asfortranarray(zetak), np.asfortranarray(dzetak)
    slack = draw(st.one_of(st.sampled_from([0.0, 1e-8, 1e-3]),
                           arrays(np.float64, n, elements=st.floats(0.0, 1e-2))))
    floor = draw(st.sampled_from([0.0, paths._NU_FLOOR]))
    return zeta0, zetak, dzetak, ks, floor, slack


class TestSkorokhod:
    def test_nonnegative_input_identity(self):
        psi = np.array([0.0, 0.5, 0.2, 1.0])
        assert np.array_equal(reflect(psi), psi)

    def test_pure_drift_reflects_to_zero(self):
        t = np.linspace(0.0, 2.0, 21)
        assert np.max(np.abs(reflect(-t))) == 0.0

    def test_piecewise_example(self):
        psi = np.array([0.0, -1.0, 1.0])
        out = reflect(psi)
        assert out[-1] == 2.0

    def test_requires_zero_start(self):
        with pytest.raises(PreconditionError):
            reflect(np.array([0.5, 1.0]))

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_output(self, steps):
        psi = np.concatenate([[0.0], np.cumsum(steps)])
        assert np.all(reflect(psi) >= 0.0)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_two_lipschitz(self, a, b):
        m = min(len(a), len(b))
        psi1 = np.concatenate([[0.0], np.cumsum(a[:m])])
        psi2 = np.concatenate([[0.0], np.cumsum(b[:m])])
        lhs = np.max(np.abs(reflect(psi1) - reflect(psi2)))
        assert lhs <= 2.0 * np.max(np.abs(psi1 - psi2)) + 1e-12


class TestFluidPathInvariants:
    @pytest.mark.parametrize("zeta0, zeta3, message", [
        ([0.0, 0.0, 0.0], [0.0, -0.1, -0.2], "zeta_k < 0 on the grid"),
        ([0.0, 0.0, 0.0], [0.5, 0.6, 0.7], "some zeta_k increases along the grid"),
        ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], "r(zeta) increases along the grid"),
        ([0.0, 0.5, 0.0], [1.0, 0.5, 0.0], "zeta_0 deviates from the reflection of psi"),
    ])
    def test_each_failure_names_its_invariant(self, zeta0, zeta3, message):
        path = FluidPath(grid=np.arange(3.0), degrees=(3,), zeta0=zeta0,
                         zetak=np.array(zeta3)[:, None], psi=np.zeros(3))
        with pytest.raises(PreconditionError, match=re.escape(message)):
            path.check_invariants()


class TestVarsigma:
    def test_regular_drop(self):
        assert make_segment_spec(X1_REG, X2_REG).varsigma == 0.75

    def test_identical_states(self):
        assert make_segment_spec(X1_REG, X1_REG).varsigma == 0.0

    def test_profile_drop_is_half_edge_mass(self):
        p = {1: 0.5, 3: 0.5}
        q = {1: 0.1, 3: 0.3}
        x1 = StatePoint(0.0, p)
        x2 = StatePoint(0.0, {k: p[k] - q[k] for k in p})
        assert make_segment_spec(x1, x2).varsigma == pytest.approx(
            0.5 * sum(k * v for k, v in q.items()), abs=1e-15)

    def test_negative_duration_rejected(self):
        # the drop, -9e-13, is inside the 1e-12 tolerance; r falls by 2.7e-12
        with pytest.raises(DomainError, match="segment duration varsigma = .* is negative"):
            make_segment_spec(StatePoint(0, {3: 1.0}), StatePoint(0, {3: 1.0 + 9e-13}))


class TestTransitionRoot:
    def test_case_i(self):
        beta, case = _root(X1_REG, X2_REG)
        assert beta == 0.0 and case == CASE_I

    def test_matches_profile_root(self):
        x1 = StatePoint(0.0, {1: 0.5, 3: 0.5})
        x2 = StatePoint(0.0, {1: 0.4, 3: 0.2})
        beta, case = _root(x1, x2)
        assert case == CASE_II
        assert beta == pytest.approx(4.0 - math.sqrt(15.0), abs=1e-12)

    def test_active_endpoints_root(self):
        beta, case = _root(X1_ACT, X2_ACT)
        assert case == CASE_II
        assert beta == pytest.approx(0.5218479361478246, abs=1e-10)
        resid = (-1.5 * beta / (1 + beta + beta * beta) + 0.5 / beta - beta)
        assert abs(resid) <= 1e-10

    def test_agrees_with_profile_root_exactly(self):
        # weights for which z = x1 - x2 is exactly q, so both routes solve
        # the same equation on the same bracket; the second root lies below
        # the bracket's 1e-15
        for p, q in (({1: 0.5, 3: 0.5}, {1: 0.125, 3: 0.375}),
                     ({1: 2e-20, 3: 0.5}, {1: 1e-20, 3: 0.3})):
            x2 = StatePoint(0.0, {k: p[k] - q[k] for k in p})
            assert {k: p[k] - x2.mass(k) for k in p} == q
            assert beta_of_q(q) == _root(StatePoint(0.0, p), x2)[0]

    def test_neither_case_rejected(self):
        # x2_0 > 0 rules out case (i); edge drop equal to twice the vertex
        # drop rules out case (ii)
        with pytest.raises(FeasibilityError):
            _root(StatePoint(0.05, {2: 0.5}), StatePoint(0.05, {2: 0.4}))

    def test_root_residual_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x10 = rng.uniform(0.0, 1.0)
            x20 = rng.uniform(0.0, x10)
            m1 = rng.uniform(0.3, 1.0)
            m2 = rng.uniform(0.05, 0.9) * m1
            z0, z4 = x10 - x20, m1 - m2
            if not (z0 + 4.0 * z4 > 2.0 * z4 and x20 > 0.0):
                continue
            b, case = _root(StatePoint(x10, {4: m1}), StatePoint(x20, {4: m2}))
            assert case == CASE_II
            resid = -4.0 * z4 * (b - b ** 3) / (1.0 - b ** 4) + x20 / b - b * x10
            assert abs(resid) <= 1e-10

    def test_continuity_along_sequences(self):
        beta_lim, _ = _root(X1_ACT, X2_ACT)
        rng = np.random.default_rng(8)
        for scale in (1e-2, 1e-4, 1e-6):
            d = rng.uniform(-1.0, 1.0, size=4) * scale
            x1 = StatePoint(1.0 + d[0], {3: 1.0 + d[1]})
            x2 = StatePoint(0.5 + d[2], {3: 0.5 + d[3]})
            beta, _ = _root(x1, x2)
            assert abs(beta - beta_lim) <= 40.0 * scale


class TestMinimizer:
    def test_left_boundary_exact(self):
        spec = make_segment_spec(X1_REG, X2_REG)
        mp = minimizer_path(spec)
        assert mp.zeta(3)[0] == 1.0
        assert mp.zeta(0)[0] == 0.0

    def test_midpoint_values(self):
        spec = make_segment_spec(X1_REG, X2_REG)
        zeta0, zetak, _ = _segment_state(spec, spec.varsigma - np.array([0.375]))
        assert zetak[0, 0] == pytest.approx(0.6767766952966369, abs=1e-12)
        assert zeta0[0] == pytest.approx(0.2196699141100894, abs=1e-12)

    def test_right_endpoint_identities(self):
        for x1, x2 in ((X1_REG, X2_REG), (X1_ACT, X2_ACT)):
            spec = make_segment_spec(x1, x2)
            mp = minimizer_path(spec)
            assert mp.zeta(3)[-1] == pytest.approx(x2.mass(3), abs=1e-12)
            assert mp.zeta(0)[-1] == pytest.approx(x2.x0, abs=1e-12)

    def test_duration_bound(self):
        # varsigma <= varsigma~ for every valid segment
        rng = np.random.default_rng(4)
        for _ in range(50):
            x10 = rng.uniform(0.0, 1.0)
            m1 = rng.uniform(0.3, 1.0)
            m2 = rng.uniform(0.05, m1 * 0.9)
            x20 = rng.uniform(0.0, x10) if rng.uniform() < 0.5 else 0.0
            x1, x2 = StatePoint(x10, {3: m1}), StatePoint(x20, {3: m2})
            try:
                spec = make_segment_spec(x1, x2)
            except FeasibilityError:
                continue
            assert spec.varsigma <= spec.varsigma_tilde + 1e-12

    def test_interior_positive_active_mass(self):
        spec = make_segment_spec(X1_ACT, X2_ACT)
        mp = minimizer_path(spec)
        interior = (mp.grid > 0.0) & (mp.grid < spec.varsigma)
        assert np.min(mp.zeta0[interior]) > 0.0

    def test_unit_pace_membership(self):
        for x1, x2 in ((X1_REG, X2_REG), (X1_ACT, X2_ACT)):
            mp = minimizer_path(make_segment_spec(x1, x2))
            r = mp.r()
            slopes = np.diff(r) / np.diff(mp.grid)
            assert np.max(np.abs(slopes + 2.0)) <= 1e-8


class TestLocalRate:
    def test_natural_velocity_zero(self):
        x = StatePoint(0.2, {1: 0.3, 3: 0.4})
        degrees = x.degrees
        mu_k = [k * x.mass(k) / x.r() for k in degrees]
        v = LocalVelocity({k: -m for k, m in zip(degrees, mu_k)})
        assert local_rate_L(x, v) == pytest.approx(0.0, abs=1e-14)

    def test_rest_at_origin(self):
        assert local_rate_L(StatePoint(0.0, {}), LocalVelocity({})) == 0.0

    def test_single_term(self):
        # resting profile at a state with active fraction c costs log(1/c)
        x = StatePoint(1.0, {3: 1.0})
        c = x.x0 / x.r()
        assert local_rate_L(x, LocalVelocity({})) == pytest.approx(
            math.log(1.0 / c), abs=1e-14)

    def test_infinite_when_oversubscribed(self):
        x = StatePoint(0.0, {1: 0.5, 3: 0.5})
        assert local_rate_L(x, LocalVelocity({1: -0.7, 3: -0.7})) == math.inf

    def test_empty_state_is_point_mass_at_zero(self):
        x = StatePoint(0.0, {})
        assert local_rate_L(x, LocalVelocity({3: -0.1})) == math.inf
        assert local_rate_L(x, LocalVelocity({3: 0.0})) == 0.0

    def test_infinite_on_empty_degree(self):
        x = StatePoint(0.5, {3: 0.5})
        assert local_rate_L(x, LocalVelocity({2: -0.1})) == math.inf

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = StatePoint(rng.uniform(0.0, 1.0), {1: rng.uniform(0.01, 0.5),
                                                   4: rng.uniform(0.01, 0.5)})
            b1, b4 = -rng.uniform(0, 0.5), -rng.uniform(0, 0.5)
            assert local_rate_L(x, LocalVelocity({1: b1, 4: b4})) >= -1e-13

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            LocalVelocity({3: 0.5})
        with pytest.raises(DomainError):
            StatePoint(0.0, {2.5: 0.1})  # not truncated to degree 2

    def test_non_integral_velocity_degree_rejected(self):
        with pytest.raises(DomainError, match="positive integer"):
            LocalVelocity({2.5: -0.1})

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_non_finite_x0_rejected(self, x0):
        # a NaN x0 passed the sign check and gave a NaN varsigma
        with pytest.raises(DomainError, match="x0 must be finite"):
            StatePoint(x0, {3: 1.0})


class TestIntegrandBits:
    @settings(max_examples=300, deadline=None)
    @given(_integrand_inputs())
    def test_in_place_integrand_is_the_stacked_one(self, args):
        with np.errstate(all="ignore"):
            got = paths._rate_integrand(*args)
            want = _reference_integrand(*args)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("d", [8, 12])
    def test_transposed_velocities_summed_in_their_own_order(self, d):
        # numpy sums the columns of a transposed (d, n) array pairwise once
        # d >= 8, and the rows of a C-ordered one in turn
        rng = np.random.default_rng(d)
        ks = np.arange(1.0, d + 1.0)
        zetak = np.asfortranarray(rng.uniform(0.0, 0.2, (d, 64)))
        dzetak = np.asfortranarray(-rng.uniform(0.0, 0.2, (d, 64)))
        zeta0 = rng.uniform(0.0, 0.5, 64)
        if np.array_equal(np.ascontiguousarray(dzetak).sum(axis=0), dzetak.sum(axis=0)):
            pytest.skip("this numpy sums both layouts in one order")
        for floor in (0.0, paths._NU_FLOOR):
            assert np.array_equal(paths._rate_integrand(zeta0, zetak, dzetak, ks, floor),
                                  _reference_integrand(zeta0, zetak, dzetak, ks, floor))

    def test_closed_form_route_keeps_its_bits(self, monkeypatch):
        specs = _segment_battery()
        got = [path_cost(minimizer_path(spec)) for spec in specs]
        monkeypatch.setattr(paths, "_rate_integrand", _reference_integrand)
        assert [path_cost(minimizer_path(spec)) for spec in specs] == got

    def test_grid_route_keeps_its_bits(self):
        # the grid route's node values are np.interp's at the same node times
        fps = [_plain(minimizer_path(spec, 301)) for spec in _segment_battery()[:6]]
        fp = lln_path(DegreeDistribution({1: 0.5, 3: 0.5}), T=1.2, grid_points=301)
        t2 = float(fp.grid[fp.grid <= fp.tau_markers["tau"] + 1e-12][-1])
        for path, t1, t2 in [(f, f.grid[0], f.grid[-1]) for f in fps] + [(fp, 0.0, t2)]:
            seg = path.slice(t1, t2)
            half = 0.5 * np.diff(seg.grid)
            mid = seg.grid[:-1] + half
            g2 = 1.0 / math.sqrt(3.0)
            t = np.concatenate([mid - half * g2, mid + half * g2])
            _, dzetak = seg.derivatives()
            rows = np.vstack([seg.zeta0, seg.zetak.T, dzetak.T, paths._wake_error(dzetak)])
            vals = np.array([np.interp(t, seg.grid, row) for row in rows])
            d = len(seg.degrees)
            rates = _reference_integrand(vals[0], vals[1:d + 1], vals[d + 1:-1],
                                         np.array(seg.degrees, dtype=float),
                                         slack=np.maximum(vals[-1], paths._NU_FLOOR))
            want = float(np.sum(np.concatenate([half, half]) * rates))
            assert path_cost(path, t1, t2) == want


class TestPathCost:
    def test_regular_quadrature_matches(self):
        mp = minimizer_path(make_segment_spec(X1_REG, X2_REG))
        assert path_cost(mp) == pytest.approx(HALF_LOG2, abs=1e-6)

    def test_active_quadrature_matches(self):
        mp = minimizer_path(make_segment_spec(X1_ACT, X2_ACT))
        assert path_cost(mp) == pytest.approx(COST_ACTIVE_ENDPOINTS, abs=1e-6)

    def test_zero_length(self):
        mp = minimizer_path(make_segment_spec(X1_REG, X2_REG))
        assert path_cost(mp, 0.0, 0.0) == 0.0

    def test_pace_violation_reported(self):
        grid = np.linspace(0.0, 1.0, 11)
        flat = FluidPath(grid=grid, degrees=(3,), zeta0=np.zeros(11),
                         zetak=np.full((11, 1), 0.4), psi=np.zeros(11))
        with pytest.raises(PreconditionError, match=r"\|dr/dt \+ 2\|"):
            path_cost(flat)

    def test_oversubscribed_path_infinite(self):
        # unit pace, but 1.5 wakes per unit time: sum_k nu_k = 1.5 > 1
        t = np.linspace(0.0, 0.4, 41)
        path = FluidPath(grid=t, degrees=(1,), zeta0=1.0 - 0.5 * t,
                         zetak=(1.0 - 1.5 * t)[:, None], psi=np.zeros_like(t))
        assert path_cost(path) == math.inf

    def test_rising_sleeping_mass_infinite(self):
        # zeta_3 = 1 + 0.05 sin(pi t / 0.2) has the all-kill path's ends but
        # rises on [0, 0.1]: no chain puts a vertex back to sleep
        t = np.linspace(0.0, 0.2, 201)
        costs = []
        for z3 in (np.ones_like(t), 1.0 + 0.05 * np.sin(np.pi * t / 0.2)):
            z0 = 0.5 + 3.0 * (1.0 - z3) - 2.0 * t  # unit pace from x0 = 0.5
            costs.append(path_cost(FluidPath(grid=t, degrees=(3,), zeta0=z0,
                                             zetak=z3[:, None], psi=z0)))
        assert costs == [0.49681946254229653, math.inf]

    @pytest.mark.parametrize("t", [7.0, 0.013])
    def test_empty_interval_off_grid_rejected(self, t):
        # it returned 0.0, while the same bound around a nonempty interval raised
        fp = lln_path(DegreeDistribution({1: 0.5, 3: 0.5}), T=1.2, grid_points=101)
        with pytest.raises(DomainError, match="not a grid point"):
            path_cost(fp, t, t)
        assert path_cost(fp, float(fp.grid[1]), float(fp.grid[1])) == 0.0

    @pytest.mark.parametrize("t1, t2", [(0.0, math.inf), (math.nan, 0.4)])
    def test_non_finite_bound_rejected_on_the_grid(self, t1, t2):
        # t2 = inf made FluidPath.slice's tolerance infinite, so that it took
        # every grid point; t1 = nan was rejected only as an empty slice
        fp = lln_path(DegreeDistribution({1: 0.5, 3: 0.5}), T=1.2, grid_points=101)
        with pytest.raises(DomainError, match="finite"):
            path_cost(fp, t1, t2)



class TestFluidLimitRoute:
    @pytest.mark.parametrize("weights", [
        {1: 0.5, 3: 0.5},
        {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05},
        {3: 1.0},
        {1: 0.2, 2: 0.3, 4: 0.5},
        {1: 0.2, 4: 0.8},
    ])
    def test_lln_path_is_the_zero_cost_segment(self, weights):
        # up to tau, lln_path(p) is the minimizer of (0, p) -> (0, p_k rho^k)
        # with beta = rho and varsigma = tau, and that segment costs 0.  rho is
        # the transition root because sum_k k p_k rho^k = mu rho^2, so
        # z~_k = p_k, varsigma~ = mu/2 and zeta_k = p_k (1 - 2t/mu)^{k/2},
        # lln_path's own formula.  The two routes agree to 6.2e-15 on zeta_0
        # and 1.5e-15 on zeta_k; beta is within 1.4e-16 of rho, varsigma is
        # tau exactly, and the cost is at most 6.2e-16
        p = DegreeDistribution(weights)
        rho = survival_rho(p)
        x1 = StatePoint(0.0, dict(weights))
        x2 = StatePoint(0.0, {k: v * rho ** k for k, v in weights.items()})
        spec = make_segment_spec(x1, x2)
        tau = 0.5 * p.mu * (1.0 - rho * rho)
        assert abs(spec.beta - rho) <= 1e-13
        assert abs(spec.varsigma - tau) <= 1e-13
        grid = np.linspace(0.0, tau, 501)
        # lln_path needs a horizon of at least mu/2 >= tau
        fluid = lln_path(p, grid=np.append(grid, p.mu))
        zeta0, zetak, _ = _segment_state(spec, spec.varsigma - grid)
        assert np.max(np.abs(fluid.zeta0[:-1] - zeta0)) <= 1e-13
        for j, k in enumerate(spec.degrees):
            assert np.max(np.abs(fluid.zeta(k)[:-1] - zetak[:, j])) <= 1e-13
        assert abs(cost_closed_form(x1, x2)) <= 1e-14


class TestDynamicProgramming:
    def test_cost_is_a_value_function(self):
        # V(x1, y) + V(y, x2) >= V(x1, x2) for admissible y between the ends,
        # with equality on the minimizer.  On each battery segment y is the
        # minimizer at varsigma/4, /2 and 3/4 (split to 1.8e-15), then that
        # point with each mass moved by N(0, 0.05 drop), kept within
        # [x2_k, x1_k], and y_0 refit so r(y) is unchanged (margins from 8.4e-7)
        rng = np.random.default_rng(15)
        off = []
        for spec in _segment_battery():
            x1, x2, whole = spec.x1, spec.x2, spec.cost_closed_form()
            ks = np.array(spec.degrees, dtype=float)
            lo = np.array([x2.mass(k) for k in spec.degrees])
            hi = np.array([x1.mass(k) for k in spec.degrees])
            zeta0, zetak, _ = _segment_state(spec, spec.varsigma * np.array([0.75, 0.5, 0.25]))
            for y0, yk in zip(zeta0, zetak):
                y = StatePoint(max(y0, 0.0), dict(zip(spec.degrees, yk.tolist())))
                split = cost_closed_form(x1, y) + cost_closed_form(y, x2)
                assert abs(split - whole) <= 1e-12, (spec, y)
                for _ in range(4):
                    wk = np.clip(yk + rng.normal(0.0, 0.05, len(ks)) * (hi - lo), lo, hi)
                    w0 = y0 + ks @ (yk - wk)
                    if w0 < 0.0:
                        continue
                    w = StatePoint(w0, dict(zip(spec.degrees, wk.tolist())))
                    try:
                        split = cost_closed_form(x1, w) + cost_closed_form(w, x2)
                    except FeasibilityError:  # a part admits no transition root
                        continue
                    off.append(split - whole)
        assert len(off) >= 150 and min(off) >= -1e-12

    @pytest.mark.parametrize("D", [3, 4])
    def test_conjectured_rates_are_concatenated_segments(self, D):
        # exploring the windowed components one after another, (0, {D: 1}) ->
        # (0, {D: 1 - s_1}) -> (0, {D: 1 - s_1 - s_2}) -> ..., costs the
        # conjectured rate (to 4.2e-16 relative)
        def explored(sizes):
            rest, total = 1.0, 0.0
            for s in sizes:
                total += cost_closed_form(StatePoint(0.0, {D: rest}), StatePoint(0.0, {D: rest - s}))
                rest -= s
            return total

        for sizes in ([0.5], [0.3, 0.2], [0.2, 0.3], [0.4, 0.4], [0.25, 0.25], [0.25] * 4,
                      [0.5, 0.5], [0.3] * 3):
            want = rate_conjectured_multi(D, sizes)
            assert abs(explored(sizes) - want) <= 1e-12 * want, sizes
        for x in (0.5, 0.4, 0.3):
            want = rate_conjectured_largest(D, x)
            assert abs(explored([x] * math.floor(1.0 / x)) - want) <= 1e-12 * want, x


class TestClosedFormRoute:
    @pytest.mark.parametrize("x1, x2", BETA_NEAR_ONE)
    def test_beta_near_one_finite(self, x1, x2):
        # each was inf when path_cost differenced the minimizer's grid
        cost = path_cost(minimizer_path(make_segment_spec(x1, x2)))
        assert abs(cost - cost_closed_form(x1, x2)) <= 1e-7

    def test_battery_to_1e_11_and_1e_10(self):
        # over generator seeds 1-400 the worst are 2.2e-12 and 2.2e-12; with
        # the 1e-8 velocity floor case (i) reaches 1.1e-11 on this battery
        worst = {CASE_I: 0.0, CASE_II: 0.0}
        for spec in _segment_battery():
            err = abs(path_cost(minimizer_path(spec)) - cost_closed_form(spec.x1, spec.x2))
            worst[spec.case] = max(worst[spec.case], err)
        assert 0.0 < worst[CASE_I] <= 1e-11
        assert 0.0 < worst[CASE_II] <= 1e-10

    @pytest.mark.parametrize("x1, x2", [(X1_REG, X2_REG), (X1_ACT, X2_ACT), (X1_LEAF, X2_LEAF)]
                             + BETA_NEAR_ONE)
    def test_subinterval_costs_closed_form_between_its_states(self, x1, x2):
        # a piece of a minimizer is the minimizer between its own endpoints
        spec = make_segment_spec(x1, x2)
        mp = minimizer_path(spec)
        ts = np.array([0.0, 0.3, 0.7, 1.0]) * spec.varsigma
        zeta0, zetak, _ = _segment_state(spec, spec.varsigma - ts)
        states = [StatePoint(max(z0, 0.0), dict(zip(spec.degrees, row)))
                  for z0, row in zip(zeta0, zetak)]
        pieces = [path_cost(mp, a, b) for a, b in zip(ts, ts[1:])]
        for piece, a, b in zip(pieces, states, states[1:]):
            assert piece == pytest.approx(cost_closed_form(a, b), abs=1e-11)
        assert math.fsum(pieces) == pytest.approx(path_cost(mp), abs=1e-11)

    def test_interval_checked(self):
        mp = minimizer_path(make_segment_spec(X1_REG, X2_REG))
        with pytest.raises(DomainError):
            path_cost(mp, 0.5, 0.25)
        with pytest.raises(DomainError):
            path_cost(mp, 0.0, 0.8)  # varsigma = 0.75
        with pytest.raises(DomainError):
            path_cost(mp, -0.1, 0.5)

    @pytest.mark.parametrize("t1, t2", [(0.0, math.nan), (math.nan, 0.5)])
    def test_nan_bound_rejected(self, t1, t2):
        # each returned nan
        mp = minimizer_path(make_segment_spec(X1_REG, X2_REG))
        with pytest.raises(DomainError, match="finite"):
            path_cost(mp, t1, t2)

    def test_empty_interval_outside_segment_rejected(self):
        # it returned 0.0, while [0.5, 5.0] raised
        mp = minimizer_path(make_segment_spec(X1_REG, X2_REG))
        with pytest.raises(DomainError, match="not inside"):
            path_cost(mp, 5.0, 5.0)  # varsigma = 0.75
        assert path_cost(mp, 0.75, 0.75) == 0.0

    def test_state_matches_forward_form(self):
        for x1, x2 in [(X1_REG, X2_REG), (X1_ACT, X2_ACT), (X1_LEAF, X2_LEAF)] + BETA_NEAR_ONE:
            mp = minimizer_path(make_segment_spec(x1, x2))
            fwd = _forward_form(mp.spec, mp.grid)
            assert np.max(np.abs(mp.zetak - fwd.zetak)) <= 1e-14
            assert np.max(np.abs(mp.zeta0 - fwd.zeta0)) <= 1e-14
            assert np.max(np.abs(mp.psi - fwd.psi)) <= 1e-14

    def test_velocity_is_derivative_of_state(self):
        spec = make_segment_spec(*BETA_NEAR_ONE[1])
        t = np.linspace(0.1, 0.9, 9) * spec.varsigma
        h = 1e-6 * spec.varsigma
        _, ahead, _ = _segment_state(spec, spec.varsigma - (t + h))
        _, behind, _ = _segment_state(spec, spec.varsigma - (t - h))
        _, _, dzetak = _segment_state(spec, spec.varsigma - t)
        assert np.max(np.abs((ahead - behind) / (2.0 * h) - dzetak)) <= 1e-7

    def test_masses_at_the_ends_of_the_double_range(self):
        # the first cost +inf, as zeta_6 underflowed at 62 nodes; the second
        # and third raised "overflow encountered in divide" in their velocity
        spec = make_segment_spec(
            StatePoint(0.0, {3: 8.815952533666052e-38, 6: 3.718865243276547e-283}),
            StatePoint(0.0, {}))
        assert spec.cost_closed_form() == 0.0
        assert 0.0 <= path_cost(minimizer_path(spec)) <= 1e-50
        spec = make_segment_spec(
            StatePoint(5.899394527176587e-301, {1: 2.768922284478448e-304,
                                                4: 4.1733798198421405e-302}),
            StatePoint(0.0, {1: 1.8023336598994667e-304, 4: 1.4342534774766274e-302}))
        assert path_cost(minimizer_path(spec)) == pytest.approx(spec.cost_closed_form(),
                                                                rel=1e-12)
        # a subnormal varsigma: its masses carry about 11 bits
        spec = make_segment_spec(StatePoint(0.0, {3: 3e-320}), StatePoint(0.0, {3: 1e-320}))
        assert path_cost(minimizer_path(spec)) == pytest.approx(spec.cost_closed_form(),
                                                                rel=1e-2)

    @pytest.mark.parametrize("x1, x2", [(X1_REG, X2_REG), (X1_ACT, X2_ACT)] + BETA_NEAR_ONE)
    def test_scaled_state_is_the_state_times_the_scale(self, x1, x2):
        spec = make_segment_spec(x1, x2)
        rest = np.linspace(0.0, 1.0, 7) * spec.varsigma
        lam = 2.0 ** -40
        scaled = paths._unit_state(spec, lam * rest, lam)
        state = _segment_state(spec, rest)
        assert np.array_equal(scaled[0], lam * state[0])
        assert np.array_equal(scaled[1], lam * state[1])
        assert np.array_equal(scaled[2], state[2])

    def test_spec_travels_outside_meta(self):
        spec = make_segment_spec(X1_ACT, X2_ACT)
        mp = minimizer_path(spec)
        assert mp.spec is spec
        assert list(mp.meta) == ["varsigma", "varsigma_tilde", "beta", "case"]
        json.dumps(mp.meta)
        assert not hasattr(mp.slice(0.0, float(mp.grid[-1])), "spec")


class TestSampledOnFirstRead:
    ARRAYS = ("grid", "zeta0", "zetak", "psi")

    def test_cost_builds_no_grid(self, monkeypatch):
        calls = []

        def counted(vs, n):
            calls.append(n)
            return _segment_grid(vs, n)

        monkeypatch.setattr(paths, "_segment_grid", counted)
        for spec in _segment_battery():
            mp = minimizer_path(spec)
            assert abs(path_cost(mp) - cost_closed_form(spec.x1, spec.x2)) <= 1e-10
            assert "grid" not in mp.__dict__
        assert calls == []
        mp.zetak  # the first read samples all four arrays at once
        assert calls == [4501] and all(name in mp.__dict__ for name in self.ARRAYS)
        mp.grid, mp.psi
        assert calls == [4501]

    @pytest.mark.parametrize("grid_points", [4501, 4])
    def test_first_read_is_the_eager_evaluation(self, grid_points):
        specs = _segment_battery() + [make_segment_spec(X1_LEAF, X1_LEAF)]
        assert specs[-1].varsigma == 0.0
        for i, spec in enumerate(specs):
            mp = minimizer_path(spec, grid_points)
            getattr(mp, self.ARRAYS[i % 4])  # each array in turn is read first
            if spec.varsigma == 0.0:
                want = ([0.0], [spec.x1.x0], [[spec.x1.mass(k) for k in spec.x1.degrees]],
                        [0.0])
                assert mp.degrees == spec.x1.degrees
            else:
                grid = _segment_grid(spec.varsigma, grid_points)
                zeta0, zetak, _ = _segment_state(spec, spec.varsigma - grid)
                want = (grid, np.maximum(zeta0, 0.0), zetak, zeta0 - spec.x1.x0)
                assert mp.degrees == spec.degrees
            for name, w in zip(self.ARRAYS, want):
                got, w = getattr(mp, name), np.asarray(w, dtype=float)
                assert got.dtype == w.dtype and got.shape == w.shape
                assert got.tobytes() == w.tobytes()

    def test_grid_points_checked_at_the_call(self):
        with pytest.raises(DomainError):
            minimizer_path(make_segment_spec(X1_REG, X2_REG), 3)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_copies_and_slices_before_and_after_a_read(self, read_first):
        spec = make_segment_spec(X1_LEAF, X2_LEAF)
        eager = _plain(minimizer_path(spec, 57))
        mp = minimizer_path(spec, 57)
        if read_first:
            mp.psi
        t = float(eager.grid[10])
        for other in (copy.deepcopy(mp), pickle.loads(pickle.dumps(mp)), mp):
            assert ("grid" in other.__dict__) == read_first
            assert other.spec == spec and other.meta == mp.meta
            assert path_cost(other) == path_cost(mp)
            assert path_cost(other, 0.0, t) == path_cost(mp, 0.0, t)
            assert not hasattr(other, "no_such_array")
            other.check_invariants()
            piece = other.slice(0.0, t)
            assert type(piece) is FluidPath
            for name in self.ARRAYS:
                assert np.array_equal(getattr(piece, name), getattr(eager, name)[:11])
                assert np.array_equal(getattr(other, name), getattr(eager, name))


class TestGridRoute:
    def test_minimizer_grid_arrays_match(self):
        # minimizer_path's grid arrays, which the closed-form route never reads
        for spec in _segment_battery():
            cost = path_cost(_plain(minimizer_path(spec)))
            assert abs(cost - cost_closed_form(spec.x1, spec.x2)) <= 1e-6

    @pytest.mark.parametrize("x1, x2", BETA_NEAR_ONE)
    def test_velocity_noise_at_endpoint_tolerated(self, x1, x2):
        # the forward form loses digits as t -> varsigma; its differenced
        # velocities overshoot sum_k nu_k = 1 at x2 by more than 1e-8
        spec = make_segment_spec(x1, x2)
        fwd = _forward_form(spec, minimizer_path(spec).grid)
        _, dzetak = fwd.derivatives()
        assert np.max(-dzetak.sum(axis=1)) - 1.0 > 1e-8
        assert abs(path_cost(fwd) - cost_closed_form(x1, x2)) <= 1e-6


class TestClosedForm:
    def test_regular_value(self):
        assert cost_closed_form(X1_REG, X2_REG) == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_active_value(self):
        assert cost_closed_form(X1_ACT, X2_ACT) == pytest.approx(
            COST_ACTIVE_ENDPOINTS, abs=1e-12)

    def test_active_value_reproduces_offline(self, frozen_constants):
        assert frozen_constants["COST_ACTIVE_ENDPOINTS"] == COST_ACTIVE_ENDPOINTS

    def test_equals_profile_rate(self):
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        q = SubProfile({1: 0.1, 3: 0.3}, p)
        rb = rate_component_degree(p, q)
        cf = cost_closed_form(StatePoint(0.0, p.weights),
                              StatePoint(0.0, {1: 0.4, 3: 0.2}))
        assert abs(rb.I1 - cf) <= 1e-12

    def test_no_drop_zero(self):
        assert cost_closed_form(X1_REG, X1_REG) == pytest.approx(0.0, abs=1e-14)

    def test_spec_cost_is_the_pair_cost(self):
        for spec in _segment_battery():
            assert spec.cost_closed_form() == cost_closed_form(spec.x1, spec.x2)

    def test_battery_check_solves_each_root_once(self, monkeypatch):
        solved = []
        root = paths._transition_root

        def spy(*args):
            solved.append(args)
            return root(*args)

        monkeypatch.setattr(paths, "_transition_root", spy)
        _segment_battery()
        battery = len(solved)
        solved.clear()
        assert _check_quadrature().passed
        assert len(solved) == battery == 26  # one drawn pair has no root

    def test_additivity_exchange(self):
        # with no degree-one mass, exploring q then qbar costs the same as
        # exploring qbar then q
        rng = np.random.default_rng(21)
        p = {3: 0.4, 4: 0.3, 5: 0.3}
        for _ in range(20):
            q = {k: rng.uniform(0.0, 0.4) * v for k, v in p.items()}
            qb = {k: rng.uniform(0.0, 0.9) * (p[k] - q[k]) for k in p}

            def sp(w):
                return StatePoint(0.0, w)

            def minus(a, b):
                return {k: a[k] - b.get(k, 0.0) for k in a}

            lhs = (cost_closed_form(sp(p), sp(minus(p, qb)))
                   + cost_closed_form(sp(minus(p, qb)), sp(minus(minus(p, qb), q))))
            rhs = (cost_closed_form(sp(p), sp(minus(p, q)))
                   + cost_closed_form(sp(minus(p, q)), sp(minus(minus(p, q), qb))))
            assert abs(lhs - rhs) <= 1e-10
