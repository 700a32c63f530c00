import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    beta_general,
    beta_of_q,
    cost_closed_form,
    lln_path,
    local_rate_L,
    make_segment_spec,
    minimizer_path,
    path_cost,
    rate_component_degree,
    varsigma,
)
from cmld.fluid import reflect

HALF_LOG2 = 0.5 * math.log(2.0)
# frozen from a 50-digit closed-form evaluation at the exact root
COST_ACTIVE_ENDPOINTS = 0.12669761393649971

X1_REG = StatePoint(0.0, {3: 1.0})
X2_REG = StatePoint(0.0, {3: 0.5})
X1_ACT = StatePoint(1.0, {3: 1.0})
X2_ACT = StatePoint(0.5, {3: 0.5})


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


class TestVarsigma:
    def test_regular_drop(self):
        assert varsigma(X1_REG, X2_REG) == 0.75

    def test_identical_states(self):
        assert varsigma(X1_REG, X1_REG) == 0.0

    def test_profile_drop_is_half_edge_mass(self):
        p = {1: 0.5, 3: 0.5}
        q = {1: 0.1, 3: 0.3}
        x1 = StatePoint(0.0, p)
        x2 = StatePoint(0.0, {k: p[k] - q[k] for k in p})
        assert varsigma(x1, x2) == pytest.approx(
            0.5 * sum(k * v for k, v in q.items()), abs=1e-15)


class TestTransitionRoot:
    def test_case_i(self):
        beta, case = beta_general(X1_REG, X2_REG)
        assert beta == 0.0 and case == CASE_I

    def test_matches_profile_root(self):
        x1 = StatePoint(0.0, {1: 0.5, 3: 0.5})
        x2 = StatePoint(0.0, {1: 0.4, 3: 0.2})
        beta, case = beta_general(x1, x2)
        assert case == CASE_II
        assert beta == pytest.approx(4.0 - math.sqrt(15.0), abs=1e-12)

    def test_active_endpoints_root(self):
        beta, case = beta_general(X1_ACT, X2_ACT)
        assert case == CASE_II
        assert beta == pytest.approx(0.5218479361478246, abs=1e-10)
        resid = (-1.5 * beta / (1 + beta + beta * beta) + 0.5 / beta - beta)
        assert abs(resid) <= 1e-10

    def test_agrees_with_profile_root_exactly(self):
        # dyadic weights make z = x1 - x2 exact, so both routes solve the
        # same equation on the same bracket
        p = {1: 0.5, 3: 0.5}
        q = {1: 0.125, 3: 0.375}
        x2 = StatePoint(0.0, {k: p[k] - q[k] for k in p})
        assert beta_general(StatePoint(0.0, p), x2)[0] == beta_of_q(q)

    def test_neither_case_rejected(self):
        # x2_0 > 0 rules out case (i); edge drop equal to twice the vertex
        # drop rules out case (ii)
        with pytest.raises(FeasibilityError):
            beta_general(StatePoint(0.05, {2: 0.5}), StatePoint(0.05, {2: 0.4}))

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
            b, case = beta_general(StatePoint(x10, {4: m1}), StatePoint(x20, {4: m2}))
            assert case == CASE_II
            resid = -4.0 * z4 * (b - b ** 3) / (1.0 - b ** 4) + x20 / b - b * x10
            assert abs(resid) <= 1e-10

    def test_continuity_along_sequences(self):
        beta_lim, _ = beta_general(X1_ACT, X2_ACT)
        rng = np.random.default_rng(8)
        for scale in (1e-2, 1e-4, 1e-6):
            d = rng.uniform(-1.0, 1.0, size=4) * scale
            x1 = StatePoint(1.0 + d[0], {3: 1.0 + d[1]})
            x2 = StatePoint(0.5 + d[2], {3: 0.5 + d[3]})
            beta, _ = beta_general(x1, x2)
            assert abs(beta - beta_lim) <= 40.0 * scale


class TestMinimizer:
    def test_left_boundary_exact(self):
        spec = make_segment_spec(X1_REG, X2_REG)
        mp = minimizer_path(spec)
        assert mp.zeta(3)[0] == 1.0
        assert mp.zeta(0)[0] == 0.0

    def test_midpoint_values(self):
        spec = make_segment_spec(X1_REG, X2_REG)
        mp = minimizer_path(spec, grid=np.linspace(0.0, 0.75, 2001))
        i = 1000  # t = 0.375
        assert mp.grid[i] == 0.375
        assert mp.zeta(3)[i] == pytest.approx(0.6767766952966369, abs=1e-12)
        assert mp.zeta(0)[i] == pytest.approx(0.2196699141100894, abs=1e-12)

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
        interior = (mp.grid > spec.t1) & (mp.grid < spec.t2)
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

    def test_lln_supercritical_zero_cost(self):
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        fp = lln_path(p, T=1.2, grid_points=2001)
        tau = fp.tau_markers["tau"]
        t2 = float(fp.grid[fp.grid <= tau + 1e-12][-1])
        assert path_cost(fp, 0.0, t2) <= 1e-5


class TestClosedForm:
    def test_regular_value(self):
        assert cost_closed_form(X1_REG, X2_REG) == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_active_value(self):
        assert cost_closed_form(X1_ACT, X2_ACT) == pytest.approx(
            COST_ACTIVE_ENDPOINTS, abs=1e-12)

    def test_equals_profile_rate(self):
        p = DegreeDistribution({1: 0.5, 3: 0.5})
        q = SubProfile({1: 0.1, 3: 0.3}, p)
        rb = rate_component_degree(p, q)
        cf = cost_closed_form(StatePoint(0.0, p.weights),
                              StatePoint(0.0, {1: 0.4, 3: 0.2}))
        assert abs(rb.I1 - cf) <= 1e-12

    def test_no_drop_zero(self):
        assert cost_closed_form(X1_REG, X1_REG) == pytest.approx(0.0, abs=1e-14)

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
