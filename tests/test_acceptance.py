"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with timings.
"""

import math
import time
from collections import Counter

import numpy as np

from cmld import (
    CounterRNG,
    DegreeDistribution,
    DegreeSequence,
    FluidPath,
    StatePoint,
    cost_closed_form,
    eea_run,
    estimate_event_prob,
    make_segment_spec,
    minimizer_path,
    path_cost,
    rate_d_regular,
    rate_fit,
)
from cmld.verify import (
    _check_conservation,
    _check_fluid_limit,
    _check_lln_zero_cost,
    _check_quadrature,
    _check_survival,
    _check_triple_agreement,
)

def _report(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}  {detail}  ({elapsed:.2f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_triple_agreement():
    best = math.inf
    for _ in range(3):  # best-of-3 screens out scheduler noise on a <1ms budget
        t0 = time.perf_counter()
        result = _check_triple_agreement()
        best = min(best, time.perf_counter() - t0)
    ok = result.passed and best < 1e-3
    _report("1", ok, f"{result.detail}, runtime {best*1e6:.0f}us", best)


def test_criterion_2_quadrature_vs_closed_form():
    t0 = time.time()
    result = _check_quadrature()
    elapsed = time.time() - t0
    _report("2", result.passed and elapsed < 5.0, result.detail, elapsed)


def test_criterion_3_root_exactness():
    t0 = time.time()
    from cmld import K_of_q, beta_of_q

    e1 = abs(beta_of_q({1: 0.1, 3: 0.3}) - (4.0 - math.sqrt(15.0)))
    e2 = abs(beta_of_q({1: 0.2, 4: 0.2}) - (2.0 - math.sqrt(3.0)))
    e3 = abs(K_of_q({1: 0.1, 3: 0.3}) - 0.006066873509048356)
    elapsed = time.time() - t0
    ok = e1 <= 1e-9 and e2 <= 1e-9 and e3 <= 1e-6
    _report("3", ok, f"|beta - (4-sqrt15)| = {e1:.2e}, |beta - (2-sqrt3)| = {e2:.2e}, "
            f"K dev = {e3:.2e}", elapsed)


def test_criterion_4_lln_quantitative():
    t0 = time.time()
    survival = _check_survival()
    fluid = _check_fluid_limit()
    elapsed = time.time() - t0
    _report("4", survival.passed and fluid.passed and elapsed < 10.0,
            f"{survival.detail}, {fluid.detail}", elapsed)


def test_criterion_5_zero_cost_fluid_path():
    t0 = time.time()
    result = _check_lln_zero_cost()
    elapsed = time.time() - t0
    _report("5", result.passed and elapsed < 1.0, result.detail, elapsed)


def test_criterion_6_rare_event_decay():
    t0 = time.time()
    p3 = DegreeDistribution({3: 1.0})
    results = []
    for n in (12, 16, 20, 24):
        res = estimate_event_prob(p3, {3: 0.5}, eps=1.0 / n, reps=1_000_000,
                                  seed=20240810, n=n, workers=8)
        results.append(res)
    slope, intercept = rate_fit(results)
    elapsed = time.time() - t0
    hits = [r.hits for r in results]
    # the hits are a pure function of (input, seed, reps), so any change to
    # them is a change to the chain or to its draws
    ok = 0.24 <= slope <= 0.48 and hits == [2379, 561, 134, 34] and elapsed < 600.0
    _report("6", ok, f"hits {hits}, slope {slope:.4f} in [0.24, 0.48] "
            f"(theory 0.3466), intercept {intercept:.3f}", elapsed)


def _tv_against_enumeration() -> float:
    def enumerate_matchings(halves):
        if not halves:
            yield []
            return
        first = halves[0]
        for i in range(1, len(halves)):
            rest = halves[1:i] + halves[i + 1:]
            for m in enumerate_matchings(rest):
                yield [(first, halves[i])] + m

    def union_components(n, edges):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return tuple(sorted(Counter(find(i) for i in range(n)).values()))

    d = DegreeSequence((1, 1, 1, 1, 2))
    halves = [v for v, deg in enumerate(d.degrees) for _ in range(deg)]
    exact = Counter()
    total = 0
    for m in enumerate_matchings(list(range(len(halves)))):
        edges = [(halves[a], halves[b]) for a, b in m]
        exact[union_components(d.n, edges)] += 1
        total += 1
    assert total == 15
    reps = 100000
    emp = Counter()
    for s in range(reps):
        rec = eea_run(d, CounterRNG(31415, s))
        emp[tuple(sorted(c.n_vertices for c in rec.components))] += 1
    keys = set(exact) | set(emp)
    return 0.5 * sum(abs(exact.get(k, 0) / total - emp.get(k, 0) / reps) for k in keys)


def _perturbation_suite() -> float:
    """Worst cost margin of 100 perturbed unit-pace paths vs the minimizer."""
    x1, x2 = StatePoint(0.0, {3: 1.0}), StatePoint(0.0, {3: 0.5})
    spec = make_segment_spec(x1, x2)
    base = minimizer_path(spec)
    base_cost = path_cost(base)
    grid, vs = base.grid, spec.varsigma
    u = grid / vs
    z3 = base.zeta(3)
    dz3 = np.gradient(z3, grid)
    nu0 = 1.0 + dz3

    rng = np.random.default_rng(20240810)
    worst = math.inf
    trials = 0
    while trials < 50:
        coef = rng.normal(size=4)
        poly = coef[0] + coef[1] * u + coef[2] * u ** 2 + coef[3] * u ** 3
        dpoly = coef[1] + 2 * coef[2] * u + 3 * coef[3] * u ** 2
        theta = u ** 2 * (1 - u) ** 2 * poly
        dtheta = ((2 * u * (1 - u) ** 2 - 2 * u ** 2 * (1 - u)) * poly
                  + u ** 2 * (1 - u) ** 2 * dpoly) / vs
        eps_max = 0.05
        cons = []
        m = dtheta > 1e-12
        if m.any():
            cons.append(np.min(-dz3[m] / (eps_max * dtheta[m])))
        m = theta > 1e-12
        if m.any():
            cons.append(np.min(base.zeta0[m] / (3.0 * eps_max * theta[m])))
        m = dtheta < -1e-12
        if m.any():
            cons.append(np.min(nu0[m] / (eps_max * -dtheta[m])))
        scale = 0.8 * min(c for c in cons if np.isfinite(c))
        if not scale > 0.0:
            continue
        trials += 1
        for eps in (0.01, 0.05):
            z3p = z3 + eps * scale * theta
            z0p = np.maximum(3.0 * (1.0 - z3p) - 2.0 * grid, 0.0)
            pert = FluidPath(grid=grid, degrees=(3,), zeta0=z0p,
                             zetak=z3p.reshape(-1, 1), psi=z0p)
            worst = min(worst, path_cost(pert) - base_cost)
    return worst


def _additivity_suite() -> float:
    rng = np.random.default_rng(21)
    p = {3: 0.4, 4: 0.3, 5: 0.3}
    worst = 0.0

    def sp(w):
        return StatePoint(0.0, w)

    def minus(a, b):
        return {k: a[k] - b.get(k, 0.0) for k in a}

    for _ in range(20):
        q = {k: rng.uniform(0.0, 0.4) * v for k, v in p.items()}
        qb = {k: rng.uniform(0.0, 0.9) * (p[k] - q[k]) for k in p}
        lhs = (cost_closed_form(sp(p), sp(minus(p, qb)))
               + cost_closed_form(sp(minus(p, qb)), sp(minus(minus(p, qb), q))))
        rhs = (cost_closed_form(sp(p), sp(minus(p, q)))
               + cost_closed_form(sp(minus(p, q)), sp(minus(minus(p, q), qb))))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _symmetry_exact() -> bool:
    for D in (3, 4, 5, 6):
        for q in (0.1, 0.25, 0.3, 0.5, 0.7734, 0.9):
            if rate_d_regular(D, q) != rate_d_regular(D, 1.0 - q):
                return False
    return True


def test_criterion_7_property_suites():
    t0 = time.time()
    conservation = _check_conservation()
    tv = _tv_against_enumeration()
    worst_margin = _perturbation_suite()
    add_err = _additivity_suite()
    sym = _symmetry_exact()
    elapsed = time.time() - t0
    ok = (conservation.passed and tv <= 0.02 and worst_margin >= -1e-9
          and add_err <= 1e-10 and sym and elapsed < 120.0)
    _report("7", ok, f"conservation {conservation.detail}, "
            f"TV {tv:.4f}, perturbation margin {worst_margin:.2e}, "
            f"additivity dev {add_err:.2e}, symmetry exact {sym}", elapsed)


def test_criterion_8_worker_determinism():
    t0 = time.time()
    p3 = DegreeDistribution({3: 1.0})
    outcomes = []
    for workers in (1, 4, 16):
        res = estimate_event_prob(p3, {3: 0.5}, eps=1.0 / 16, reps=60000,
                                  seed=424242, n=16, workers=workers,
                                  chunk_size=2048)
        outcomes.append(res)
    elapsed = time.time() - t0
    ok = outcomes[0] == outcomes[1] == outcomes[2]
    _report("8", ok, f"p_hat {outcomes[0].p_hat:.6g} identical across "
            f"workers 1/4/16: {ok}", elapsed)
