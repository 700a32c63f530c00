"""Cross-consistency battery behind the ``verify`` command.

Each check exercises two independent routes to the same quantity
(quadrature vs closed form, profile rate vs segment cost, simulation vs
conservation law) and reports pass/fail with the observed discrepancy.
The acceptance criteria and tests call these checks, so ``cmld verify``
runs the criteria's one battery at their tolerances.  :func:`lln_check`
returns one run's deviations from the fluid limit, which criterion 4
bounds; :func:`fluid_gap` computes them from any recorded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegreeDistribution,
    SubProfile,
    rate_component_degree,
    rate_d_regular,
)
from .errors import DomainError, FeasibilityError, StateError
from .explore import DegreeSequence, ExplorationRecord, eea_run, empirical_path, extract_components
from .fluid import reflect
from .lln import giant_fraction, lln_path, survival_rho
from .paths import (
    CASE_I,
    PathSegmentSpec,
    StatePoint,
    _unit_state,
    cost_closed_form,
    make_segment_spec,
    minimizer_path,
    path_cost,
)
from .rng import CounterRNG


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_triple_agreement() -> CheckResult:
    target = 0.5 * math.log(2.0)
    a = rate_d_regular(3, 0.5)
    b = rate_component_degree(DegreeDistribution({3: 1.0}), {3: 0.5}).I1
    c = cost_closed_form(StatePoint(0.0, {3: 1.0}), StatePoint(0.0, {3: 0.5}))
    worst = max(abs(v - target) for v in (a, b, c))
    return CheckResult("triple agreement (regular rate)", worst <= 1e-9,
                       f"max |.-log(2)/2| = {worst:.3e}")


def _segment_battery() -> list[PathSegmentSpec]:
    """Five hand-written segments, then random feasible ones from
    generator seed 20240810 up to 25.  Over seeds 1-400 of this
    generator (21 segments each) ``path_cost`` of a minimizer stays within
    2.2e-12 of the closed form; integrating the same paths from their grids
    reached 1.16e-6 at seed 278, above the 1e-6 tolerance."""
    cases = [
        (StatePoint(0.0, {3: 1.0}), StatePoint(0.0, {3: 0.5})),        # case (i)
        (StatePoint(1.0, {3: 1.0}), StatePoint(0.5, {3: 0.5})),        # beta ~ 0.522
        (StatePoint(0.0, {1: 0.5, 3: 0.5}), StatePoint(0.0, {1: 0.4, 3: 0.2})),
        (StatePoint(0.0, {4: 1.0}), StatePoint(0.0, {4: 0.25})),
        # beta ~ 0.9944 (generator seed 103)
        (StatePoint(0.17811420009550638, {1: 0.5949995265441596, 4: 0.13006241668863816}),
         StatePoint(0.0, {1: 0.36991778168318323, 4: 0.10607848419395322})),
    ]
    specs = [make_segment_spec(x1, x2) for x1, x2 in cases]
    rng = np.random.default_rng(20240810)
    while len(specs) < 25:
        ks = sorted(int(k) for k in rng.choice(np.arange(1, 7), size=rng.integers(1, 4),
                                               replace=False))
        x1k = {k: float(rng.uniform(0.05, 0.6)) for k in ks}
        x2k = {k: v * float(rng.uniform(0.1, 0.9)) for k, v in x1k.items()}
        x10 = float(rng.uniform(0.0, 0.8))
        x20 = float(rng.uniform(0.0, x10)) if rng.uniform() < 0.4 else 0.0
        try:
            specs.append(make_segment_spec(StatePoint(x10, x1k), StatePoint(x20, x2k)))
        except FeasibilityError:  # the pair admits no transition root
            pass
    return specs


def _check_quadrature() -> CheckResult:
    specs = _segment_battery()
    worst = max(abs(path_cost(minimizer_path(s)) - s.cost_closed_form()) for s in specs)
    n_case_i = sum(s.case == CASE_I for s in specs)
    n_case_ii = len(specs) - n_case_i
    return CheckResult("quadrature vs closed form",
                       worst <= 1e-6 and n_case_i > 0 and n_case_ii > 0,
                       f"{len(specs)} segments (case i x{n_case_i}, case ii x{n_case_ii}), "
                       f"max |quad - closed| = {worst:.3e}")


def _check_profile_vs_segment() -> CheckResult:
    p = DegreeDistribution({1: 0.5, 3: 0.5})
    q = SubProfile({1: 0.1, 3: 0.3}, p)
    rb = rate_component_degree(p, q)
    cf = cost_closed_form(StatePoint(0.0, p.weights),
                          StatePoint(0.0, {1: 0.4, 3: 0.2}))
    err = abs(rb.I1 - cf)
    return CheckResult("profile rate vs segment cost", err <= 1e-12,
                       f"|I1 - cost| = {err:.3e}")


def _value_function_gaps() -> tuple[float, list[float]]:
    """Bellman's inequality V(x1, y) + V(y, x2) >= V(x1, x2) for the
    closed-form cost V, with equality when y is on the minimizer.

    On each battery segment y is the minimizer at varsigma/4, /2 and 3/4.
    Each such y is then moved 4 times, every mass by N(0, 0.05 drop)
    (generator seed 15) kept within [x2_k, x1_k], with y_0 refit so that
    r(y) is unchanged; a move with y_0 < 0 or a part with no transition
    root is skipped.  Returns the largest |split - whole| on the minimizer
    and split - whole at every move kept.
    """
    rng = np.random.default_rng(15)
    on, off = 0.0, []
    for spec in _segment_battery():
        x1, x2, whole = spec.x1, spec.x2, spec.cost_closed_form()
        ks = np.array(spec.degrees, dtype=float)
        lo = np.array([x2.mass(k) for k in spec.degrees])
        hi = np.array([x1.mass(k) for k in spec.degrees])
        zeta0, zetak, _ = _unit_state(spec, spec.varsigma * np.array([0.75, 0.5, 0.25]), 1.0)
        for y0, yk in zip(zeta0, zetak):
            y = StatePoint(max(y0, 0.0), dict(zip(spec.degrees, yk.tolist())))
            on = max(on, abs(cost_closed_form(x1, y) + cost_closed_form(y, x2) - whole))
            for _ in range(4):
                wk = np.clip(yk + rng.normal(0.0, 0.05, len(ks)) * (hi - lo), lo, hi)
                w0 = y0 + ks @ (yk - wk)
                if w0 < 0.0:
                    continue
                w = StatePoint(w0, dict(zip(spec.degrees, wk.tolist())))
                try:
                    off.append(cost_closed_form(x1, w) + cost_closed_form(w, x2) - whole)
                except FeasibilityError:  # a part admits no transition root
                    pass
    return on, off


def _check_value_function() -> CheckResult:
    on, off = _value_function_gaps()
    least = min(off, default=math.nan)
    return CheckResult("closed-form cost: value function",
                       on <= 1e-12 and len(off) >= 150 and least >= -1e-12,
                       f"on the minimizer |split - whole| <= {on:.1e}; "
                       f"{len(off)} points off it, split - whole >= {least:.1e}")


def _check_lln_zero_cost() -> CheckResult:
    p = DegreeDistribution({1: 0.5, 3: 0.5})
    fp = lln_path(p, T=1.2, grid_points=2001)
    tau = fp.tau_markers["tau"]
    t2 = float(fp.grid[fp.grid <= tau + 1e-12][-1])
    cost = path_cost(fp, 0.0, t2)
    return CheckResult("zero-cost fluid trajectory", cost <= 1e-5,
                       f"cost on [0, tau] = {cost:.3e}")


def _check_conservation() -> CheckResult:
    rng = np.random.default_rng(7)
    for i in range(1000):
        n = int(rng.integers(2, 40))
        degs = rng.integers(1, 6, size=n)
        if degs.sum() % 2 == 1:
            degs[0] += 1
        d = DegreeSequence(tuple(int(x) for x in degs))
        try:
            rec = eea_run(d, CounterRNG(1234, i), record_trajectory=True)
        except StateError as exc:  # past the step bound, or totals off the histogram
            return CheckResult("exploration conservation", False, f"{exc} on sequence {i}")
        A, V, _ = rec.rows(np.arange(rec.n_steps + 1))
        ks = np.array(rec.degrees)
        drop = V[:-1] - V[1:]
        woken = drop.sum(axis=1)
        wake = woken == 1
        kill = (A[1:] - A[:-1] == -2) & (woken == 0)
        # waking degree k takes A to A + k - 2 from A > 0, and to k from A = 0
        a0, a1, k = A[:-1], A[1:], ks[np.argmax(drop, axis=1)]
        r = np.where(A > 0, A - 1, 0) + V @ ks
        faults = {
            "step bound violated": rec.n_steps > d.m + d.n,
            "non-conservative step": not np.all(wake | kill),
            "woken degree off A": np.any(wake & (a1 != np.where(a0 > 0, a0 + k - 2, k))),
            "r increased": np.any(np.diff(r) > 0),
        }
        fault = next((f for f, bad in faults.items() if bad), None)
        if fault:
            return CheckResult("exploration conservation", False, f"{fault} on sequence {i}")
    return CheckResult("exploration conservation", True, "1000 randomized degree sequences")


def _check_survival() -> CheckResult:
    p = DegreeDistribution({1: 0.5, 3: 0.5})
    e_rho = abs(survival_rho(p) - 1.0 / 3.0)
    e_gf = abs(giant_fraction(p) - 22.0 / 27.0)
    return CheckResult("survival root and giant fraction", e_rho <= 1e-10 and e_gf <= 1e-12,
                       f"rho dev {e_rho:.1e}, giant dev {e_gf:.1e}")


def lln_check(p: DegreeDistribution, n: int, seed: int) -> tuple[float, float]:
    """One trajectory-recorded run against the zero-cost fluid limit.

    Returns :func:`fluid_gap` of the run of stream (seed, 0) on
    ``DegreeSequence.from_distribution(p, n)``.
    """
    if n < 1000:
        raise DomainError(f"n >= 1000 required for a meaningful check, got {n}")
    d = DegreeSequence.from_distribution(p, n)
    return fluid_gap(eea_run(d, CounterRNG(seed, 0), record_trajectory=True), p)


def fluid_gap(rec: ExplorationRecord, p: DegreeDistribution,
              grid_points: int = 401) -> tuple[float, float]:
    """(largest component vertex fraction, sup over the grid and over
    degrees k <= max_degree of |empirical zeta_k - fluid zeta_k|) of a
    recorded run, against the fluid limit of ``p``."""
    largest, _, _ = extract_components(rec)
    T = max(rec.n_steps / rec.n, 0.5 * p.mu + 1e-9)
    grid = np.linspace(0.0, T, grid_points)
    emp = empirical_path(rec, rec.n, grid)
    fluid = lln_path(p, grid=grid)
    sup = max(float(np.max(np.abs(emp.zeta(k) - fluid.zeta(k))))
              for k in range(p.max_degree + 1))
    return largest, sup


def _check_fluid_limit() -> CheckResult:
    try:
        largest, sup = lln_check(DegreeDistribution({1: 0.5, 3: 0.5}), 100000, seed=20240810)
    except StateError as exc:  # past the step bound, or totals off the histogram
        return CheckResult("fluid limit", False, str(exc))
    return CheckResult("fluid limit", abs(largest - 22.0 / 27.0) <= 0.01 and sup <= 0.02,
                       f"n = 1e5: largest {largest:.4f} (giant {22 / 27:.4f}), "
                       f"sup distance {sup:.4f}")


def _check_reflection() -> CheckResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        steps = rng.normal(size=200)
        psi = np.concatenate([[0.0], np.cumsum(steps)])
        g = reflect(psi)
        if np.any(g < 0.0):
            return CheckResult("reflection map", False, "negative reflected value")
        psi2 = np.concatenate([[0.0], np.cumsum(rng.normal(size=200))])
        lhs = np.max(np.abs(reflect(psi) - reflect(psi2)))
        rhs = 2.0 * np.max(np.abs(psi - psi2))
        worst = max(worst, lhs - rhs)
    return CheckResult("reflection map", worst <= 1e-12,
                       f"Lipschitz slack = {worst:.3e}")


def run_battery() -> list[CheckResult]:
    return [_check_triple_agreement(), _check_quadrature(), _check_profile_vs_segment(),
            _check_lln_zero_cost(), _check_conservation(), _check_survival(),
            _check_fluid_limit(), _check_reflection(), _check_value_function()]


def print_table(results: list[CheckResult]) -> bool:
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    return all_ok
