"""The three benchmark workloads, each driving cmld's public API.

* ``rare-regular``: criterion 6, the lockstep estimator on one degree
  column, sharded over a process pool.  Uses ``estimate`` and ``rng`` only.
* ``mixed-sim``: one wide supercritical distribution through the scalar
  exact chain, ``sample_multigraph``, a CSV round trip and a
  single-process estimate with seven degree columns.
* ``theory``: no random numbers; ``core``, ``paths``, ``lln`` and
  ``fluid`` do all the work.

Each workload builds its inputs from the seed in ``__init__``, makes one
untimed warm-up call in ``warm_up``, and then runs timed passes.  A pass
marks its segment boundaries on the :class:`harness.SpeedClock` and checks
its own outputs into the shared :class:`harness.Checks`; no check pins a
hit count to the random stream.
"""

from __future__ import annotations

import inspect
import math
import os
import time

import numpy as np

from cmld import (
    CounterRNG,
    DegreeDistribution,
    DegreeSequence,
    FeasibilityError,
    K_of_q,
    StatePoint,
    beta_of_q,
    cost_closed_form,
    eea_run,
    empirical_path,
    estimate_event_prob,
    extract_components,
    giant_fraction,
    lln_path,
    make_segment_spec,
    minimizer_path,
    path_cost,
    rate_component_degree,
    rate_component_size,
    rate_d_regular_subgraph,
    rate_fit,
    sample_multigraph,
    survival_rho,
)
from cmld.errors import CmldError
from cmld.rng import counter_uniforms, stream_keys
from cmld.serialize import fluid_path_from_csv, fluid_path_to_csv

from harness import OUT, Checks, SpeedClock, Tracer, cpu_seconds, median, pool_workers

DEFAULT_CHUNK = inspect.signature(estimate_event_prob).parameters["chunk_size"].default
P_MIX = {1: 0.3, 2: 0.1, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.1, 10: 0.05}
Z95 = 1.96


def pass_seed(seed: int, i: int) -> int:
    """Seed of pass i; pass -1 is the warm-up."""
    return seed * 1_000_003 + i + 1


def relerr_x_sqrt_cpu(res, cpu_s: float) -> float:
    """Relative error from the estimator's own interval, times sqrt(CPU s)."""
    if res.p_hat == 0.0:
        return math.inf
    return (res.ci_high - res.ci_low) / (2.0 * Z95 * res.p_hat) * math.sqrt(cpu_s)


def check_interval(checks: Checks, res, what: str) -> None:
    checks.expect(0.0 <= res.ci_low <= res.p_hat <= res.ci_high <= 1.0
                  and 0 <= res.hits <= res.reps,
                  f"{what}: interval [{res.ci_low}, {res.ci_high}] around {res.p_hat}")


def timed_estimate(tracer: Tracer, *args, **kwargs) -> dict:
    """One estimate_event_prob call with its wall and CPU time (workers
    included: the pool is joined, so its CPU lands in children times)."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    res = tracer.call("estimate.estimate_event_prob", estimate_event_prob, *args, **kwargs)
    wall = time.perf_counter() - t0
    return {"res": res, "wall_s": wall, "cpu_s": cpu_seconds() - c0}


class Workload:
    name = ""

    def __init__(self, seed: int, tracer: Tracer, checks: Checks, clock: SpeedClock):
        self.seed = seed
        self.tracer = tracer
        self.checks = checks
        self.clock = clock

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, i: int) -> dict:
        raise NotImplementedError

    def probes(self) -> dict:
        """Traced-run measurements beyond the passes."""
        return {}

    def layer_metrics(self, passes: list[dict]) -> dict:
        raise NotImplementedError

    def scoped(self, passes: list[dict]) -> dict:
        """Workload-scoped end-to-end figures (reps_per_s, ...)."""
        return {}

    def params(self) -> dict:
        """Inputs, for the provenance record."""
        raise NotImplementedError

    def provenance_extra(self, passes: list[dict]) -> dict:
        """Per-pass outcomes (hits, CI widths, stage times) for the run record."""
        raise NotImplementedError


class RareRegular(Workload):
    """Criterion 6: a half-size component of a random 3-regular graph."""

    name = "rare-regular"
    SLOPE_BAND = (0.24, 0.48)  # criterion 6; theory log(2)/2 = 0.3466

    def __init__(self, seed, tracer, checks, clock, tiny=False):
        super().__init__(seed, tracer, checks, clock)
        self.p = DegreeDistribution({3: 1.0})
        self.q = {3: 0.5}
        self.ns = (12, 16, 20, 24)
        big = 1 << (17 if tiny else 20)
        self.reps = {12: big // 2, 16: big // 2, 20: big // 2, 24: big}
        self.workers = pool_workers()[0]
        self.inputs = {n: DegreeSequence.from_distribution(self.p, n) for n in self.ns}

    def _estimate(self, n: int, seed: int, workers: int, **kw) -> dict:
        return timed_estimate(self.tracer, self.p, self.q, eps=1.0 / n, reps=self.reps[n],
                              seed=seed, n=n, workers=workers, **kw)

    def warm_up(self) -> None:
        self._estimate(24, pass_seed(self.seed, -1), self.workers)

    def run_pass(self, i: int) -> dict:
        seed = pass_seed(self.seed, i)
        calls = {}
        for n in self.ns:
            c = self._estimate(n, seed, self.workers)
            self.checks.expect(c["res"].n == self.inputs[n].n,
                               f"n = {n}: simulated n {c['res'].n} differs")
            check_interval(self.checks, c["res"], f"n = {n}")
            calls[n] = c
            self.clock.mark()
        try:
            slope, _ = self.tracer.call("estimate.rate_fit", rate_fit,
                                        [calls[n]["res"] for n in self.ns])
        except CmldError as exc:
            slope = math.nan
            self.checks.expect(False, f"rate_fit: {exc}")
        else:
            lo, hi = self.SLOPE_BAND
            self.checks.expect(lo <= slope <= hi, f"slope {slope} outside [{lo}, {hi}]")
        return {"seed": seed, "calls": calls, "slope": slope}

    def probes(self) -> dict:
        seed = pass_seed(self.seed, 0)
        many = self._estimate(24, seed, self.workers)
        one = self._estimate(24, seed, 1)
        self.checks.expect(one["res"] == many["res"],
                           f"workers 1 vs {self.workers}: {one['res']} != {many['res']}")
        tiny_shard = 64
        pool = timed_estimate(self.tracer, self.p, self.q, eps=1.0 / 24,
                              reps=self.workers * tiny_shard, seed=seed, n=24,
                              workers=self.workers, chunk_size=tiny_shard)
        rows = min(DEFAULT_CHUNK, max(self.reps.values()))  # one shard wide
        keys = stream_keys(self.seed, np.arange(rows, dtype=np.uint64))
        for j in range(16):
            self.tracer.call("rng.counter_uniforms", counter_uniforms, keys, j)
        return {
            "estimate.scaling_eff": one["wall_s"] / (self.workers * many["wall_s"]),
            "estimate.pool_overhead_s": pool["wall_s"],
            "rng.vector_draw_ns":
                median(self.tracer.durations("rng.counter_uniforms")) / rows * 1e9,
        }

    def _pass_totals(self, p: dict) -> tuple[float, float, int]:
        calls = p["calls"].values()
        return (sum(c["wall_s"] for c in calls), sum(c["cpu_s"] for c in calls),
                sum(c["res"].reps for c in calls))

    def scoped(self, passes):
        rates = []
        for p in passes:
            wall, _, reps = self._pass_totals(p)
            rates.append(reps / wall)
        c24 = [p["calls"][24] for p in passes]
        return {
            "reps_per_s": median(rates),
            "relerr_x_sqrt_cpu_s": median([relerr_x_sqrt_cpu(c["res"], c["cpu_s"]) for c in c24]),
        }

    def layer_metrics(self, passes):
        out = {}
        for n in self.ns:
            calls = [p["calls"][n] for p in passes]
            out[f"estimate.us_per_rep.n{n}"] = median([c["wall_s"] / c["res"].reps * 1e6
                                                       for c in calls])
            out[f"estimate.hits.n{n}"] = median([c["res"].hits for c in calls])
            out[f"estimate.hit_ratio.n{n}"] = median([c["res"].hits / c["res"].reps
                                                      for c in calls])
        totals = [self._pass_totals(p) for p in passes]
        out["estimate.cpu_s"] = median([cpu for _, cpu, _ in totals])
        out["estimate.worker_idle_frac"] = median([1.0 - cpu / (wall * self.workers)
                                                   for wall, cpu, _ in totals])
        sc = self.scoped(passes)
        out["estimate.reps_per_s"] = sc["reps_per_s"]
        out["estimate.relerr_x_sqrt_cpu_s"] = sc["relerr_x_sqrt_cpu_s"]
        out["estimate.shard_rows"] = min(DEFAULT_CHUNK, max(self.reps.values()))
        out["estimate.shard_degrees"] = len(self.p.degrees)
        return out

    def params(self):
        return {
            "p": {"3": 1.0}, "q": {"3": 0.5}, "eps": "1/n",
            "reps": {str(n): r for n, r in self.reps.items()},
            "chunk_size": DEFAULT_CHUNK,
            "n_requested": list(self.ns),
            "n_used": [self.inputs[n].n for n in self.ns],
            "parity_fix": {str(n): self.inputs[n].parity_fix for n in self.ns},
            "workers": self.workers,
        }

    def provenance_extra(self, passes):
        return {
            "hits": {str(n): [p["calls"][n]["res"].hits for p in passes] for n in self.ns},
            "ci_width": {str(n): [p["calls"][n]["res"].ci_high - p["calls"][n]["res"].ci_low
                                  for p in passes] for n in self.ns},
            "slope": [p["slope"] for p in passes],
        }


class MixedSim(Workload):
    """One wide supercritical distribution through every simulation module."""

    name = "mixed-sim"
    GIANT_TOL = 0.01  # criterion 4's tolerances
    SUP_TOL = 0.02

    def __init__(self, seed, tracer, checks, clock, tiny=False):
        super().__init__(seed, tracer, checks, clock)
        self.p = DegreeDistribution(P_MIX)
        self.n_exact = 50_000 if tiny else 100_000
        self.n_est = 100
        self.est_reps = 2_000 if tiny else 20_000
        self.grid_points = 401
        self.d = DegreeSequence.from_distribution(self.p, self.n_exact)
        self.d_est = DegreeSequence.from_distribution(self.p, self.n_est)
        self.eps = 3.0 / self.d_est.n  # a few vertices
        rho = survival_rho(self.p)
        self.q = {k: v * (1.0 - rho ** k) for k, v in self.p.weights.items()}
        self.giant = giant_fraction(self.p)
        OUT.mkdir(exist_ok=True)
        self.csv = OUT / f"mixed-sim-{os.getpid()}.csv"

    def _estimate(self, seed: int) -> dict:
        return timed_estimate(self.tracer, self.p, self.q, eps=self.eps, reps=self.est_reps,
                              seed=seed, n=self.n_est, workers=1)

    def warm_up(self) -> None:
        self._estimate(pass_seed(self.seed, -1))

    def run_pass(self, i: int) -> dict:
        seed = pass_seed(self.seed, i)
        tr, ck, d, p = self.tracer, self.checks, self.d, self.p

        with tr.span("bench.lln_check"):
            t0 = time.perf_counter()
            rec = tr.call("explore.eea_run", eea_run, d, CounterRNG(seed, 0),
                          record_trajectory=True)
            eea_s = time.perf_counter() - t0
            largest, _, comps = tr.call("explore.extract_components", extract_components, rec)
            T = max(rec.n_steps / d.n, 0.5 * p.mu + 1e-9)
            grid = np.linspace(0.0, T, self.grid_points)
            emp = tr.call("explore.empirical_path", empirical_path, rec, d.n, grid)
            fluid = tr.call("lln.lln_path", lln_path, p, grid=grid)
            sup = max(float(np.max(np.abs(emp.zeta(k) - fluid.zeta(k))))
                      for k in range(p.max_degree + 1))
        totals: dict[int, int] = {}
        for c in comps:
            for k, v in c.degree_config.items():
                totals[k] = totals.get(k, 0) + v
        ck.expect(totals == d.counts() and sum(c.n_edges for c in comps) == d.m,
                  "component totals do not reproduce the degree histogram")
        ck.expect(abs(largest - self.giant) <= self.GIANT_TOL,
                  f"largest {largest} vs giant fraction {self.giant}")
        ck.expect(sup <= self.SUP_TOL, f"sup distance to lln_path {sup}")
        self.clock.mark()

        t0 = time.perf_counter()
        edges = tr.call("explore.sample_multigraph", sample_multigraph, d, CounterRNG(seed, 1))
        smg_s = time.perf_counter() - t0
        ends = np.bincount(np.asarray(edges, dtype=np.int64).ravel(), minlength=d.n)
        ck.expect(len(edges) == d.m and np.array_equal(ends, np.array(d.degrees)),
                  "sample_multigraph does not match the degree sequence")
        self.clock.mark()

        t0 = time.perf_counter()
        tr.call("serialize.fluid_path_to_csv", fluid_path_to_csv, fluid, self.csv)
        back = tr.call("serialize.fluid_path_from_csv", fluid_path_from_csv, self.csv)
        csv_s = time.perf_counter() - t0
        csv_bytes = self.csv.stat().st_size
        self.csv.unlink()
        same = (back.degrees == fluid.degrees and np.array_equal(back.grid, fluid.grid)
                and np.array_equal(back.zetak, fluid.zetak)
                and np.array_equal(back.zeta0, fluid.zeta0)
                and np.array_equal(back.psi, fluid.psi))
        ck.expect(same, "CSV round trip changed the grid or the columns")
        self.clock.mark()

        est = self._estimate(seed)
        check_interval(ck, est["res"], "wide estimate")
        ck.expect(est["res"].n == self.d_est.n, f"estimate simulated n {est['res'].n}")
        return {"seed": seed, "n_steps": rec.n_steps, "eea_s": eea_s, "smg_s": smg_s,
                "csv_s": csv_s, "csv_bytes": csv_bytes, "largest": largest, "sup": sup,
                "est": est}

    def probes(self) -> dict:
        rng = CounterRNG(self.seed, 0)
        batch = 1000
        for _ in range(30):  # one span per batch: a span per draw would cost more than the draw
            with self.tracer.span("rng.CounterRNG.uniform"):
                for _ in range(batch):
                    rng.uniform()
        return {"rng.scalar_draw_ns":
                median(self.tracer.durations("rng.CounterRNG.uniform")) / batch * 1e9}

    def scoped(self, passes):
        ests = [p["est"] for p in passes]
        return {
            "reps_per_s": median([e["res"].reps / e["wall_s"] for e in ests]),
            "steps_per_s": median([p["n_steps"] / p["eea_s"] for p in passes]),
        }

    def layer_metrics(self, passes):
        tr = self.tracer
        ests = [p["est"] for p in passes]
        roundtrip = [a + b for a, b in zip(tr.durations("serialize.fluid_path_to_csv"),
                                           tr.durations("serialize.fluid_path_from_csv"))]
        sc = self.scoped(passes)
        return {
            "estimate.us_per_rep.wide": median([e["wall_s"] / e["res"].reps * 1e6 for e in ests]),
            "estimate.hits.wide": median([e["res"].hits for e in ests]),
            "estimate.hit_ratio.wide": median([e["res"].hits / e["res"].reps for e in ests]),
            "estimate.reps_per_s.wide": sc["reps_per_s"],
            "estimate.shard_rows.wide": min(DEFAULT_CHUNK, self.est_reps),
            "estimate.shard_degrees.wide": len(self.d_est.counts()),
            "explore.eea_run_s": median(tr.durations("explore.eea_run")),
            "explore.sample_multigraph_s": median(tr.durations("explore.sample_multigraph")),
            "explore.empirical_path_ms": median(tr.durations("explore.empirical_path")) * 1e3,
            "explore.extract_components_ms":
                median(tr.durations("explore.extract_components")) * 1e3,
            "explore.n_steps": median([p["n_steps"] for p in passes]),
            "explore.steps_per_s": sc["steps_per_s"],
            "serialize.csv_roundtrip_ms": median(roundtrip) * 1e3,
            "serialize.csv_bytes": median([p["csv_bytes"] for p in passes]),
        }

    def params(self):
        return {
            "p": {str(k): v for k, v in P_MIX.items()},
            "n_requested": [self.n_exact, self.n_est],
            "n_used": [self.d.n, self.d_est.n],
            "parity_fix": [self.d.parity_fix, self.d_est.parity_fix],
            "q": {str(k): v for k, v in self.q.items()},
            "eps": self.eps,
            "reps": self.est_reps,
            "grid_points": self.grid_points,
            "workers": 1,
        }

    def provenance_extra(self, passes):
        return {
            "hits": [p["est"]["res"].hits for p in passes],
            "ci_width": [p["est"]["res"].ci_high - p["est"]["res"].ci_low for p in passes],
            "largest": [p["largest"] for p in passes],
            "sup": [p["sup"] for p in passes],
            "stage_wall_s": {"eea_run": [p["eea_s"] for p in passes],
                             "sample_multigraph": [p["smg_s"] for p in passes],
                             "csv_roundtrip": [p["csv_s"] for p in passes],
                             "estimate": [p["est"]["wall_s"] for p in passes]},
        }


def criterion2_battery() -> list[tuple[StatePoint, StatePoint]]:
    """The 25 segments of acceptance criterion 2 (fixed generator seed).

    The battery does not follow the workload seed: criterion 2's 1e-6
    tolerance is stated for this battery.
    """
    rng = np.random.default_rng(20240810)
    cases = [
        (StatePoint(0.0, {3: 1.0}), StatePoint(0.0, {3: 0.5})),
        (StatePoint(1.0, {3: 1.0}), StatePoint(0.5, {3: 0.5})),
        (StatePoint(0.0, {1: 0.5, 3: 0.5}), StatePoint(0.0, {1: 0.4, 3: 0.2})),
        (StatePoint(0.0, {4: 1.0}), StatePoint(0.0, {4: 0.25})),
    ]
    while len(cases) < 25:
        ks = sorted(int(k) for k in rng.choice(np.arange(1, 7), size=rng.integers(1, 4),
                                               replace=False))
        x1k = {k: float(rng.uniform(0.05, 0.6)) for k in ks}
        x2k = {k: v * float(rng.uniform(0.1, 0.9)) for k, v in x1k.items()}
        x10 = float(rng.uniform(0.0, 0.8))
        x20 = float(rng.uniform(0.0, x10)) if rng.uniform() < 0.4 else 0.0
        x1, x2 = StatePoint(x10, x1k), StatePoint(x20, x2k)
        try:
            make_segment_spec(x1, x2)
        except FeasibilityError:
            continue
        cases.append((x1, x2))
    return cases


class Theory(Workload):
    """Rate formulas, optimal paths and fluid limits; no random numbers."""

    name = "theory"
    SUPPORTS = ({3: .5, 4: .5}, {3: .3, 5: .7}, {3: .4, 4: .3, 5: .3},
                {3: .2, 4: .3, 6: .5}, {3: .25, 4: .25, 5: .25, 7: .25}, {4: .5, 6: .3, 9: .2})
    SIZES = (0.3, 0.5)
    MASS_TOL = 1e-9
    QUAD_TOL = 1e-6  # criterion 2
    ZERO_COST_TOL = 1e-5  # criterion 5
    INVARIANT_TOL = 2e-6  # tests/test_lln.py
    # criterion 3: (q, expected, tolerance)
    FROZEN_BETA = (({1: 0.1, 3: 0.3}, 4.0 - math.sqrt(15.0), 1e-9),
                   ({1: 0.2, 4: 0.2}, 2.0 - math.sqrt(3.0), 1e-9))
    FROZEN_K = (({1: 0.1, 3: 0.3}, 0.006066873509048356, 1e-6),)

    def __init__(self, seed, tracer, checks, clock, tiny=False):
        super().__init__(seed, tracer, checks, clock)
        self.supports = [DegreeDistribution(w) for w in self.SUPPORTS[:2 if tiny else None]]
        self.sizes = self.SIZES[:1] if tiny else self.SIZES
        self.battery = criterion2_battery()[:6 if tiny else None]
        rng = np.random.default_rng(seed)
        self.p13 = DegreeDistribution({1: 0.5, 3: 0.5})
        n_q = 5 if tiny else 30
        a = rng.uniform(0.02, 0.45, size=n_q)
        b = a + rng.uniform(0.02, 1.0, size=n_q) * (0.5 - a - 0.01)
        self.q_grid = [{1: float(x), 3: float(y)} for x, y in zip(a, b)]
        self.p_sub_reg = DegreeDistribution({3: 0.5, 4: 0.5})
        self.qD_grid = [float(x) for x in rng.uniform(0.05, 0.5, size=n_q)]
        self.p_mix = DegreeDistribution(P_MIX)
        self.p_sub = DegreeDistribution({1: 0.6, 2: 0.3, 3: 0.1})
        rho = survival_rho(self.p_mix)
        self.tau_mix = 0.5 * self.p_mix.mu * (1.0 - rho * rho)  # lln_path's tau
        # an explicit grid through tau: lln_path's default refined grid puts a
        # second point within an ulp of tau for this p, and path_cost then
        # rejects the last slope as not unit-pace
        T = 0.5 * self.p_mix.mu + 0.5
        self.mix_grid = np.union1d(np.linspace(0.0, T, 4001), [self.tau_mix])

    def warm_up(self) -> None:
        self._lln()

    def _invariants(self, fp, tol: float, what: str) -> None:
        try:
            self.tracer.call("fluid.check_invariants", fp.check_invariants, tol=tol)
        except CmldError as exc:
            self.checks.expect(False, f"{what}: {exc}")
        else:
            self.checks.expect(True, what)

    def _zero_cost(self, fp, t2: float, what: str) -> float:
        try:
            cost = self.tracer.call("paths.path_cost", path_cost, fp, 0.0, t2)
        except CmldError as exc:
            self.checks.expect(False, f"{what}: {exc}")
            return math.nan
        self.checks.expect(cost <= self.ZERO_COST_TOL, f"{what}: cost on [0, tau] = {cost}")
        return cost

    def _lln(self) -> dict:
        tr = self.tracer
        fp = tr.call("lln.lln_path", lln_path, self.p13, T=1.2, grid_points=2001)
        tau = fp.tau_markers["tau"]
        c13 = self._zero_cost(fp, float(fp.grid[fp.grid <= tau + 1e-12][-1]), "p13")
        self._invariants(fp, self.INVARIANT_TOL, "p13 invariants")
        fm = tr.call("lln.lln_path", lln_path, self.p_mix, grid=self.mix_grid)
        cmix = self._zero_cost(fm, self.tau_mix, "p_mix")
        self._invariants(fm, self.INVARIANT_TOL, "p_mix invariants")
        fs = tr.call("lln.lln_path.sub", lln_path, self.p_sub, T=0.5 * self.p_sub.mu + 0.2,
                     grid_points=1001)
        self._invariants(fs, 1e-9, "subcritical invariants")
        return {"zero_cost": max(c13, cmix)}

    def run_pass(self, i: int) -> dict:
        tr, ck = self.tracer, self.checks
        for p in self.supports:
            for r in self.sizes:
                rate, q = tr.call("core.rate_component_size", rate_component_size, p, r)
                ck.expect(rate >= 0.0 and abs(math.fsum(q.values()) - r) <= self.MASS_TOL
                          and all(0.0 <= v <= p.pk(k) + self.MASS_TOL for k, v in q.items()),
                          f"rate_component_size({p.weights}, {r}) = {rate}, {q}")
                self.clock.mark()

        for q in self.q_grid:
            br = tr.call("core.rate_component_degree", rate_component_degree, self.p13, q)
            beta = tr.call("core.beta_of_q", beta_of_q, q)
            K = tr.call("core.K_of_q", K_of_q, q)
            ck.expect(br.I1 >= 0.0 and 0.0 <= beta < 1.0 and br.beta == beta and br.K == K,
                      f"rate_component_degree at {q}: {br}")
        for qD in self.qD_grid:
            v = tr.call("core.rate_d_regular_subgraph", rate_d_regular_subgraph,
                        self.p_sub_reg, 3, qD)
            ck.expect(v >= 0.0, f"rate_d_regular_subgraph(3, {qD}) = {v}")
        for q, want, tol in self.FROZEN_BETA:
            got = tr.call("core.beta_of_q", beta_of_q, q)
            ck.expect(abs(got - want) <= tol, f"beta_of_q({q}) = {got}, want {want}")
        for q, want, tol in self.FROZEN_K:
            got = tr.call("core.K_of_q", K_of_q, q)
            ck.expect(abs(got - want) <= tol, f"K_of_q({q}) = {got}, want {want}")
        self.clock.mark()

        worst = 0.0
        for x1, x2 in self.battery:
            spec = tr.call("paths.make_segment_spec", make_segment_spec, x1, x2)
            path = tr.call("paths.minimizer_path", minimizer_path, spec)
            quad = tr.call("paths.path_cost", path_cost, path)
            closed = tr.call("paths.cost_closed_form", cost_closed_form, x1, x2)
            err = abs(quad - closed)
            worst = max(worst, err)
            ck.expect(err <= self.QUAD_TOL, f"segment {x1} -> {x2}: |quad - closed| = {err}")
        self.clock.mark()

        out = self._lln()
        out["max_quad_err"] = worst
        return out

    def layer_metrics(self, passes):
        tr = self.tracer
        size_calls = len(self.supports) * len(self.sizes)
        us = {name: median(tr.durations(name)) * 1e6 for name in (
            "core.rate_component_degree", "core.beta_of_q", "core.K_of_q",
            "core.rate_d_regular_subgraph", "paths.make_segment_spec", "paths.cost_closed_form")}
        return {
            "core.rate_component_size_s": median(tr.durations("core.rate_component_size")),
            "core.rate_component_size_calls": size_calls,
            "core.rate_component_degree_us": us["core.rate_component_degree"],
            "core.beta_of_q_us": us["core.beta_of_q"],
            "core.K_of_q_us": us["core.K_of_q"],
            "core.rate_d_regular_subgraph_us": us["core.rate_d_regular_subgraph"],
            "paths.make_segment_spec_us": us["paths.make_segment_spec"],
            "paths.minimizer_path_ms": median(tr.durations("paths.minimizer_path")) * 1e3,
            "paths.path_cost_ms": median(tr.durations("paths.path_cost")) * 1e3,
            "paths.cost_closed_form_us": us["paths.cost_closed_form"],
            "paths.max_quad_err": max(p["max_quad_err"] for p in passes),
            "fluid.check_invariants_ms": median(tr.durations("fluid.check_invariants")) * 1e3,
            "lln.lln_path_ms": median(tr.durations("lln.lln_path")) * 1e3,
            "lln.lln_path_sub_ms": median(tr.durations("lln.lln_path.sub")) * 1e3,
        }

    def params(self):
        return {
            "supports": [{str(k): v for k, v in p.weights.items()} for p in self.supports],
            "r": list(self.sizes),
            "q_grid": [{str(k): v for k, v in q.items()} for q in self.q_grid],
            "qD_grid": self.qD_grid,
            "segments": len(self.battery),
        }

    def provenance_extra(self, passes):
        return {"max_quad_err": [p["max_quad_err"] for p in passes],
                "zero_cost": [p["zero_cost"] for p in passes]}


WORKLOAD_TYPES = {w.name: w for w in (RareRegular, MixedSim, Theory)}


def make(name: str, seed: int, tracer: Tracer, checks: Checks, clock: SpeedClock,
         tiny: bool = False) -> Workload:
    return WORKLOAD_TYPES[name](seed, tracer, checks, clock, tiny)
