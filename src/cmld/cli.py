"""Command-line front end.

Commands: rate {degree|dreg|dreg-sub|size|largest-conj}, lln, path,
simulate, estimate, verify.  Exit codes: 0 success, 1 validation failure
(bad arguments; a file missing, malformed or holding a non-number), 2
infeasible mathematical input such as a non-integral or non-positive degree
or a non-finite weight (the message names the violated condition).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import core
from .errors import CmldError, DomainError, FitError
from .estimate import estimate_event_prob, rate_fit
from .explore import DegreeSequence, eea_run, empirical_path, extract_components
from .lln import giant_fraction, lln_path
from .paths import make_segment_spec, minimizer_path, path_cost
from .rng import CounterRNG
from .serialize import (
    estimates_to_csv,
    fluid_path_to_csv,
    json_line,
    json_text,
    load_degree_distribution,
    load_degree_input,
    load_state_point,
    load_sub_profile,
    write_sidecar,
)
from .verify import fluid_gap, print_table, run_battery

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="cmld", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="static decay rates")
    rsub = rate.add_subparsers(dest="rate_kind", required=True)

    r_deg = rsub.add_parser("degree", help="component degree-profile rate")
    r_deg.add_argument("--p", required=True, help="degree distribution JSON")
    r_deg.add_argument("--q", required=True, help="sub-profile JSON")

    r_dreg = rsub.add_parser("dreg", help="regular-graph component rate")
    r_dreg.add_argument("--D", type=int, required=True)
    r_dreg.add_argument("--q", type=float, required=True)

    r_sub = rsub.add_parser("dreg-sub", help="regular subgraph rate under general p")
    r_sub.add_argument("--p", required=True)
    r_sub.add_argument("--D", type=int, required=True)
    r_sub.add_argument("--q", type=float, required=True)

    r_size = rsub.add_parser("size", help="component-size rate (p_1 = p_2 = 0)")
    r_size.add_argument("--p", required=True)
    r_size.add_argument("--r", type=float, required=True)

    r_max = rsub.add_parser("largest-conj", help="conjectured largest-component rate")
    r_max.add_argument("--D", type=int, required=True)
    r_max.add_argument("--x", type=float, required=True)

    for sp in (r_deg, r_dreg, r_sub, r_size, r_max):
        sp.add_argument("--out", default=None)

    lln = sub.add_parser("lln", help="zero-cost fluid trajectory")
    lln.add_argument("--p", required=True)
    lln.add_argument("--T", type=float, required=True)
    lln.add_argument("--grid", type=int, default=1001,
                     help="uniform points of the trajectory, at least 2; the grid is refined "
                          "around tau, so more rows may be written (1032 at 1001 for "
                          "p = {1: .5, 3: .5})")
    lln.add_argument("--out", default=None, help="trajectory CSV (sidecar JSON alongside)")

    path = sub.add_parser("path", help="minimizing segment trajectory and cost")
    path.add_argument("--x1", required=True, help="start state JSON")
    path.add_argument("--x2", required=True, help="end state JSON")
    path.add_argument("--grid", type=int, default=4501,
                      help="points of the trajectory written to --out, at least 4; the "
                           "cost is integrated in closed form and does not depend on it")
    path.add_argument("--out", default=None, help="trajectory CSV (cost JSON alongside)")

    sim = sub.add_parser("simulate", help="one exploration run")
    sim.add_argument("--p", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--trajectory", action="store_true",
                     help="also write the rescaled trajectory and its fluid gap; "
                          "acts only with --out")
    sim.add_argument("--grid", type=int, default=401,
                     help="points of the trajectory written with --trajectory, at least 2; "
                          "acts only with --out")
    sim.add_argument("--out", default=None)

    est = sub.add_parser("estimate", help="rare-event probability estimate")
    est.add_argument("--p", required=True)
    est.add_argument("--q", required=True)
    est.add_argument("--n", type=int, nargs="+", required=True,
                     help="one or more sizes; three or more add a decay-rate fit line")
    est.add_argument("--eps", type=float, nargs="+", required=True,
                     help="one window half-width, or one per size")
    est.add_argument("--reps", type=int, required=True)
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--workers", type=int, default=1)
    est.add_argument("--format", choices=("json", "csv"), default="json")
    est.add_argument("--out", default=None)

    sub.add_parser("verify", help="cross-consistency battery")
    return p


def _emit(payload: dict, out: str | None) -> None:
    if out:
        write_sidecar(payload, out)
    print(json_text(payload))


def _cmd_rate(args: argparse.Namespace) -> int:
    if args.rate_kind == "degree":
        p = load_degree_distribution(args.p)
        q = load_sub_profile(args.q, p)
        payload = core.rate_component_degree(p, q).as_dict()
    elif args.rate_kind in ("dreg", "dreg-sub"):
        rate = (core.rate_d_regular(args.D, args.q) if args.rate_kind == "dreg" else
                core.rate_d_regular_subgraph(load_degree_distribution(args.p), args.D, args.q))
        payload = core.rate_record(rate, {"D": args.D, "q": args.q})
    elif args.rate_kind == "size":
        rate, argmin = core.rate_component_size(load_degree_distribution(args.p), args.r)
        payload = core.rate_record(rate, {"r": args.r},
                                   argmin={str(k): v for k, v in argmin.items()})
    else:  # largest-conj
        rate = core.rate_conjectured_largest(args.D, args.x)
        payload = core.rate_record(rate, {"D": args.D, "x": args.x}, conjecture=True)
    _emit(payload, args.out)
    return 0


def _cmd_lln(args: argparse.Namespace) -> int:
    p = load_degree_distribution(args.p)
    fp = lln_path(p, T=args.T, grid_points=args.grid)
    if args.out:
        fluid_path_to_csv(fp, args.out)
        write_sidecar({**fp.meta, "grid_points": args.grid, "rows": len(fp.grid)},
                      Path(args.out).with_suffix(".meta.json"))
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        _emit(fp.meta, None)
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    x1 = load_state_point(args.x1)
    x2 = load_state_point(args.x2)
    spec = make_segment_spec(x1, x2)
    traj = minimizer_path(spec, grid_points=args.grid)
    cost_quad = path_cost(traj)
    cost_closed = spec.cost_closed_form()
    report = {
        **traj.meta,
        "cost_closed": cost_closed,
        "cost_quadrature": cost_quad,
        "residual": abs(cost_quad - cost_closed),
        "sign_convention": core.SIGN_NOTE,
    }
    if args.out:
        fluid_path_to_csv(traj, args.out)
        write_sidecar(report, Path(args.out).with_suffix(".cost.json"))
        print(f"wrote {args.out}", file=sys.stderr)
    _emit(report, None)
    return 0


def _report_n(asked: int, used: int) -> None:
    if used != asked:
        print(f"note: --n {asked} gives a {used}-vertex graph (each n p_k is rounded, "
              "and an odd half-edge total loses one vertex)", file=sys.stderr)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise DomainError(f"grid_points must be at least 2, got {args.grid}")
    d = p = load_degree_input(args.p)
    if isinstance(p, core.DegreeDistribution):
        d = DegreeSequence.from_distribution(p, args.n)
        _report_n(args.n, d.n)
    elif args.n != d.n:
        raise ValueError(f"--n {args.n} does not match the {d.n}-vertex sequence")
    else:  # the sequence's own degree frequencies n_k / n
        p = core.DegreeDistribution({k: c / d.n for k, c in d.counts().items()})
    write_trajectory = args.trajectory and bool(args.out)  # the trajectory goes only to --out
    rec = eea_run(d, CounterRNG(args.seed, 0), record_trajectory=write_trajectory)
    largest, n_comp, comps = extract_components(rec)
    payload = {
        "n": d.n,
        "m": d.m,
        "seed": args.seed,
        "steps": rec.n_steps,
        "n_components": n_comp,
        "largest_fraction": largest,
        "parity_fix": d.parity_fix,
        "components": [
            {"vertices": c.n_vertices, "edges": c.n_edges,
             "degree_config": {str(k): v for k, v in c.degree_config.items()}}
            for c in comps[:50]
        ],
    }
    if write_trajectory:
        grid = np.linspace(0.0, rec.n_steps / d.n, args.grid)
        fluid_path_to_csv(empirical_path(rec, d.n, grid), Path(args.out).with_suffix(".traj.csv"))
        _, sup = fluid_gap(rec, p, args.grid)
        write_sidecar({"n": d.n, "grid_points": args.grid, "giant_fraction": giant_fraction(p),
                       "largest_fraction": largest, "sup_distance": sup},
                      Path(args.out).with_suffix(".traj.meta.json"))
    _emit(payload, args.out)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if len(args.eps) not in (1, len(args.n)):
        raise ValueError(f"--eps takes one value or one per size ({len(args.n)}), "
                         f"got {len(args.eps)}")
    p = load_degree_distribution(args.p)
    q = load_sub_profile(args.q, p)
    results = []
    for n, eps in zip(args.n, args.eps * len(args.n) if len(args.eps) == 1 else args.eps):
        res = estimate_event_prob(p, q.weights, eps, args.reps, args.seed,
                                  n=n, workers=args.workers)
        _report_n(n, res.n)
        results.append(res)
        if args.format == "json":
            line = json_line({"eps": eps, **res.as_dict()})
            if args.out:
                with open(args.out, "a") as f:
                    f.write(line + "\n")
            print(line)
    if args.format == "csv":
        out = args.out or "estimate.csv"
        estimates_to_csv(results, out)
        print(f"wrote {out}", file=sys.stderr)
    if len(results) >= 3:
        try:
            slope, intercept = rate_fit([r for r in results if r.hits > 0])
        except FitError as exc:
            print(f"no fit line: {exc}", file=sys.stderr)
        else:
            rate = core.rate_component_degree(p, q).I1 if q.feasible else None
            print(json_line({"slope": slope, "intercept": intercept, "rate": rate,
                             "relative_gap": (slope - rate) / rate if rate else None}))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return 0 if print_table(run_battery()) else 1


_HANDLERS = {
    "rate": _cmd_rate,
    "lln": _cmd_lln,
    "path": _cmd_path,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run the command and return the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CmldError as exc:
        print(f"infeasible input: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
