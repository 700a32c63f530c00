"""Command-line front end.

Commands: rate {degree|dreg|dreg-sub|size|largest-conj}, lln, path,
simulate, estimate, verify.  Exit codes: 0 success, 1 validation failure
(bad arguments or files), 2 infeasible mathematical input (the message
names the violated condition).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import core
from .errors import CmldError
from .estimate import estimate_event_prob
from .explore import DegreeSequence, eea_run, empirical_path, extract_components
from .lln import lln_path
from .paths import make_segment_spec, minimizer_path, path_cost, cost_closed_form
from .rng import CounterRNG
from .serialize import (
    estimate_to_json_line,
    estimates_to_csv,
    fluid_path_to_csv,
    load_degree_distribution,
    load_degree_input,
    load_state_point,
    load_sub_profile,
    write_sidecar,
)

SIGN_NOTE = "rate >= 0; lim (1/n) log P = -rate"


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
    lln.add_argument("--grid", type=int, default=1001)
    lln.add_argument("--out", default=None, help="trajectory CSV (sidecar JSON alongside)")

    path = sub.add_parser("path", help="minimizing segment trajectory and cost")
    path.add_argument("--x1", required=True, help="start state JSON")
    path.add_argument("--x2", required=True, help="end state JSON")
    path.add_argument("--grid", type=int, default=4501)
    path.add_argument("--out", default=None, help="trajectory CSV (cost JSON alongside)")

    sim = sub.add_parser("simulate", help="one exploration run")
    sim.add_argument("--p", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--trajectory", action="store_true")
    sim.add_argument("--grid", type=int, default=401)
    sim.add_argument("--out", default=None)

    est = sub.add_parser("estimate", help="rare-event probability estimate")
    est.add_argument("--p", required=True)
    est.add_argument("--q", required=True)
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--eps", type=float, required=True)
    est.add_argument("--reps", type=int, required=True)
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--workers", type=int, default=1)
    est.add_argument("--format", choices=("json", "csv"), default="json")
    est.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="cross-consistency battery")
    ver.add_argument("--fast", action="store_true")
    return p


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_rate(args: argparse.Namespace) -> int:
    if args.rate_kind == "degree":
        p = load_degree_distribution(args.p)
        q = load_sub_profile(args.q, p)
        payload = core.rate_component_degree(p, q).as_dict()
    elif args.rate_kind == "dreg":
        rate = core.rate_d_regular(args.D, args.q)
        payload = {"D": args.D, "q": args.q, "rate": rate, "limit": -rate,
                   "sign_convention": SIGN_NOTE}
        print(f"rate {rate:.7f}  limit {-rate:.7f}")
    elif args.rate_kind == "dreg-sub":
        p = load_degree_distribution(args.p)
        rate = core.rate_d_regular_subgraph(p, args.D, args.q)
        payload = {"D": args.D, "q": args.q, "rate": rate, "limit": -rate,
                   "sign_convention": SIGN_NOTE}
    elif args.rate_kind == "size":
        p = load_degree_distribution(args.p)
        rate, argmin = core.rate_component_size(p, args.r)
        payload = {"r": args.r, "rate": rate, "limit": -rate,
                   "argmin": {str(k): v for k, v in argmin.items()},
                   "sign_convention": SIGN_NOTE}
    else:  # largest-conj
        rate = core.rate_conjectured_largest(args.D, args.x)
        payload = {"D": args.D, "x": args.x, "rate": rate, "limit": -rate,
                   "conjecture": True, "sign_convention": SIGN_NOTE}
    _emit(payload, args.out)
    return 0


def _cmd_lln(args: argparse.Namespace) -> int:
    p = load_degree_distribution(args.p)
    fp = lln_path(p, T=args.T, grid_points=args.grid)
    if args.out:
        fluid_path_to_csv(fp, args.out)
        write_sidecar(fp.meta, Path(args.out).with_suffix(".meta.json"))
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
    cost_closed = cost_closed_form(x1, x2)
    report = {
        **traj.meta,
        "cost_closed": cost_closed,
        "cost_quadrature": cost_quad,
        "residual": abs(cost_quad - cost_closed),
        "sign_convention": SIGN_NOTE,
    }
    if args.out:
        fluid_path_to_csv(traj, args.out)
        write_sidecar(report, Path(args.out).with_suffix(".cost.json"))
        print(f"wrote {args.out}", file=sys.stderr)
    _emit(report, None)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    loaded = load_degree_input(args.p)
    if isinstance(loaded, DegreeSequence):
        if args.n != loaded.n:
            raise ValueError(f"--n {args.n} does not match the {loaded.n}-vertex sequence")
        d = loaded
    else:
        d = DegreeSequence.from_distribution(loaded, args.n)
    rec = eea_run(d, CounterRNG(args.seed, 0), record_trajectory=args.trajectory)
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
    if args.trajectory and args.out:
        grid = np.linspace(0.0, rec.n_steps / d.n, args.grid)
        fluid_path_to_csv(empirical_path(rec, d.n, grid), Path(args.out).with_suffix(".traj.csv"))
    _emit(payload, args.out)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    p = load_degree_distribution(args.p)
    q = load_sub_profile(args.q, p)
    res = estimate_event_prob(p, q.weights, args.eps, args.reps, args.seed,
                              n=args.n, workers=args.workers)
    if args.format == "csv":
        out = args.out or "estimate.csv"
        estimates_to_csv([res], out)
        print(f"wrote {out}", file=sys.stderr)
    else:
        payload = {"eps": args.eps, **json.loads(estimate_to_json_line(res))}
        line = json.dumps(payload)
        if args.out:
            with open(args.out, "a") as f:
                f.write(line + "\n")
        print(line)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import print_table, run_battery

    results = run_battery(fast=args.fast)
    return 0 if print_table(results) else 1


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
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
