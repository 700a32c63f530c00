#!/usr/bin/env python3
"""Rare-event decay experiment: estimate P(component close to n*q) across a
sweep of graph sizes and fit the empirical decay rate against theory.

Writes one JSON line per n (ready for downstream fitting), an optional CSV
summary, and prints the fitted slope next to the closed-form rate.

Example (3-regular half-graph components, the desk-scale default):

    python scripts/run_rare_event_experiment.py \
        --sizes 12 16 20 24 --reps 1000000 --seed 20240810 --workers 8
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmld import DegreeDistribution, estimate_event_prob, rate_d_regular, rate_fit
from cmld.serialize import estimate_to_json_line, estimates_to_csv


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--D", type=int, default=3, help="regular degree (default 3)")
    ap.add_argument("--qfrac", type=float, default=0.5,
                    help="target component vertex fraction (default 0.5)")
    ap.add_argument("--sizes", type=int, nargs="+", default=[12, 16, 20, 24])
    ap.add_argument("--reps", type=int, default=1_000_000)
    ap.add_argument("--eps-vertices", type=float, default=1.0,
                    help="window half-width in vertices (eps = this / n)")
    ap.add_argument("--seed", type=int, default=20240810)
    ap.add_argument("--workers", type=int, default=8)
    ap.add_argument("--out", default="rare_event_results.jsonl")
    ap.add_argument("--csv", default=None)
    return ap.parse_args()


def main():
    args = parse_args()
    p = DegreeDistribution({args.D: 1.0})
    q = {args.D: args.qfrac}
    theory = rate_d_regular(args.D, args.qfrac)

    results = []
    with open(args.out, "w") as f:
        for n in args.sizes:
            eps = args.eps_vertices / n
            res = estimate_event_prob(p, q, eps=eps, reps=args.reps, seed=args.seed,
                                      n=n, workers=args.workers)
            results.append(res)
            f.write(estimate_to_json_line(res, eps) + "\n")
            rate = f"{res.per_n_rate:.4f}" if math.isfinite(res.per_n_rate) else "inf"
            print(f"n={n:4d}  hits={res.hits:7d}  p_hat={res.p_hat:.3e}  "
                  f"CI [{res.ci_low:.3e}, {res.ci_high:.3e}]  -log(p)/n={rate}")

    if args.csv:
        estimates_to_csv(results, args.csv)

    slope, intercept = rate_fit(results)
    print(json.dumps({
        "slope": slope,
        "intercept": intercept,
        "theory_rate": theory,
        "relative_gap": (slope - theory) / theory,
    }, indent=2))
    print(f"wrote {args.out}" + (f" and {args.csv}" if args.csv else ""))


if __name__ == "__main__":
    main()
