"""Monte Carlo convergence of post-selected ensemble averages.

For a doubling ladder of run counts, samples outcome logs with a fixed
seed and reports the largest trace distance between the empirical sector
estimates and the engine's sectors. The distance should fall off roughly
as 1/sqrt(N); the analytic column stays at numerical zero throughout.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from polystate import ensemble
from polystate.scenario import parse_scenario

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "polystate" / "fixtures"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(FIXTURES / "foliation_demo.scn"))
    ap.add_argument("--tau-a", type=float, default=0.5)
    ap.add_argument("--tau-b", type=float, default=1.5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-runs", type=int, default=131072)
    ap.add_argument("--csv", help="optional output path for the ladder table")
    args = ap.parse_args()

    s = parse_scenario(Path(args.scenario).read_text())
    taus = (args.tau_a, args.tau_b)

    counts = [len(s.interventions[k].op.kraus) for k in ensemble.selective_order(s)]
    weights = ensemble.enumerate_branches(s).reshape(counts)
    print(f"{weights.size} branches:")
    for outcomes, p in np.ndenumerate(weights):
        print(f"  outcomes {outcomes}  p = {p:.6f}")
    print()

    rows = []
    print(f"{'runs':>8} {'max empirical dist':>20} {'max analytic dist':>20} {'seconds':>8}")
    n = 1024
    while n <= args.max_runs:
        start = time.perf_counter()
        log = ensemble.sample_runs(s, n, seed=args.seed)
        report = ensemble.compare_to_polystate(log, s, taus)
        elapsed = time.perf_counter() - start
        print(f"{n:>8} {report.max_empirical:>20.3e} {report.max_analytic:>20.3e} {elapsed:>8.2f}")
        rows.append((n, report.max_empirical, report.max_analytic, elapsed))
        n *= 2

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["runs", "max_empirical", "max_analytic", "seconds"])
            w.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
