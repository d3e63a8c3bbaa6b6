"""Compare update prescriptions on the Bell readout scenario.

Prints the marginal/correlation table for each prescription at one probe
pair of proper times, then the total-charge ledger along the rest-frame
foliation. The sector rule should be the only row matching all targets,
and the only source whose joint charge stays put.
"""

import argparse
from pathlib import Path

import numpy as np

from polystate import audit
from polystate.scenario import parse_scenario
from polystate.spacetime import Foliation

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "polystate" / "fixtures"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(FIXTURES / "bell_sigma_z.scn"))
    ap.add_argument("--tau-a", type=float, default=2.0)
    ap.add_argument("--tau-b", type=float, default=1.5)
    ap.add_argument("--t-min", type=float, default=-2.0)
    ap.add_argument("--t-max", type=float, default=4.0)
    ap.add_argument("--t-steps", type=int, default=13)
    args = ap.parse_args()

    s = parse_scenario(Path(args.scenario).read_text())
    taus = (args.tau_a, args.tau_b)
    report = audit.criteria_report(s, taus)

    print(f"probe proper times tau = {taus}")
    print(f"targets: <sz>_A = {report.target_marginal_a:+.3f}, "
          f"<sz>_B = {report.target_marginal_b:+.3f}, "
          f"<sz sz> = {report.target_correlation:+.3f}")
    header = f"{'prescription':<18} {'<sz>_A':>8} {'<sz>_B':>8} {'<szsz>':>8} {'ignorance':>10}  verdict"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        verdict = "ok" if row.all_ok else "FAILS"
        print(f"{row.name:<18} {row.marginal_a:>+8.3f} {row.marginal_b:>+8.3f} "
              f"{row.correlation:>+8.3f} {row.ignorance_distance:>10.3f}  {verdict}")

    # charge bookkeeping along rest-frame leaves
    rest = Foliation(np.zeros(s.spatial_dim))
    grid = np.linspace(args.t_min, args.t_max, args.t_steps)
    sources = audit.default_prescriptions(rest)
    ledgers = [audit.charge_ledger(s, rest, grid, p) for p in sources]
    print()
    print(f"total charge along rest-frame leaves (initial = {ledgers[0].initial:+.3f})")
    print(f"{'t':>6}  " + "  ".join(f"{p.name + ' joint':>22} {'sum':>6}" for p in sources))
    for k, t in enumerate(grid):
        cells = [f"{led.q_joint[k]:>22.3f} {led.q_sum[k]:>6.3f}" for led in ledgers]
        print(f"{t:>6.2f}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
