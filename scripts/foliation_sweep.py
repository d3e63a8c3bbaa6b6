"""Frame dependence and late-time agreement of foliation states.

Sweeps the leaf parameter for two boosted foliations over a scenario with
two spacelike separated selective readouts. Mid-history the two frames
disagree about which readout has happened, so their states differ by a
large trace distance; once both readouts are below a leaf in either frame
the states coincide again. The sweep prints the fidelity of each foliation
state to a few reference kets plus the mutual trace distance.
"""

import argparse
from pathlib import Path

import numpy as np

from polystate import engine, linalg
from polystate.scenario import parse_scenario
from polystate.spacetime import Foliation

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "polystate" / "fixtures"

REFERENCES = {
    "bell": linalg.BELL_PSI_PLUS,
    "pp": linalg.product_ket("++"),
    "01": linalg.product_ket("01"),
    "0p": linalg.product_ket("0+"),
}


def fidelity(rho, ket) -> float:
    """<k| rho |k> of a formed state and a reference ket."""
    return float((ket.conj() @ rho @ ket).real)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(FIXTURES / "foliation_demo.scn"))
    ap.add_argument("--velocity", type=float, default=0.5,
                    help="frame speed; the sweep uses +v and -v")
    ap.add_argument("--t-min", type=float, default=-1.0)
    ap.add_argument("--t-max", type=float, default=4.0)
    ap.add_argument("--steps", type=int, default=21)
    args = ap.parse_args()

    s = parse_scenario(Path(args.scenario).read_text())
    fwd = Foliation(np.array([args.velocity]))
    bwd = Foliation(np.array([-args.velocity]))

    names = "  ".join(f"{'+' + k:>7} {'-' + k:>7}" for k in REFERENCES)
    print(f"foliation states at frame speeds +/-{args.velocity}")
    print(f"{'leaf':>6}  {names}  {'distance':>9}")
    for t in np.linspace(args.t_min, args.t_max, args.steps):
        a = engine.foliation_state(s, fwd, t)
        b = engine.foliation_state(s, bwd, t)
        cells = "  ".join(
            f"{fidelity(a, ket):>7.4f} {fidelity(b, ket):>7.4f}"
            for ket in REFERENCES.values())
        print(f"{t:>6.2f}  {cells}  {linalg.trace_distance(a, b):>9.4f}")


if __name__ == "__main__":
    main()
