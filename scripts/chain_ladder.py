"""One-leaf evaluation time along two single-qubit measurement chain ladders.

A Bell pair psi+ on two static worldlines (A at x = 0, B at x = 1) with m
interventions on A, m = 8, 32, 128, 512, at proper times spread over
(0, 1], in one of two chains:

- `z/unitary`: `pauli_z` unitaries alternating with z measurements that
  record 0, starting with a measurement. The first measurement has Born
  weight 1/2 and every later one weight 1, so the recorded branch keeps
  weight 1/2.
- `z/x`: z and x measurements that record 0, alternating, starting with z.
  Each has conditional probability 1/2, so the recorded branch has weight
  2^-m, down to 7.5e-155 at m = 512: far below an absolute floor of
  1e-12, but not small relative to the chain's own operators, so every
  length evaluates.

For each chain and m the script prints the time of one `polystate_at` and
of one four-rule `charge_ledger` leaf (one single-leaf ledger per default
prescription) on leaf t = 2.5 of the v = 0.5 foliation, where all m
interventions lie in A's past. Each repeat parses a fresh `Scenario`, so the
times include any per-scenario set-up done on first use; the table gives the
fastest of the repeats. BLAS runs on one thread.

    python3 scripts/chain_ladder.py --repeats 5
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from polystate import audit, parse_scenario, polystate_at  # noqa: E402
from polystate.spacetime import Foliation, proper_time_at_leaf  # noqa: E402

LENGTHS = (8, 32, 128, 512)
FOLIATION_V = 0.5
LEAF = 2.5


CHAINS = ("z/unitary", "z/x")


def chain_document(m: int, chain: str) -> str:
    """Bell pair with m interventions on A at tau = (k + 1) / m: z
    measurements (outcome 0) at even k, and at odd k a pauli_z unitary
    (`z/unitary`) or an x measurement (outcome 0, `z/x`)."""
    interventions = []
    for k in range(m):
        iv = {"on": "A", "tau": (k + 1) / m}
        if k % 2 == 0:
            iv["measure"] = {"projective_basis": "pauli_z", "outcome": 0, "labels": ["+1", "-1"]}
        elif chain == "z/x":
            iv["measure"] = {"projective_basis": "pauli_x", "outcome": 0, "labels": ["+1", "-1"]}
        else:
            iv["unitary"] = "pauli_z"
        interventions.append(iv)
    doc = {
        "spacetime": {"d": 1},
        "subsystems": [
            {"name": name, "dim": 2,
             "worldline": {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}}
            for name, x in (("A", 0.0), ("B", 1.0))
        ],
        "initial_state": {"named": "bell_psi_plus"},
        "interventions": interventions,
    }
    return json.dumps(doc)


def best_times(doc: str, repeats: int) -> tuple:
    f = Foliation(np.array([FOLIATION_V]))
    rules = audit.default_prescriptions(f)
    eval_s = ledger_s = float("inf")
    for _ in range(repeats):
        s = parse_scenario(doc)
        t0 = time.perf_counter()
        polystate_at(s, [proper_time_at_leaf(w, f, LEAF) for w in s.worldlines])
        t1 = time.perf_counter()
        eval_s = min(eval_s, t1 - t0)

        s = parse_scenario(doc)
        t0 = time.perf_counter()
        for rule in rules:
            audit.charge_ledger(s, f, [LEAF], rule)
        t1 = time.perf_counter()
        ledger_s = min(ledger_s, t1 - t0)
    return eval_s, ledger_s


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"{'chain':>9} {'m':>5} {'polystate_at_s':>15} {'charge_ledger_s':>16}")
    for chain in CHAINS:
        for m in LENGTHS:
            eval_s, ledger_s = best_times(chain_document(m, chain), args.repeats)
            print(f"{chain:>9} {m:>5} {eval_s:>15.6f} {ledger_s:>16.6f}", flush=True)


if __name__ == "__main__":
    main()
