"""One-leaf evaluation time along two single-qubit measurement chain ladders
and a GHZ ladder, per audit rule.

Chains: a Bell pair psi+ on two static worldlines (A at x = 0, B at x = 1)
with m interventions on A, m = 8, 32, 128, 512, at proper times spread over
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

GHZ: the benchmark's `ghz_document(n)` with seed n, n = 4..10 (up to
--max-n): GHZ-n on static worldlines at x = 0..n-1, every qubit measured
once in z or x near tau = 1, recording 0. On the leaf below, qubit i's
event sees the measurements on the qubits within about 1.2 + 0.5 i of it,
so the rival rules' events disagree and their joint states are
patchworks.

Every row is on leaf t = 2.5 of the v = 0.5 foliation, where all m chain
interventions lie in A's past. For each chain and m the script prints the
time of one `polystate_at`, of one single-leaf `charge_ledger` per default
prescription, and of the four ledgers together; for each GHZ-n, the same
without `polystate_at`. A rule's ledger runs on a scenario of its own, parsed
afresh with its per-scenario set-up (events, operator chains and their
norms, initial factor) done before the clock starts, no member rows and an
empty leaf memo, so each rule's column shows its own causal tests and reads.
`polystate_at` and the four-rule sum start from a freshly parsed scenario,
so they include that set-up, once. In the four-rule sum the later rules
read the member rows the first kept, share the cut entries, readouts and
charges the earlier rules left in the scenario's leaf memo
(`Scenario.leaf_memo`), with its initial charge, and the leaf crossings the
first rule solved, as the rules of one leaf do in a sweep: it is less
than the sum of the rule columns wherever the rules read a common cut. The
tables give the fastest of the repeats. BLAS runs on one thread.

    python3 scripts/chain_ladder.py --repeats 5
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from polystate import audit, parse_scenario, polystate_at  # noqa: E402
from polystate.spacetime import Foliation, proper_time_at_leaf  # noqa: E402
from scenarios import ghz_document  # noqa: E402

LENGTHS = (8, 32, 128, 512)
GHZ_SIZES = range(4, 11)
FOLIATION_V = 0.5
LEAF = 2.5
FOLIATION = Foliation(np.array([FOLIATION_V]))
RULES = audit.default_prescriptions(FOLIATION)
RULE_COLUMNS = tuple(f"{rule.name}_s" for rule in RULES)


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


def set_up(doc: str):
    """A freshly parsed scenario with its per-scenario set-up done."""
    s = parse_scenario(doc)
    for name in ("events", "chains", "chain_norms", "initial_factor"):
        getattr(s, name)
    return s


def timed(run, s) -> float:
    t0 = time.perf_counter()
    run(s)
    return time.perf_counter() - t0


def ledger(rule):
    return lambda s: audit.charge_ledger(s, FOLIATION, [LEAF], rule)


def best_times(doc: str, repeats: int, with_polystate: bool) -> list:
    """The fastest of the repeats, in column order: `polystate_at` (when
    asked for), each rule's one-leaf ledger, and the four ledgers on one
    scenario."""
    def evaluate(s):
        polystate_at(s, [proper_time_at_leaf(w, FOLIATION, LEAF) for w in s.worldlines])

    def every_ledger(s):
        for rule in RULES:
            ledger(rule)(s)

    best = []
    for _ in range(repeats):
        times = [timed(evaluate, parse_scenario(doc))] if with_polystate else []
        times += [timed(ledger(rule), set_up(doc)) for rule in RULES]
        times.append(timed(every_ledger, parse_scenario(doc)))
        best = list(map(min, best, times)) if best else times
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=GHZ_SIZES[-1],
                    help="largest GHZ-n rung (default %(default)s)")
    args = ap.parse_args()

    columns = ("polystate_at_s", *RULE_COLUMNS, "ledger_s")
    print(f"{'chain':>9} {'m':>5} " + " ".join(f"{c:>19}" for c in columns))
    for chain in CHAINS:
        for m in LENGTHS:
            times = best_times(chain_document(m, chain), args.repeats, with_polystate=True)
            print(f"{chain:>9} {m:>5} " + " ".join(f"{t:>19.6f}" for t in times), flush=True)

    print()
    print(f"{'ghz':>9} {'n':>5} " + " ".join(f"{c:>19}" for c in columns[1:]))
    for n in GHZ_SIZES:
        if n > args.max_n:
            break
        times = best_times(ghz_document(n, random.Random(n)), args.repeats, with_polystate=False)
        print(f"{'ghz':>9} {n:>5} " + " ".join(f"{t:>19.6f}" for t in times), flush=True)


if __name__ == "__main__":
    main()
