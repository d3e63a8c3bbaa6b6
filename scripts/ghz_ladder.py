"""All-sector evaluation time along a GHZ-n ladder.

For pure GHZ-n (a `ket` input, n = 2..10) and white-noise GHZ-n
(0.8 GHZ + 0.2 I/D, a full-rank `matrix` input, n = 6..8), prints the time
to parse the scenario and the time of one `polystate_at` over all 2^n - 1
sectors. Every qubit carries one z or x measurement (the benchmark's
`ghz_document` with seed n), and each qubit is evaluated late enough that
every measurement lies in every sector's past. Each repeat parses a fresh
`Scenario`, so the evaluation includes factoring the initial state; the
table gives the fastest of the repeats. BLAS runs on one thread.

    python3 scripts/ghz_ladder.py --repeats 3
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

from polystate import parse_scenario, polystate_at  # noqa: E402
from scenarios import ghz_document  # noqa: E402

NOISE = 0.2


def white_noise(doc: str, n: int) -> str:
    """The same scenario with (1 - NOISE) GHZ + NOISE I/D as a matrix input."""
    data = json.loads(doc)
    dim = 2**n
    rho = np.eye(dim) * NOISE / dim
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            rho[i, j] += (1 - NOISE) / 2
    data["initial_state"] = {"matrix": rho.tolist()}
    return json.dumps(data)


def best_times(doc: str, n: int, repeats: int) -> tuple:
    taus = [iv["tau"] + n + 0.5 for iv in json.loads(doc)["interventions"]]
    parse_s = eval_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = parse_scenario(doc)
        t1 = time.perf_counter()
        polystate_at(s, taus)
        t2 = time.perf_counter()
        parse_s, eval_s = min(parse_s, t1 - t0), min(eval_s, t2 - t1)
    return parse_s, eval_s


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=10, help="largest pure GHZ-n")
    ap.add_argument("--max-noisy-n", type=int, default=8, help="largest white-noise GHZ-n")
    args = ap.parse_args()

    print(f"{'input':>11} {'n':>3} {'D':>5} {'parse_s':>9} {'polystate_at_s':>15}")
    rows = [("pure", n) for n in range(2, args.max_n + 1)]
    rows += [("white-noise", n) for n in range(6, args.max_noisy_n + 1)]
    for kind, n in rows:
        doc = ghz_document(n, random.Random(n))
        if kind == "white-noise":
            doc = white_noise(doc, n)
        parse_s, eval_s = best_times(doc, n, args.repeats)
        print(f"{kind:>11} {n:>3} {2**n:>5} {parse_s:>9.4f} {eval_s:>15.4f}", flush=True)


if __name__ == "__main__":
    main()
