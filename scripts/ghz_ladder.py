"""All-sector evaluation time and memory along a GHZ-n ladder.

For pure GHZ-n (a `ket` input, n = 2..10) and white-noise GHZ-n
(0.8 GHZ + 0.2 I/D, a full-rank `matrix` input, n = 6..8), prints per rung
the time to parse the scenario, the time of one `polystate_at` over all
2^n - 1 sectors with none of them read, the time to read every sector of
that polystate afterwards, and the peak resident memory of the process
after the unread evaluations and after the reads. Every qubit carries one
z or x measurement (the benchmark's `ghz_document` with seed n), and each
qubit is evaluated late enough that every measurement lies in every
sector's past. Each rung runs in a fresh process, so that its peak memory
is its own: it first evaluates `--repeats` times without reading, then
`--repeats` times reading every sector. Each repeat parses a fresh
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
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from polystate import parse_scenario, polystate_at  # noqa: E402
from scenarios import ghz_document  # noqa: E402

NOISE = 0.2
COLUMNS = ("parse_s", "polystate_at_s", "read_s", "rss_mb", "read_rss_mb")


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


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(kind: str, n: int, repeats: int) -> dict:
    """One rung, in this process: the fastest parse and unread evaluation,
    the peak memory after them, then the fastest read of every sector and
    the peak memory after the reads."""
    doc = ghz_document(n, random.Random(n))
    if kind == "white-noise":
        doc = white_noise(doc, n)
    taus = [iv["tau"] + n + 0.5 for iv in json.loads(doc)["interventions"]]
    parse_s = eval_s = read_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = parse_scenario(doc)
        t1 = time.perf_counter()
        p = polystate_at(s, taus)
        t2 = time.perf_counter()
        parse_s, eval_s = min(parse_s, t1 - t0), min(eval_s, t2 - t1)
        del s, p
    rss_mb = peak_rss_mb()
    for _ in range(repeats):
        p = polystate_at(parse_scenario(doc), taus)
        t0 = time.perf_counter()
        for _subset in p.sectors.values():
            pass
        read_s = min(read_s, time.perf_counter() - t0)
        del p
    return dict(zip(COLUMNS, (parse_s, eval_s, read_s, rss_mb, peak_rss_mb())))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=10, help="largest pure GHZ-n")
    ap.add_argument("--max-noisy-n", type=int, default=8, help="largest white-noise GHZ-n")
    ap.add_argument("--rung", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung:
        print(json.dumps(measure(args.rung[0], int(args.rung[1]), args.repeats)))
        return

    print(f"{'input':>11} {'n':>3} {'D':>5} {'parse_s':>9} {'polystate_at_s':>15} "
          f"{'read_s':>9} {'rss_mb':>8} {'read_rss_mb':>12}")
    rows = [("pure", n) for n in range(2, args.max_n + 1)]
    rows += [("white-noise", n) for n in range(6, args.max_noisy_n + 1)]
    for kind, n in rows:
        rung = subprocess.run([sys.executable, __file__, "--repeats", str(args.repeats),
                               "--rung", kind, str(n)],
                              capture_output=True, text=True, check=True)
        r = json.loads(rung.stdout)
        print(f"{kind:>11} {n:>3} {2**n:>5} {r['parse_s']:>9.4f} {r['polystate_at_s']:>15.4f} "
              f"{r['read_s']:>9.4f} {r['rss_mb']:>8.1f} {r['read_rss_mb']:>12.1f}", flush=True)


if __name__ == "__main__":
    main()
