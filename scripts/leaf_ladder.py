"""`polystate sweep` and the `polystate audit` ledger along a GHZ-n ladder.

For pure GHZ-n, n = 6..10 (the benchmark's `ghz_document` with seed n: n
static worldlines at x = 0..n-1, every qubit measured once in z or x near
tau = 1, recording 0), prints per rung the wall time of one in-process
`cli.main` run of each of

- `sweep --t-range=0:N+1:200 --source polystate --ref 0...0`: the fidelity
  of the polystate rule's joint state to the all-zero ket, and the joint and
  summed local charges, at each of 200 leaves of the rest frame;
- `audit --grid=0:N+1:200`: the polystate charge ledger on the same leaves
  (for n > 2 the CLI emits only that ledger and exits 1, bipartite-only);

and the peak resident memory of the process after both. The leaves run from
before every measurement to after every measurement is in every qubit's
past.

A second table gives, for white-noise GHZ-8 and GHZ-9 (0.8 GHZ + 0.2 I/D, a
full-rank `matrix` input, `ghz_ladder.white_noise`), up to --max-n, the wall
time of the four default rules' charge ledgers over 60 leaves of the rest
frame, one `audit.charge_ledger` per rule on one parsed scenario, as
`polystate audit` runs them for a bipartite scenario, and the peak memory
after them. The parse is not timed; the initial state's factoring is. Each
joint state's 512 x 512 factor (GHZ-9) is decided by `linalg.gram_verdict`,
so this rung shows how often a sweep decides a state: the scenario's leaf
memo decides each (cut, subset) once while it holds it.

Each rung runs in a fresh process, so that its peak memory is its own; the
tables give the fastest of `--repeats` runs. BLAS runs on one thread.

    python3 scripts/leaf_ladder.py --repeats 3
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from ghz_ladder import white_noise  # noqa: E402

from polystate import audit, cli, parse_scenario  # noqa: E402
from polystate.spacetime import Foliation  # noqa: E402
from scenarios import ghz_document  # noqa: E402

LEAVES = 200
LEDGER_LEAVES = 60
LEDGER_SIZES = (8, 9)


def commands(path: str, n: int) -> dict:
    """The timed invocations of one rung, by column name."""
    leaves = f"0:{n + 1}:{LEAVES}"
    return {"sweep_s": ["sweep", path, f"--t-range={leaves}", "--source", "polystate",
                        "--ref", "0" * n],
            "audit_s": ["audit", path, f"--grid={leaves}"]}


def measure(n: int, repeats: int) -> dict:
    """One rung, in this process: the fastest of `repeats` runs of each
    command, and the peak memory after them."""
    best = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"ghz{n}.scn"
        path.write_text(ghz_document(n, random.Random(n)), encoding="utf-8")
        for name, argv in commands(str(path), n).items():
            for _ in range(repeats):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                best[name] = min(best.get(name, float("inf")), time.perf_counter() - t0)
                # an audit of more than two qubits emits the ledger and exits 1
                if code != (1 if name == "audit_s" and n > 2 else 0):
                    raise SystemExit(f"polystate {argv[0]} exited {code} on GHZ-{n}")
    # Linux reports ru_maxrss in KiB
    best["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return best


def measure_ledgers(n: int, repeats: int) -> dict:
    """One white-noise rung, in this process: the fastest of `repeats` runs
    of the four rules' ledgers, each on a freshly parsed scenario, and the
    peak memory after them."""
    doc = white_noise(ghz_document(n, random.Random(n)), n)
    f = Foliation(np.zeros(1))
    grid = np.linspace(0.0, n + 1.0, LEDGER_LEAVES)
    best = float("inf")
    for _ in range(repeats):
        s = parse_scenario(doc)
        t0 = time.perf_counter()
        for rule in audit.default_prescriptions(f):
            audit.charge_ledger(s, f, grid, rule)
        best = min(best, time.perf_counter() - t0)
        del s
    return {"ledger_s": best, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def rung(flag: str, n: int, repeats: int) -> dict:
    """One rung, measured in a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--repeats", str(repeats), flag, str(n)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--min-n", type=int, default=6)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--ledger-rung", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung or args.ledger_rung:
        r = measure(args.rung, args.repeats) if args.rung else \
            measure_ledgers(args.ledger_rung, args.repeats)
        print(json.dumps(r))
        return

    print(f"{'n':>3} {'D':>5} {'leaves':>7} {'sweep_s':>9} {'audit_s':>9} {'rss_mb':>8}")
    for n in range(args.min_n, args.max_n + 1):
        r = rung("--rung", n, args.repeats)
        print(f"{n:>3} {2**n:>5} {LEAVES:>7} {r['sweep_s']:>9.4f} {r['audit_s']:>9.4f} "
              f"{r['rss_mb']:>8.1f}", flush=True)
    noisy = [n for n in LEDGER_SIZES if n <= args.max_n]
    if noisy:
        print(f"\n{'white-noise n':>13} {'D':>5} {'leaves':>7} {'rules':>6} {'ledger_s':>9} "
              f"{'rss_mb':>8}")
    for n in noisy:
        r = rung("--ledger-rung", n, args.repeats)
        print(f"{n:>13} {2**n:>5} {LEDGER_LEAVES:>7} {4:>6} {r['ledger_s']:>9.4f} "
              f"{r['rss_mb']:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
