"""`polystate ensemble` time, memory and pushes along a GHZ-n ladder.

For pure GHZ-n, n = 4..10 (the benchmark's `ghz_document` with seed n:
every qubit carries one z or x measurement near tau = 1, recording 0),
prints per rung and tau pattern the wall time of one in-process
`cli.main(["ensemble", ..., "--n", "1000"])`, the peak resident memory of
the process after it, how many times the exact oracle pushed the initial
density operator (`scenario.apply_interventions` called from `ensemble`,
counted through a wrapper), and how many branch rows the empirical column
pushed as flat stacks of listed assignments (`ensemble._stacked_pushes`
given rows, counted the same way). Two tau patterns:

- `after`: every qubit is evaluated late enough that every measurement
  lies in every sector's past, so every subset has the same dense-push key
  and the oracle pushes once;
- `half-before`: the first n // 2 qubits are evaluated before their own
  measurement and the rest after every one, so each subset of the early
  qubits has a key of its own: 2^(n // 2) pushes.

Each rung runs in a fresh process, so that its peak memory is its own; the
table gives the fastest of `--repeats` runs. BLAS runs on one thread.

    python3 scripts/ensemble_ladder.py --repeats 3
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

from polystate import cli, ensemble  # noqa: E402
from scenarios import ghz_document  # noqa: E402

RUNS = 1000
PATTERNS = ("after", "half-before")


def ghz_taus(doc: str, n: int, pattern: str) -> str:
    """The `--tau` argument of a pattern: a qubit evaluated before its
    measurement sits 0.5 before it; one evaluated after sits n + 0.5
    after it, so that every measurement is in its past."""
    meas = [iv["tau"] for iv in json.loads(doc)["interventions"]]
    early = n // 2 if pattern == "half-before" else 0
    taus = [t - 0.5 if i < early else t + n + 0.5 for i, t in enumerate(meas)]
    return ",".join(f"Q{i}={t:.6f}" for i, t in enumerate(taus))


def measure(n: int, pattern: str, repeats: int) -> dict:
    """One rung, in this process: the fastest of `repeats` CLI runs, the
    peak memory after them, and the oracle's pushes of the initial state
    and the stacked branch rows in one run."""
    doc = ghz_document(n, random.Random(n))
    pushes, rows = [], []
    real, real_stacked = ensemble.apply_interventions, ensemble._stacked_pushes

    def counted(s, ids, rho, outcomes=None, absolute=False):
        pushes.append(absolute)
        return real(s, ids, rho, outcomes=outcomes, absolute=absolute)

    def stacked(s, cut, sel, chosen=None):
        if chosen is not None:
            rows.append(len(chosen))
        return real_stacked(s, cut, sel, chosen)

    ensemble.apply_interventions, ensemble._stacked_pushes = counted, stacked
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"ghz{n}.scn"
        path.write_text(doc, encoding="utf-8")
        argv = ["ensemble", str(path), "--n", str(RUNS), "--seed", "1",
                "--tau", ghz_taus(doc, n, pattern)]
        for _ in range(repeats):
            pushes.clear()
            rows.clear()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            best = min(best, time.perf_counter() - t0)
            if code != 0:
                raise SystemExit(f"polystate ensemble exited {code} on GHZ-{n} {pattern}")
    # Linux reports ru_maxrss in KiB
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": best, "rss_mb": rss_mb, "dense_pushes": pushes.count(False),
            "absolute_pushes": pushes.count(True), "branch_rows": sum(rows)}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--rung", nargs=2, metavar=("N", "PATTERN"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung:
        print(json.dumps(measure(int(args.rung[0]), args.rung[1], args.repeats)))
        return

    print(f"{'n':>3} {'D':>5} {'pattern':>12} {'wall_s':>9} {'rss_mb':>8} "
          f"{'dense_pushes':>13} {'absolute_pushes':>16} {'branch_rows':>12}")
    for n in range(args.min_n, args.max_n + 1):
        for pattern in PATTERNS:
            rung = subprocess.run([sys.executable, __file__, "--repeats", str(args.repeats),
                                   "--rung", str(n), pattern],
                                  capture_output=True, text=True, check=True)
            r = json.loads(rung.stdout)
            print(f"{n:>3} {2**n:>5} {pattern:>12} {r['wall_s']:>9.4f} {r['rss_mb']:>8.1f} "
                  f"{r['dense_pushes']:>13} {r['absolute_pushes']:>16} {r['branch_rows']:>12}",
                  flush=True)


if __name__ == "__main__":
    main()
