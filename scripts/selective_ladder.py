"""Monte Carlo time along a ladder of selective counts.

The `z/x` chain of `chain_ladder.py`: a Bell pair psi+ on two static
worldlines (A at x = 0, B at x = 1) with m measurements on A at proper times
spread over (0, 1], z and x alternating, each recording 0. Every one of the
2^m outcome assignments has weight 2^-m, so no branch can be pruned, and
m = 13, 17, 19 give 8192 to 524288 branches.

For each m the script prints the time of one `sample_runs` of 1000 runs
(which enumerates every branch weight first) and of one `empirical_sector`
of B at tau_B = 0 from that log. A's readouts lie outside B's past there,
so every run is retained and the applied cut holds all m selectives: the
distinct branches of the runs, at most 1000 of the 2^m, are pushed as one
flat stack, so this time hardly grows with m. Each repeat parses a
fresh `Scenario`, so the times include any per-scenario set-up done on
first use; the table gives the fastest of the repeats. BLAS runs on one
thread.

    python3 scripts/selective_ladder.py --m 13 17 19 --repeats 3
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chain_ladder import chain_document  # noqa: E402

from polystate import ensemble, parse_scenario  # noqa: E402

LENGTHS = (13, 17, 19)
RUNS = 1000
SEED = 1
TAUS = (2.0, 0.0)


def best_times(doc: str, repeats: int) -> tuple:
    sample_s = sector_s = float("inf")
    for _ in range(repeats):
        s = parse_scenario(doc)
        t0 = time.perf_counter()
        log = ensemble.sample_runs(s, RUNS, SEED)
        t1 = time.perf_counter()
        ensemble.empirical_sector(log, s, (1,), TAUS)
        t2 = time.perf_counter()
        sample_s, sector_s = min(sample_s, t1 - t0), min(sector_s, t2 - t1)
    return sample_s, sector_s


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--m", type=int, nargs="+", default=LENGTHS,
                    help="selective counts to time (default: %(default)s)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"{'m':>3} {'branches':>9} {'sample_runs_s':>14} {'empirical_sector_s':>19}")
    for m in args.m:
        sample_s, sector_s = best_times(chain_document(m, "z/x"), args.repeats)
        print(f"{m:>3} {2**m:>9} {sample_s:>14.4f} {sector_s:>19.4f}", flush=True)


if __name__ == "__main__":
    main()
