"""What one `chain_sweep` pass computes, counted: the benchmark's workload
(`bench/workloads.py`, imported read-only) built from a seed, then its first
pass of 141 leaves x 5 evaluators run in order, each op's failure caught
as the benchmark catches it.

Counted, for the whole pass and for its one-leaf `charge_ledger` ops alone:

- `judged_entries`: cut entries weighed and judged (`engine._judged`);
- `subsystem_products`: operator products applied to a factor (`engine._apply`);
- `readouts_decided`: `engine.readout` calls;
- `populations_read`: `engine.Readout.populations` calls;
- `charges_calls`: `linalg.charges` calls, from any caller;
- `leaf_crossings_solved`: leaf crossings solved (`spacetime._leaf_crossing`;
  in a tree without it, every `proper_time_at_leaf` call solves one);
- `initial_charges`: initial charges computed (the `linalg.charges` calls
  made by `audit._initial_charge`).

    python3 scripts/leaf_counts.py --seed 1

Prints one `name  pass  ledger_ops` row per count, after a header line
naming the seed, the ops and how many failed.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from polystate import audit, engine, linalg, spacetime  # noqa: E402
from workloads import FAILURES, ChainSweep  # noqa: E402

COUNTS = ("judged_entries", "subsystem_products", "readouts_decided", "populations_read",
          "charges_calls", "leaf_crossings_solved", "initial_charges")


def pass_counts(seed: int) -> tuple:
    """(counts over the pass, counts over its ledger ops, ops, failed ops)
    of the first pass of a freshly built `chain_sweep` workload."""
    wl = ChainSweep(seed)
    counts = dict.fromkeys(COUNTS, 0)

    def counted(name, run):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "charges_calls" and sys._getframe(1).f_code.co_name == "_initial_charge":
                counts["initial_charges"] += 1
            return run(*args, **kwargs)
        return wrapper

    patches = [(engine, "_judged", "judged_entries"), (engine, "_apply", "subsystem_products"),
               (engine, "readout", "readouts_decided"),
               (engine.Readout, "populations", "populations_read"),
               (linalg, "charges", "charges_calls")]
    if hasattr(spacetime, "_leaf_crossing"):
        patches.append((spacetime, "_leaf_crossing", "leaf_crossings_solved"))
    else:
        patches += [(module, "proper_time_at_leaf", "leaf_crossings_solved")
                    for module in (spacetime, audit)]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    ledger, failed = dict.fromkeys(COUNTS, 0), 0
    try:
        for owner, attr, name in patches:
            setattr(owner, attr, counted(name, getattr(owner, attr)))
        wl.start_pass(0)
        for g in range(wl.pass_len):
            before = dict(counts)
            try:
                wl.run(g)
            except FAILURES:
                failed += 1
            if wl.ops[g][1] < len(wl.rules):
                for name in COUNTS:
                    ledger[name] += counts[name] - before[name]
    finally:
        for owner, attr, run in saved:
            setattr(owner, attr, run)
    return counts, ledger, wl.pass_len, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    counts, ledger, ops, failed = pass_counts(args.seed)
    print(f"chain_sweep seed {args.seed}: {ops} ops, {failed} failed")
    print(f"{'count':<22} {'pass':>7} {'ledger_ops':>11}")
    for name in COUNTS:
        print(f"{name:<22} {counts[name]:>7} {ledger[name]:>11}")


if __name__ == "__main__":
    main()
