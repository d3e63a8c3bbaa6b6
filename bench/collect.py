"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 [--workload ghz_wide ...] [--trace 1] [--out FILE]

Runs bench/run.py once per (workload, seed), one run at a time, with the
settings in BENCHMARK.json. For every metric it prints the median, the
quartiles from statistics.quantiles(values, n=4), and their distance as a
share of the median, which is the spread the metric's bound is judged
against. With --out, and only if every run succeeded, the per-run results,
environments and the summary are written to FILE as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="LO-HI, inclusive")
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    doc = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                                  check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}.json")
                                .read_text())
            runs.append({"seed": seed, "environment": record["environment"], "run": record["run"],
                         **result})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == 0), flush=True)
        summary = {}
        for metric in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "unit": runs[0]["metrics"][metric]["unit"]}
            bound = bounds.get(metric) if args.trace == 0 else None
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {workload:<12} {metric:<44} median {med:<12.6g} spread {spread:.4f}{flag}")
        doc["workloads"][workload] = {"runs": runs, "summary": summary}

    if args.out and status == 0:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
