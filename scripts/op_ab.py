"""Interleaved in-process A/B of one `polystate` invocation on two trees.

Imports each tree's `src/polystate` side by side, under its own package
name (the package uses only relative imports), and runs the invocation
through each side's `cli.main`, op by op, the two sides taking turns at
going first, with stdout captured. Every op must give both sides the same
exit code and the same stdout. Prints each side's median microseconds per
op and the median of the paired ratios head / base, one ratio per op.

Pairing op by op keeps a change in the host's speed out of the ratio, as
the two ops of a pair run within milliseconds of each other; separate
benchmark runs of each tree can be minutes apart. BLAS runs on one
thread. For example, a tree against its parent checkout:

    python3 scripts/op_ab.py --base ../parent --ops 2000 -- \\
        ensemble src/polystate/fixtures/foliation_demo.scn --n 1000 --tau A=0.5,B=1.5
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# ops run on each side before the timed ones, so that both have imported
# and tabled what the first op of a fresh process does
WARMUP = 20


def load_cli(tree: Path, name: str):
    """The `cli` module of the tree's `src/polystate`, imported as package
    `name`."""
    package = tree / "src" / "polystate"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no package at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_op(cli, argv) -> tuple:
    """One invocation through `cli.main`: its seconds, exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


def compare(base, head, argv, ops: int) -> dict:
    """`ops` timed pairs after `WARMUP` untimed ones, the sides alternating
    which runs first; each pair must agree on exit code and stdout."""
    times = {"base": [], "head": []}
    for g in range(WARMUP + ops):
        sides = (("base", base), ("head", head))
        if g % 2:
            sides = sides[::-1]
        results = {name: run_op(cli, argv) for name, cli in sides}
        if results["base"][1:] != results["head"][1:]:
            raise SystemExit(f"op {g}: base and head differ in exit code or stdout")
        if g >= WARMUP:
            for name in times:
                times[name].append(results[name][0])
    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    return {"base_us": 1e6 * statistics.median(times["base"]),
            "head_us": 1e6 * statistics.median(times["head"]),
            "ratio": statistics.median(ratios)}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True, help="the tree to compare against")
    ap.add_argument("--head", type=Path, default=ROOT,
                    help="the tree under test (default: this one)")
    ap.add_argument("--ops", type=int, default=1000, help="timed ops per side")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the polystate arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.ops < 1:
        ap.error("need --ops of at least 1 and the polystate arguments after --")
    base = load_cli(args.base.resolve(), "polystate_base")
    head = load_cli(args.head.resolve(), "polystate_head")
    r = compare(base, head, argv, args.ops)
    print(f"polystate {' '.join(argv)}")
    print(f"{'side':>5} {'median_us':>10}")
    print(f"{'base':>5} {r['base_us']:>10.1f}")
    print(f"{'head':>5} {r['head_us']:>10.1f}")
    print(f"median paired ratio head/base over {args.ops} ops: {r['ratio']:.4f}")


if __name__ == "__main__":
    main()
