"""polystate benchmark: one seeded workload per run, closed loop, one process.

    python3 bench/run.py --workload ghz_wide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the run times whole passes of ops until --seconds have elapsed and
reports the end-to-end metrics, as times at a fixed reference speed (see
slowness). With --trace 1 it alternates untraced and traced passes for
--seconds and reports per-layer metrics per pass, plus the tracing overhead.
Either way the outputs are checked after the timed region; an op counts as
failed if it raised or its output failed a check. A result file is written
under .bench_out/, and the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every output check passed, 1 when one failed, 2 when the program is
missing. See bench/README.md.
"""

import os
import sys

# BLAS threads are pinned before numpy loads: one process, one thread
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
WARMUP_OPS = 10
PROBE_TIMEOUT_S = 120
REF_WINDOW = 25  # an op's speed: the median slowness measured after the ops within 25 of it
SETUP_REF_UNITS = 101


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Import polystate from this checkout's src/, never from elsewhere."""
    if not (SRC / "polystate" / "__init__.py").is_file():
        die(f"no program at {SRC / 'polystate'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import polystate
    if Path(polystate.__file__).resolve().parent != (SRC / "polystate").resolve():
        die(f"imported polystate from {polystate.__file__}, not {SRC}")


def python_unit() -> float:
    """Seconds taken by a Python loop and twenty 8x8 complex matrix
    products, the mix most of the program's ops are made of. Like every
    reference unit it never calls the program, and it is run twice with
    the second run timed, so that it starts with its data in the caches."""
    import numpy as np
    for _ in range(2):
        t0 = time.perf_counter()
        base = (np.arange(64).reshape(8, 8) % 7 - 3) * (1 + 0.5j) / 8
        acc, m = 0, base
        for i in range(300):
            acc += i * i
        for _ in range(20):
            m = base @ m
            acc += m.trace().real
    return time.perf_counter() - t0


def blas_unit() -> float:
    """Seconds taken by two 64x64 complex matrix products, the BLAS work
    that dominates the large-matrix kernel."""
    import numpy as np
    base = (np.arange(64 * 64).reshape(64, 64) % 11 - 5) * (1 - 0.25j) / 64
    for _ in range(2):
        t0 = time.perf_counter()
        m = base @ (base @ base)
    return time.perf_counter() - t0


# each reference unit with its time on the baseline machine in a quiet phase
REFERENCE_UNITS = {"python": (python_unit, 130e-6), "blas": (blas_unit, 90e-6)}


def slowness(kind: str) -> float:
    """How much slower than in a quiet phase the machine runs work of this
    kind right now: one timed reference unit over its quiet-phase time.

    The machine the baseline came from is a 2-vCPU VM on a shared host.
    CPU time equals wall time there and steal time is 0, yet its speed
    drifts by up to about 1.8x in phases from seconds to minutes long, and
    interpreter-bound and BLAS-bound work slow down by different amounts.
    Each workload therefore names the unit closest to its own ops, and its
    times are divided by the slowness measured next to them."""
    unit, quiet_s = REFERENCE_UNITS[kind]
    return unit() / quiet_s


def at_reference_speed(times: list, slow: list) -> list:
    """Each time divided by the median slowness measured after the
    REF_WINDOW ops on either side of it in the same pass."""
    return [t / statistics.median(slow[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


def probe_setup(workload: str, seed: int) -> tuple:
    """Seconds from a fresh interpreter to the first op (import, document
    generation, parse_scenario and op planning), then the median slowness
    measured right after it with the Python unit."""
    t0 = time.perf_counter()
    load_program()
    import workloads
    workloads.WORKLOADS[workload](seed)
    setup = time.perf_counter() - t0
    return setup, statistics.median(slowness("python") for _ in range(SETUP_REF_UNITS))


def setup_seconds(workload: str, seed: int) -> tuple:
    """SETUP_PROBES set-ups in fresh interpreters: (wall seconds, the same
    at reference speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            die(f"set-up probe failed:\n{done.stderr}")
        setup, slow = map(float, done.stdout.split()[-2:])
        wall.append(setup)
        scaled.append(setup / slow)
    return wall, scaled


def run_pass(wl, p: int, failures, tracer=None) -> tuple:
    """One pass of ops, each followed by a measurement of slowness with the
    workload's reference unit; returns (latencies in s, slowness, failed
    ops, wall s)."""
    lat, slow = [], []
    failed = 0
    t_start = time.perf_counter()
    wl.start_pass(p)
    for g in range(p * wl.pass_len, (p + 1) * wl.pass_len):
        t0 = time.perf_counter()
        try:
            out = wl.run(g) if tracer is None else tracer.run_op(g, wl.run, g)
        except failures:
            out = None
            failed += 1
        lat.append(time.perf_counter() - t0)
        slow.append(slowness(wl.reference))
        if out is not None:
            wl.keep(g, out)
    return lat, slow, failed, time.perf_counter() - t_start


def warm_up(wl, failures) -> None:
    """A few ops before timing, so lazy first-call costs stay out of it."""
    wl.start_pass(0)
    for g in range(min(WARMUP_OPS, wl.pass_len)):
        try:
            wl.run(g)
        except failures:
            pass


def op_latencies(passes: list) -> list:
    """Each op's latency: the median over the passes of its time at
    reference speed. `passes` holds (latencies, slowness) pairs."""
    return [statistics.median(reps)
            for reps in zip(*(at_reference_speed(lat, slow) for lat, slow in passes))]


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_untraced(wl, failures, seconds: float, setup: tuple) -> tuple:
    """Whole passes, at least three, while another pass of average length
    still fits in `seconds`. Every time is taken at reference speed, and an
    op's latency is the median of its repetitions, one per pass; `setup_s`
    is the median of the set-up probes. `ok_frac` is added once the outputs
    are checked."""
    per_pass, failed, wall = [], 0, 0.0
    while len(per_pass) < 3 or wall * (len(per_pass) + 1) / len(per_pass) <= seconds:
        lat, slow, f, w = run_pass(wl, len(per_pass), failures)
        per_pass.append((lat, slow))
        failed += f
        wall += w
    ops = op_latencies(per_pass)
    attempted = wl.pass_len * len(per_pass)
    setup_wall, setup_scaled = setup
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_p50_ms": (1e3 * quantile(ops, 50), "ms"),
        "op_p90_ms": (1e3 * quantile(ops, 90), "ms"),
        "ops_per_s": (len(ops) / math.fsum(ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    every = [x for lat, _ in per_pass for x in lat]
    info = {"passes": len(per_pass), "ops_per_pass": wl.pass_len, "latency_samples": attempted,
            "timed_wall_s": wall, "raised": failed,
            "wall_p50_ms": 1e3 * quantile(every, 50), "wall_p90_ms": 1e3 * quantile(every, 90),
            "wall_ops_per_s": attempted / math.fsum(every),
            "setup_wall_s": setup_wall, "setup_at_reference_s": setup_scaled,
            "pass_slowness": [statistics.median(slow) for _, slow in per_pass]}
    return metrics, attempted, failed, info


def measure_traced(wl, failures, seconds: float, seed: int, spans_path) -> tuple:
    """Untraced and traced passes in turn while another pair still fits in
    `seconds`, after one traced set-up (its spans have op id -1)."""
    import layertrace
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        type(wl)(seed)
    finally:
        tracer.uninstall()
    setup_parse_s = tracer.self_s["scenario.parse_scenario"]
    tracer.reset_totals()

    untraced, traced, failed = [], [], 0
    t_start = time.perf_counter()
    while not traced or (time.perf_counter() - t_start) * (len(traced) + 1) / len(traced) <= seconds:
        lat, slow, f, _ = run_pass(wl, 2 * len(traced), failures)
        untraced.append((lat, slow))
        failed += f
        tracer.install()
        try:
            lat, slow, f, _ = run_pass(wl, 2 * len(traced) + 1, failures, tracer)
        finally:
            tracer.uninstall()
        traced.append((lat, slow))
        failed += f
    pairs = len(traced)
    attempted = 2 * pairs * wl.pass_len

    # pass time at reference speed, as for ops_per_s
    untraced_s = math.fsum(op_latencies(untraced))
    traced_s = math.fsum(op_latencies(traced))
    metrics = tracer.metrics(pairs)
    metrics["setup.parse_scenario.self_s"] = (setup_parse_s, "s")
    metrics["trace.pass_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    tracer.write_spans(spans_path)
    info = {"pass_pairs": pairs, "ops_per_pass": wl.pass_len,
            "spans_file": spans_path.relative_to(ROOT).as_posix()}
    return metrics, attempted, failed, info


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "polystate").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.probe_setup:
        print("{:.9f} {:.9f}".format(*probe_setup(args.workload, args.seed)))
        return 0

    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    warm_up(wl, workloads.FAILURES)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, attempted, failed, info = measure_traced(
            wl, workloads.FAILURES, args.seconds, args.seed, OUT / f"{stem}-spans.csv.gz")
    else:
        metrics, attempted, failed, info = measure_untraced(
            wl, workloads.FAILURES, args.seconds, setup)

    mismatches = wl.check()
    failed += sum(ops for ops, _ in mismatches)
    correct = not mismatches
    info["failed_frac"] = failed / attempted
    if not args.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  correct {correct}")
    print("environment " + json.dumps(env))
    print("run " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for ops, line in mismatches[:20]:
        print(f"  CHECK FAILED ({ops} ops): {line}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "environment": env, "run": info,
              "mismatches": [{"ops": ops, "message": line} for ops, line in mismatches],
              **result}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
