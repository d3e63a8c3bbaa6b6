"""Digest of the CLI on the fixtures, for byte-stability checks.

Runs a fixed suite of `polystate` invocations in one process, through
`cli.main`, and prints one line per invocation: the arguments (fixtures by
file name), the exit code, and the SHA-256 of stdout and of stderr. Two
source trees print identical lines exactly when every invocation gives the
same exit code and the same bytes on both streams, so a change is checked
by running this once per tree and diffing the outputs:

    PYTHONPATH=old/src python scripts/cli_digest.py > old.txt
    PYTHONPATH=new/src python scripts/cli_digest.py > new.txt
    diff old.txt new.txt

The suite, per fixture: `validate`; `eval` at six proper-time tuples, for
all sectors, `--sector B` and `--sector AB`; `audit` at three tuples, with
the default ledger and with `--foliation v=0.5 --grid=-1:4:11`; `sweep` for
every source at three frame velocities; `diagram`; and `ensemble` over two
seeds, three run counts and two tuples.
"""

import contextlib
import hashlib
import io
from itertools import product
from pathlib import Path

import polystate
from polystate import audit, cli

FIXTURES = Path(polystate.__file__).resolve().parent / "fixtures"
NAMES = ("bell_sigma_x.scn", "bell_sigma_z.scn", "epr_test.scn", "foliation_demo.scn")

# every fixture measures at tau 1 on worldlines two apart, so these straddle
# the readouts and the lightcone crossings at tau -1 and 3
EVAL_TAUS = ("A=0.5,B=0.5", "A=1.0,B=1.0", "A=2.0,B=1.5", "A=2.0,B=3.5",
             "A=3.5,B=2.0", "A=4.0,B=4.0")
AUDIT_TAUS = ("A=0.5,B=0.5", "A=2.0,B=1.5", "A=2.0,B=3.5")
ENSEMBLE_TAUS = ("A=0.5,B=1.5", "A=2.0,B=3.5")
VELOCITIES = ("v=0", "v=0.5", "v=-0.5")


def invocations(name: str):
    path = str(FIXTURES / name)
    yield ("validate", path)
    for taus, sector in product(EVAL_TAUS, ((), ("--sector", "B"), ("--sector", "AB"))):
        yield ("eval", path, "--tau", taus, *sector)
    for taus, ledger in product(AUDIT_TAUS, ((), ("--foliation", "v=0.5", "--grid=-1:4:11"))):
        yield ("audit", path, "--tau", taus, *ledger)
    sources = sorted(rule.name for rule in audit.default_prescriptions())
    for source, v in product(sources, VELOCITIES):
        yield ("sweep", path, "--t-range=-1:4:21", "--foliation", v, "--source", source)
    yield ("diagram", path)
    for seed, n, taus in product((0, 7), (50, 1000, 20000), ENSEMBLE_TAUS):
        yield ("ensemble", path, "--n", str(n), "--seed", str(seed), "--tau", taus)


def digest(args) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    shown = " ".join(Path(a).name if a.startswith(str(FIXTURES)) else a for a in args)
    sha = [hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err)]
    return f"{shown}\t{code}\t{sha[0]}\t{sha[1]}"


def main():
    for name in NAMES:
        for args in invocations(name):
            print(digest(args))


if __name__ == "__main__":
    main()
