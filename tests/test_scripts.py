"""Smoke test of the experiment scripts: each runs to completion in its own
interpreter on its smallest existing arguments. The scripts call the engine,
audit and ensemble paths end to end, so a changed signature there shows up
here even though no other test imports a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polystate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(polystate.__file__).resolve().parent.parent

RUNS = (
    ("audit_bell.py", "--t-steps", "1"),
    ("foliation_sweep.py", "--steps", "1"),
    ("chain_ladder.py", "--repeats", "1"),
    ("ghz_ladder.py", "--repeats", "1", "--max-n", "2", "--max-noisy-n", "2"),
    ("ensemble_convergence.py", "--max-runs", "1"),
    ("selective_ladder.py", "--m", "13", "--repeats", "1"),
    ("cli_digest.py",),
)


def test_every_script_is_smoke_tested():
    assert sorted(run[0] for run in RUNS) == sorted(p.name for p in SCRIPTS.glob("*.py"))


@pytest.mark.parametrize("script,args", [(run[0], run[1:]) for run in RUNS],
                         ids=[run[0] for run in RUNS])
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
