"""Smoke test of the experiment scripts: each runs to completion in its own
interpreter on its smallest existing arguments. The scripts call the engine,
audit and ensemble paths end to end, so a changed signature there shows up
here even though no other test imports a script."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polystate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(polystate.__file__).resolve().parent.parent
DEMO = str(SCRIPTS.parent / "src" / "polystate" / "fixtures" / "foliation_demo.scn")

RUNS = (
    ("audit_bell.py", "--t-steps", "1"),
    ("foliation_sweep.py", "--steps", "1"),
    ("chain_ladder.py", "--repeats", "1", "--max-n", "5"),
    ("ghz_ladder.py", "--repeats", "1", "--max-n", "2", "--max-noisy-n", "2"),
    ("ensemble_convergence.py", "--max-runs", "1"),
    ("ensemble_ladder.py", "--repeats", "1", "--max-n", "4"),
    ("leaf_ladder.py", "--repeats", "1", "--min-n", "6", "--max-n", "6"),
    ("leaf_counts.py", "--seed", "2"),
    ("selective_ladder.py", "--m", "13", "--repeats", "1"),
    ("cli_digest.py",),
    ("code_lines.py",),
    # the tree against itself
    ("op_ab.py", "--base", str(SCRIPTS.parent), "--ops", "20", "--",
     "ensemble", DEMO, "--n", "1000", "--tau", "A=0.5,B=1.5"),
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


def test_chain_ladder_times_each_rule_on_chains_and_ghz():
    """One column per default prescription's one-leaf ledger, on every
    chain rung and on the GHZ rungs up to --max-n."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(SCRIPTS / "chain_ladder.py"), "--repeats", "1",
                           "--max-n", "5"], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=True)
    chains, ghz = done.stdout.strip().split("\n\n")
    rules = [f"{name}_s" for name in ("polystate", "future_lightcone", "past_lightcone",
                                      "foliation")]
    header, *lines = chains.splitlines()
    assert header.split() == ["chain", "m", "polystate_at_s", *rules, "ledger_s"]
    assert len(lines) == 8 and all(len(line.split()) == 8 for line in lines)
    header, *lines = ghz.splitlines()
    assert header.split() == ["ghz", "n", *rules, "ledger_s"]
    assert [line.split()[:2] for line in lines] == [["ghz", "4"], ["ghz", "5"]]
    assert all(len(line.split()) == 7 for line in lines)


def test_leaf_ladder_times_sweep_and_audit_per_rung():
    """One row per GHZ rung asked for, with the sweep and audit times and
    the rung's peak memory."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(SCRIPTS / "leaf_ladder.py"), "--repeats", "1",
                           "--min-n", "6", "--max-n", "7"], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=True)
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["n", "D", "leaves", "sweep_s", "audit_s", "rss_mb"]
    assert [line.split()[:3] for line in lines] == [["6", "64", "200"], ["7", "128", "200"]]
    assert all(float(x) > 0 for line in lines for x in line.split()[3:])


def test_leaf_counts_one_chain_sweep_pass_shares_each_leaf_quantity():
    """One 141-leaf `chain_sweep` pass (seed 1) reads each kept readout's
    populations at most once (no more calls than readouts its ledger ops
    decide), computes the initial charge once, and solves one crossing per
    worldline per leaf; every other `linalg.charges` call is a readout's
    charge."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(SCRIPTS / "leaf_counts.py"), "--seed", "1"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=True)
    title, header, *rows = done.stdout.splitlines()
    assert title == "chain_sweep seed 1: 705 ops, 0 failed"
    assert header.split() == ["count", "pass", "ledger_ops"]
    counts = {row.split()[0]: tuple(map(int, row.split()[1:])) for row in rows}
    assert 0 < counts["populations_read"][0] <= counts["readouts_decided"][1]
    assert counts["initial_charges"] == (1, 1)
    assert counts["charges_calls"][0] == counts["populations_read"][0] + 1
    assert counts["leaf_crossings_solved"][0] == 2 * 141


def test_code_lines_skip_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = ('"""Module\ndocstring."""\n\nimport os  # kept: code before the comment\n\n'
              '# a comment line\nclass C:\n    """Class docstring."""\n\n'
              '    def f(self):\n        """Function\n        docstring."""\n'
              '        s = """a string that is\n        not a docstring"""\n        return s\n')
    # import, class, def, the two lines of s, return
    assert code_lines.code_lines(source) == 6
