"""The benchmark's three workloads.

Each workload is built from a seed (set-up: generate, parse, plan the ops),
then driven pass by pass in a closed loop: `start_pass` resets per-pass
state, `run(g)` performs op number g and returns its output, and `keep`
stores what `check` later compares against an independent answer, outside
the timed region. `check` returns one (ops, message) pair per wrong output,
where ops counts the op repetitions that returned it. Every pass performs
the same ops, except that `mc_ensemble` gives each op its own Monte Carlo
seed. `reference` names the reference unit whose speed the op times are
scaled by (see run.py): BLAS for the large-matrix kernel, else Python.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from polystate import audit, cli, engine, ensemble, scenario, spacetime
from polystate.errors import PolystateError

import scenarios

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12


class OpFailed(Exception):
    """The program reported failure without raising (a nonzero CLI exit)."""


# ops that end in one of these are failed ops; anything else is a crash
FAILURES = (PolystateError, OpFailed)


def trace_distance(a, b) -> float:
    """Computed here rather than by the program, so the checks stay independent."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


class Outputs:
    """The distinct outputs each op returned over the passes, with how many
    repetitions returned each, so every repetition is checked without
    holding one copy per pass."""

    def __init__(self):
        self.seen = {}

    def add(self, key, out) -> None:
        entries = self.seen.setdefault(key, [])
        for entry in entries:
            if np.array_equal(entry[0], out):
                entry[1] += 1
                return
        entries.append([out, 1])

    def items(self):
        for key, entries in sorted(self.seen.items()):
            for out, count in entries:
                yield key, out, count


class GhzWide:
    """GHZ-7 (D = 128): every sector at 8 seeded proper-time tuples, one
    `engine.sector` call per op, one cache shared inside each tuple, as in
    `polystate eval`."""

    name = "ghz_wide"
    reference = "blas"
    n = 7
    checks = 12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        doc = scenarios.ghz_document(self.n, rng)
        self.s = scenario.parse_scenario(doc)
        self.taus = scenarios.ghz_taus(doc, rng)
        subsets = list(engine.all_subsets(self.n))
        self.ops = []
        for slot in rng.sample(range(len(self.taus)), len(self.taus)):
            rng.shuffle(subsets)
            self.ops += [(slot, sub) for sub in subsets]
        self.pass_len = len(self.ops)
        self.sample = set(rng.sample(range(self.pass_len), self.checks))
        self.kept = Outputs()

    def start_pass(self, p: int) -> None:
        self.caches = [{} for _ in self.taus]

    def run(self, g: int):
        slot, subset = self.ops[g % self.pass_len]
        return engine.sector(self.s, self.taus[slot], subset, self.caches[slot])

    def keep(self, g: int, out) -> None:
        if g % self.pass_len in self.sample:
            self.kept.add(g % self.pass_len, out)

    def check(self) -> list:
        """Sampled sectors against the exact post-selection oracle; an op
        that raised kept nothing and is counted already."""
        bad, oracle = [], {}
        for i, rho, count in self.kept.items():
            slot, subset = self.ops[i]
            if i not in oracle:
                oracle[i] = ensemble.analytic_sector(self.s, subset, self.taus[slot])
            d = trace_distance(rho, oracle[i])
            if not d <= TOL:
                bad.append((count, f"tuple {slot} subset {subset}: trace distance {d:.3e} "
                                   "to analytic_sector"))
        return bad


class ChainSweep:
    """A Bell pair with a 48-step z/x chain on A, swept over 141 leaves of a
    v = 0.5 foliation. Each op is one leaf under one of five evaluators: a
    one-leaf `audit.charge_ledger` for each of the four default prescriptions,
    or `engine.polystate_at` with one cache shared across the sweep."""

    name = "chain_sweep"
    reference = "python"
    chain = 48

    def __init__(self, seed: int):
        rng = random.Random(seed)
        doc = scenarios.chain_document(self.chain, rng)
        self.doc = json.loads(doc)
        self.s = scenario.parse_scenario(doc)
        self.f = spacetime.Foliation(np.array([scenarios.SWEEP_V]))
        self.rules = audit.default_prescriptions(self.f)
        self.ops = [(t, e) for t in scenarios.sweep_leaves() for e in range(len(self.rules) + 1)]
        self.pass_len = len(self.ops)
        self.kept = Outputs()

    def start_pass(self, p: int) -> None:
        self.cache = {}

    def run(self, g: int):
        t, e = self.ops[g % self.pass_len]
        if e < len(self.rules):
            return audit.charge_ledger(self.s, self.f, [t], self.rules[e])
        taus = [spacetime.proper_time_at_leaf(w, self.f, t) for w in self.s.worldlines]
        return engine.polystate_at(self.s, taus, self.cache)

    def keep(self, g: int, out) -> None:
        t, e = self.ops[g % self.pass_len]
        if e == len(self.rules):
            self.kept.add(t, out.sector((0,)))

    def expected_a(self, t: float) -> np.ndarray:
        """A's sector at leaf t in closed form: the outcome-0 eigenstate of
        the last basis measured on A, else |+> if B's x readout is in A's
        past (psi+ correlates the x outcomes), else the maximally mixed state."""
        tau_a = t * math.sqrt(1.0 - scenarios.SWEEP_V ** 2)  # A rests at x = 0
        a_ivs = [iv for iv in self.doc["interventions"] if iv["on"] == "A" and iv["tau"] <= tau_a]
        plus = np.full((2, 2), 0.5, dtype=complex)
        if a_ivs:
            last = max(a_ivs, key=lambda iv: iv["tau"])["measure"]["projective_basis"]
            return np.diag([1.0, 0.0]).astype(complex) if last == "pauli_z" else plus
        b_iv = next(iv for iv in self.doc["interventions"] if iv["on"] == "B")
        b_event = scenarios.worldline_event(self.doc["subsystems"][1]["worldline"], b_iv["tau"])
        if tau_a - b_event[0] >= abs(b_event[1]):
            return plus
        return np.eye(2, dtype=complex) / 2

    def check(self) -> list:
        bad = []
        for t, rho, count in self.kept.items():
            d = trace_distance(rho, self.expected_a(t))
            if not d <= TOL:
                bad.append((count, f"leaf {t:.2f}: A sector is {d:.3e} from the closed form"))
        return bad


class McEnsemble:
    """`polystate ensemble foliation_demo.scn --n 1000` in process through
    `cli.main`, one Monte Carlo seed per op, stdout captured."""

    name = "mc_ensemble"
    reference = "python"
    pass_len = 100
    runs = 1000
    taus = "A=0.5,B=1.5"

    def __init__(self, seed: int):
        self.seed = seed
        self.path = ROOT / "src" / "polystate" / "fixtures" / "foliation_demo.scn"
        scenario.parse_scenario(self.path.read_text(encoding="utf-8"))  # each op parses it again
        self.kept = {}

    def start_pass(self, p: int) -> None:
        pass

    def run(self, g: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["ensemble", str(self.path), "--n", str(self.runs),
                             "--seed", str(self.seed + g), "--tau", self.taus])
        if code != 0:
            raise OpFailed(f"polystate ensemble exited {code}")
        return buf.getvalue()

    def keep(self, g: int, out) -> None:
        self.kept[g] = out

    def check(self) -> list:
        bad = []
        for g, text in sorted(self.kept.items()):
            doc = json.loads(text)
            total = math.fsum(b["probability"] for b in doc["branches"])
            wrong = []
            if not doc["max_analytic_distance"] <= TOL:
                wrong.append(f"max_analytic_distance {doc['max_analytic_distance']:.3e}")
            if not abs(total - 1.0) <= TOL:
                wrong.append(f"branch probabilities sum to {total!r}")
            if sum(b["frequency"] for b in doc["branches"]) != self.runs:
                wrong.append(f"branch frequencies do not add up to {self.runs}")
            if wrong:
                bad.append((1, f"op {g}: " + "; ".join(wrong)))
        return bad


WORKLOADS = {w.name: w for w in (GhzWide, ChainSweep, McEnsemble)}
