"""Checks on the benchmark's generated inputs.

    PYTHONPATH=src python -m pytest -q bench/test_scenarios.py
"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polystate import ensemble, scenario  # noqa: E402
from polystate.spacetime import Region, position  # noqa: E402

import scenarios  # noqa: E402

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_documents_parse_without_diagnostics(seed):
    for doc in (scenarios.ghz_document(7, random.Random(seed)),
                scenarios.ghz_document(3, random.Random(seed)),
                scenarios.chain_document(48, random.Random(seed))):
        assert scenario.diagnose_document(doc) == []


def test_same_seed_same_documents():
    for make in (lambda rng: scenarios.ghz_document(7, rng),
                 lambda rng: scenarios.chain_document(48, rng)):
        assert make(random.Random(4)) == make(random.Random(4))
        assert make(random.Random(4)) != make(random.Random(5))


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_outcomes_have_conditional_probability_half(seed):
    """In the order the ensemble samples them, each recorded outcome of the
    chain has Born probability exactly 1/2 given the ones before it, so the
    whole record is a valid input however long the chain is."""
    s = scenario.parse_scenario(scenarios.chain_document(48, random.Random(seed)))
    rho = s.initial_state
    eye = np.eye(2)
    for k in ensemble.selective_order(s):
        iv = s.interventions[k]
        kraus = iv.op.kraus[iv.op.chosen]
        op = np.kron(kraus, eye) if iv.subsystem == 0 else np.kron(eye, kraus)
        rho = op @ rho @ op.conj().T
        p = np.trace(rho).real
        assert abs(p - 0.5) <= 1e-12
        rho = rho / p


@pytest.mark.parametrize("seed", SEEDS)
def test_ghz_reach_patterns_fix_the_selection(seed):
    """Evaluation event i sees exactly the measurements within its reach,
    whatever the seed's jitter."""
    rng = random.Random(seed)
    doc = scenarios.ghz_document(7, rng)
    s = scenario.parse_scenario(doc)
    for reach, taus in zip(scenarios.GHZ_REACH, scenarios.ghz_taus(doc, rng)):
        for i in range(7):
            region = Region.union_of_pasts([position(s.worldlines[i], taus[i])])
            want = tuple(j for j in range(7) if reach[i] >= 0 and abs(i - j) <= reach[i])
            assert scenario.selected_ids(s, region) == want


def test_chain_counts_below_each_leaf_do_not_depend_on_seed():
    gamma = 1.0 / math.sqrt(1.0 - scenarios.SWEEP_V ** 2)

    def counts(seed):
        s = scenario.parse_scenario(scenarios.chain_document(48, random.Random(seed)))
        a_taus = [iv.tau for iv in s.interventions if iv.subsystem == 0]
        return [sum(tau <= t / gamma for tau in a_taus) for t in scenarios.sweep_leaves()]

    first = counts(0)
    assert max(first) == 48
    assert all(counts(seed) == first for seed in SEEDS)


def test_worldline_event_matches_the_program():
    doc = scenarios.chain_document(48, random.Random(2))
    s = scenario.parse_scenario(doc)
    wl = json.loads(doc)["subsystems"][1]["worldline"]
    for tau in (-0.7, 0.0, 0.3, 1.1, 2.5):
        assert np.allclose(scenarios.worldline_event(wl, tau), position(s.worldlines[1], tau),
                           atol=1e-12)
