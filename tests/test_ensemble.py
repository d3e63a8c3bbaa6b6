import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from polystate import engine, ensemble, linalg
from polystate.errors import BranchExplosionError, EmptyEnsembleError, ImpossibleOutcomeError
from polystate.scenario import parse_scenario

from helpers import (branch_table, load_fixture, random_two_qubit_scenario,
                     splitmix64_uniforms, with_outcomes)

RNG = np.random.default_rng(314)


def test_selective_order_is_by_tau():
    s = load_fixture("epr_test.scn")
    assert ensemble.selective_order(s) == (0, 1)


def test_enumerate_branches_bell():
    s = load_fixture("bell_sigma_z.scn")
    assert len(ensemble.enumerate_branches(s)) == 2
    probs = branch_table(s)
    assert abs(probs[(0,)] - 0.5) < 1e-12
    assert abs(probs[(1,)] - 0.5) < 1e-12


def test_enumerate_branches_epr_quarter_angle():
    s = load_fixture("epr_test.scn")
    branches = branch_table(s)
    theta = np.pi / 4
    same = 0.5 * np.sin(theta / 2) ** 2
    diff = 0.5 * np.cos(theta / 2) ** 2
    assert abs(branches[(0, 0)] - same) < 1e-12
    assert abs(branches[(1, 1)] - same) < 1e-12
    assert abs(branches[(0, 1)] - diff) < 1e-12
    assert abs(branches[(1, 0)] - diff) < 1e-12
    assert abs(sum(branches.values()) - 1.0) < 1e-12


def test_branch_explosion_cap():
    s = load_fixture("epr_test.scn")
    with mock.patch.object(ensemble, "BRANCH_CAP", 3), pytest.raises(BranchExplosionError):
        ensemble.enumerate_branches(s)


def test_sample_runs_deterministic_and_unbiased():
    s = load_fixture("epr_test.scn")
    log1 = ensemble.sample_runs(s, 4000, seed=5)
    log2 = ensemble.sample_runs(s, 4000, seed=5)
    assert np.array_equal(log1.outcomes, log2.outcomes)
    log3 = ensemble.sample_runs(s, 4000, seed=6)
    assert not np.array_equal(log1.outcomes, log3.outcomes)

    freq = ensemble.branch_frequencies(log1)
    n = log1.n_runs
    for outcomes, p in branch_table(s).items():
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(freq[outcomes] - n * p) <= 6 * sigma


def test_sample_runs_prefix_extension():
    # the same seed and run index give the same draw, so a longer log
    # starts with the shorter one
    s = load_fixture("epr_test.scn")
    short = ensemble.sample_runs(s, 100, seed=11)
    long = ensemble.sample_runs(s, 200, seed=11)
    assert np.array_equal(long.outcomes[:100], short.outcomes)


def test_run_log_without_selectives_has_empty_outcome_rows():
    s = replace(load_fixture("bell_sigma_z.scn"), interventions=())
    log = ensemble.sample_runs(s, 7, seed=1)
    assert log.weights.shape == ()
    assert log.outcomes.shape == (7, 0)


def test_empirical_sector_matches_engine_on_fixture():
    s = load_fixture("foliation_demo.scn")
    taus = (2.0, 1.5)
    log = ensemble.sample_runs(s, 3000, seed=2)
    for subset in ((0,), (1,), (0, 1)):
        emp = ensemble.empirical_sector(log, s, subset, taus)
        ref = engine.sector(s, taus, subset)
        assert linalg.trace_distance(emp, ref) < 0.05


def test_empirical_sector_exact_when_projective_and_inside():
    # with every selective inside the past union, retained runs all carry
    # the same post-measurement state, so the average is exact
    s = load_fixture("foliation_demo.scn")
    taus = (3.0, 3.0)
    log = ensemble.sample_runs(s, 500, seed=3)
    emp = ensemble.empirical_sector(log, s, (0, 1), taus)
    ref = engine.sector(s, taus, (0, 1))
    assert linalg.trace_distance(emp, ref) < 1e-12


def test_empty_ensemble_raises():
    s = load_fixture("bell_sigma_z.scn")
    log = ensemble.sample_runs(s, 50, seed=8)
    # no sampled run can match the recorded outcome once every code is
    # forced to the other branch
    starved = replace(log, codes=np.ones_like(log.codes))
    with pytest.raises(EmptyEnsembleError):
        ensemble.empirical_sector(starved, s, (0, 1), (2.0, 3.5))


def faint_readout(basis: str):
    """|00>, A read once at tau 1 in the given basis with outcome 1 recorded,
    B a thousand units away, and a hand-made log of three runs that all took
    that outcome."""
    s = parse_scenario(json.dumps({
        "spacetime": {"d": 1},
        "subsystems": [{"name": name, "dim": 2,
                        "worldline": {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}}
                       for name, x in (("A", 0.0), ("B", 1000.0))],
        "initial_state": {"ket": [1.0, 0.0, 0.0, 0.0]},
        "interventions": [{"on": "A", "tau": 1.0,
                           "measure": {"projective_basis": basis, "outcome": 1}}],
    }))
    log = ensemble.RunLog(seed=0, n_runs=3, order=(0,), weights=ensemble.enumerate_branches(s),
                          codes=np.ones(3, dtype=np.intp))
    return s, log


def test_empirical_sector_keeps_a_retained_branch_of_tiny_weight():
    """Outcome 1 of a readout tilted 1e-6 from z has weight
    sin^2(5e-7) = 2.5e-13, below the dense `normalize`'s absolute floor. A
    log whose runs all took it gets that branch's state, for subsets that
    condition on the readout and for B, which only shares its runs; a
    retained branch of weight exactly 0 still raises, naming the sector."""
    s, log = faint_readout("pauli_n(1e-6, 0)")
    assert abs(ensemble.enumerate_branches(s)[1] - 2.5e-13) < 1e-20
    down = linalg.projector(linalg.spin_basis(1e-6, 0.0)[1])
    p00 = linalg.projector(linalg.KET0)
    for subset, want in (((0,), down), ((1,), p00), ((0, 1), linalg.kron(down, p00))):
        got = ensemble.empirical_sector(log, s, subset, (2.0, 0.0))
        assert np.max(np.abs(got - want)) < 1e-12

    s, log = faint_readout("pauli_z")
    for subset in ((0,), (1,)):
        with pytest.raises(ImpossibleOutcomeError, match=r"^sector \{%s\}: " % "AB"[subset[0]]):
            ensemble.empirical_sector(log, s, subset, (2.0, 0.0))


def test_analytic_sector_equals_engine_on_fixtures():
    for name in ("bell_sigma_z.scn", "bell_sigma_x.scn", "epr_test.scn", "foliation_demo.scn"):
        s = load_fixture(name)
        for taus in ((0.5, 0.5), (2.0, 1.5), (0.5, 3.5), (2.0, 3.5)):
            for subset in ((0,), (1,), (0, 1)):
                ana = ensemble.analytic_sector(s, subset, taus)
                ref = engine.sector(s, taus, subset)
                assert linalg.trace_distance(ana, ref) < 1e-12, (name, taus, subset)


def test_analytic_sector_equals_engine_on_random_scenarios():
    count = 0
    while count < 25:
        s = random_two_qubit_scenario(RNG)
        branches = branch_table(s)
        probs = np.array(list(branches.values()))
        if probs.sum() < 1e-9:
            continue
        pick = RNG.choice(len(branches), p=probs / probs.sum())
        s = with_outcomes(s, list(branches)[pick])
        taus = tuple(RNG.uniform(-2.0, 4.0, size=2))
        ok = True
        for subset in ((0,), (1,), (0, 1)):
            ana = ensemble.analytic_sector(s, subset, taus)
            ref = engine.sector(s, taus, subset)
            assert linalg.trace_distance(ana, ref) < 1e-12, (taus, subset)
        count += 1


def test_compare_report_shape():
    s = load_fixture("foliation_demo.scn")
    log = ensemble.sample_runs(s, 1000, seed=4)
    report = ensemble.compare_to_polystate(log, s, (2.0, 2.0))
    assert [r.subset for r in report.rows] == [(0,), (1,), (0, 1)]
    assert report.max_analytic < 1e-12
    assert report.max_empirical <= max(r.empirical_distance for r in report.rows) + 1e-15


def test_sample_runs_draws_from_one_stream_per_seed():
    # one call draws from the seed's one SplitMix64 stream; run r takes its
    # two uniforms at offset 2r and turns each into an outcome by its
    # conditional Born probability
    s = load_fixture("epr_test.scn")
    seed = 17
    log = ensemble.sample_runs(s, 60, seed=seed)
    p = branch_table(s)
    marginal = {a: p[(a, 0)] + p[(a, 1)] for a in (0, 1)}
    stream = splitmix64_uniforms(seed)
    for r in range(60):
        u = [next(stream), next(stream)]
        first = 0 if u[0] <= marginal[0] else 1
        second = 0 if u[1] * marginal[first] <= p[(first, 0)] else 1
        assert tuple(log.outcomes[r]) == (first, second)
