from dataclasses import replace

import numpy as np
import pytest

from polystate import engine, ensemble, linalg
from polystate.errors import BranchExplosionError, EmptyEnsembleError

from helpers import load_fixture, random_two_qubit_scenario, with_outcomes

RNG = np.random.default_rng(314)


def test_selective_order_is_by_tau():
    s = load_fixture("epr_test.scn")
    assert ensemble.selective_order(s) == (0, 1)


def test_enumerate_branches_bell():
    s = load_fixture("bell_sigma_z.scn")
    branches = ensemble.enumerate_branches(s)
    assert len(branches) == 2
    probs = {b.outcomes: b.probability for b in branches}
    assert abs(probs[(0,)] - 0.5) < 1e-12
    assert abs(probs[(1,)] - 0.5) < 1e-12
    assert all(b.final_state is not None for b in branches)


def test_enumerate_branches_epr_quarter_angle():
    s = load_fixture("epr_test.scn")
    branches = {b.outcomes: b.probability for b in ensemble.enumerate_branches(s)}
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
    with pytest.raises(BranchExplosionError):
        ensemble.enumerate_branches(s, cap=3)


def test_sample_runs_deterministic_and_unbiased():
    s = load_fixture("epr_test.scn")
    log1 = ensemble.sample_runs(s, 4000, seed=5)
    log2 = ensemble.sample_runs(s, 4000, seed=5)
    assert np.array_equal(log1.outcomes, log2.outcomes)
    log3 = ensemble.sample_runs(s, 4000, seed=6)
    assert not np.array_equal(log1.outcomes, log3.outcomes)

    freq = ensemble.branch_frequencies(log1, s)
    branches = {b.outcomes: b.probability for b in ensemble.enumerate_branches(s)}
    n = log1.n_runs
    for outcomes, p in branches.items():
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(freq.get(outcomes, 0) - n * p) <= 6 * sigma


def test_sample_runs_prefix_extension():
    # the same seed and run index give the same draw, so a longer log
    # starts with the shorter one
    s = load_fixture("epr_test.scn")
    short = ensemble.sample_runs(s, 100, seed=11)
    long = ensemble.sample_runs(s, 200, seed=11)
    assert np.array_equal(long.outcomes[:100], short.outcomes)


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
    # no sampled run can match the recorded outcome once every entry is
    # forced to the other branch
    starved = replace(log, outcomes=np.ones_like(log.outcomes))
    with pytest.raises(EmptyEnsembleError):
        ensemble.empirical_sector(starved, s, (0, 1), (2.0, 3.5))


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
        branches = ensemble.enumerate_branches(s)
        probs = np.array([b.probability for b in branches])
        if probs.sum() < 1e-9:
            continue
        pick = RNG.choice(len(branches), p=probs / probs.sum())
        s = with_outcomes(s, branches[pick].outcomes)
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


def test_sample_runs_draws_from_a_philox_stream_per_run():
    # run r takes its uniforms from a fresh Philox keyed by (seed, r) and
    # turns each into an outcome by its conditional Born probability
    s = load_fixture("epr_test.scn")
    seed = 17
    log = ensemble.sample_runs(s, 60, seed=seed)
    p = {b.outcomes: b.probability for b in ensemble.enumerate_branches(s)}
    marginal = {a: p[(a, 0)] + p[(a, 1)] for a in (0, 1)}
    for r in range(60):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))
        u = gen.random(2)
        first = 0 if u[0] <= marginal[0] else 1
        second = 0 if u[1] * marginal[first] <= p[(first, 0)] else 1
        assert tuple(log.outcomes[r]) == (first, second)
