import json
import math
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


def faint_document(basis: str) -> str:
    """|00>, A read once at tau 1 in the given basis with outcome 1
    recorded, B a thousand units away."""
    return json.dumps({
        "spacetime": {"d": 1},
        "subsystems": [{"name": name, "dim": 2,
                        "worldline": {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}}
                       for name, x in (("A", 0.0), ("B", 1000.0))],
        "initial_state": {"ket": [1.0, 0.0, 0.0, 0.0]},
        "interventions": [{"on": "A", "tau": 1.0,
                           "measure": {"projective_basis": basis, "outcome": 1}}],
    })


def faint_readout(basis: str, runs: int = 3):
    """The scenario of `faint_document`, and a hand-made log of runs that
    all took the recorded outcome."""
    s = parse_scenario(faint_document(basis))
    log = ensemble.RunLog(seed=0, n_runs=runs, order=(0,), weights=ensemble.enumerate_branches(s),
                          codes=np.ones(runs, dtype=np.intp))
    return s, log


def test_empirical_sector_keeps_a_retained_branch_of_tiny_weight():
    """Outcome 1 of a readout tilted 1e-6 from z has weight
    sin^2(5e-7) = 2.5e-13, below 1e-12. A log whose runs all took it gets
    that branch's state, for subsets that condition on the readout and for
    B, which only shares its runs; a retained branch of weight exactly 0
    still raises, naming the sector."""
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


@pytest.mark.parametrize("tilt,weight", [("1e-6", 2.5e-13), ("1e-7", 2.5e-15)])
def test_a_faint_recorded_outcome_gives_one_state_on_every_path(tilt, weight, tmp_path, capsys):
    """Outcome 1 of a readout of |0> tilted 1e-6 or 1e-7 from z can occur:
    the engine, the dense oracle and a one-run log that took it give one
    state for every subset, within 1e-12, and `polystate eval` prints it
    and exits 0."""
    basis = f"pauli_n({tilt}, 0)"
    s, log = faint_readout(basis, runs=1)
    assert abs(ensemble.enumerate_branches(s)[1] - weight) < weight * 1e-6
    down = linalg.projector(linalg.spin_basis(float(tilt), 0.0)[1])
    p00 = linalg.projector(linalg.KET0)
    taus = (2.0, 0.0)
    for subset, want in (((0,), down), ((1,), p00), ((0, 1), linalg.kron(down, p00))):
        for got in (engine.sector(s, taus, subset), ensemble.analytic_sector(s, subset, taus),
                    ensemble.empirical_sector(log, s, subset, taus)):
            assert np.max(np.abs(got - want)) < 1e-12, subset

    from polystate import cli

    path = tmp_path / "faint.scn"
    path.write_text(faint_document(basis))
    assert cli.main(["eval", str(path), "--tau", "A=2.0,B=0.0"]) == 0
    sectors = json.loads(capsys.readouterr().out)["sectors"]
    got = np.array([[complex(*entry) for entry in row] for row in sectors["A"]])
    assert np.max(np.abs(got - down)) < 1e-12


def test_empirical_sector_pushes_only_the_assignments_its_runs_hold():
    """A Bell pair with 13 readouts on A, z and x alternating, and B read at
    tau 0, outside A's future: every run is retained and the applied cut
    holds all 8192 branches, but the stacked pushes hold one row per
    distinct retained assignment, and no more."""
    readouts = [{"on": "A", "tau": (k + 1) / 13,
                 "measure": {"projective_basis": ("pauli_z", "pauli_x")[k % 2], "outcome": 0}}
                for k in range(13)]
    s = parse_scenario(json.dumps({
        "spacetime": {"d": 1},
        "subsystems": [{"name": name, "dim": 2,
                        "worldline": {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}}
                       for name, x in (("A", 0.0), ("B", 1.0))],
        "initial_state": {"named": "bell_psi_plus"},
        "interventions": readouts,
    }))
    log = ensemble.sample_runs(s, 12, seed=4)
    with mock.patch.object(ensemble, "push", wraps=ensemble.push) as pushes:
        ensemble.empirical_sector(log, s, (1,), (2.0, 0.0))
    rows = sum(math.prod(np.broadcast_shapes(*map(np.shape, call.args[2].values())))
               for call in pushes.call_args_list)
    assert rows == len(np.unique(log.codes)) > 1


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


def test_compare_refuses_an_impossible_record_before_any_ensemble():
    """`compare_to_polystate` reads the engine's sectors first, from one
    `polystate_at`, so a recorded outcome that cannot occur is named by the
    engine's verdict even where an earlier subset's ensemble is empty: here
    B records 0 after psi+ gave A 0, and the one run took A's other branch,
    so A's ensemble holds no run."""
    s = load_fixture("bell_sigma_z.scn")
    s = replace(s, interventions=s.interventions + (
        replace(s.interventions[0], subsystem=1),))
    log = replace(ensemble.sample_runs(s, 1, seed=0), codes=np.array([2]))
    with pytest.raises(EmptyEnsembleError):
        ensemble.empirical_sector(log, s, (0,), (2.0, 4.0))
    with pytest.raises(ImpossibleOutcomeError, match=r"sector \{B\}"):
        ensemble.compare_to_polystate(log, s, (2.0, 4.0))


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


def test_stacked_trace_distances_keep_the_bits_of_trace_distance():
    """The queue's in-place Hermitian part of a difference is the
    out-of-place one bit for bit, signed zeros included, so every stacked
    distance is `linalg.trace_distance` of its pair."""
    rng = np.random.default_rng(7)

    def draw(d):
        return (rng.choice([0.0, -0.0, 0.5, -1.5], (d, d))
                + 1j * rng.choice([0.0, -0.0, 0.25], (d, d)))

    pairs = [(draw(d), draw(d)) for d in rng.integers(1, 5, 200).tolist()]
    distances = ensemble._TraceDistances(len(pairs))
    for slot, (a, b) in enumerate(pairs):
        distances.add(slot, a, b)
    for queue in distances.queues.values():
        for slot, held in queue:
            diff = pairs[slot][0] - pairs[slot][1]
            want = (diff + diff.conj().T) / 2
            assert np.array_equal(held.view(np.uint64), want.view(np.uint64))
    assert distances.read().tolist() == [linalg.trace_distance(a, b) for a, b in pairs]
