import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from polystate import audit, engine, linalg
from polystate.errors import ImpossibleOutcomeError
from polystate.scenario import parse_scenario
from polystate.spacetime import Foliation, Worldline

from helpers import (fixture_text, flip_outcomes, load_fixture, random_two_qubit_scenario,
                     random_worldline)
from test_kernel_properties import FAINT_TILTS, SUITE, scenarios_with_blocked_branch, seeds
from test_properties import tau_values, velocities

RNG = np.random.default_rng(1234)

PROBE = (2.0, 1.5)


def test_applied_sets_per_prescription():
    s = load_fixture("bell_sigma_z.scn")
    x_probe_a = np.array([2.0, 0.0])
    x_probe_b = np.array([1.5, 2.0])
    event = np.array([1.0, 0.0])
    assert audit.FutureLightcone().applied(event, x_probe_a)
    assert not audit.FutureLightcone().applied(event, x_probe_b)
    # the past-lightcone rule updates everywhere outside the strict past
    assert audit.PastLightcone().applied(event, x_probe_b)
    assert not audit.PastLightcone().applied(event, np.array([0.0, 0.0]))
    assert audit.PastLightcone().applied(event, np.array([0.0, 1.0]))  # spacelike
    rest = audit.FixedFoliation(Foliation(np.zeros(1)))
    assert rest.applied(event, x_probe_b)
    assert not rest.applied(event, np.array([0.5, 2.0]))


def test_single_state_agreeing_events():
    s = load_fixture("bell_sigma_z.scn")
    flc = audit.FutureLightcone()
    # both probes before anything: everyone agrees nothing applied
    early = audit.single_state(flc, s, (0.0, 0.0))
    assert np.allclose(early, linalg.projector(linalg.BELL_PSI_PLUS), atol=1e-12)
    # both probes after B crossed the cone: everyone agrees it applied
    late = audit.single_state(flc, s, (4.0, 4.0))
    assert np.allclose(late, linalg.projector(linalg.product_ket("01")), atol=1e-12)


def test_single_state_patchwork_when_events_disagree():
    s = load_fixture("bell_sigma_z.scn")
    flc = audit.FutureLightcone()
    state = audit.single_state(flc, s, PROBE)
    # A has updated, B has not: the bookkeeper writes |0><0| x 1/2
    want = linalg.kron(linalg.projector(linalg.KET0), np.eye(2) / 2)
    assert np.allclose(state, want, atol=1e-12)
    # the patchwork has lost the correlation the sector keeps
    szz = linalg.kron(linalg.SIGMA_Z, linalg.SIGMA_Z)
    assert abs(linalg.expect(state, szz)) < 1e-12
    assert abs(linalg.expect(engine.sector(s, PROBE, (0, 1)), szz) + 1.0) < 1e-12


def test_reduced_states_polystate_delegates_to_engine():
    s = load_fixture("bell_sigma_z.scn")
    locals_ = audit.reduced_states(audit.PolystateRule(), s, PROBE)
    assert np.allclose(locals_[0], engine.sector(s, PROBE, (0,)), atol=1e-14)
    assert np.allclose(locals_[1], engine.sector(s, PROBE, (1,)), atol=1e-14)


def test_leaf_states_select_once_and_match_separate_calls(monkeypatch):
    """`leaf_states` makes one causal-past test per evaluation event and
    builds each reduced state once, a patchwork joint state included, each
    by one unchecked read of the engine (`engine._state`). The
    past-lightcone and foliation rules test with `applied`; the two
    lightcone rules read the engine's member rows, so a scenario without
    rows tests each member once, and a second evaluation at the same proper
    times tests none. Its joint state is `single_state` by definition, and
    its reduced states equal `reduced_states`, computed alone, bit for bit."""
    s = load_fixture("epr_test.scn")
    rules = audit.default_prescriptions(Foliation(np.array([0.4])))
    states, tests = [], []
    read = engine._state
    monkeypatch.setattr(engine, "_state",
                        lambda *args, **kw: states.append(args[2]) or read(*args, **kw))
    row_test = engine.causally_precedes
    monkeypatch.setattr(engine, "causally_precedes",
                        lambda events, x: tests.append(x) or row_test(events, x))
    patchworks = 0
    for p in rules:
        lightcone = isinstance(p, audit.FutureLightcone)
        if not lightcone:
            monkeypatch.setattr(p, "applied",
                                lambda events, x, f=p.applied: tests.append(x) or f(events, x),
                                raising=False)
        for taus in ((0.0, 0.0), PROBE, (1.5, 2.0), (4.0, 4.0)):
            joint, locals_ = audit.single_state(p, s, taus), audit.reduced_states(p, s, taus)
            # a copy starts without the rows the calls above kept
            fresh = replace(s)
            tests.clear()
            states.clear()
            got_joint, got_locals = audit.leaf_states(p, fresh, taus)
            assert len(tests) == s.n
            assert np.array_equal(got_joint, joint)
            assert all(np.array_equal(a, b) for a, b in zip(got_locals, locals_))
            patchwork = all(len(sub) == 1 for sub in states)
            patchworks += patchwork
            assert len(states) == s.n + (not patchwork)
            tests.clear()
            audit.leaf_states(p, fresh, taus)
            assert len(tests) == (0 if lightcone else s.n)
    assert patchworks


def test_criteria_report_bell_probe():
    s = load_fixture("bell_sigma_z.scn")
    report = audit.criteria_report(s, PROBE)
    assert abs(report.target_marginal_a - 1.0) < 1e-12
    assert abs(report.target_marginal_b - 0.0) < 1e-12
    assert abs(report.target_correlation + 1.0) < 1e-12
    rows = {r.name: r for r in report.rows}
    assert set(rows) == {"polystate", "future_lightcone", "past_lightcone", "foliation"}

    assert rows["polystate"].all_ok
    for name in ("future_lightcone", "past_lightcone", "foliation"):
        assert not rows[name].all_ok

    # each rival is at least 0.5 off somewhere
    targets = (report.target_marginal_a, report.target_marginal_b, report.target_correlation)
    for name in ("future_lightcone", "past_lightcone", "foliation"):
        r = rows[name]
        deviations = [abs(v - t) for v, t in zip((r.marginal_a, r.marginal_b, r.correlation), targets)]
        deviations.append(r.ignorance_distance)
        assert max(deviations) >= 0.5, (name, deviations)


def test_criteria_report_failure_shapes():
    s = load_fixture("bell_sigma_z.scn")
    rows = {r.name: r for r in audit.criteria_report(s, PROBE).rows}
    flc = rows["future_lightcone"]
    # the future-lightcone rule only misses the correlation
    assert flc.marginal_a_ok and flc.marginal_b_ok and flc.ignorance_ok
    assert not flc.correlation_ok and abs(flc.correlation - 0.0) < 1e-12
    for name in ("past_lightcone", "foliation"):
        r = rows[name]
        # B's local description already shows A's outcome, and flipping
        # A's record drags it along
        assert not r.marginal_b_ok and abs(r.marginal_b + 1.0) < 1e-12
        assert not r.ignorance_ok and abs(r.ignorance_distance - 1.0) < 1e-12


def reference_report(s, taus, foliation):
    """`criteria_report` as a second scenario computes it: targets from one
    `engine.sector` per subset, and the ignorance cell's flipped description
    from `reduced_states` on a copy with A's recorded outcomes flipped
    (`helpers.flip_outcomes`), which forms A's flipped state too."""
    sz, szz = linalg.SIGMA_Z, linalg.kron(linalg.SIGMA_Z, linalg.SIGMA_Z)
    targets = (linalg.expect(engine.sector(s, taus, (0,)), sz),
               linalg.expect(engine.sector(s, taus, (1,)), sz),
               linalg.expect(engine.sector(s, taus, (0, 1)), szz))
    flipped = flip_outcomes(s, 0)
    rows = []
    for p in audit.default_prescriptions(foliation):
        joint, locals_ = audit.leaf_states(p, s, taus)
        values = (linalg.expect(locals_[0], sz), linalg.expect(locals_[1], sz),
                  linalg.expect(joint, szz))
        ign = linalg.trace_distance(locals_[1], audit.reduced_states(p, flipped, taus)[1])
        rows.append(audit.PrescriptionRow(
            p.name, *values, *(abs(v - w) <= audit.MATCH_TOL for v, w in zip(values, targets)),
            ign, ign <= audit.MATCH_TOL))
    return targets, rows


@hs.composite
def two_qubit_scenarios(draw):
    """A random bipartite qubit scenario (`helpers.random_two_qubit_scenario`)
    from a drawn seed, with a blocked or faint readout when a drawn flag is
    set (`scenarios_with_blocked_branch`)."""
    rng = np.random.default_rng(draw(seeds))
    base = hs.just(random_two_qubit_scenario(rng, n_interventions=draw(hs.integers(0, 4))))
    return draw(scenarios_with_blocked_branch(base, tilts=FAINT_TILTS))


def test_criteria_report_equals_the_flipped_scenario_bit_for_bit():
    """Wherever the flipped-scenario reference returns, `criteria_report`
    returns too, with the same targets and every row the same, bit for bit
    (`repr` tells -0.0 from 0.0 and prints every float exactly). The suite
    checks that the reference both returned and raised on some draws."""
    seen = {"returned": 0, "raised": 0}

    @SUITE
    @given(s=two_qubit_scenarios(), taus=hs.lists(tau_values, min_size=2, max_size=2),
           v=velocities())
    def check(s, taus, v):
        f = Foliation(v)
        try:
            targets, rows = reference_report(s, taus, f)
        except ImpossibleOutcomeError:
            seen["raised"] += 1
            return
        seen["returned"] += 1
        report = audit.criteria_report(s, taus, f)
        got = (report.target_marginal_a, report.target_marginal_b, report.target_correlation)
        assert repr(got) == repr(targets)
        assert repr(report.rows) == repr(rows)

    check()
    assert seen["returned"] and seen["raised"], seen


def bell_with_b_readout():
    """`bell_sigma_z.scn` with a z readout on B at tau 1 that records 1, as
    psi+ does once A has read 0: with A's outcome flipped, B's record
    cannot occur."""
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["interventions"].append({"on": "B", "tau": 1.0,
                                 "measure": {"projective_basis": "pauli_z", "outcome": 1}})
    return parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("v", [0.0, 0.3])
def test_ignorance_cell_forms_only_b_flipped_state(v):
    """At (2.0, 0.5) the past-lightcone rule applies B's readout at A's event
    and A's measurement at B's, so with A's outcome flipped, A's own state
    cannot occur while B's can. The cell reads only B's, so the report
    returns; the flipped-scenario reference forms A's too and raises."""
    s, f = bell_with_b_readout(), Foliation(np.array([v]))
    with pytest.raises(ImpossibleOutcomeError, match=r"sector \{A\}: branch weight 0.000e\+00"):
        reference_report(s, (2.0, 0.5), f)
    rows = audit.criteria_report(s, (2.0, 0.5), f).rows
    assert [r.ignorance_distance for r in rows] == [0.0, 0.0, 1.0, 0.0]


def test_ignorance_cell_names_b_when_b_flipped_state_cannot_occur():
    """At (4.0, 4.0) every rule applies both readouts at B's event, so B's
    flipped state cannot occur and the error names B; the flipped-scenario
    reference names A, whose flipped state it forms first."""
    s = bell_with_b_readout()
    with pytest.raises(ImpossibleOutcomeError, match=r"sector \{A\}"):
        reference_report(s, (4.0, 4.0), Foliation(np.zeros(1)))
    with pytest.raises(ImpossibleOutcomeError, match=r"sector \{B\}"):
        audit.criteria_report(s, (4.0, 4.0))


def test_criteria_report_rejects_non_bipartite():
    s = load_fixture("bell_sigma_z.scn")
    from dataclasses import replace
    tri = replace(s, names=("A", "B", "C"), dims=(2, 2, 2),
                  worldlines=s.worldlines + (Worldline(np.array([0.0, 5.0])),),
                  initial_state=np.kron(s.initial_state, np.eye(2) / 2))
    with pytest.raises(ValueError):
        audit.criteria_report(tri, (0.0, 0.0, 0.0))


def test_charge_ledger_bell():
    s = load_fixture("bell_sigma_z.scn")
    f = Foliation(np.zeros(1))
    grid = [-2.0, 0.0, 1.0, 2.0, 2.9, 3.0, 4.0]
    led = audit.charge_ledger(s, f, grid, audit.PolystateRule())
    assert abs(led.initial + 1.0) < 1e-12
    assert all(abs(q + 1.0) < 1e-12 for q in led.q_joint)
    # sum of locals dips while only A has updated
    assert abs(led.q_sum[3] + 0.5) < 1e-12
    flc = audit.charge_ledger(s, f, grid, audit.FutureLightcone())
    assert abs(flc.q_sum[3] + 0.5) < 1e-12
    assert abs(flc.q_joint[3] + 0.5) < 1e-12  # patchwork loses joint charge too


def test_charge_ledger_conserved_on_random_foliations():
    s = load_fixture("bell_sigma_z.scn")
    for _ in range(5):
        v = float(RNG.uniform(-0.85, 0.85))
        f = Foliation(np.array([v]))
        led = audit.charge_ledger(s, f, np.linspace(-3, 5, 11), audit.PolystateRule())
        assert all(abs(q + 1.0) < 1e-12 for q in led.q_joint)


def test_recollection_conservation_along_random_worldlines():
    s = load_fixture("bell_sigma_z.scn")
    f = Foliation(np.zeros(1))
    for _ in range(10):
        z = random_worldline(RNG, 1)
        report = audit.recollection_conservation(s, z, np.linspace(-2, 5, 50), f)
        assert abs(report.initial + 1.0) < 1e-12
        assert report.max_deviation < 1e-12
