import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from polystate import audit, engine, linalg
from polystate.errors import ImpossibleOutcomeError, StateValidationError
from polystate.scenario import Scenario, parse_scenario
from polystate.spacetime import Foliation, Worldline, position, proper_time_at_leaf

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


def test_foliation_rule_keeps_the_leaf_times_only_of_events_that_cannot_change():
    """The foliation rule computes the leaf times of a scenario's read-only
    events once per frame velocity: a second test of them reads the kept
    times, one at another velocity, or after the foliation is replaced,
    computes them anew, and a writeable stack, which may have changed in
    place, is never read from a kept copy. Every answer is the bits of
    `Foliation.time` on both sides."""
    s = load_fixture("epr_test.scn")
    rule = audit.FixedFoliation(Foliation(np.array([0.4])))
    x = np.array([position(w, 1.0) for w in s.worldlines])[:, None]
    times = []
    time = Foliation.time

    def counted(f, events):
        times.append(np.shape(events))
        return time(f, events)

    def fresh(events):
        return rule.foliation.time(events) <= rule.foliation.time(x)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Foliation, "time", counted)
        first = rule.applied(s.events, x)
        assert np.array_equal(rule.applied(s.events, x), first)
        assert times.count(s.events.shape) == 1
        rule.foliation.frame_velocity[0] = -0.4
        assert np.array_equal(rule.applied(s.events, x), fresh(s.events))
        rule.foliation = Foliation(np.array([0.7]))
        assert np.array_equal(rule.applied(s.events, x), fresh(s.events))
        assert times.count(s.events.shape) == 5
    events = s.events.copy()
    rule.applied(events, x)
    events[:, 0] += 3.0
    assert np.array_equal(rule.applied(events, x), fresh(events))
    assert not np.array_equal(fresh(events), fresh(s.events))


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
    """`leaf_states` tests every member's evaluation event in one stacked
    call, one event row per member, and builds each reduced state once, a
    patchwork joint state included, each off one readout of the engine
    (`engine.readout`). The past-lightcone and foliation rules test
    with `applied`; the two lightcone rules read the engine's member rows,
    so a scenario without rows makes one stacked test per leaf, and a second
    evaluation at the same proper times tests none. Its joint state is
    `single_state` by definition, and its reduced states equal
    `reduced_states`, computed alone, bit for bit."""
    s = load_fixture("epr_test.scn")
    rules = audit.default_prescriptions(Foliation(np.array([0.4])))
    states, tests = [], []
    read = engine.readout
    monkeypatch.setattr(engine, "readout",
                        lambda *args, **kw: states.append(args[1]) or read(*args, **kw))
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
            assert len(tests) == 1
            events = np.array([position(w, tau) for w, tau in zip(s.worldlines, taus)])
            assert np.array_equal(tests[0], events[:, None])
            assert np.array_equal(got_joint, joint)
            assert all(np.array_equal(a, b) for a, b in zip(got_locals, locals_))
            patchwork = all(len(sub) == 1 for sub in states)
            patchworks += patchwork
            assert len(states) == s.n + (not patchwork)
            tests.clear()
            audit.leaf_states(p, fresh, taus)
            assert len(tests) == (0 if lightcone else 1)
    assert patchworks


def z_x_chain_with_b_readout(m: int = 8):
    """A Bell pair psi+ on static worldlines, A at x = 0 and B at x = 1,
    with m alternating z/x measurements on A at tau = (k + 1) / m and one x
    measurement on B at tau 0.5, every outcome recorded 0."""
    def measure(on, tau, basis):
        return {"on": on, "tau": tau, "measure": {"projective_basis": basis, "outcome": 0,
                                                  "labels": ["+1", "-1"]}}
    ivs = [measure("A", (k + 1) / m, "pauli_x" if k % 2 else "pauli_z") for k in range(m)]
    return parse_scenario(json.dumps({
        "spacetime": {"d": 1},
        "subsystems": [{"name": name, "dim": 2,
                        "worldline": {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}}
                       for name, x in (("A", 0.0), ("B", 1.0))],
        "initial_state": {"named": "bell_psi_plus"},
        "interventions": [*ivs, measure("B", 0.5, "pauli_x")],
    }))


def held_judged(s, taus) -> set:
    """The cuts the scenario's leaf memo holds judged for a read at taus:
    those of the last tuple and, if taus is that tuple, of the one before."""
    memo = s.leaf_memo
    held = {**memo.before, **memo.now} if memo.taus == tuple(map(float, taus)) else memo.now
    return {cut for cut, entry in held.items() if isinstance(entry, engine.PushedCut)}


def test_leaf_states_weigh_and_judge_only_the_cuts_they_read(monkeypatch):
    """A leaf's cuts are formed from shared prefixes, but only the cuts its
    states are read on are weighed (`engine.branch_weight`) and judged
    (`engine.impossibility`), and each once while the scenario's leaf memo
    holds it: a call weighs exactly the distinct cuts it reads that the
    memo does not hold judged, from this leaf or the one before. Over a
    sweep of a z/x chain on a v = 0.5 foliation under the four default
    rules, the 87 distinct cuts of the 60 calls are weighed 17 times, with
    20 subsystem products; with a dict per call, each of the 87 was weighed
    (136 when every prefix was weighed too), with 128 products."""
    s = z_x_chain_with_b_readout()
    f = Foliation(np.array([0.5]))
    counts = {"branch_weight": 0, "impossibility": 0, "_apply": 0}
    for name in counts:
        def counted(*args, name=name, run=getattr(engine, name)):
            counts[name] += 1
            return run(*args)
        monkeypatch.setattr(engine, name, counted)
    read = 0
    for t in np.arange(-0.5, 3.01, 0.25):
        taus = [proper_time_at_leaf(w, f, t) for w in s.worldlines]
        for p in audit.default_prescriptions(f):
            cuts = audit._event_cuts(p, s, taus)
            union = tuple(map(max, *cuts))
            joint = isinstance(p, audit.PolystateRule) or all(cut == union for cut in cuts)
            distinct = {*cuts, *[union] * joint}
            new = len(distinct - held_judged(s, taus))
            before = dict(counts)
            audit.leaf_states(p, s, taus)
            assert counts["branch_weight"] - before["branch_weight"] == new
            assert counts["impossibility"] - before["impossibility"] == new
            read += len(distinct)
    assert (read, counts["branch_weight"], counts["_apply"]) == (87, 17, 20)


def test_leaf_charges_judge_what_leaf_states_judges_and_form_no_joint_state(monkeypatch):
    """Over the z/x chain sweep above, `leaf_charges` on one scenario
    weighs, judges and pushes exactly what `leaf_states` does at the same
    leaf on a copy of it, each with a leaf memo of its own, 17, 17 and 20
    in all, and forms no joint state, union or patchwork: the only states
    it forms are the one-qubit states of a patchwork, for its fidelities,
    which apply them on the ket's axes."""
    s = z_x_chain_with_b_readout()
    copy = replace(s)
    f = Foliation(np.array([0.5]))
    counts = {"branch_weight": 0, "impossibility": 0, "_apply": 0}
    for name in counts:
        def counted(*args, name=name, run=getattr(engine, name)):
            counts[name] += 1
            return run(*args)
        monkeypatch.setattr(engine, name, counted)
    formed = []
    product = linalg.gram_product

    def forming(phi, weight):
        formed.append(phi.shape[0])
        return product(phi, weight)

    def no_kron(*states):
        raise AssertionError("a patchwork is read one axis at a time")

    kets = [linalg.BELL_PSI_PLUS, linalg.product_ket("01")]
    totals = dict.fromkeys(counts, 0)
    for t in np.arange(-0.5, 3.01, 0.25):
        taus = [proper_time_at_leaf(w, f, t) for w in s.worldlines]
        for p in audit.default_prescriptions(f):
            before = dict(counts)
            audit.leaf_charges(p, s, taus)
            by_charges = {k: counts[k] - before[k] for k in counts}
            before = dict(counts)
            audit.leaf_states(p, copy, taus)
            assert by_charges == {k: counts[k] - before[k] for k in counts}, (t, p.name)
            totals = {k: totals[k] + by_charges[k] for k in counts}
            with monkeypatch.context() as m:
                m.setattr(linalg, "gram_product", forming)
                m.setattr(linalg, "kron_all", no_kron)
                audit.leaf_charges(p, s, taus, kets)
    assert formed and set(formed) == {2}
    assert totals == {"branch_weight": 17, "impossibility": 17, "_apply": 20}


def read_bits(read, p, s, taus):
    """One leaf read as bytes: every state of `leaf_states`, or every value
    of `leaf_charges` with two ket fidelities, or the error it raised, by
    type and message."""
    try:
        if read == "states":
            joint, locals_ = audit.leaf_states(p, s, taus)
            return [joint.tobytes(), *(r.tobytes() for r in locals_)]
        q, local, fids = audit.leaf_charges(p, s, taus, [linalg.BELL_PSI_PLUS,
                                                         linalg.product_ket("01")])
        return np.array([q, local, *fids]).tobytes()
    except (ImpossibleOutcomeError, StateValidationError) as exc:
        return type(exc), str(exc)


def assert_memo_reads_equal_fresh_reads(s, f, leaves, picks) -> dict:
    """Reads `picks(t)`, (rule index, "states" or "charges") pairs, at each
    leaf t in the order given, each through the scenario's leaf memo and on
    a `replace`d copy, whose memo is empty, asserted equal (`read_bits`);
    returns how many returned and how many raised."""
    rules = audit.default_prescriptions(f)
    seen = {"returned": 0, "raised": 0}
    for t in leaves:
        taus = [proper_time_at_leaf(w, f, t) for w in s.worldlines]
        for k, read in picks(t):
            want = read_bits(read, rules[k], replace(s), taus)
            assert read_bits(read, rules[k], s, taus) == want, (t, rules[k].name, read)
            seen["raised" if isinstance(want, tuple) else "returned"] += 1
    return seen


def test_leaf_memo_reads_equal_reads_with_an_empty_memo():
    """In any order of leaves, forward, reverse or shuffled, with the four
    rules interleaved in a drawn order at each leaf, every `leaf_states`
    state and every `leaf_charges` value read through the scenario's leaf
    memo equals, bit for bit, the same read on a `replace`d copy, whose memo
    is empty; a refusal raises the same error with the same message. The
    z/x chain sweep is read forward and in reverse with every rule and both
    reads at each leaf; the suite asserts that it met refusals too."""
    every = [(k, read) for k in range(4) for read in ("states", "charges")]
    chain_leaves = list(np.arange(-0.5, 3.01, 0.25))
    for leaves in (chain_leaves, chain_leaves[::-1]):
        seen = assert_memo_reads_equal_fresh_reads(
            z_x_chain_with_b_readout(), Foliation(np.array([0.5])), leaves, lambda t: every)
        assert seen == {"returned": 120, "raised": 0}
    seen = {"returned": 0, "raised": 0}

    @SUITE
    @given(s=two_qubit_scenarios(), v=velocities(),
           order=hs.sampled_from(["forward", "reverse", "shuffled"]), data=hs.data())
    def check(s, v, order, data):
        leaves = list(np.linspace(-1.0, 4.0, 7))
        if order == "reverse":
            leaves.reverse()
        elif order == "shuffled":
            leaves = data.draw(hs.permutations(leaves))
        picks = hs.lists(hs.tuples(hs.integers(0, 3), hs.sampled_from(["states", "charges"])),
                         min_size=1, max_size=4)
        got = assert_memo_reads_equal_fresh_reads(s, Foliation(v), leaves,
                                                  lambda t: data.draw(picks))
        for key in seen:
            seen[key] += got[key]

    check()
    assert all(seen.values()), seen


def test_leaf_memo_holds_the_reads_of_two_proper_time_tuples_at_most():
    """Along a 120-leaf sweep of the z/x chain under the four rules, both
    reads at each leaf, the memo holds, after each leaf, only what was read
    there (`now`) and at the leaf before (`before`): an entry of an older
    leaf is dropped unless read again, an entry read again moves from
    `before` into `now`, and a bare prefix is kept only at the leaf that
    pushed it. After the sweep, the entries of the first leaves, read
    nowhere since, are gone."""
    s, f = z_x_chain_with_b_readout(), Foliation(np.array([0.5]))
    rules = audit.default_prescriptions(f)
    read_at = []
    for t in np.linspace(-0.5, 3.0, 120):
        taus = [proper_time_at_leaf(w, f, t) for w in s.worldlines]
        for p in rules:
            audit.leaf_states(p, s, taus)
            audit.leaf_charges(p, s, taus)
        memo = s.leaf_memo
        assert memo.taus == tuple(taus)
        assert not memo.now.keys() & memo.before.keys()
        if read_at:
            assert memo.before.keys() <= read_at[-1] - memo.now.keys()
        assert not any(isinstance(e, np.ndarray) for e in memo.before.values())
        read_at.append(set(memo.now))
    assert len(memo.now) + len(memo.before) <= len(read_at[-1] | read_at[-2])
    first = read_at[0] - read_at[-1] - read_at[-2]
    assert first and not first & (memo.now.keys() | memo.before.keys())


def test_a_leaf_that_cannot_occur_raises_the_same_on_every_read():
    """A leaf whose recorded outcomes cannot occur keeps no readout in the
    memo, so every repeat read at that leaf, of its states or its charges,
    raises the same error with the same message as a read with an empty
    memo, for every rule."""
    s = flip_outcomes(bell_with_b_readout(), 0)
    for p in audit.default_prescriptions():
        want = read_bits("states", p, replace(s), (4.0, 4.0))
        assert want[0] is ImpossibleOutcomeError
        for _ in range(3):
            for read in ("states", "charges"):
                assert read_bits(read, p, s, (4.0, 4.0)) == want, p.name


@pytest.mark.parametrize("spectrum", [None, [-1e-12, 1.0]])
def test_a_formed_state_a_read_returns_is_read_only(monkeypatch, spectrum):
    """A state that deciding formed, the wide product of a qubit beside a
    256-level system, or its clamp, is the one the memo holds, so
    `leaf_states` returns it read-only, as `Scenario.initial_factor` is:
    writing to it raises, and a later read returns the same bits; a copy
    can be changed freely. The arrays of every readout the memo holds are
    read-only too."""
    from test_readouts import unprovable_pair
    s = unprovable_pair()
    if spectrum is not None:
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: np.asarray(spectrum) if m.shape == (2, 2) else eigvalsh(m))
    p = audit.FutureLightcone()
    state = audit.leaf_states(p, s, (1.0, 1.0))[1][0]
    bits = state.tobytes()
    with pytest.raises(ValueError):
        state[0, 0] = 2.0
    with pytest.raises(ValueError):
        state *= 2.0
    copy = state.copy()
    copy[0, 0] = 2.0
    again = audit.leaf_states(p, s, (1.0, 1.0))[1][0]
    assert again is state and again.tobytes() == bits
    held = [r for key, r in s.leaf_memo.now.items() if isinstance(r, engine.Readout)]
    assert held and not any(r.rows.flags.writeable for r in held)


def test_leaf_charges_refuse_a_scenario_with_a_qutrit():
    """`leaf_charges` on a qutrit-qubit scenario raises the ValueError that
    `charge_ledger` gives, before anything is read."""
    s = Scenario(spatial_dim=1, names=("A", "B"), dims=(3, 2),
                 worldlines=(Worldline(np.array([0.0, 0.0])), Worldline(np.array([0.0, 1.0]))),
                 initial_state=np.eye(6, dtype=complex) / 6, interventions=())
    for p in audit.default_prescriptions():
        with pytest.raises(ValueError, match="charge audits are defined for qubit scenarios"):
            audit.leaf_charges(p, s, (1.0, 1.0))
    with pytest.raises(ValueError, match="charge audits are defined for qubit scenarios"):
        audit.charge_ledger(s, Foliation(np.zeros(1)), [0.0], audit.PolystateRule())
    assert not s.leaf_memo.now


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


def test_criteria_report_evaluates_each_rule_once(monkeypatch):
    """One report on `bell_sigma_z.scn` evaluates each of the four rules'
    cuts once, for its states and its ignorance cell alike: 4 `_event_cuts`
    calls, and 2 `applied` calls, one for each rule that does not read the
    engine's member rows."""
    s = load_fixture("bell_sigma_z.scn")
    calls = {"_event_cuts": 0, "applied": 0}

    def counted(name, run):
        def call(*args):
            calls[name] += 1
            return run(*args)
        return call

    monkeypatch.setattr(audit, "_event_cuts", counted("_event_cuts", audit._event_cuts))
    for rule in (audit.PastLightcone, audit.FixedFoliation):
        monkeypatch.setattr(rule, "applied", counted("applied", rule.applied))
    audit.criteria_report(s, PROBE)
    assert calls == {"_event_cuts": 4, "applied": 2}


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
