"""Causal membership over stacks of events against the per-event decision.

`causally_precedes`, `chronologically_precedes`, `Foliation.time`, the region
predicates and `selected_ids` accept a (K, 1+d) stack of events; row k must
give exactly what the same call gives for event k alone. Events are drawn on
the apex's null cone (exactly, through Pythagorean displacements, and
nudged by one ulp either way), at the apex itself and at random, since the
boundary is where a differently rounded sum would flip a decision."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from polystate import audit, engine, ensemble, linalg
from polystate.scenario import (Intervention, Scenario, SelectiveOp, UnitaryOp,
                                boosted_scenario, selected_ids)
from polystate.spacetime import (Foliation, PastOfEvent, PastOfLeaf, Region, Worldline,
                                 causally_precedes, chronologically_precedes,
                                 lightcone_crossings, position, region_contains)

from helpers import load_fixture, prefix_closure, proper_time_lines, reference_cut
from test_properties import velocities, worldlines

SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.filter_too_much,
                                        HealthCheck.too_slow])

coords = hs.floats(min_value=-4.0, max_value=4.0)
spatial_dims = hs.sampled_from([1, 2, 3])

# unit spatial directions whose components and norm are exact small integers
# over a common denominator
PYTHAGOREAN = {1: [(1,)], 2: [(3, 4, 5), (5, 12, 13)], 3: [(2, 3, 6, 7), (1, 2, 2, 3)]}


@hs.composite
def cone_events(draw, apex):
    """An event on apex's past or future null cone, possibly nudged off it
    by one ulp in time, or the apex itself, or a free event."""
    d = apex.shape[0] - 1
    kind = draw(hs.sampled_from(["null", "null_float", "apex", "free"]))
    if kind == "apex":
        return apex.copy()
    if kind == "free":
        return np.array([draw(coords) for _ in range(1 + d)])
    if kind == "null":
        triple = draw(hs.sampled_from(PYTHAGOREAN[d]))
        *legs, hyp = triple if d > 1 else (*triple, 1)
        signs = [draw(hs.sampled_from([-1, 1])) for _ in range(d)]
        r = draw(hs.integers(min_value=0, max_value=3))
        disp = np.array([hyp] + [s * leg for s, leg in zip(signs, legs)], dtype=float) * r
    else:
        direction = np.array([draw(hs.floats(min_value=-1.0, max_value=1.0)) for _ in range(d)])
        norm = float(np.linalg.norm(direction))
        direction = direction / norm if norm > 1e-6 else np.eye(d)[0]
        r = draw(hs.floats(min_value=0.0, max_value=3.0))
        disp = np.concatenate(([r], r * direction))
    x = apex + draw(hs.sampled_from([-1.0, 1.0])) * disp
    nudge = draw(hs.sampled_from([0, 1, -1]))
    if nudge:
        x[0] = np.nextafter(x[0], nudge * math.inf)
    return x


@hs.composite
def stacks(draw):
    d = draw(spatial_dims)
    apex = np.array([draw(coords) for _ in range(1 + d)])
    rows = [draw(cone_events(apex)) for _ in range(draw(hs.integers(min_value=0, max_value=10)))]
    return apex, np.array(rows).reshape(-1, 1 + d)


@SUITE
@given(case=stacks(), data=hs.data())
def test_stacked_predicates_equal_per_event_calls(case, data):
    apex, events = case
    d = apex.shape[0] - 1
    f = Foliation(data.draw(velocities(d)))
    t = float(f.time(apex))
    rows = list(events)
    for stacked, single in (
        (causally_precedes(events, apex), [causally_precedes(e, apex) for e in rows]),
        (causally_precedes(apex, events), [causally_precedes(apex, e) for e in rows]),
        (chronologically_precedes(events, apex), [chronologically_precedes(e, apex) for e in rows]),
        (chronologically_precedes(apex, events), [chronologically_precedes(apex, e) for e in rows]),
        (PastOfEvent(apex).contains(events), [PastOfEvent(apex).contains(e) for e in rows]),
        (PastOfLeaf(f, t).contains(events), [PastOfLeaf(f, t).contains(e) for e in rows]),
        (f.time(events), [f.time(e) for e in rows]),
    ):
        assert stacked.shape == (len(rows),)
        assert np.array_equal(stacked, np.array(single, dtype=stacked.dtype))
    if d == 1:
        # one spatial component: the norm and the dot product are a single
        # rounded product, so the earlier per-event arithmetic is reproduced
        for e, got in zip(rows, causally_precedes(events, apex)):
            dt = apex[0] - e[0]
            assert got == (dt >= 0 and dt >= float(np.linalg.norm(apex[1:] - e[1:])))
        for e, got in zip(rows, f.time(events)):
            v = f.frame_velocity
            assert got == f.time(e) == (1.0 / math.sqrt(1.0 - float(v @ v))) * (
                e[0] - float(np.dot(v, e[1:])))


def _scalar_selection(s: Scenario, region: Region) -> tuple:
    """Reference: one region test per intervention, event from `position`."""
    return tuple(k for k, iv in enumerate(s.interventions)
                 if region_contains(region, position(s.worldlines[iv.subsystem], iv.tau)))


def _scenario(d, wls, placements) -> Scenario:
    n = len(wls)
    return Scenario(
        spatial_dim=d,
        names=tuple(f"S{i}" for i in range(n)),
        dims=(2,) * n,
        worldlines=tuple(wls),
        initial_state=np.eye(2**n, dtype=complex) / 2**n,
        interventions=tuple(Intervention(i, tau, UnitaryOp(linalg.ID2)) for i, tau in placements),
    )


@hs.composite
def selections(draw):
    """A scenario and a region whose apexes include intervention events
    themselves and events on their null cones."""
    d = draw(spatial_dims)
    wls = [draw(worldlines(d)) for _ in range(draw(hs.integers(min_value=1, max_value=3)))]
    placements = {(draw(hs.integers(min_value=0, max_value=len(wls) - 1)),
                   draw(hs.floats(min_value=-3.0, max_value=4.0)))
                  for _ in range(draw(hs.integers(min_value=0, max_value=8)))}
    s = _scenario(d, wls, sorted(placements))
    apexes = []
    for _ in range(draw(hs.integers(min_value=0, max_value=3))):
        if len(s.interventions) and draw(hs.booleans()):
            k = draw(hs.integers(min_value=0, max_value=len(s.interventions) - 1))
            apexes.append(draw(cone_events(s.events[k])))
        else:
            i = draw(hs.integers(min_value=0, max_value=len(wls) - 1))
            apexes.append(position(wls[i], draw(hs.floats(min_value=-3.0, max_value=5.0))))
    return s, apexes


@SUITE
@given(case=selections(), v=hs.data())
def test_selected_ids_equal_per_event_selection(case, v):
    s, apexes = case
    f = Foliation(v.draw(velocities(s.spatial_dim)))
    t = v.draw(hs.floats(min_value=-3.0, max_value=5.0))
    for region in (Region.union_of_pasts(apexes), Region((PastOfLeaf(f, t),)),
                   Region.everything(), Region.nothing()):
        got = selected_ids(s, region)
        assert got == _scalar_selection(s, region)
        assert all(type(k) is int for k in got)


def test_null_cone_fixture_event_is_selected():
    # A measures at (1, 0); B rests at x = 2, so at tau_B = 3 it sits on the
    # future null cone of the measurement, which the closed past includes
    s = load_fixture("bell_sigma_z.scn")
    x_b = position(s.worldlines[1], 3.0)
    assert np.array_equal(x_b, [3.0, 2.0])
    region = Region.union_of_pasts([x_b])
    assert selected_ids(s, region) == _scalar_selection(s, region) == (0,)
    early = Region.union_of_pasts([np.nextafter(x_b, [-math.inf, 2.0])])
    assert selected_ids(s, early) == _scalar_selection(s, early) == ()


def test_apex_equal_to_intervention_event_is_selected():
    s = load_fixture("epr_test.scn")
    for k in range(len(s.interventions)):
        region = Region.union_of_pasts([s.events[k]])
        assert k in selected_ids(s, region)
        assert selected_ids(s, region) == _scalar_selection(s, region)


def test_coincident_worldlines_share_the_measurement_event():
    """A and B on one static worldline, A measured at tau = 0, B evaluated at
    tau_B = 0: the event is B's own evaluation event, so B's sector is
    conditioned on it. A crossing-time table missed this case."""
    w = Worldline(np.zeros(2))
    s = Scenario(
        spatial_dim=1, names=("A", "B"), dims=(2, 2), worldlines=(w, w),
        initial_state=linalg.projector(linalg.BELL_PSI_PLUS),
        interventions=(Intervention(0, 0.0, SelectiveOp(
            kraus=(linalg.projector(linalg.KET0), linalg.projector(linalg.KET1)),
            chosen=0, labels=("+1", "-1"))),),
    )
    region = Region.union_of_pasts([position(w, 0.0)])
    assert selected_ids(s, region) == _scalar_selection(s, region) == (0,)
    assert np.max(np.abs(engine.sector(s, (5.0, 0.0), (1,)) - linalg.projector(linalg.KET1))) < 1e-12


def test_events_are_cached_per_scenario_and_read_only():
    s = load_fixture("foliation_demo.scn")
    assert s.events is s.events
    assert not s.events.flags.writeable
    for k, iv in enumerate(s.interventions):
        assert np.array_equal(s.events[k], position(s.worldlines[iv.subsystem], iv.tau))
    for d in (1, 2, 3):
        empty = _scenario(d, [Worldline(np.zeros(1 + d))], [])
        assert empty.events.shape == (0, 1 + d)
        assert selected_ids(empty, Region.everything()) == ()


def _region_selection(s: Scenario, taus, subset) -> tuple:
    """Reference for `engine.past_cut`: the ids in the region of the members'
    pasts, each member located afresh."""
    return selected_ids(s, Region.union_of_pasts([position(s.worldlines[i], taus[i])
                                                  for i in subset]))


@hs.composite
def memo_calls(draw):
    """A scenario from `selections`, a boosted copy and copies with the
    interventions reordered or cut, and interleaved past-union calls on
    them. Each member's proper times come from a small pool, so they repeat
    and change; the pool holds free values, the member's own intervention
    times and its crossings of each intervention's future null cone, exact
    and one ulp either way."""
    s, _ = draw(selections())
    variants = [s, boosted_scenario(s, draw(hs.floats(min_value=-1.5, max_value=1.5))),
                replace(s, interventions=s.interventions[::-1]),
                replace(s, interventions=s.interventions[:len(s.interventions) // 2])]
    pools = []
    for i, w in enumerate(s.worldlines):
        pool = [draw(hs.floats(min_value=-3.0, max_value=5.0)) for _ in range(2)]
        pool += [iv.tau for iv in s.interventions if iv.subsystem == i]
        for event in s.events:
            tau = lightcone_crossings(w, event)[1]
            pool += [tau, np.nextafter(tau, -math.inf), np.nextafter(tau, math.inf)]
        pools.append(pool)
    calls = []
    for _ in range(draw(hs.integers(min_value=1, max_value=12))):
        v = draw(hs.sampled_from(variants))
        taus = tuple(draw(hs.sampled_from(pool)) for pool in pools)
        if draw(hs.booleans()):
            taus = tuple(np.float64(tau) for tau in taus)
        subset = sorted(draw(hs.sets(hs.integers(min_value=0, max_value=s.n - 1), min_size=1)))
        calls.append((v, taus, tuple(subset)))
    return calls


@SUITE
@given(calls=memo_calls())
def test_past_union_ids_equal_region_selection(calls):
    """Each call's cut is the region selection closed on each worldline."""
    for v, taus, subset in calls:
        got = engine.past_cut(v, taus, subset)
        want = _region_selection(v, taus, subset)
        assert got == reference_cut(v, want)
        assert v.cut_ids(got) == prefix_closure(v, want)
        assert all(type(length) is int for length in got)


def test_past_union_ids_on_the_null_cone():
    # B sits on the future null cone of A's measurement at tau_B = 3
    s = load_fixture("bell_sigma_z.scn")
    early = np.nextafter(3.0, -math.inf)
    for taus, subset, want in (((0.0, 3.0), (1,), (0,)), ((0.0, early), (1,), ()),
                               ((0.0, 3.0), (0, 1), (0,)), ((1.0, early), (0, 1), (0,)),
                               ((1.0, early), (1,), ()), ((0.0, early), (0, 1), ())):
        cut = engine.past_cut(s, taus, subset)
        assert s.cut_ids(cut) == _region_selection(s, taus, subset) == want
        assert cut == ((1,) if want else (0,)) + (0,)


def test_cut_closes_a_rounding_gap_on_one_worldline():
    """Two interventions on a v = 0.75 worldline one ulp apart in proper time
    round to one time coordinate and a spatial gap of one ulp, so the earlier
    event is outside the later one's computed causal past. Exact geometry
    puts it inside, and so does the cut: the sector and every audit rule
    apply both, the Hadamard and then the measurement recording 1 (which
    |0> alone could not give)."""
    later = np.nextafter(-3.0, math.inf)
    assert later == -2.9999999999999996
    w = Worldline(np.zeros(2), (), np.array([0.75]))
    measure = SelectiveOp(kraus=(linalg.projector(linalg.KET0), linalg.projector(linalg.KET1)),
                          chosen=1, labels=("0", "1"))
    s = Scenario(spatial_dim=1, names=("A",), dims=(2,), worldlines=(w,),
                 initial_state=linalg.projector(linalg.KET0),
                 interventions=(Intervention(0, -3.0, UnitaryOp(linalg.HADAMARD)),
                                Intervention(0, later, measure)))
    x = position(w, later)
    assert np.array_equal(causally_precedes(s.events, x), [False, True])
    assert _region_selection(s, (later,), (0,)) == (1,)
    assert engine.past_cut(s, (later,), (0,)) == (2,)
    assert np.array_equal(engine.sector(s, (later,), (0,)), linalg.projector(linalg.KET1))
    for p in audit.default_prescriptions(Foliation(np.array([0.3]))):
        assert s.cut_of(p.applied(s.events, x)) == (2,), p.name
        assert audit._event_cuts(p, s, (later,)) == [(2,)], p.name
    assert s.cut_ids((2,)) == (0, 1)


@SUITE
@given(calls=memo_calls(), data=hs.data())
def test_stacked_member_rows_and_rule_cuts_equal_per_member_tests(calls, data):
    """The members' past rows, from one `causally_precedes` call over the
    stack of their events (`engine._member_rows`), and every rule's cuts,
    from one `applied` call over the stack (`audit._event_cuts`), equal the
    cut of each member's event tested alone, on drawn worldlines, their
    boosts and proper times on and next to null cones; the stacked masks
    equal the single ones row by row, and `Scenario.cut_of` of a drawn stack
    of masks is the list of its rows' cuts."""
    rules = audit.default_prescriptions(Foliation(data.draw(velocities(calls[0][0].spatial_dim))))
    for s, taus, subset in calls:
        x = [position(w, tau) for w, tau in zip(s.worldlines, taus)]
        alone = [s.cut_of(causally_precedes(s.events, xi)) for xi in x]
        assert engine._member_rows(s, taus, subset) == [alone[i] for i in subset]
        for p in rules:
            stacked = p.applied(s.events[None], np.array(x)[:, None])
            assert all(np.array_equal(row, p.applied(s.events, xi)) for row, xi in zip(stacked, x))
            assert audit._event_cuts(p, s, taus) == [s.cut_of(p.applied(s.events, xi)) for xi in x]
        size = len(x) * len(s.events)
        masks = np.array(data.draw(hs.lists(hs.booleans(), min_size=size, max_size=size)),
                         dtype=bool).reshape(len(x), len(s.events))
        assert s.cut_of(masks) == [s.cut_of(mask) for mask in masks]


def _assert_covers_and_is_prefix(s: Scenario, cut, ids):
    """cut_ids(cut) contains ids and is a prefix of every worldline's
    (tau, id) order."""
    got = s.cut_ids(cut)
    assert set(ids) <= set(got)
    for line, length in zip(proper_time_lines(s), cut):
        assert [k for k in line if k in got] == line[:length]


@SUITE
@given(calls=memo_calls(), data=hs.data())
def test_every_cut_contains_its_mask_and_is_a_prefix(calls, data):
    """For the cuts that `engine.past_cut`, every audit rule and
    `ensemble._selection` make."""
    rules = audit.default_prescriptions(Foliation(data.draw(velocities(calls[0][0].spatial_dim))))
    for s, taus, subset in calls:
        cut = engine.past_cut(s, taus, subset)
        inside = _region_selection(s, taus, subset)
        _assert_covers_and_is_prefix(s, cut, inside)
        off = [k for k, iv in enumerate(s.interventions) if iv.subsystem not in subset]
        _, inside_cut, applied = ensemble._selection(s, subset, taus)
        assert inside_cut == cut
        _assert_covers_and_is_prefix(s, applied, set(inside).union(off))
        for p in rules:
            for i, rule_cut in enumerate(audit._event_cuts(p, s, taus)):
                mask = p.applied(s.events, position(s.worldlines[i], taus[i]))
                _assert_covers_and_is_prefix(s, rule_cut, np.flatnonzero(mask).tolist())


def test_polystate_locates_each_member_once_per_proper_time(monkeypatch):
    """A fresh `polystate_at` locates each member once and tests them all in
    one stacked call, one event row per member; a repeat at the same proper
    times locates and tests none, and a changed proper time locates and
    tests only its member. Copies start with no rows."""
    located, tested = [], []

    def counting_position(w, tau):
        located.append(tau)
        return position(w, tau)

    def counting_precedes(x, y):
        tested.append(len(np.atleast_2d(y)))  # the event rows tested
        return causally_precedes(x, y)

    monkeypatch.setattr(engine, "position", counting_position)
    monkeypatch.setattr(engine, "causally_precedes", counting_precedes)
    s = load_fixture("foliation_demo.scn")
    taus = (0.5, 1.5)
    engine.polystate_at(s, taus)
    assert sorted(located) == sorted(taus) and tested == [s.n]
    for again in (taus, tuple(np.float64(tau) for tau in taus)):
        located.clear()
        tested.clear()
        engine.polystate_at(s, again)
        assert located == [] and tested == []
    engine.polystate_at(s, (0.5, 2.5))
    assert located == [2.5] and tested == [1]
    for copy in (replace(s), boosted_scenario(s, 0.3)):
        assert copy.past_rows == [None] * s.n
        located.clear()
        engine.polystate_at(copy, taus)
        assert sorted(located) == sorted(taus)
