"""Causal membership over stacks of events against the per-event decision.

`causally_precedes`, `chronologically_precedes`, `Foliation.time`, the region
predicates and `selected_ids` accept a (K, 1+d) stack of events; row k must
give exactly what the same call gives for event k alone. Events are drawn on
the apex's null cone (exactly, through Pythagorean displacements, and
nudged by one ulp either way), at the apex itself and at random, since the
boundary is where a differently rounded sum would flip a decision."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from polystate import engine, linalg
from polystate.scenario import Intervention, Scenario, SelectiveOp, UnitaryOp, selected_ids
from polystate.spacetime import (Foliation, PastOfEvent, PastOfLeaf, Region, Worldline,
                                 causally_precedes, chronologically_precedes, position,
                                 region_contains)

from helpers import load_fixture
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
