"""Property suites over randomized scenarios. Each suite runs at least 200
examples; configurations are kept a safe margin away from lightcone
boundaries so fp noise cannot flip a containment decision mid-test."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hs

from polystate import engine, linalg
from polystate.errors import ImpossibleOutcomeError
from polystate.scenario import (Intervention, Scenario, SelectiveOp, UnitaryOp,
                                apply_interventions, boosted_scenario,
                                parse_scenario, serialize_scenario)
from polystate.spacetime import Segment, Worldline, position

SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.filter_too_much,
                                        HealthCheck.too_slow])

finite = hs.floats(allow_nan=False, allow_infinity=False)
angle = hs.floats(min_value=-math.pi, max_value=math.pi)
tau_values = hs.floats(min_value=-3.0, max_value=4.0)


@hs.composite
def velocities(draw, d=1):
    comps = [draw(hs.floats(min_value=-1.0, max_value=1.0)) for _ in range(d)]
    v = np.array(comps)
    mag = draw(hs.floats(min_value=0.0, max_value=0.85))
    norm = float(np.linalg.norm(v))
    if norm < 1e-9:
        return np.zeros(d)
    return v / norm * mag


@hs.composite
def worldlines(draw, d=1):
    anchor = np.array([draw(hs.floats(min_value=-2, max_value=2))]
                      + [draw(hs.floats(min_value=-3, max_value=3)) for _ in range(d)])
    segments = tuple(Segment(draw(hs.floats(min_value=0.4, max_value=2.0)),
                             draw(velocities(d)))
                     for _ in range(draw(hs.integers(min_value=0, max_value=2))))
    return Worldline(anchor, segments, draw(velocities(d)))


@hs.composite
def unitaries(draw):
    # every SU(2) element: cos(a) 1 - i sin(a) sigma_n
    a = draw(angle)
    n = linalg.sigma_n(draw(hs.floats(min_value=0, max_value=math.pi)), draw(angle))
    return UnitaryOp(matrix=math.cos(a) * np.eye(2) - 1j * math.sin(a) * n)


@hs.composite
def selectives(draw):
    up, down = linalg.spin_basis(draw(hs.floats(min_value=0, max_value=math.pi)), draw(angle))
    return SelectiveOp(kraus=(linalg.projector(up), linalg.projector(down)),
                       chosen=draw(hs.integers(min_value=0, max_value=1)),
                       labels=("+1", "-1"))


@hs.composite
def kets(draw, dim=4):
    parts = [complex(draw(hs.floats(min_value=-1, max_value=1)),
                     draw(hs.floats(min_value=-1, max_value=1))) for _ in range(dim)]
    v = np.array(parts)
    norm = float(np.linalg.norm(v))
    assume(norm > 0.2)
    return v / norm


@hs.composite
def scenarios(draw, d=1, min_interventions=0, max_interventions=3):
    wls = (draw(worldlines(d)), draw(worldlines(d)))
    ket = draw(kets())
    n_iv = draw(hs.integers(min_value=min_interventions, max_value=max_interventions))
    interventions = []
    for _ in range(n_iv):
        subsystem = draw(hs.integers(min_value=0, max_value=1))
        tau = draw(tau_values)
        assume(all(iv.subsystem != subsystem or abs(iv.tau - tau) > 1e-3
                   for iv in interventions))
        op = draw(hs.one_of(unitaries(), selectives()))
        interventions.append(Intervention(subsystem=subsystem, tau=tau, op=op))
    rho = np.outer(ket, ket.conj())
    rho = (rho + rho.conj().T) / 2
    return Scenario(spatial_dim=d, names=("A", "B"), dims=(2, 2), worldlines=wls,
                    initial_state=rho, interventions=tuple(interventions))


def cone_margin(s: Scenario, probe_events) -> float:
    """Smallest |dt - |dx|| between an intervention event and a probe; a
    positive margin means no containment decision sits on a boundary."""
    margin = math.inf
    for e in s.events:
        for x in probe_events:
            dx = x - e
            margin = min(margin, abs(abs(dx[0]) - float(np.linalg.norm(dx[1:]))))
    return margin


def sectors_or_none(s, taus, subset):
    try:
        return engine.sector(s, taus, subset)
    except ImpossibleOutcomeError:
        return None


@SUITE
@given(s=scenarios(), i=hs.integers(min_value=0, max_value=1),
       tau_own=tau_values, other_a=tau_values, other_b=tau_values)
def test_singleton_sector_ignores_other_proper_times(s, i, tau_own, other_a, other_b):
    taus1 = [0.0, 0.0]
    taus2 = [0.0, 0.0]
    taus1[i] = tau_own
    taus2[i] = tau_own
    taus1[1 - i] = other_a
    taus2[1 - i] = other_b
    first = sectors_or_none(s, tuple(taus1), (i,))
    second = sectors_or_none(s, tuple(taus2), (i,))
    if first is None or second is None:
        assert first is None and second is None
    else:
        assert np.array_equal(first, second)


@SUITE
@given(s=scenarios(max_interventions=2), i=hs.integers(min_value=0, max_value=1),
       tau_own=tau_values, tau_sender=tau_values, op=hs.one_of(unitaries(), selectives()))
def test_no_signalling_from_outside_the_past(s, i, tau_own, tau_sender, op):
    j = 1 - i
    x_probe = position(s.worldlines[i], tau_own)
    x_sender = position(s.worldlines[j], tau_sender)
    dx = x_probe - x_sender
    # the extra intervention stays a clear margin outside the probe's past
    assume(dx[0] - float(np.linalg.norm(dx[1:])) < -1e-6)
    assume(all(iv.subsystem != j or abs(iv.tau - tau_sender) > 1e-3
               for iv in s.interventions))
    extended = replace(s, interventions=s.interventions
                       + (Intervention(subsystem=j, tau=tau_sender, op=op),))
    base = sectors_or_none(s, (tau_own, tau_own), (i,))
    got = sectors_or_none(extended, (tau_own, tau_own), (i,))
    if base is None or got is None:
        assert base is None and got is None
    else:
        assert np.max(np.abs(base - got)) < 1e-12


@SUITE
@given(s=scenarios(min_interventions=1))
def test_spacelike_application_order_is_immaterial(s):
    on_a, on_b = ([k for k, iv in enumerate(s.interventions) if iv.subsystem == j]
                  for j in (0, 1))
    forward = apply_interventions(s, on_b, apply_interventions(s, on_a, s.initial_state))
    backward = apply_interventions(s, on_a, apply_interventions(s, on_b, s.initial_state))
    assert np.max(np.abs(forward - backward)) < 1e-12


@SUITE
@given(s=scenarios(), chi=hs.floats(min_value=-1.2, max_value=1.2),
       ta=tau_values, tb=tau_values)
def test_sectors_are_boost_covariant(s, chi, ta, tb):
    taus = (ta, tb)
    probes = [position(s.worldlines[k], taus[k]) for k in range(2)]
    assume(cone_margin(s, probes) > 1e-5)
    boosted = boosted_scenario(s, chi)
    for subset in ((0,), (1,), (0, 1)):
        a = sectors_or_none(s, taus, subset)
        b = sectors_or_none(boosted, taus, subset)
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert np.max(np.abs(a - b)) < 1e-9


@SUITE
@given(s=scenarios())
def test_scenario_serialization_round_trips(s):
    text = serialize_scenario(s)
    back = parse_scenario(text)
    assert back.names == s.names and back.dims == s.dims
    assert back.spatial_dim == s.spatial_dim
    assert np.array_equal(back.initial_state, s.initial_state)
    assert len(back.interventions) == len(s.interventions)
    for a, b in zip(s.interventions, back.interventions):
        assert a.subsystem == b.subsystem and a.tau == b.tau
        if isinstance(a.op, UnitaryOp):
            assert np.array_equal(a.op.matrix, b.op.matrix)
        else:
            assert a.op.chosen == b.op.chosen and a.op.labels == b.op.labels
            assert all(np.array_equal(x, y) for x, y in zip(a.op.kraus, b.op.kraus))
    for wa, wb in zip(s.worldlines, back.worldlines):
        assert np.array_equal(wa.anchor, wb.anchor)
        assert np.array_equal(wa.final_velocity, wb.final_velocity)
        assert all(sa.dtau == sb.dtau and np.array_equal(sa.velocity, sb.velocity)
                   for sa, sb in zip(wa.segments, wb.segments))
    assert serialize_scenario(back) == text
