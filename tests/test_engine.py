import json
import time
from dataclasses import replace

import numpy as np
import pytest

from polystate import engine, linalg
from polystate.errors import ImpossibleOutcomeError
from polystate.scenario import parse_scenario
from polystate.spacetime import Foliation, Worldline

from helpers import load_fixture

P00 = linalg.projector(linalg.KET0)
P11 = linalg.projector(linalg.KET1)
HALF = np.eye(2, dtype=complex) / 2
KET01 = linalg.projector(linalg.product_ket("01"))
PSI_PLUS = linalg.projector(linalg.BELL_PSI_PLUS)


def _assert_close(a, b, tol=1e-12):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def test_bell_sector_triple_at_probe():
    s = load_fixture("bell_sigma_z.scn")
    p = engine.polystate_at(s, (2.0, 1.5))
    _assert_close(p.sector((0,)), P00)
    _assert_close(p.sector((1,)), HALF)
    _assert_close(p.sector((0, 1)), KET01)


REGIMES = [
    ((0.5, 0.5), HALF, HALF, PSI_PLUS),
    ((2.0, 1.5), P00, HALF, KET01),
    ((0.5, 3.5), HALF, P11, KET01),
    ((2.0, 3.5), P00, P11, KET01),
]


@pytest.mark.parametrize("taus,a,b,ab", REGIMES)
def test_bell_sigma_z_regimes(taus, a, b, ab):
    s = load_fixture("bell_sigma_z.scn")
    _assert_close(engine.sector(s, taus, (0,)), a)
    _assert_close(engine.sector(s, taus, (1,)), b)
    _assert_close(engine.sector(s, taus, (0, 1)), ab)


def test_bell_sigma_x_regimes():
    s = load_fixture("bell_sigma_x.scn")
    pp = linalg.projector(linalg.KET_PLUS)
    joint = linalg.projector(linalg.product_ket("++"))
    table = [
        ((0.5, 0.5), HALF, HALF, PSI_PLUS),
        ((2.0, 1.5), pp, HALF, joint),
        ((0.5, 3.5), HALF, pp, joint),
        ((2.0, 3.5), pp, pp, joint),
    ]
    for taus, a, b, ab in table:
        _assert_close(engine.sector(s, taus, (0,)), a)
        _assert_close(engine.sector(s, taus, (1,)), b)
        _assert_close(engine.sector(s, taus, (0, 1)), ab)


def test_sector_boundaries_are_closed():
    s = load_fixture("bell_sigma_z.scn")
    # the measurement's own event and B's entry leaf belong to the updated side
    _assert_close(engine.sector(s, (1.0, 0.0), (0,)), P00)
    _assert_close(engine.sector(s, (0.0, 3.0), (1,)), P11)


def test_singleton_ignores_other_tau():
    s = load_fixture("bell_sigma_z.scn")
    for other in (-5.0, 0.0, 2.5, 100.0):
        _assert_close(engine.sector(s, (2.0, other), (0,)), P00)
        _assert_close(engine.sector(s, (0.5, other), (0,)), HALF)


def test_joint_sector_from_either_past():
    s = load_fixture("bell_sigma_z.scn")
    # A's measurement enters the pair sector through A's past or B's past
    _assert_close(engine.sector(s, (2.0, 0.0), (0, 1)), KET01)
    _assert_close(engine.sector(s, (0.0, 3.5), (0, 1)), KET01)
    _assert_close(engine.sector(s, (0.0, 0.0), (0, 1)), PSI_PLUS)


def test_polystate_collects_all_subsets():
    s = load_fixture("foliation_demo.scn")
    p = engine.polystate_at(s, (2.0, 2.0))
    assert set(p.sectors) == {(0,), (1,), (0, 1)}
    assert p.eval_taus == (2.0, 2.0)
    _assert_close(p.sector((0, 1)), linalg.projector(linalg.product_ket("0+")))


def cached_sectors(cache) -> int:
    return sum(len(sectors) for _, sectors in cache.values())


def test_cache_reuses_piecewise_constant_sectors():
    s = load_fixture("bell_sigma_z.scn")
    cache = {}
    engine.polystate_at(s, (2.0, 1.5), cache)
    n_entries = cached_sectors(cache)
    engine.polystate_at(s, (2.5, 2.9), cache)  # same regime everywhere
    assert cached_sectors(cache) == n_entries
    engine.polystate_at(s, (2.5, 3.5), cache)  # B crosses
    assert cached_sectors(cache) > n_entries


def test_impossible_outcome_names_the_sector():
    doc = {
        "spacetime": {"d": 1},
        "subsystems": [{"name": "A", "dim": 2,
                        "worldline": {"anchor": [0.0, 0.0], "segments": [], "final_v": [0.0]}}],
        "initial_state": {"ket": [1.0, 0.0]},
        "interventions": [{"on": "A", "tau": 1.0,
                           "measure": {"projective_basis": "pauli_z", "outcome": 1}}],
    }
    s = parse_scenario(json.dumps(doc))
    with pytest.raises(ImpossibleOutcomeError) as err:
        engine.sector(s, (2.0,), (0,))
    assert "sector {A}" in str(err.value)


def test_epr_statistics_against_closed_forms():
    base = load_fixture("epr_test.scn")
    sz_kets = (linalg.KET0, linalg.KET1)
    for theta in (0.0, np.pi / 6, np.pi / 4, np.pi / 2, 2 * np.pi / 3):
        up, down = linalg.spin_basis(theta, 0.0)
        op = replace(base.interventions[1].op,
                     kraus=(linalg.projector(up), linalg.projector(down)))
        s = replace(base, interventions=(base.interventions[0],
                                         replace(base.interventions[1], op=op)))
        early = (0.5, 0.5)
        obs = linalg.kron(linalg.SIGMA_Z, linalg.sigma_n(theta, 0.0))
        corr = linalg.expect(engine.sector(s, early, (0, 1)), obs)
        assert abs(corr - (-np.cos(theta))) < 1e-12
        for a, pa in enumerate(sz_kets):
            for b, pb in enumerate((up, down)):
                prob = engine.joint_outcome_prob(
                    s, early, [linalg.projector(pa), linalg.projector(pb)])
                same = 1.0 if a == b else 0.0
                expected = 0.5 * (same * np.sin(theta / 2) ** 2
                                  + (1 - same) * np.cos(theta / 2) ** 2)
                assert abs(prob - expected) < 1e-12
        for a, pa in enumerate(sz_kets):
            assert abs(engine.marginal_prob(s, early, 0, linalg.projector(pa)) - 0.5) < 1e-12
        for b in (0, 1):
            cond = replace(s, interventions=(
                s.interventions[0],
                replace(s.interventions[1], op=replace(s.interventions[1].op, chosen=b))))
            for a, pa in enumerate(sz_kets):
                got = engine.conditional_prob(cond, 0, linalg.projector(pa), (0.5, 2.0))
                same = 1.0 if a == b else 0.0
                expected = (same * np.sin(theta / 2) ** 2
                            + (1 - same) * np.cos(theta / 2) ** 2)
                assert abs(got - expected) < 1e-12


def test_epr_second_regime_is_z_product():
    s = load_fixture("epr_test.scn")
    for a in (0, 1):
        sa = replace(s, interventions=(
            replace(s.interventions[0], op=replace(s.interventions[0].op, chosen=a)),
            s.interventions[1]))
        got = engine.sector(sa, (2.0, 0.5), (0, 1))
        want = linalg.kron(linalg.projector((linalg.KET0, linalg.KET1)[a]),
                           linalg.projector((linalg.KET1, linalg.KET0)[a]))
        _assert_close(got, want)


def test_observer_recollection_foliation_states():
    s = load_fixture("bell_sigma_z.scn")
    _assert_close(engine.observer_state(s, np.array([0.0, 0.0])), PSI_PLUS)
    _assert_close(engine.observer_state(s, np.array([2.0, 0.0])), KET01)
    z = Worldline(np.array([0.0, 1.0]))  # halfway between the parties
    _assert_close(engine.recollection(s, z, 0.5), PSI_PLUS)
    _assert_close(engine.recollection(s, z, 2.5), KET01)
    f = Foliation(np.zeros(1))
    _assert_close(engine.foliation_state(s, f, 0.5), PSI_PLUS)
    _assert_close(engine.foliation_state(s, f, 1.0), KET01)


def test_sector_requires_nonempty_subset():
    s = load_fixture("bell_sigma_z.scn")
    with pytest.raises(ValueError):
        engine.sector(s, (0.0, 0.0), ())


def test_subsystem_cap():
    s = load_fixture("bell_sigma_z.scn")
    capped = replace(s, names=tuple(f"S{i}" for i in range(11)),
                     dims=(2,) * 11, worldlines=(s.worldlines + s.worldlines * 5)[:11])
    with pytest.raises(ValueError):
        engine.polystate_at(capped, (0.0,) * 11)


def test_probe_sweep_is_fast_with_cache():
    s = load_fixture("bell_sigma_z.scn")
    cache = {}
    start = time.perf_counter()
    for ta in np.linspace(-1, 4, 40):
        for tb in np.linspace(-1, 4, 40):
            engine.sector(s, (ta, tb), (0, 1), cache)
    assert time.perf_counter() - start < 2.0
    assert len(cache) == 2  # only two distinct selection sets exist
