import importlib
import json
import random
import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polystate import audit, engine, ensemble, linalg
from polystate.errors import ImpossibleOutcomeError
from polystate.scenario import parse_scenario
from polystate.spacetime import Foliation, Worldline

from helpers import load_fixture

BENCH = Path(__file__).resolve().parent.parent / "bench"

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


def counting_applications(monkeypatch) -> list:
    """Record the subsystem of every operator product the engine applies on
    a factor's axis, by `push` or by the cache, from now on."""
    applied = []
    apply = engine._apply
    monkeypatch.setattr(engine, "_apply",
                        lambda dims, j, m, psi: applied.append(j) or apply(dims, j, m, psi))
    return applied


def test_cache_reuses_piecewise_constant_sectors(monkeypatch):
    """Within one regime the cache holds the same cuts, no product is
    applied again, and every sector is the same, bit for bit; when B crosses
    A's readout, both the cuts and the applications grow."""
    s = load_fixture("bell_sigma_z.scn")
    applied = counting_applications(monkeypatch)
    cache = {}

    def evaluate(taus):
        sectors = engine.polystate_at(s, taus, cache).sectors
        return {subset: rho.tobytes() for subset, rho in sectors.items()}, set(cache), len(applied)

    first, cuts, n_applied = evaluate((0.5, 0.5))
    assert evaluate((0.9, 2.9)) == (first, cuts, n_applied)  # same regime everywhere
    _, crossed, more_applied = evaluate((0.5, 3.5))  # A's readout enters B's past
    assert crossed > cuts and more_applied > n_applied


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


@pytest.mark.parametrize("subset", [(2,), (-1,), (0, -1), (0, 2), (0.5,), ("A",), 1,
                                    [True, False], np.array([True, False])])
def test_subsets_outside_the_scenario_are_refused(subset):
    """A ValueError naming the subset, before any past row is computed. A
    mask of bools is no subset: Python's bools would read as indices 1 and
    0."""
    s = load_fixture("bell_sigma_z.scn")
    with pytest.raises(ValueError, match=re.escape(repr(subset))):
        engine.sector(s, (2.0, 2.0), subset)
    assert s.past_rows == [None, None]
    p = engine.polystate_at(s, (2.0, 2.0))
    with pytest.raises(ValueError, match=re.escape(repr(subset))):
        p.sector(subset)
    with pytest.raises(ValueError, match=re.escape(repr(subset))):
        ensemble.analytic_sector(s, subset, (2.0, 2.0))
    with pytest.raises(ValueError, match=re.escape(repr(subset))):
        engine.state_after(s, (1, 0), subset)


INF, NAN = float("inf"), float("nan")
BAD_INPUTS = [
    ("an infinite proper time", lambda s: engine.sector(s, (INF, 0.0), (0,)), "time inf is"),
    ("a NaN proper time", lambda s: engine.sector(s, (NAN, 0.0), (0,)), "time nan is"),
    ("a NaN proper time, all sectors",
     lambda s: engine.polystate_at(s, (0.0, NAN)), "time nan is"),
    ("a NaN proper time, foliation rule",
     lambda s: audit.leaf_states(audit.FixedFoliation(Foliation(np.zeros(1))), s, (NAN, 0.0)),
     "time nan is"),
    ("three proper times", lambda s: engine.polystate_at(s, (1.0, 2.0, 3.0)), "(1.0, 2.0, 3.0)"),
    ("one proper time", lambda s: engine.sector(s, (1.0,), (0,)), "(1.0,)"),
    ("one proper time, past lightcone rule",
     lambda s: audit.leaf_states(audit.PastLightcone(), s, (4.0,)), "(4.0,)"),
    ("an event with a NaN coordinate", lambda s: engine.observer_state(s, [NAN, 0.0]), "nan"),
    ("a NaN leaf", lambda s: engine.foliation_state(s, Foliation(np.zeros(1)), NAN), "nan"),
]


@pytest.mark.parametrize("what,call,named", BAD_INPUTS, ids=[case[0] for case in BAD_INPUTS])
def test_inputs_that_are_no_proper_time_event_or_leaf_are_refused(what, call, named):
    """Each of these once returned a wrong answer, warned, or raised an
    error that blamed something else: a non-finite proper time became an
    event at infinity or an uncovered point of the worldline, a tuple of
    the wrong length was truncated or indexed past its end, and a NaN event
    or leaf selected nothing. Each now raises a ValueError that names the
    bad value, and warns nothing."""
    s = load_fixture("bell_sigma_z.scn")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(named)):
            call(s)


@pytest.mark.parametrize("cut", [(-1, 0), (1, 0, 0), (49, 0), (0, -1)])
def test_cuts_outside_the_scenario_are_refused(cut, monkeypatch):
    """On a chain of 48 interventions beside one of 1, a cut with a count
    out of range or the wrong length raises a ValueError naming it, before
    any push: a count of -1 would read a product from the chain's far end."""
    monkeypatch.syspath_prepend(str(BENCH))
    scenarios = importlib.import_module("scenarios")
    s = parse_scenario(scenarios.chain_document(48, random.Random(1)))
    assert tuple(map(len, s.chains.ids)) == (48, 1)
    applied = counting_applications(monkeypatch)
    cache = {}
    with pytest.raises(ValueError, match=re.escape(repr(cut))):
        engine.state_after(s, cut, (0,), cache)
    assert applied == [] and cache == {}


def test_subsets_are_sorted_and_deduplicated():
    s = load_fixture("bell_sigma_z.scn")
    p = engine.polystate_at(s, (2.0, 3.5))
    assert p.sector((1, 0, 1)) is p.sectors[(0, 1)]
    assert np.array_equal(engine.sector(s, (2.0, 3.5), (1, 0, 1)), p.sectors[(0, 1)])
    assert np.array_equal(engine.sector(s, (2.0, 3.5), np.array([1, 1])), p.sectors[(1,)])


def test_polystate_sectors_are_read_only_and_kept(monkeypatch):
    """`sectors` keeps all_subsets order and its length, forms a sector on
    its first read and only then, when the bound decided it, and cannot be
    assigned to; a plain dict is taken as given."""
    s = load_fixture("bell_sigma_z.scn")
    formed = []
    product = linalg.gram_product
    monkeypatch.setattr(linalg, "gram_product", lambda *args: formed.append(1) or product(*args))
    p = engine.polystate_at(s, (2.0, 3.5))
    assert list(p.sectors) == list(engine.all_subsets(2)) and len(p.sectors) == 3
    assert not formed
    assert p.sectors[(0,)] is p.sectors[(0,)] is p.sector([0])
    assert len(formed) == 1
    with pytest.raises(TypeError):
        p.sectors[(0,)] = HALF
    plain = engine.Polystate(n=1, sectors={(0,): HALF}, eval_taus=(0.0,))
    assert plain.sector((0,)) is HALF and dict(plain.sectors) == {(0,): HALF}


def test_cache_holds_only_pushed_factors(monkeypatch):
    """Every sector of a `ghz_document` GHZ-7 tuple read through
    `engine.sector` with one shared cache leaves no array in it of more
    than D r entries: factors only, no sectors."""
    monkeypatch.syspath_prepend(str(BENCH))
    scenarios = importlib.import_module("scenarios")
    rng = random.Random(1)
    doc = scenarios.ghz_document(7, rng)
    s = parse_scenario(doc)
    taus = scenarios.ghz_taus(doc, rng)[1]  # reach 0: every subset has a cut of its own
    cache = {}
    for subset in engine.all_subsets(7):
        engine.sector(s, taus, subset, cache)
    held = [entry.factor if isinstance(entry, engine.PushedCut) else entry
            for entry in cache.values()]
    assert len(held) == len(cache) >= 127
    assert all(isinstance(a, np.ndarray) and a.size <= s.initial_factor.size for a in held)


def test_ghz_wide_pass_starts_new_cuts_from_cached_prefixes(monkeypatch):
    """One pass of the benchmark's `ghz_wide` ops (all 127 sectors of GHZ-7
    at 8 proper-time tuples, in its order, one cache per tuple) applies at
    most 300 subsystem products, where pushing each of its 184 cuts from the
    initial factor applies 677. It judges exactly the cuts it reads, each
    once, and keeps the prefixes it only passes through bare: 184 judged
    entries, where judging every prefix too made 267."""
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workloads").GhzWide(1)
    applied = counting_applications(monkeypatch)
    workload.start_pass(0)
    for g in range(workload.pass_len):
        workload.run(g)
    read = {(slot, engine.past_cut(workload.s, workload.taus[slot], subset))
            for slot, subset in workload.ops}
    judged = [entry for cache in workload.caches for entry in cache.values()
              if isinstance(entry, engine.PushedCut)]
    assert len(judged) == len(read) == 184
    assert sum(len(cache) for cache in workload.caches) >= 184
    assert 0 < len(applied) <= 300


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


def two_qubit_document(interventions, initial=None) -> dict:
    """psi+ (or the given initial state) on A at x = 0 and B at x = 1000,
    both at rest, with the given interventions."""
    return {
        "spacetime": {"d": 1},
        "subsystems": [{"name": name, "dim": 2,
                        "worldline": {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}}
                       for name, x in (("A", 0.0), ("B", 1000.0))],
        "initial_state": initial or {"named": "bell_psi_plus"},
        "interventions": interventions,
    }


def measure(on, tau, basis, outcome=0) -> dict:
    return {"on": on, "tau": tau, "measure": {"projective_basis": basis, "outcome": outcome}}


def test_long_zx_chain_matches_its_closed_form():
    """45 alternating z/x readouts of 0 on A: each has probability 1/2, so
    after k of them the branch weight is 2^-k, 2.8e-14 at k = 45, below an
    absolute 1e-12 floor. A holds the last basis's 0 eigenstate, B the |1>
    the first z readout left it in, and B's own sector stays mixed."""
    m = 45
    s = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", k + 1.0, "pauli_z" if k % 2 == 0 else "pauli_x") for k in range(m)])))
    plus = linalg.projector(linalg.KET_PLUS)
    cache = {}
    for k in range(1, m + 1):
        a = P00 if k % 2 else plus
        taus = (k + 0.5, 0.0)
        _assert_close(engine.sector(s, taus, (0,), cache), a)
        _assert_close(engine.sector(s, taus, (0, 1), cache), linalg.kron(a, P11))
        _assert_close(engine.sector(s, taus, (1,), cache), HALF)
    assert cache[(m, 0)].weight < 1e-12


def impossible_message(s, taus, subset) -> str:
    with pytest.raises(ImpossibleOutcomeError) as err:
        engine.sector(s, taus, subset)
    return str(err.value)


def test_recorded_impossible_branches_still_raise():
    """z = 0 then z = 1 on A vanishes in A's own operator chain, whatever
    the state; B's z = 0 after A's z = 0 on psi+ has weight 0 for this state
    only, so each party's sector is fine and the pair's is not."""
    local = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", 1.0, "pauli_z"), measure("A", 2.0, "pauli_z", 1)])))
    _assert_close(engine.sector(local, (1.5, 0.0), (0,)), P00)
    message = impossible_message(local, (2.5, 0.0), (0,))
    assert message.startswith("sector {A}: intervention 1 on A at tau 2 ")
    assert "cannot occur" in message
    assert "sector {A,B}: intervention 1 on A" in impossible_message(local, (2.5, 0.0), (0, 1))

    pair = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", 1.0, "pauli_z"), measure("B", 1.0, "pauli_z")])))
    _assert_close(engine.sector(pair, (2.0, 2.0), (0,)), P00)
    _assert_close(engine.sector(pair, (2.0, 2.0), (1,)), P00)
    assert impossible_message(pair, (2.0, 2.0), (0, 1)).startswith(
        "sector {A,B}: branch weight 0.000e+00 is zero")


def test_orthogonal_readouts_that_round_to_dust_raise():
    """The two outcomes of one rotated basis, read in turn, multiply to a
    nonzero matrix of rounding dust. Divided by its own tiny weight, the
    state it leaves would look valid; the step's collapse relative to the
    one before marks it impossible."""
    basis = "pauli_n(1.0, 0.3)"
    up, down = (linalg.projector(k) for k in linalg.spin_basis(1.0, 0.3))
    dust = np.max(np.abs(down @ up))
    assert 0 < dust < 1e-15
    s = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", 1.0, basis), measure("A", 2.0, basis, 1)])))
    assert s.chain_norms[1] == (1, None)
    for subset in ((0,), (0, 1)):
        assert "intervention 1 on A at tau 2 " in impossible_message(s, (2.5, 0.0), subset)


def oracle_message(s, taus, subset) -> str:
    with pytest.raises(ImpossibleOutcomeError) as err:
        ensemble.analytic_sector(s, subset, taus)
    return str(err.value)


@pytest.mark.parametrize("theta,phi", [(1.0, 0.3), (0.4, 2.0), (2.2, 5.1), (1e-3, 0.7)])
def test_outcomes_that_round_to_dust_raise_on_the_engine_and_the_oracle(theta, phi):
    """The dense oracle keeps first-order dust where the engine's pushed
    factor keeps second-order dust, and must still refuse with it: the two
    outcomes of one rotated basis read in turn on A, and a singlet read
    along one axis on both sides with the same outcome, raise on the engine
    and on the oracle alike, naming the sector and, for the collapse, the
    intervention."""
    basis = f"pauli_n({theta}, {phi})"
    s = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", 1.0, basis), measure("A", 2.0, basis, 1)])))
    for subset in ((0,), (0, 1)):
        for message in (impossible_message(s, (2.5, 0.0), subset),
                        oracle_message(s, (2.5, 0.0), subset)):
            assert "intervention 1 on A at tau 2 " in message
    singlet = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", 1.0, basis), measure("B", 1.0, basis)], {"named": "bell_psi_minus"})))
    for message in (impossible_message(singlet, (2.0, 2.0), (0, 1)),
                    oracle_message(singlet, (2.0, 2.0), (0, 1))):
        assert message.startswith("sector {A,B}: branch weight ")
    for subset in ((0,), (1,)):
        _assert_close(engine.sector(singlet, (2.0, 2.0), subset),
                      ensemble.analytic_sector(singlet, subset, (2.0, 2.0)))


def test_sectors_run_no_dense_validation(monkeypatch):
    """Every sector of pure and white-noise GHZ-4 comes from its Gram
    factor, and so do every audit rule's states, patchworks included, and
    the ensemble's averages of branch states; neither `check_density`, the
    dense validation, nor `normalize` is called, and every state comes out
    exactly Hermitian with unit trace."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense validation of a Gram state")

    def assert_density(rho):
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1) < 1e-12

    ket = np.zeros(16, dtype=complex)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    noisy = 0.8 * np.outer(ket, ket.conj()) + 0.2 * np.eye(16) / 16
    doc = {
        "spacetime": {"d": 1},
        "subsystems": [{"name": f"Q{i}", "dim": 2,
                        "worldline": {"anchor": [0.0, float(i)], "segments": [],
                                      "final_v": [0.0]}}
                       for i in range(4)],
        "interventions": [measure(f"Q{i}", 1.0, ("pauli_z", "pauli_x")[i % 2])
                          for i in range(4)],
    }
    scenarios = [parse_scenario(json.dumps({**doc, "initial_state": state}))
                 for state in ({"ket": ket.real.tolist()}, {"matrix": noisy.real.tolist()})]
    logs = [ensemble.sample_runs(s, 400, 3) for s in scenarios]
    monkeypatch.setattr(linalg, "check_density", forbidden)
    monkeypatch.setattr(linalg, "normalize", forbidden)
    rules = audit.default_prescriptions(Foliation(np.array([0.5])))
    for s, log in zip(scenarios, logs):
        for taus in ((0.5,) * 4, (1.5,) * 4, (2.5, 1.5, 0.5, 4.5)):
            p = engine.polystate_at(s, taus)
            assert len(p.sectors) == 15
            for rule in rules:
                joint, locals_ = audit.leaf_states(rule, s, taus)
                for rho in (joint, *locals_):
                    assert_density(rho)
            for subset in ((0,), (1, 2), (0, 1, 2, 3)):
                assert_density(ensemble.empirical_sector(log, s, subset, taus))
