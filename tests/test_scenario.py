import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from polystate import engine, linalg
from polystate.errors import ParseError, ScenarioValidationError
from polystate.scenario import (SelectiveOp, apply_interventions, boosted_scenario,
                                diagnose_document, parse_scenario, selected_ids,
                                serialize_scenario)
from polystate.spacetime import Region

from helpers import fixture_text, load_fixture, random_two_qubit_scenario

RNG = np.random.default_rng(99)


def test_parse_bell_fixture():
    s = load_fixture("bell_sigma_z.scn")
    assert s.names == ("A", "B")
    assert s.dims == (2, 2)
    assert s.spatial_dim == 1
    assert np.allclose(s.initial_state, linalg.projector(linalg.BELL_PSI_PLUS))
    assert len(s.interventions) == 1
    iv = s.interventions[0]
    assert iv.subsystem == 0 and iv.tau == 1.0
    assert isinstance(iv.op, SelectiveOp)
    assert np.allclose(iv.op.kraus[0], linalg.projector(linalg.KET0))
    assert iv.op.chosen == 0
    assert iv.op.labels == ("+1", "-1")


def test_all_bundled_fixtures_are_clean():
    for name in ("bell_sigma_z.scn", "bell_sigma_x.scn", "epr_test.scn", "foliation_demo.scn"):
        assert diagnose_document(fixture_text(name)) == []


def test_json_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_scenario('{"spacetime": {"d": 1},\n  broken')
    assert err.value.line == 2
    diags = diagnose_document('{"spacetime": {"d": 1},\n  broken')
    assert diags[0].invariant == "json-syntax"
    assert "line 2" in diags[0].message


def _doc():
    return json.loads(fixture_text("bell_sigma_z.scn"))


def _expect_invariant(doc, invariant):
    diags = diagnose_document(json.dumps(doc))
    assert invariant in {d.invariant for d in diags}, [d.invariant for d in diags]
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


def test_superluminal_segment_rejected():
    doc = _doc()
    doc["subsystems"][0]["worldline"]["segments"] = [{"dtau": 1.0, "v": [1.0]}]
    _expect_invariant(doc, "non-timelike-worldline")


def test_incomplete_kraus_rejected():
    doc = _doc()
    doc["interventions"][0]["measure"] = {
        "kraus": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]],
        "outcome": 0,
    }
    _expect_invariant(doc, "kraus-incomplete")


def test_outcome_out_of_range_rejected():
    doc = _doc()
    doc["interventions"][0]["measure"]["outcome"] = 2
    _expect_invariant(doc, "outcome-range")


def test_duplicate_proper_time_rejected():
    doc = _doc()
    doc["interventions"].append(json.loads(json.dumps(doc["interventions"][0])))
    _expect_invariant(doc, "duplicate-proper-time")


def test_non_unitary_rejected():
    doc = _doc()
    doc["interventions"][0] = {"on": "A", "tau": 1.0,
                               "unitary": [[1.0, 0.0], [0.0, 0.5]]}
    _expect_invariant(doc, "unitary-invariant")


def test_state_dimension_mismatch_rejected():
    doc = _doc()
    doc["initial_state"] = {"ket": [1.0, 0.0]}
    _expect_invariant(doc, "dimension-mismatch")


def test_bad_density_rejected():
    doc = _doc()
    doc["initial_state"] = {"matrix": np.diag([0.9, 0.4, 0.0, 0.0]).tolist()}
    _expect_invariant(doc, "density-invariants")


def test_dimension_cap_rejected(monkeypatch):
    monkeypatch.setenv("POLYSTATE_MAX_DIM", "2")
    _expect_invariant(_doc(), "dimension-cap")


def test_unknown_subsystem_rejected():
    doc = _doc()
    doc["interventions"][0]["on"] = "C"
    _expect_invariant(doc, "unknown-subsystem")


def test_roundtrip_fixture():
    s = load_fixture("epr_test.scn")
    text = serialize_scenario(s)
    s2 = parse_scenario(text)
    assert s2.names == s.names and s2.dims == s.dims
    assert np.allclose(s2.initial_state, s.initial_state)
    assert len(s2.interventions) == len(s.interventions)
    for a, b in zip(s.interventions, s2.interventions):
        assert a.subsystem == b.subsystem and a.tau == b.tau
        assert np.allclose(a.op.kraus[a.op.chosen], b.op.kraus[b.op.chosen])
    # serialization is a fixed point after one pass
    assert serialize_scenario(s2) == text


def test_intervention_event_position():
    s = load_fixture("bell_sigma_z.scn")
    assert np.allclose(s.events[0], [1.0, 0.0])


def test_selected_ids_by_region():
    s = load_fixture("foliation_demo.scn")
    assert selected_ids(s, Region.everything()) == (0, 1)
    assert selected_ids(s, Region.nothing()) == ()
    past_of_a_late = Region.union_of_pasts([np.array([2.0, 0.0])])
    assert selected_ids(s, past_of_a_late) == (0,)
    two_apexes = Region.union_of_pasts([np.array([2.0, 0.0]), np.array([2.0, 2.0])])
    assert selected_ids(s, two_apexes) == (0, 1)


def test_apply_interventions_trace_is_branch_weight():
    s = load_fixture("bell_sigma_z.scn")
    out = apply_interventions(s, (0,), s.initial_state)
    assert abs(np.trace(out).real - 0.5) < 1e-12


def test_apply_order_between_subsystems_is_immaterial():
    for _ in range(20):
        s = random_two_qubit_scenario(RNG)
        ids = tuple(range(len(s.interventions)))
        a = apply_interventions(s, ids, s.initial_state, subsystem_order=(0, 1))
        b = apply_interventions(s, ids, s.initial_state, subsystem_order=(1, 0))
        assert np.allclose(a, b, atol=1e-12)


def test_same_subsystem_order_is_by_proper_time():
    # X then measure |0> differs from measure |0> then X; tau order decides
    doc = _doc()
    doc["initial_state"] = {"ket": [0.0, 0.0, 0.0, 1.0]}
    doc["interventions"] = [
        {"on": "A", "tau": 0.5, "unitary": "pauli_x"},
        {"on": "A", "tau": 1.0,
         "measure": {"projective_basis": "pauli_z", "outcome": 0}},
    ]
    s = parse_scenario(json.dumps(doc))
    out = apply_interventions(s, (0, 1), s.initial_state)
    # |11> -> X_A -> |01>, then projecting A on |0> keeps full weight
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_boosted_scenario_keeps_proper_times():
    s = load_fixture("epr_test.scn")
    b = boosted_scenario(s, 0.7)
    assert [iv.tau for iv in b.interventions] == [iv.tau for iv in s.interventions]
    assert np.allclose(b.initial_state, s.initial_state)
    assert not np.allclose(b.worldlines[1].anchor, s.worldlines[1].anchor)


def ghz_ket_document(n: int) -> tuple:
    ket = np.zeros(2**n)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    doc = {
        "spacetime": {"d": 1},
        "subsystems": [{"name": f"Q{i}", "dim": 2,
                        "worldline": {"anchor": [0.0, float(i)], "segments": [], "final_v": [0.0]}}
                       for i in range(n)],
        "initial_state": {"ket": ket.tolist()},
        "interventions": [{"on": f"Q{i}", "tau": 1.0,
                           "measure": {"projective_basis": "pauli_x", "outcome": 0}}
                          for i in range(n)],
    }
    return json.dumps(doc), ket.astype(complex)


def test_ket_inputs_are_their_own_factor(monkeypatch):
    """Named and ket inputs parse without `check_density` and, boosted or
    otherwise replaced, factor and evaluate without `eigh`."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called for a ket input")

    inputs = [(fixture_text("bell_sigma_z.scn"), linalg.BELL_PSI_PLUS),
              (fixture_text("epr_test.scn"), linalg.BELL_PSI_MINUS),
              ghz_ket_document(4)]
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    check_density = linalg.check_density
    for text, ket in inputs:
        monkeypatch.setattr(linalg, "check_density", forbidden)
        s = parse_scenario(text)
        monkeypatch.setattr(linalg, "check_density", check_density)
        assert np.array_equal(s.initial_state, linalg.projector(ket))
        for v in (s, boosted_scenario(s, 0.7), replace(s, interventions=s.interventions[:1])):
            assert np.array_equal(v.initial_factor, ket.reshape(-1, 1))
            assert not v.initial_factor.flags.writeable
            engine.polystate_at(v, (0.5,) * v.n, {})  # no sector of these needs a clamp
    # a scenario whose initial state is replaced factors the new one
    monkeypatch.undo()
    mixed = replace(s, initial_state=np.eye(16, dtype=complex) / 16)
    assert mixed.initial_factor.shape == (16, 16)


def test_non_finite_ket_rejected():
    for entries in ([float("nan"), 0.0], [0.6, [0.8, float("nan")]], [float("inf"), 0.0]):
        doc = json.loads(fixture_text("bell_sigma_z.scn"))
        doc["subsystems"] = doc["subsystems"][:1]
        doc["interventions"] = []
        doc["initial_state"] = {"ket": entries}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert [d.invariant for d in err.value.diagnostics] == ["unit-norm"]


NON_FINITE = (float("nan"), [0.0, float("nan")], float("inf"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_matrix_rejected():
    for bad in NON_FINITE:
        for cell in ((0, 0), (0, 1)):
            doc = _doc()
            rows = (np.eye(4) / 4).tolist()
            rows[cell[0]][cell[1]] = bad
            doc["initial_state"] = {"matrix": rows}
            _expect_invariant(doc, "density-invariants")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_unitary_rejected():
    for bad in NON_FINITE:
        doc = _doc()
        doc["interventions"][0] = {"on": "A", "tau": 1.0, "unitary": [[bad, 0.0], [0.0, 1.0]]}
        _expect_invariant(doc, "unitary-invariant")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_kraus_rejected():
    for bad in NON_FINITE:
        doc = _doc()
        doc["interventions"][0]["measure"] = {
            "kraus": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, bad]]], "outcome": 0}
        _expect_invariant(doc, "kraus-incomplete")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_basis_ket_rejected():
    for bad in NON_FINITE:
        doc = _doc()
        doc["interventions"][0]["measure"]["projective_basis"] = [[1.0, 0.0], [0.0, bad]]
        _expect_invariant(doc, "kraus-incomplete")


def test_long_ket_rejected_before_its_projector():
    """A 3000-entry ket for a two-qubit scenario is a dimension mismatch;
    its 3000 x 3000 projector (144 MB) is never formed."""
    doc = _doc()
    doc["initial_state"] = {"ket": [1.0] + [0.0] * 2999}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        diags = diagnose_document(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [d.invariant for d in diags] == ["dimension-mismatch"]
    assert diags[0].message == "state dim 3000 vs joint dim 4"
    assert peak < 4 * 2**20
