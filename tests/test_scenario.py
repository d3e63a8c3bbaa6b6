import copy
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from polystate import cli, engine, linalg, scenario, validate
from polystate.errors import ParseError, ScenarioValidationError
from polystate.scenario import (Intervention, SelectiveOp, UnitaryOp, apply_interventions,
                                axis_angles, boosted_scenario, diagnose_document, named_basis,
                                parse_scenario, read_number, selected_ids, serialize_scenario)
from polystate.spacetime import Region

from helpers import fixture_text, load_fixture, random_two_qubit_scenario, reference_validate
from test_properties import SUITE, scenarios

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


FIXTURE_NAMES = ("bell_sigma_z.scn", "bell_sigma_x.scn", "epr_test.scn", "foliation_demo.scn")


def test_all_bundled_fixtures_are_clean():
    for name in FIXTURE_NAMES:
        assert diagnose_document(fixture_text(name)) == []


def invalid_variants() -> list:
    """`replace`d variants of foliation_demo.scn, each with the one
    (field, invariant) it breaks."""
    s = load_fixture("foliation_demo.scn")
    a, b = s.interventions
    not_unitary = Intervention(0, 2.0, UnitaryOp(np.diag([1.0, 2.0]).astype(complex)))
    return [
        (replace(s, interventions=(a, b, not_unitary)),
         ("interventions[2].unitary", "unitary-invariant")),
        (replace(s, interventions=(replace(a, op=replace(a.op, chosen=5)), b)),
         ("interventions[0].measure.outcome", "outcome-range")),
        (replace(s, interventions=(a, replace(b, tau=float("nan")))),
         ("interventions[1].tau", "real-proper-time")),
    ]


def test_validate_diagnoses_scenario_values():
    """`validate` checks a Scenario value: the fixtures are clean, and each
    `replace`d variant of foliation_demo.scn gets the diagnostic of the
    field it broke."""
    for name in FIXTURE_NAMES:
        assert validate(load_fixture(name)) == []
    for variant, want in invalid_variants():
        assert [(d.field, d.invariant) for d in validate(variant)] == [want]


def test_numpy_integers_serialize_and_validate_as_python_ints():
    """A numpy integer `spatial_dim`, `dims` entry or `chosen` is written as
    the Python int it equals: the variant serializes to the fixture's text,
    re-parses to an equal document and validates clean. A bool or a float
    there keeps its diagnostic."""
    s = load_fixture("foliation_demo.scn")
    a, b = s.interventions
    text = serialize_scenario(s)
    numpy_variants = [
        replace(s, spatial_dim=np.int64(1)),
        replace(s, dims=(np.int64(2), np.int32(2))),
        replace(s, interventions=(replace(a, op=replace(a.op, chosen=np.int64(a.op.chosen))), b)),
    ]
    for variant in numpy_variants:
        assert serialize_scenario(variant) == text
        assert serialize_scenario(parse_scenario(serialize_scenario(variant))) == text
        assert validate(variant) == []
    not_ints = [
        (replace(s, spatial_dim=1.0), "spacetime.d", "got 1.0"),
        (replace(s, dims=(True, 2)), "subsystems[0].dim", "got True"),
        (replace(s, interventions=(replace(a, op=replace(a.op, chosen=False)), b)),
         "interventions[0].measure.outcome", "got False"),
    ]
    for variant, field, got in not_ints:
        [diagnostic] = validate(variant)
        assert diagnostic.field == field and diagnostic.message.endswith(got)


def test_validate_matches_the_json_text_round_trip():
    """`validate` reads the document `serialize_scenario` writes as a dict,
    not as its text: it gives the diagnostics of the round trip through
    JSON text (`reference_validate`), field, invariant and message, on the
    fixtures and on every invalid variant, and calls no JSON codec."""
    values = [load_fixture(name) for name in FIXTURE_NAMES]
    values += [variant for variant, _ in invalid_variants()]
    for s in values:
        want = reference_validate(s)
        with mock.patch.object(json, "dumps", side_effect=AssertionError("json.dumps")), \
                mock.patch.object(json, "loads", side_effect=AssertionError("json.loads")):
            got = validate(s)
        assert got == want


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
        on_a, on_b = ([k for k, iv in enumerate(s.interventions) if iv.subsystem == j]
                      for j in (0, 1))
        a = apply_interventions(s, on_b, apply_interventions(s, on_a, s.initial_state))
        b = apply_interventions(s, on_a, apply_interventions(s, on_b, s.initial_state))
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


def _expect_invariant_quietly(doc, invariant):
    """`_expect_invariant`, and numpy prints no warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _expect_invariant(doc, invariant)
    assert [str(w.message) for w in caught] == []


def test_non_finite_matrix_rejected():
    for bad in NON_FINITE:
        for cell in ((0, 0), (0, 1)):
            doc = _doc()
            rows = (np.eye(4) / 4).tolist()
            rows[cell[0]][cell[1]] = bad
            doc["initial_state"] = {"matrix": rows}
            _expect_invariant_quietly(doc, "density-invariants")


def test_non_finite_unitary_rejected():
    for bad in NON_FINITE:
        doc = _doc()
        doc["interventions"][0] = {"on": "A", "tau": 1.0, "unitary": [[bad, 0.0], [0.0, 1.0]]}
        _expect_invariant_quietly(doc, "unitary-invariant")


def test_non_finite_kraus_rejected():
    for bad in NON_FINITE:
        doc = _doc()
        doc["interventions"][0]["measure"] = {
            "kraus": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, bad]]], "outcome": 0}
        _expect_invariant_quietly(doc, "kraus-incomplete")


def test_non_finite_basis_ket_rejected():
    for bad in NON_FINITE:
        doc = _doc()
        doc["interventions"][0]["measure"]["projective_basis"] = [[1.0, 0.0], [0.0, bad]]
        _expect_invariant_quietly(doc, "kraus-incomplete")


NAN, INF = float("nan"), float("inf")
WELL_FORMED = ["well-formed-entries"]

# (where, value, invariants): a matrix, ket, Kraus list or basis that is a
# flat list or a scalar where nested lists belong; an entry that is not an
# object or a list where one belongs; a coordinate, velocity, duration or
# proper time that is not a finite number; a JSON boolean where a number
# belongs (Python counts bools as ints). A subsystem list without an
# object also leaves the intervention on A without its subsystem.
MALFORMED = (
    ("initial_state", {"matrix": [0.5, 0.5]}, WELL_FORMED),
    ("initial_state", {"matrix": 1.0}, WELL_FORMED),
    ("initial_state", {"ket": 1.0}, WELL_FORMED),
    ("measure", {"kraus": [1.0, 0.0], "outcome": 0}, WELL_FORMED),
    ("measure", {"kraus": 1.0, "outcome": 0}, WELL_FORMED),
    ("measure", {"projective_basis": [1.0, 0.0], "outcome": 0}, WELL_FORMED),
    ("unitary", [1.0, 0.0], WELL_FORMED),
    ("subsystems", [5], ["object-required", "unknown-subsystem"]),
    ("worldline", {"segments": [5]}, ["object-required"]),
    ("worldline", {"segments": 5}, WELL_FORMED),
    ("interventions", 5, WELL_FORMED),
    ("worldline", {"anchor": ["a", 0]}, WELL_FORMED),
    ("worldline", {"anchor": [NAN, 0.0]}, WELL_FORMED),
    ("worldline", {"anchor": [0.0, -INF]}, WELL_FORMED),
    ("worldline", {"anchor": [10**400, 0.0]}, WELL_FORMED),
    ("worldline", {"final_v": [NAN]}, ["velocity-dimension"]),
    ("worldline", {"final_v": [INF]}, ["velocity-dimension"]),
    ("worldline", {"segments": [{"dtau": 1.0, "v": [NAN]}]}, ["velocity-dimension"]),
    ("worldline", {"segments": [{"dtau": NAN, "v": [0.0]}]}, ["positive-duration"]),
    ("worldline", {"segments": [{"dtau": INF, "v": [0.0]}]}, ["positive-duration"]),
    ("tau", NAN, ["real-proper-time"]),
    ("tau", INF, ["real-proper-time"]),
    ("tau", 10**400, ["real-proper-time"]),
    ("tau", True, ["real-proper-time"]),
    ("spacetime", {"d": True}, ["dimension-range"]),
    ("subsystem", {"dim": True}, ["dimension-range"]),
    ("measure", {"projective_basis": "pauli_z", "outcome": True}, ["outcome-range"]),
    ("initial_state", {"ket": [0, True, [False, 0], 0]}, WELL_FORMED),
    ("initial_state", {"matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, False]]},
     WELL_FORMED),
    ("unitary", [[True, 0], [0, True]], WELL_FORMED),
    ("measure", {"kraus": [[[True, 0], [0, 0]], [[0, 0], [0, 1]]], "outcome": 0}, WELL_FORMED),
    ("worldline", {"anchor": [False, True]}, WELL_FORMED),
    ("worldline", {"segments": [{"dtau": True, "v": [0.0]}]}, ["positive-duration"]),
    ("worldline", {"segments": [{"dtau": 1.0, "v": [False]}]}, ["velocity-dimension"]),
    ("worldline", {"final_v": [False]}, ["velocity-dimension"]),
)


def _malformed_doc(where, value):
    doc = _doc()
    if where == "initial_state":
        doc["initial_state"] = value
    elif where == "measure":
        doc["interventions"][0]["measure"] = value
    elif where == "unitary":
        doc["interventions"][0] = {"on": "A", "tau": 1.0, "unitary": value}
    elif where == "worldline":
        doc["subsystems"][0]["worldline"].update(value)
    elif where == "subsystem":
        doc["subsystems"][0].update(value)
    elif where == "tau":
        doc["interventions"][0]["tau"] = value
    else:
        doc[where] = value
    return doc


@pytest.mark.parametrize("where,value,invariants", MALFORMED,
                         ids=[f"{case[0]}-value{i}" for i, case in enumerate(MALFORMED)])
def test_malformed_matrix_gets_a_diagnostic(where, value, invariants, tmp_path, capsys):
    doc = _malformed_doc(where, value)
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert [d.invariant for d in err.value.diagnostics] == invariants
    path = tmp_path / "malformed.scn"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [d["invariant"] for d in out["diagnostics"]] == invariants


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


@pytest.mark.parametrize("basis,reason", [
    ("pauli_n(1e400,0)", "not finite"),
    ("pauli_n(inf,0)", "not a decimal number"),
    ("pauli_n(nan, 0)", "not a decimal number"),
    ("pauli_n(1_0,0)", "not a decimal number"),
    ("pauli_n(١,0)", "not a decimal number"),
    ("pauli_n(0x1,0)", "not a decimal number"),
    ("pauli_n(,0)", "not a decimal number"),
    ("pauli_n(1)", "needs two angles"),
    ("pauli_n(1,2,3)", "needs two angles"),
])
def test_bad_pauli_n_angles_get_one_diagnostic(basis, reason):
    """Every angle that is not a finite decimal number gets the same one
    diagnostic, which names the angle; a name of another form is an
    unknown basis."""
    doc = _doc()
    doc["interventions"][0]["measure"]["projective_basis"] = basis
    diags = diagnose_document(json.dumps(doc))
    assert [(d.field, d.invariant) for d in diags] == [
        ("interventions[0].measure", "well-formed-entries")]
    assert reason in diags[0].message
    doc["interventions"][0]["measure"]["projective_basis"] = basis.replace("pauli_n", "pauli_q")
    assert [d.invariant for d in diagnose_document(json.dumps(doc))] == ["known-name"]


def test_pauli_n_angles_take_signs_points_exponents_and_spaces():
    for basis, angles in (("pauli_n(0.7853981633974483, 0.0)", (0.7853981633974483, 0.0)),
                          ("pauli_n( +.5 , 1e-3 )", (0.5, 0.001)),
                          ("pauli_n(-2.,1E+0)", (-2.0, 1.0)),
                          ("pauli_n(1e-400,0)", (0.0, 0.0))):
        assert axis_angles(basis) == angles
        want = linalg.spin_basis(*angles)
        assert all(np.array_equal(a, b) for a, b in zip(named_basis(basis), want))
    assert axis_angles("pauli_x") is None and axis_angles("sigma_n(1,0)") is None
    assert axis_angles("sigma_n(1,0)", heads=("pauli_n", "sigma_n")) == (1.0, 0.0)


def test_read_number_has_one_ascii_grammar_for_decimals_and_integers():
    """Decimals take a sign, a point and an exponent, integers only a
    sign; both allow spaces around them and nothing else."""
    assert read_number(" +.5e1 ") == 5.0 and read_number("-2.") == -2.0
    assert read_number(" 7 ", int) == 7 and read_number("-12", int) == -12
    for raw, kind in (("+-5", int), ("5.0", int), ("1e3", int), ("1_0", int), ("\u0663", int),
                      ("+-5", float), ("0x1", float), ("inf", float), ("", float)):
        with pytest.raises(ValueError, match="is not a decimal number"):
            read_number(raw, kind)
    with pytest.raises(ValueError, match="'1e999' is not finite"):
        read_number("1e999")


@pytest.mark.parametrize("name,want", [
    ("pauli_x", linalg.SIGMA_X), ("pauli_y", linalg.SIGMA_Y), ("pauli_z", linalg.SIGMA_Z),
    ("hadamard", linalg.HADAMARD), ("identity", linalg.ID2),
])
def test_named_unitaries_keep_their_matrices(name, want):
    doc = _doc()
    doc["interventions"][0] = {"on": "A", "tau": 1.0, "unitary": name}
    assert np.array_equal(parse_scenario(json.dumps(doc)).interventions[0].op.matrix, want)


def test_named_operators_that_are_not_unitary_are_refused_as_unitaries():
    """The file's unitaries and the CLI's observables share one catalog,
    so `charge` is a known name, but it is not unitary: once an unknown
    name, it is now refused by the unitarity check."""
    doc = _doc()
    doc["interventions"][0] = {"on": "A", "tau": 1.0, "unitary": "charge"}
    assert [(d.field, d.invariant) for d in diagnose_document(json.dumps(doc))] == [
        ("interventions[0].unitary", "unitary-invariant")]
    doc["interventions"][0]["unitary"] = "sigma_x"
    assert [d.invariant for d in diagnose_document(json.dumps(doc))] == ["known-name"]


def _clear_catalog():
    for entry in (scenario._catalog_basis, scenario._catalog_state):
        entry.cache_clear()


def _counting_projector(monkeypatch) -> list:
    """Patch `linalg.projector` to record each call; the list of calls."""
    calls, projector = [], linalg.projector

    def counted(ket):
        calls.append(ket)
        return projector(ket)

    monkeypatch.setattr(linalg, "projector", counted)
    return calls


def _readouts_doc():
    doc = _doc()
    for k, (on, basis) in enumerate((("B", "pauli_x"), ("A", "pauli_y"))):
        doc["interventions"].append({"on": on, "tau": 2.0 + k,
                                     "measure": {"projective_basis": basis, "outcome": 1}})
    return json.dumps(doc)


def test_named_readouts_and_state_share_read_only_catalog_arrays(monkeypatch):
    """Two parses of one document hold the same projectors for each named
    readout and for the named state, formed by the first parse alone; no
    write to them goes through."""
    _clear_catalog()
    text = _readouts_doc()
    first = parse_scenario(text)
    calls = _counting_projector(monkeypatch)
    second = parse_scenario(text)
    assert calls == []
    pairs = [(first.initial_state, second.initial_state)]
    pairs += [(a, b) for u, v in zip(first.interventions, second.interventions)
              for a, b in zip(u.op.kraus, v.op.kraus)]
    assert len(pairs) == 7
    for a, b in pairs:
        assert a is b and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2.0
    assert np.array_equal(first.initial_state, linalg.projector(linalg.BELL_PSI_PLUS))
    want = (linalg.projector(linalg.KET_MINUS), linalg.projector(linalg.spin_basis(math.pi / 2,
                                                                                   math.pi / 2)[1]))
    assert all(np.array_equal(iv.op.kraus[1], p) for iv, p in zip(first.interventions[1:], want))


def test_pauli_n_readouts_get_fresh_projectors_on_every_parse(monkeypatch):
    doc = _doc()
    doc["interventions"][0]["measure"]["projective_basis"] = "pauli_n(0.3, 1.1)"
    first = parse_scenario(json.dumps(doc))
    calls = _counting_projector(monkeypatch)
    second = parse_scenario(json.dumps(doc))
    assert len(calls) == 2
    for a, b in zip(first.interventions[0].op.kraus, second.interventions[0].op.kraus):
        assert a is not b and np.array_equal(a, b)


def _charge_unitary(doc):
    doc["interventions"][0] = {"on": "A", "tau": 1.0, "unitary": "charge"}


def _qutrit(doc):
    doc["subsystems"][0]["dim"] = 3


def _incomplete_basis(doc):
    doc["interventions"][0]["measure"]["projective_basis"] = [[1.0, 0.0], [0.6, 0.8]]


def _unknown_basis(doc):
    doc["interventions"][0]["measure"]["projective_basis"] = "pauli_w"


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("breaks,want", [
    (_charge_unitary, [("interventions[0].unitary", "unitary-invariant")]),
    (_qutrit, [("initial_state", "dimension-mismatch"),
               ("interventions[0].measure[0]", "operator-dimension")]),
    (_incomplete_basis, [("interventions[0].measure", "kraus-incomplete")]),
    (_unknown_basis, [("interventions[0].measure.projective_basis", "known-name")]),
])
def test_catalog_hides_no_diagnostic(breaks, want, warm):
    """A document that misuses a catalog name, or breaks what a catalog
    entry would check, gets its diagnostics whether the catalog was formed
    before or not."""
    _clear_catalog()
    if warm:
        parse_scenario(_readouts_doc())
        diagnose_document(json.dumps({**_doc(), "interventions": [
            {"on": "A", "tau": 1.0, "unitary": name} for name in scenario.NAMED_OPERATORS]}))
    doc = _doc()
    breaks(doc)
    assert [(d.field, d.invariant) for d in diagnose_document(json.dumps(doc))] == want
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


@hs.composite
def broken_scenarios(draw):
    """A drawn scenario, as it is or with one field broken: a value that is
    not finite, a non-unitary or non-density matrix, an outcome or label
    list of the wrong size, a repeated proper time, a dimension out of
    range or a superluminal velocity."""
    s = draw(scenarios())
    ivs = list(s.interventions)
    bad = draw(hs.sampled_from([None, "tau", "scale", "chosen", "labels", "repeat",
                                "state", "dim", "spatial_dim", "velocity"]))
    if bad in ("tau", "scale", "chosen", "labels", "repeat") and not ivs:
        bad = "state"
    number = draw(hs.sampled_from([math.nan, math.inf, -math.inf, 0.5, -2.0]))
    k = draw(hs.integers(min_value=0, max_value=max(len(ivs) - 1, 0)))
    if bad == "tau":
        ivs[k] = replace(ivs[k], tau=draw(hs.sampled_from([math.nan, math.inf, -math.inf])))
    elif bad in ("scale", "chosen", "labels"):
        op = ivs[k].op
        if isinstance(op, UnitaryOp):
            with np.errstate(invalid="ignore"):
                op = UnitaryOp(matrix=op.matrix * number)
        elif bad == "chosen":
            op = replace(op, chosen=draw(hs.sampled_from([-1, 2, 5, True])))
        elif bad == "labels":
            op = replace(op, labels=op.labels[:draw(hs.integers(min_value=0, max_value=1))])
        else:
            with np.errstate(invalid="ignore"):
                op = replace(op, kraus=(op.kraus[0] * number, op.kraus[1]))
        ivs[k] = replace(ivs[k], op=op)
    elif bad == "repeat":
        ivs.append(ivs[k])
    elif bad == "state":
        with np.errstate(invalid="ignore"):
            s = replace(s, initial_state=s.initial_state * number)
    elif bad == "dim":
        s = replace(s, dims=(2, draw(hs.integers(min_value=1, max_value=3))))
    elif bad == "spatial_dim":
        s = replace(s, spatial_dim=draw(hs.integers(min_value=0, max_value=4)))
    elif bad == "velocity":
        # `Worldline` refuses a superluminal final velocity, so it is set
        # on a copy after construction
        w = copy.copy(s.worldlines[0])
        w.final_velocity = np.array([draw(hs.sampled_from([1.0, -1.5, math.nan, math.inf]))])
        s = replace(s, worldlines=(w, s.worldlines[1]))
    return replace(s, interventions=tuple(ivs))


@SUITE
@given(s=broken_scenarios())
def test_validate_matches_the_json_text_round_trip_on_drawn_scenarios(s):
    """`validate` reads `serialize_scenario`'s document as a dict; its
    diagnostics, field, invariant and message, are those of the round trip
    through JSON text."""
    assert validate(s) == reference_validate(s)
