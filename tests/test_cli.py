import csv
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from polystate import linalg

from helpers import FIXTURES, fixture_text, load_fixture

BELL = str(FIXTURES / "bell_sigma_z.scn")
EPR = str(FIXTURES / "epr_test.scn")
DEMO = str(FIXTURES / "foliation_demo.scn")


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "polystate", *args],
                          capture_output=True, text=True, env=env)


def as_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def test_eval_all_sectors_json():
    res = run_cli("eval", BELL, "--tau", "A=2.0,B=1.5")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == "eval"
    assert set(doc["sectors"]) == {"A", "B", "AB"}
    a = as_matrix(doc["sectors"]["A"])
    ab = as_matrix(doc["sectors"]["AB"])
    assert np.allclose(a, np.diag([1.0, 0.0]), atol=1e-12)
    want = np.zeros((4, 4)); want[1, 1] = 1.0
    assert np.allclose(ab, want, atol=1e-12)


def test_eval_single_sector_and_observable():
    res = run_cli("eval", BELL, "--tau", "A=2.0,B=1.5", "--sector", "AB",
                  "--observable", "sigma_z,sigma_z")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert set(doc["sectors"]) == {"AB"}
    assert abs(doc["expectations"]["AB"]["value"] + 1.0) < 1e-12


def test_eval_sector_comma_form_matches_concatenated():
    a = run_cli("eval", BELL, "--tau", "A=0.0,B=0.0", "--sector", "AB")
    b = run_cli("eval", BELL, "--tau", "A=0.0,B=0.0", "--sector", "A,B")
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["sectors"] == json.loads(b.stdout)["sectors"]


def test_eval_output_is_deterministic():
    a = run_cli("eval", EPR, "--tau", "A=2.0,B=2.0")
    b = run_cli("eval", EPR, "--tau", "A=2.0,B=2.0")
    assert a.stdout == b.stdout


def test_usage_errors_exit_one(tmp_path):
    bad_json = tmp_path / "bad_json.json"
    bad_json.write_text('{"rows": ')
    non_numeric = tmp_path / "non_numeric.json"
    non_numeric.write_text('[[1, "x"], [0, 1]]')
    non_finite = tmp_path / "non_finite.json"
    non_finite.write_text("[[NaN, 0], [0, 1]]")
    no_selectives = tmp_path / "no_selectives.scn"
    no_selectives.write_text(json.dumps({**json.loads(fixture_text("bell_sigma_z.scn")),
                                         "interventions": []}))
    not_utf8 = tmp_path / "not_utf8.scn"
    not_utf8.write_bytes(b"\xff")
    for args in (
        ("validate", str(not_utf8)),
        ("eval", str(not_utf8), "--tau", "A=1.0,B=2.0"),
        ("eval", BELL),  # missing --tau
        ("eval", BELL, "--tau", "A=1.0"),  # missing B
        ("eval", BELL, "--tau", "A=1,A=2,B=0"),  # A twice
        ("eval", BELL, "--tau", "A=1.0,B=2.0", "--sector", "AC"),
        ("eval", "/nonexistent.scn", "--tau", "A=1.0,B=2.0"),
        ("nonsense",),
        (),
        ("eval", BELL, "--tau", "A=nan,B=1.0"),
        ("eval", BELL, "--tau", "A=inf,B=1.0"),
        ("sweep", BELL, "--t-range=0:nan:3"),
        ("audit", BELL, "--tau", "A=1.0,B=1.0", "--grid=-inf:1:3"),
        ("sweep", BELL, "--t-range=0:1:3", "--foliation", "v=nan"),
        ("diagram", BELL, "--tau-range", "0:1:2"),
        ("diagram", BELL, "--tau-range", "early:late"),
        ("diagram", BELL, "--tau-range", "0:nan"),
        ("diagram", BELL, "--tau-range=3:1"),
        ("diagram", BELL, "--leaf", "0.5:inf"),
        ("eval", BELL, "--tau", "A=1.0,B=1.0", "--sector", "A", "--observable", "pauli_n(nan,0)"),
        *(("eval", BELL, "--tau", "A=1.0,B=1.0", "--sector", "A", "--observable", str(path))
          for path in (bad_json, non_numeric, non_finite)),
        ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "10", "--seed", "-1"),
        ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "10", "--seed", str(2**64)),
        # too large to allocate; refused before anything is allocated
        ("sweep", BELL, "--t-range=0:1:100000000000000000000"),
        ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "1000000000000000"),
        ("ensemble", str(no_selectives), "--tau", "A=1.0,B=1.0", "--n", "1000000000000000"),
    ):
        res = run_cli(*args)
        assert res.returncode == 1, (args, res.returncode, res.stderr)
        assert "Traceback" not in res.stderr, (args, res.stderr)
        assert res.stdout == "" or "schema_version" not in res.stdout


def test_impossible_outcome_exits_two(tmp_path):
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["initial_state"] = {"ket": [1.0, 0.0, 0.0, 0.0]}
    doc["interventions"][0]["measure"]["outcome"] = 1
    path = tmp_path / "impossible.scn"
    path.write_text(json.dumps(doc))
    res = run_cli("eval", str(path), "--tau", "A=2.0,B=0.0")
    assert res.returncode == 2
    assert "cannot occur" in res.stderr


def test_validate_clean_and_dirty(tmp_path):
    res = run_cli("validate", BELL)
    assert res.returncode == 0
    assert json.loads(res.stdout)["diagnostics"] == []

    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["subsystems"][0]["worldline"]["segments"] = [{"dtau": 1.0, "v": [1.5]}]
    doc["interventions"][0]["measure"]["outcome"] = 9
    path = tmp_path / "dirty.scn"
    path.write_text(json.dumps(doc))
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    invariants = {d["invariant"] for d in json.loads(res.stdout)["diagnostics"]}
    assert "non-timelike-worldline" in invariants
    assert "outcome-range" in invariants


def test_validate_reports_json_syntax_location(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text('{"spacetime": {"d": 1},\n  oops')
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    diags = json.loads(res.stdout)["diagnostics"]
    assert diags[0]["invariant"] == "json-syntax"
    assert "line 2" in diags[0]["message"]


def test_sweep_csv_columns_and_values():
    res = run_cli("sweep", DEMO, "--t-range=-1:4:6", "--foliation", "v=0.5",
                  "--ref", "++", "--ref", "01", "--ref", "0+")
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert list(rows[0]) == ["t", "tau_A", "tau_B", "fid_++", "fid_01", "fid_0+",
                             "charge_joint", "charge_sum"]
    assert abs(float(rows[1]["fid_++"]) - 1.0) < 1e-9   # t=0: only B applied
    assert abs(float(rows[5]["fid_0+"]) - 1.0) < 1e-9   # late leaf: both applied
    assert abs(float(rows[0]["charge_joint"]) + 1.0) < 1e-9


def test_sweep_sources_differ_between_crossings():
    flc = run_cli("sweep", BELL, "--t-range", "2:2:1", "--source", "future_lightcone")
    pol = run_cli("sweep", BELL, "--t-range", "2:2:1", "--source", "polystate")
    assert flc.returncode == pol.returncode == 0
    row_flc = list(csv.DictReader(io.StringIO(flc.stdout)))[0]
    row_pol = list(csv.DictReader(io.StringIO(pol.stdout)))[0]
    assert abs(float(row_flc["charge_joint"]) + 0.5) < 1e-9
    assert abs(float(row_pol["charge_joint"]) + 1.0) < 1e-9


def _extended_bell(tmp_path, name, dim_b=2, third=False):
    """bell_sigma_z.scn with B made a qudit or a third qubit C added, in a
    pure state of the new joint dimension."""
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["subsystems"][1]["dim"] = dim_b
    if third:
        doc["subsystems"].append({
            "name": "C", "dim": 2,
            "worldline": {"anchor": [0.0, 5.0], "segments": [], "final_v": [0.0]}})
    total = 2 * dim_b * (2 if third else 1)
    doc["initial_state"] = {"ket": [1.0] + [0.0] * (total - 1)}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_refuses_before_the_header(tmp_path):
    """A sweep needs qubits and reference kets of the joint dimension; it
    says so before it writes anything."""
    qutrit = _extended_bell(tmp_path, "qutrit.scn", dim_b=3)
    three = _extended_bell(tmp_path, "three.scn", third=True)
    for args, message in (
        ((qutrit, "--t-range=0:2:3"), "sweep needs qubit subsystems"),
        ((qutrit, "--t-range=0:2:3", "--ref", "01"), "sweep needs qubit subsystems"),
        ((three, "--t-range=0:2:3"), "'bell_psi_plus' has dimension 4, the joint dimension is 8"),
        ((BELL, "--t-range=0:2:3", "--ref", "010"), "'010' has dimension 8, the joint dimension is 4"),
        ((BELL, "--t-range=0:2:3", "--ref", ""), "unknown reference state ''"),
    ):
        res = run_cli("sweep", *args)
        assert res.returncode == 1, (args, res.stderr)
        assert res.stdout == "", args
        assert message in res.stderr, (args, res.stderr)
    res = run_cli("sweep", three, "--t-range=0:2:3", "--ref", "010")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == ("t,tau_A,tau_B,tau_C,fid_010,charge_joint,charge_sum")


def test_audit_bipartite_json():
    res = run_cli("audit", BELL, "--tau", "A=2.0,B=1.5", "--grid=-2:4:7")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    rows = {r["prescription"]: r for r in doc["criteria"]["rows"]}
    assert rows["polystate"]["all_ok"] is True
    assert all(not rows[k]["all_ok"] for k in rows if k != "polystate")
    # in `audit.default_prescriptions` order, the order of the criteria rows
    assert list(doc["charge_ledgers"]) == ["polystate", "future_lightcone",
                                           "past_lightcone", "foliation"]
    assert [r["prescription"] for r in doc["criteria"]["rows"]] == list(doc["charge_ledgers"])
    assert all(abs(q + 1.0) < 1e-9 for q in doc["charge_ledgers"]["polystate"]["q_joint"])


def test_audit_three_party_still_emits_polystate(tmp_path):
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["subsystems"].append({
        "name": "C", "dim": 2,
        "worldline": {"anchor": [0.0, 5.0], "segments": [], "final_v": [0.0]}})
    bell = np.zeros((4, 4)); bell[1, 1] = bell[1, 2] = bell[2, 1] = bell[2, 2] = 0.5
    state = np.kron(bell, np.eye(2) / 2)
    doc["initial_state"] = {"matrix": [[[v, 0.0] for v in row] for row in state]}
    path = tmp_path / "tri.scn"
    path.write_text(json.dumps(doc))
    res = run_cli("audit", str(path), "--grid=0:4:3")
    assert res.returncode == 1
    assert "bipartite-only" in res.stderr
    doc_out = json.loads(res.stdout)
    assert "criteria" not in doc_out
    assert set(doc_out["charge_ledgers"]) == {"polystate"}


def test_ensemble_json_is_seed_deterministic():
    a = run_cli("ensemble", EPR, "--n", "400", "--seed", "9", "--tau", "A=2.0,B=2.0")
    b = run_cli("ensemble", EPR, "--n", "400", "--seed", "9", "--tau", "A=2.0,B=2.0")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert sum(br["frequency"] for br in doc["branches"]) == 400
    assert abs(sum(br["probability"] for br in doc["branches"]) - 1.0) < 1e-12
    assert doc["max_analytic_distance"] < 1e-12
    c = run_cli("ensemble", EPR, "--n", "400", "--seed", "10", "--tau", "A=2.0,B=2.0")
    assert c.stdout != a.stdout


def test_ensemble_lists_the_one_branch_of_a_scenario_without_selectives(tmp_path):
    path = tmp_path / "no_selectives.scn"
    path.write_text(json.dumps({**json.loads(fixture_text("bell_sigma_z.scn")),
                                "interventions": []}))
    res = run_cli("ensemble", str(path), "--n", "37", "--tau", "A=1.0,B=1.0")
    assert res.returncode == 0, res.stderr
    [branch] = json.loads(res.stdout)["branches"]
    assert branch["outcomes"] == branch["labels"] == []
    assert branch["frequency"] == 37
    assert abs(branch["probability"] - 1.0) < 1e-12


def test_ensemble_lists_branches_in_code_order_with_their_labels(tmp_path):
    """B, a qutrit, is read in three outcomes before A is read in two, so the
    first selective is B's; a branch (b, a) has weight (1 + 3a + b) / 21
    because the initial ket's amplitude on |a b> is sqrt((1 + 3a + b) / 21)."""
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["subsystems"][1]["dim"] = 3
    doc["initial_state"] = {"ket": [np.sqrt((1 + i) / 21) for i in range(6)]}
    doc["interventions"] = [
        {"on": "B", "tau": 1.0,
         "measure": {"kraus": [np.diag(np.eye(3)[b]).tolist() for b in range(3)],
                     "outcome": 2, "labels": ["u", "v", "w"]}},
        {"on": "A", "tau": 2.0,
         "measure": {"projective_basis": "pauli_z", "outcome": 1, "labels": ["up", "down"]}},
    ]
    path = tmp_path / "qutrit_readouts.scn"
    path.write_text(json.dumps(doc))
    res = run_cli("ensemble", str(path), "--n", "500", "--tau", "A=3.0,B=3.0")
    assert res.returncode == 0, res.stderr
    branches = json.loads(res.stdout)["branches"]
    assert [br["outcomes"] for br in branches] == [[b, a] for b in range(3) for a in range(2)]
    for br in branches:
        b, a = br["outcomes"]
        assert br["labels"] == [["u", "v", "w"][b], ["up", "down"][a]]
        assert abs(br["probability"] - (1 + 3 * a + b) / 21) < 1e-12
    assert abs(sum(br["probability"] for br in branches) - 1.0) < 1e-12
    assert sum(br["frequency"] for br in branches) == 500


def test_diagram_geometry():
    res = run_cli("diagram", BELL, "--leaf", "0.5:1.2")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert {w["name"] for w in doc["worldlines"]} == {"A", "B"}
    cross = doc["crossings"][0]
    assert abs(cross["tau_minus"] + 1.0) < 1e-9
    assert abs(cross["tau_plus"] - 3.0) < 1e-9
    assert doc["interventions"][0]["event"] == [1.0, 0.0]
    assert len(doc["lightcones"][0]["rays"]) == 4
    assert doc["leaves"][0]["v"] == 0.5


def test_diagram_cuts_worldlines_at_the_time_window(tmp_path):
    """A moving worldline anchored off t = 0 is drawn between its crossings
    of the window's bounds, not between those proper times."""
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["subsystems"][1]["worldline"] = {
        "anchor": [3.0, 2.0], "segments": [{"dtau": 1.0, "v": [-0.5]}], "final_v": [0.6]}
    path = tmp_path / "moving.scn"
    path.write_text(json.dumps(doc))
    for args in ((), ("--tau-range=-1:4.5",)):
        res = run_cli("diagram", str(path), *args)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        t_lo, t_hi = out["t_range"]
        x_lo, x_hi = out["x_range"]
        for line in out["worldlines"]:
            ts = [v[0] for v in line["vertices"]]
            assert ts == sorted(ts)
            assert all(t_lo <= t <= t_hi for t in ts), (line, out["t_range"])
            assert abs(ts[0] - t_lo) < 1e-9 and abs(ts[-1] - t_hi) < 1e-9
            assert all(x_lo <= v[1] <= x_hi for v in line["vertices"])
        # B's anchor and the end of its one segment are vertices
        b = out["worldlines"][1]["vertices"]
        assert [3.0, 2.0] in b and len(b) == 4


def test_diagram_rejects_higher_dimensions(tmp_path):
    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["spacetime"]["d"] = 2
    for sub in doc["subsystems"]:
        sub["worldline"]["anchor"].append(0.0)
        sub["worldline"]["final_v"].append(0.0)
    path = tmp_path / "planar.scn"
    path.write_text(json.dumps(doc))
    res = run_cli("diagram", str(path))
    assert res.returncode == 1
    assert "d=1" in res.stderr


def test_dimension_cap_env(tmp_path):
    import os
    env = dict(os.environ, POLYSTATE_MAX_DIM="2")
    res = run_cli("eval", BELL, "--tau", "A=0.0,B=0.0", env=env)
    assert res.returncode == 1
    assert "dimension" in (res.stderr + res.stdout).lower()
    # a cap that is not a positive integer is an error line, not a traceback
    for value in ("abc", "1.5", "", "0", "-4"):
        env = dict(os.environ, POLYSTATE_MAX_DIM=value)
        for args in (("eval", BELL, "--tau", "A=0.0,B=0.0"), ("validate", BELL)):
            res = run_cli(*args, env=env)
            assert res.returncode == 1, (value, args, res.stderr)
            assert res.stderr.startswith("error: POLYSTATE_MAX_DIM"), (value, res.stderr)


def test_all_sector_eval_honours_the_subsystem_cap(tmp_path, monkeypatch, capsys):
    """Without --sector, eval asks `engine.polystate_at` for every sector,
    so a scenario over `MAX_SUBSYSTEMS` is refused with an error line that
    names the cap and the way round it; one sector still evaluates."""
    from polystate import cli, engine

    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["subsystems"].append({
        "name": "C", "dim": 2,
        "worldline": {"anchor": [0.0, 4.0], "segments": [], "final_v": [0.0]}})
    doc["initial_state"] = {"ket": [1.0] + [0.0] * 7}
    path = tmp_path / "three.scn"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(engine, "MAX_SUBSYSTEMS", 2)
    taus = "A=2.0,B=1.5,C=0.5"
    assert cli.main(["eval", str(path), "--tau", taus]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: 3 subsystems would need 7 sectors; cap is 2")
    assert "--sector" in out.err
    assert cli.main(["eval", str(path), "--tau", taus, "--sector", "AC"]) == 0
    assert set(json.loads(capsys.readouterr().out)["sectors"]) == {"AC"}


def test_ensemble_honours_the_subsystem_cap(monkeypatch, capsys):
    """`polystate ensemble` compares every sector with the engine's, read
    from one `engine.polystate_at`, so a scenario over `MAX_SUBSYSTEMS` is
    a usage error: exit 1, nothing on stdout and one error line naming the
    cap, given before any run is sampled."""
    from polystate import cli, engine, ensemble

    monkeypatch.setattr(engine, "MAX_SUBSYSTEMS", 1)
    with mock.patch.object(ensemble, "sample_runs", wraps=ensemble.sample_runs) as sample_runs:
        assert cli.main(["ensemble", DEMO, "--n", "100", "--tau", "A=0.5,B=1.5"]) == 1
    assert sample_runs.call_count == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 2 subsystems would need 3 sectors; cap is 1\n"


def test_ensemble_refuses_with_the_engines_cap_message(monkeypatch, capsys):
    """The CLI's refusal and `engine.polystate_at`'s come from one engine
    check, so the error line is the engine's message, word for word."""
    from polystate import cli, engine

    monkeypatch.setattr(engine, "MAX_SUBSYSTEMS", 1)
    with pytest.raises(ValueError) as refused:
        engine.polystate_at(load_fixture("foliation_demo.scn"), (0.5, 1.5))
    assert cli.main(["ensemble", DEMO, "--n", "100", "--tau", "A=0.5,B=1.5"]) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def test_eval_writes_a_negative_zero_entry_as_zero(tmp_path, capsys):
    """Sector matrices go out through the scenario document's one matrix
    writer (`scenario._matrix_to_json`), which writes -0.0 as 0.0. This
    input's sectors at (0.5, 0.5) hold a -0.0 entry, which the CLI once
    wrote as it was."""
    from polystate import cli, engine
    from polystate.scenario import parse_scenario

    doc = json.loads(fixture_text("bell_sigma_z.scn"))
    doc["initial_state"] = {"ket": [[1.0, -0.0], [-0.0, -0.0], 0.0, 0.0]}
    path = tmp_path / "negative_zero.scn"
    path.write_text(json.dumps(doc))
    sectors = engine.polystate_at(parse_scenario(json.dumps(doc)), (0.5, 0.5)).sectors
    parts = np.concatenate([np.asarray(m).view(float).ravel() for m in sectors.values()])
    assert np.any((parts == 0) & np.signbit(parts))
    assert cli.main(["eval", str(path), "--tau", "A=0.5,B=0.5"]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    written = json.loads(out)["sectors"]
    for subset, name in (((0,), "A"), ((1,), "B"), ((0, 1), "AB")):
        assert np.array_equal(as_matrix(written[name]), sectors[subset])


OBSERVABLES = (
    ("sigma_x", "A", linalg.SIGMA_X),
    ("sigma_y", "A", linalg.SIGMA_Y),
    ("sigma_z", "A", linalg.SIGMA_Z),
    ("identity", "A", linalg.ID2),
    ("charge", "A", linalg.CHARGE),
    ("charge_total", "AB", linalg.total_charge(2)),
    ("pauli_n(0.5,0.25)", "A", linalg.sigma_n(0.5, 0.25)),
    ("sigma_n(0.5,0.25)", "A", linalg.sigma_n(0.5, 0.25)),
    ("sigma_z,charge", "AB", linalg.kron(linalg.SIGMA_Z, linalg.CHARGE)),
    # newly accepted: the catalog's names, which a scenario file reads too
    ("pauli_x", "A", linalg.SIGMA_X),
    ("pauli_y", "A", linalg.SIGMA_Y),
    ("pauli_z", "A", linalg.SIGMA_Z),
    ("hadamard", "A", linalg.HADAMARD),
)


@pytest.mark.parametrize("spec,sector,want", OBSERVABLES, ids=[o[0] for o in OBSERVABLES])
def test_observable_names_keep_their_matrices(spec, sector, want, capsys):
    """Every observable name reads its matrix from `scenario.NAMED_OPERATORS`
    (sigma_x|y|z as pauli_x|y|z), or from `linalg` for charge_total and the
    axis names, and `eval` reports its expectation on the sector."""
    from polystate import cli, engine

    s = load_fixture("epr_test.scn")
    subset = cli._parse_subset(sector, s)
    obs = cli._parse_observable(spec, subset, s)
    assert np.array_equal(obs, want)
    args = ["eval", EPR, "--tau", "A=2.0,B=2.0", "--sector", sector, "--observable", spec]
    assert cli.main(args) == 0
    value = json.loads(capsys.readouterr().out)["expectations"][sector]["value"]
    assert value == linalg.expect(engine.sector(s, (2.0, 2.0), subset), obs)


@pytest.mark.parametrize("spec", ["sigma_hadamard", "pauli_charge", "sigma_w", "Sigma_x"])
def test_unknown_observable_names_are_usage_errors(spec, capsys):
    from polystate import cli

    args = ["eval", EPR, "--tau", "A=2.0,B=2.0", "--sector", "A", "--observable", spec]
    assert cli.main(args) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: unknown observable {spec!r}\n"


def test_observable_without_sector_is_refused_before_evaluating(capsys):
    from polystate import cli, engine

    with mock.patch.object(engine, "polystate_at") as polystate_at:
        assert cli.main(["eval", BELL, "--tau", "A=1.0,B=1.0", "--observable", "sigma_z"]) == 1
    polystate_at.assert_not_called()
    out = capsys.readouterr()
    assert out.out == ""
    assert "--observable needs --sector" in out.err


def test_stdout_carries_only_results():
    res = run_cli("eval", BELL, "--tau", "A=0.0,B=0.0")
    json.loads(res.stdout)  # a clean JSON document, nothing else
    assert res.stderr == ""


@pytest.mark.parametrize("args", [
    ("eval", EPR, "--tau", "A=2.0,B=1.5"),
    ("ensemble", DEMO, "--n", "50", "--tau", "A=0.5,B=1.5"),
], ids=["eval", "ensemble"])
def test_closed_stdout_exits_one_without_a_traceback(args):
    """A reader that has gone away, as `| head` does, is not an error worth
    a traceback: the command exits 1 and prints nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-m", "polystate", *args],
                             stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (1, "")


def test_main_calls_in_one_process_match_lone_runs(capsys):
    """One parser serves every `main` call of a process: repeated flags and
    defaults must not carry from one call to the next."""
    from polystate import cli

    calls = [
        ("diagram", BELL, "--leaf", "0.5:1.2", "--leaf", "0.0:2.0"),
        ("diagram", BELL),
        ("sweep", BELL, "--t-range=0:2:3", "--ref", "01", "--source", "polystate"),
        ("sweep", BELL, "--t-range=0:2:3"),
        ("eval", EPR, "--tau", "A=2.0,B=2.0", "--sector", "AB"),
        ("eval", EPR, "--tau", "A=2.0,B=2.0"),
        ("ensemble", DEMO, "--n", "50", "--seed", "3", "--tau", "A=0.5,B=1.5"),
        ("ensemble", DEMO, "--n", "50", "--tau", "A=0.5,B=1.5"),
        ("audit", BELL, "--tau", "A=2.0,B=3.5", "--grid", "0:3:4"),
        ("audit", BELL, "--tau", "A=2.0,B=3.5"),
        ("eval", BELL),
        ("nonsense",),
        ("validate", BELL),
    ]
    for args in calls:
        code = cli.main(list(args))
        out = capsys.readouterr().out
        # bytes, so that the CSV's \r\n line ends are compared as written
        alone = subprocess.run([sys.executable, "-m", "polystate", *args], capture_output=True)
        assert (code, out) == (alone.returncode, alone.stdout.decode()), args


@pytest.mark.parametrize("axis,reason", [
    ("pauli_n(1_0,0)", "not a decimal number"),
    ("pauli_n(١,0)", "not a decimal number"),
    ("pauli_n(inf,0)", "not a decimal number"),
    ("sigma_n(nan,0)", "not a decimal number"),
    ("pauli_n(1e400,0)", "not finite"),
    ("pauli_n(1,2,3)", "needs two angles"),
    ("sigma_n(0.5)", "needs two angles"),
])
def test_axis_observable_angles_follow_the_scenario_grammar(axis, reason, capsys):
    """The CLI reads `pauli_n` and `sigma_n` angles as the scenario file
    reads `pauli_n` bases: finite decimal numbers, else one usage error
    that names the angle."""
    from polystate import cli

    args = ["eval", BELL, "--tau", "A=1.0,B=1.0", "--sector", "A", "--observable"]
    assert cli.main([*args, axis]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad axis observable") and reason in out.err


def test_sigma_n_is_an_alias_of_pauli_n(capsys):
    from polystate import cli

    args = ["eval", EPR, "--tau", "A=2.0,B=2.0", "--sector", "AB", "--observable"]
    values = []
    for axis in ("pauli_n(0.5,0.25),sigma_z", "sigma_n( +.5 , 25e-2 ),sigma_z"):
        assert cli.main([*args, axis]) == 0
        values.append(json.loads(capsys.readouterr().out)["expectations"]["AB"]["value"])
    assert values[0] == values[1]


@pytest.mark.parametrize("args", [
    ("eval", BELL, "--tau", "A=1_0,B=1.0"),
    ("eval", BELL, "--tau", "A=1.0,B=\u0661"),
    ("eval", BELL, "--tau", "A=0x1,B=1.0"),
    ("sweep", BELL, "--t-range=0:1_0:3"),
    ("sweep", BELL, "--t-range=0:1:1_0"),
    ("sweep", BELL, "--t-range=0:1:\u0663"),
    ("sweep", BELL, "--t-range=0:1:3.0"),
    ("sweep", BELL, "--t-range=0:1:3", "--foliation", "v=0.1_0"),
    ("audit", BELL, "--tau", "A=1.0,B=1.0", "--grid=0:1:\u0663"),
    ("diagram", BELL, "--tau-range", "0:1_0"),
    ("diagram", BELL, "--leaf", "0.5:\u0661"),
    ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "1_0"),
    ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "\u0661\u0660"),
    ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "+-5"),
    ("ensemble", BELL, "--tau", "A=1.0,B=1.0", "--n", "10", "--seed", "1_0"),
])
def test_numbers_are_ascii_decimals(args, capsys):
    """Every number the CLI reads is a decimal in ASCII digits, in the
    grammar of the scenario file's angles, and every count and seed an
    integer in ASCII digits: underscores, other scripts' digits and hex are
    usage errors."""
    from polystate import cli

    assert cli.main(list(args)) == 1
    out = capsys.readouterr()
    assert out.out == "" and "error" in out.err
