"""`ensemble.compare_to_polystate` as one pass over the subsets: its report
against reading each subset on its own, float for float; its stacked
eigvalsh against one call per matrix, bit for bit; and its dense pushes,
counted: one per key, at most one held at a time, and the absolute value's
push, for the componentwise bound, at most once per key."""

import importlib
import json
import random
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from polystate import engine, ensemble, linalg
from polystate.errors import PolystateError
from polystate.scenario import parse_scenario

from helpers import load_fixture
from test_engine import measure, two_qubit_document
from test_kernel_properties import (FAINT_TILTS, SUITE, scenarios_of_rank,
                                    scenarios_with_blocked_branch)
from test_properties import tau_values
from test_sampling_properties import seeds64

BENCH = Path(__file__).resolve().parent.parent / "bench"

# a proper time after every drawn intervention, with all of them in the past
LATE = 50.0


def report_or_error(f, *args):
    """A report as (rows, max_empirical, max_analytic), each row (subset,
    empirical, analytic); a refusal as its type and message."""
    try:
        rows = f(*args)
    except PolystateError as exc:
        return type(exc), str(exc)
    return rows, max(r[1] for r in rows), max(r[2] for r in rows)


def one_pass(log, s, taus):
    report = ensemble.compare_to_polystate(log, s, taus)
    rows = [(r.subset, r.empirical_distance, r.analytic_distance) for r in report.rows]
    assert (report.max_empirical, report.max_analytic) == (
        max(r[1] for r in rows), max(r[2] for r in rows))
    return rows


def per_subset(log, s, taus):
    """Each subset read on its own, in the engine's order: the empirical
    sector, then the analytic one, each set against the engine's sector
    with `linalg.trace_distance`."""
    rows = []
    for subset, eng in engine.polystate_at(s, taus).sectors.items():
        emp = ensemble.empirical_sector(log, s, subset, taus)
        ana = ensemble.analytic_sector(s, subset, taus)
        rows.append((subset, linalg.trace_distance(emp, eng), linalg.trace_distance(ana, eng)))
    return rows


@SUITE
@given(s=scenarios_with_blocked_branch(base=scenarios_of_rank(), tilts=FAINT_TILTS),
       taus=hs.lists(hs.one_of(tau_values, hs.just(LATE)), min_size=4, max_size=4),
       n_runs=hs.integers(min_value=1, max_value=300), seed=seeds64,
       budget=hs.sampled_from([1, ensemble._EIGVALSH_BYTES]))
def test_one_pass_report_equals_per_subset_reads(s, taus, n_runs, seed, budget):
    """On 2 to 4 subsystems of dimension 2 or 3, initial states of rank 1,
    2 and D, readouts blocked or faint, proper times before and after the
    interventions, and seeded logs of 1 to 300 runs: the report equals the
    per-subset reads as floats, or both raise the same refusal. A budget
    of one byte reads every distance on its own, the default stacks them."""
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    log = ensemble.sample_runs(s, n_runs, seed)
    want = report_or_error(per_subset, log, s, taus)
    with mock.patch.object(ensemble, "_EIGVALSH_BYTES", budget):
        assert report_or_error(one_pass, log, s, taus) == want


def test_stacked_eigvalsh_equals_one_call_per_matrix():
    """Stacks of Hermitian matrices of the sizes sectors take, read by one
    eigvalsh, give each matrix's spectrum bit for bit as a call on it alone;
    `_TraceDistances`, fed pairs of mixed sizes in a shuffled order, gives
    `linalg.trace_distance` of each pair with any budget."""
    rng = np.random.default_rng(21)
    pairs = []
    for d in (1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 32, 64):
        g = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
        stack = (g + g.conj().swapaxes(-1, -2)) / 2
        whole = np.linalg.eigvalsh(stack)
        for m, w in zip(stack, whole):
            assert w.tobytes() == np.linalg.eigvalsh(m).tobytes()
        pairs += [(g[i], g[i + 1]) for i in range(0, 6, 2)]
    rng.shuffle(pairs)
    want = [linalg.trace_distance(a, b) for a, b in pairs]
    for budget in (1, 4096, ensemble._EIGVALSH_BYTES):
        with mock.patch.object(ensemble, "_EIGVALSH_BYTES", budget):
            distances = ensemble._TraceDistances(len(pairs))
            for slot, (a, b) in enumerate(pairs):
                distances.add(slot, a, b)
            assert distances.read().tolist() == want


def counting_dense_pushes(monkeypatch) -> list:
    """Wrap `apply_interventions` as `ensemble` calls it: each call appends
    whether it pushed |rho_0| (True) or rho_0 (False). A push of rho_0
    finds no earlier push still held, and a push of |rho_0| at most the
    one push of rho_0 whose bound it reads."""
    calls, held = [], []
    real = ensemble.apply_interventions

    def counted(s, ids, rho, outcomes=None, absolute=False):
        alive = [(kind, ref) for kind, ref in held if ref() is not None]
        assert len(alive) <= absolute and not any(kind for kind, _ in alive)
        out = real(s, ids, rho, outcomes=outcomes, absolute=absolute)
        calls.append(absolute)
        if out is not rho:  # a push of no intervention is the scenario's own rho_0
            held.append((absolute, weakref.ref(out)))
        return out

    monkeypatch.setattr(ensemble, "apply_interventions", counted)
    return calls


def ghz6(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    scenarios = importlib.import_module("scenarios")
    doc = scenarios.ghz_document(6, random.Random(6))
    return parse_scenario(doc), [iv["tau"] for iv in json.loads(doc)["interventions"]]


def test_ghz6_pushes_once_per_key(monkeypatch):
    """GHZ-6 with every qubit evaluated after every measurement: all 63
    subsets share one key, so rho_0 is pushed once. With the first three
    evaluated before their own measurement, each subset of those three has
    a key of its own, and every other subset shares the full cut's: 8
    pushes, one held at a time."""
    s, meas = ghz6(monkeypatch)
    log = ensemble.sample_runs(s, 1000, seed=6)
    calls = counting_dense_pushes(monkeypatch)
    late = [t + 6.5 for t in meas]
    report = ensemble.compare_to_polystate(log, s, late)
    assert len(report.rows) == 63 and report.max_analytic < 1e-12
    assert calls.count(False) == 1

    calls.clear()
    half = [t - 0.5 for t in meas[:3]] + late[3:]
    report = ensemble.compare_to_polystate(log, s, half)
    assert len(report.rows) == 63 and report.max_analytic < 1e-12
    assert calls.count(False) == 8


def test_long_zx_chain_pushes_the_absolute_value_once_per_key(monkeypatch):
    """The 45 alternating z/x readouts of 0 on A of
    `test_long_zx_chain_matches_its_closed_form`: the recorded branch
    weighs 2^-k, far below the dense push's scalar gate, so its bound is
    read by pushing |rho_0|. A and AB share one key, so |rho_0| is pushed
    once for them, and once for B's key, whose 45 readouts act as
    channels. A hand-made log of one run on the recorded branch stands in
    for sampling its 2^45 branches."""
    m = 45
    s = parse_scenario(json.dumps(two_qubit_document(
        [measure("A", k + 1.0, "pauli_z" if k % 2 == 0 else "pauli_x") for k in range(m)])))
    order = ensemble.selective_order(s)
    log = ensemble.RunLog(seed=0, n_runs=1, order=order,
                          weights=np.broadcast_to(np.nan, (2,) * m),
                          codes=np.zeros(1, dtype=np.intp))
    calls = counting_dense_pushes(monkeypatch)
    for k in (16, 45):
        calls.clear()
        report = ensemble.compare_to_polystate(log, s, (k + 0.5, 0.0))
        assert report.max_analytic < 1e-12
        assert calls.count(False) == 2 and calls.count(True) == 2


def counting_branches(monkeypatch) -> tuple:
    """Wrap `_stacked_pushes` and `engine._judged` as the pass calls them:
    the first list gets the row count of each stacked push of listed
    assignments, the second the (cut, assignment) of each judgement, the
    assignment None for a cut's recorded branches."""
    rows, judged = [], []
    real_push, real_judged = ensemble._stacked_pushes, engine._judged

    def pushed(s, cut, sel, chosen=None):
        if chosen is not None:
            rows.append(len(chosen))
        return real_push(s, cut, sel, chosen)

    def judging(s, cut, psi, outcomes=None):
        judged.append((cut, None if outcomes is None else tuple(sorted(outcomes.items()))))
        return real_judged(s, cut, psi, outcomes)

    monkeypatch.setattr(ensemble, "_stacked_pushes", pushed)
    monkeypatch.setattr(engine, "_judged", judging)
    monkeypatch.setattr(ensemble, "_judged", judging)
    return rows, judged


def non_recorded_branches(log, s, taus) -> int:
    """Per dense-key group, the distinct assignments to the applied cut's
    selectives that the retained runs hold, less the recorded one, summed
    over the groups: worked out run by run from the log."""
    order = log.order
    groups = {}
    for subset in engine.all_subsets(s.n):
        _, inside, applied = ensemble._selection(s, subset, taus)
        groups[applied, s.cut_ids(inside)] = None
    total = 0
    for applied, inside in groups:
        sel = [j for j, k in enumerate(order) if k in s.cut_ids(applied)]
        recorded = tuple(s.interventions[order[j]].op.chosen for j in sel)
        held = {tuple(int(row[j]) for j in sel) for row in log.outcomes
                if all(row[j] == s.interventions[k].op.chosen
                       for j, k in enumerate(order) if k in inside)}
        total += len(held - {recorded})
    return total


def test_each_branch_is_pushed_and_judged_once_per_group(monkeypatch):
    """The stacked pushes of one comparison hold one row per dense-key
    group and distinct non-recorded assignment that its retained runs
    hold, and no branch or cut is judged twice: GHZ-6 evaluated after
    every measurement pushes no row, as every subset reads the full cut's
    own entry; with three qubits evaluated before their measurement, the
    rows follow the groups; `foliation_demo.scn` at A=0.5, B=1.5 pushes 2
    of its 5 branch reads as stack rows, and reads the other 3 as applied
    cuts' entries of the cut cache, 2 of them already there."""
    s, meas = ghz6(monkeypatch)
    log = ensemble.sample_runs(s, 1000, seed=6)
    late = [t + 6.5 for t in meas]
    half = [t - 0.5 for t in meas[:3]] + late[3:]
    demo = load_fixture("foliation_demo.scn")
    demo_log = ensemble.sample_runs(demo, 1000, seed=0)
    rows, judged = counting_branches(monkeypatch)
    counts = []
    for scenario, run_log, taus in ((s, log, late), (s, log, half), (demo, demo_log, (0.5, 1.5))):
        rows.clear()
        judged.clear()
        ensemble.compare_to_polystate(run_log, scenario, taus)
        counts.append(sum(rows))
        assert sum(rows) == non_recorded_branches(run_log, scenario, taus)
        assert len(set(judged)) == len(judged)
        assert sum(assignment is not None for _, assignment in judged) == sum(rows)
    assert counts[0] == 0 and counts[1] > 0 and counts[2] == 2


@SUITE
@given(s=scenarios_with_blocked_branch(base=scenarios_of_rank(), tilts=FAINT_TILTS),
       taus=hs.lists(hs.one_of(tau_values, hs.just(LATE)), min_size=4, max_size=4))
def test_recorded_branch_is_the_applied_cuts_entry(s, taus):
    """The recorded assignment to an applied cut's selectives, read as the
    cut's entry from the cut cache `polystate_at` filled (`_weighed`),
    equals its push and judgement as an assignment, the judged row of a
    flat stack of it: the factor by `tobytes()`, the weight and the
    verdict by `==`, whether the cut was in the cache already or not, and
    whether the polystate could be read or was refused."""
    taus = taus[:s.n]
    cache = {}
    try:
        engine.polystate_at(s, taus, cache)
    except PolystateError:
        pass
    for subset in engine.all_subsets(s.n):
        _, _, applied = ensemble._selection(s, subset, taus)
        sel = tuple(k for k in ensemble.selective_order(s) if k in s.cut_ids(applied))
        recorded = {k: s.interventions[k].op.chosen for k in sel}
        entry = engine._weighed(s, applied, cache)
        single = engine._judged(s, applied, engine.push(s, applied, recorded), recorded)
        row = np.array([list(recorded.values())], dtype=np.intp).reshape(1, len(sel))
        stacked = next(ensemble._stacked_pushes(s, applied, sel, row))[0]
        for want in (single, engine._judged(s, applied, stacked, recorded)):
            assert entry.factor.tobytes() == want.factor.tobytes()
            assert entry.weight == want.weight and entry.impossible == want.impossible


def test_no_formed_sector_outlives_its_two_distances(monkeypatch):
    """On GHZ-5 evaluated after every measurement, every sector the pass
    forms, engine, empirical and analytic, is released once its two
    distances are queued: when a subset's distance is queued, no array
    queued for an earlier subset is alive, so the pass holds one subset's
    sectors at a time."""
    monkeypatch.syspath_prepend(str(BENCH))
    scenarios = importlib.import_module("scenarios")
    doc = scenarios.ghz_document(5, random.Random(5))
    s = parse_scenario(doc)
    taus = [iv["tau"] + 5.5 for iv in json.loads(doc)["interventions"]]
    log = ensemble.sample_runs(s, 1000, seed=5)
    queued = []
    real = ensemble._TraceDistances.add

    def add(self, slot, a, b):
        alive = [pos for pos, ref in queued if ref() is not None and pos != slot // 2]
        assert not alive, f"subset {slot // 2} is queued with arrays of {alive} alive"
        queued.extend((slot // 2, weakref.ref(m)) for m in (a, b))
        return real(self, slot, a, b)

    monkeypatch.setattr(ensemble._TraceDistances, "add", add)
    report = ensemble.compare_to_polystate(log, s, taus)
    assert len(report.rows) == 31 and len(queued) == 4 * 31
