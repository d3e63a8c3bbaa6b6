"""Acceptance gate. One test per stated criterion, each printing a visible
pass/fail line with the measured numbers; tolerances are asserted exactly as
stated, never loosened."""

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polystate import audit, engine, ensemble, linalg
from polystate.spacetime import Foliation
from polystate.scenario import parse_scenario, serialize_scenario

from helpers import (branch_table, load_fixture, random_two_qubit_scenario,
                     random_worldline, with_outcomes)

TOL = 1e-12
PROBE = (2.0, 1.5)

P0 = linalg.projector(linalg.KET0)
P1 = linalg.projector(linalg.KET1)
PP = linalg.projector(linalg.KET_PLUS)
HALF = np.eye(2, dtype=complex) / 2
PSI_PLUS = linalg.projector(linalg.BELL_PSI_PLUS)
KET01 = linalg.projector(linalg.product_ket("01"))
KETPP = linalg.projector(linalg.product_ket("++"))


def dist(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")

    return _announce


def test_criterion_1_bell_sector_triple(announce):
    s = load_fixture("bell_sigma_z.scn")
    start = time.perf_counter()
    p = engine.polystate_at(s, PROBE)
    elapsed = time.perf_counter() - start
    errs = (dist(p.sector((0,)), P0), dist(p.sector((1,)), HALF),
            dist(p.sector((0, 1)), KET01))
    ok = max(errs) <= TOL and elapsed < 1.0
    announce(1, ok, f"sector triple at tau=(2.0,1.5), max err {max(errs):.2e}, "
                    f"{elapsed * 1000:.1f} ms")
    assert max(errs) <= TOL
    assert elapsed < 1.0


def test_criterion_2_regime_tables(announce):
    tables = {
        "bell_sigma_z.scn": [
            ((0.5, 0.5), HALF, HALF, PSI_PLUS),
            ((2.0, 1.5), P0, HALF, KET01),
            ((0.5, 3.5), HALF, P1, KET01),
            ((2.0, 3.5), P0, P1, KET01),
        ],
        "bell_sigma_x.scn": [
            ((0.5, 0.5), HALF, HALF, PSI_PLUS),
            ((2.0, 1.5), PP, HALF, KETPP),
            ((0.5, 3.5), HALF, PP, KETPP),
            ((2.0, 3.5), PP, PP, KETPP),
        ],
    }
    worst = 0.0
    for name, rows in tables.items():
        s = load_fixture(name)
        for taus, a, b, ab in rows:
            worst = max(worst,
                        dist(engine.sector(s, taus, (0,)), a),
                        dist(engine.sector(s, taus, (1,)), b),
                        dist(engine.sector(s, taus, (0, 1)), ab))
    ok = worst <= TOL
    announce(2, ok, f"eight regimes across both readout bases, max err {worst:.2e}")
    assert worst <= TOL


def test_criterion_3_epr_statistics(announce):
    base = load_fixture("epr_test.scn")
    worst = 0.0
    for theta in (0.0, np.pi / 6, np.pi / 4, np.pi / 2, 2 * np.pi / 3):
        up, down = linalg.spin_basis(theta, 0.0)
        s = replace(base, interventions=(
            base.interventions[0],
            replace(base.interventions[1],
                    op=replace(base.interventions[1].op,
                               kraus=(linalg.projector(up), linalg.projector(down))))))
        early = (0.5, 0.5)
        corr = linalg.expect(engine.sector(s, early, (0, 1)),
                             linalg.kron(linalg.SIGMA_Z, linalg.sigma_n(theta, 0.0)))
        worst = max(worst, abs(corr + np.cos(theta)))
        for a, pa in enumerate((linalg.KET0, linalg.KET1)):
            worst = max(worst, abs(engine.marginal_prob(s, early, 0, linalg.projector(pa)) - 0.5))
            for b, pb in enumerate((up, down)):
                got = engine.joint_outcome_prob(s, early,
                                                [linalg.projector(pa), linalg.projector(pb)])
                same = 1.0 if a == b else 0.0
                want = 0.5 * (same * np.sin(theta / 2) ** 2 + (1 - same) * np.cos(theta / 2) ** 2)
                worst = max(worst, abs(got - want))
        for b in (0, 1):
            cond = replace(s, interventions=(
                s.interventions[0],
                replace(s.interventions[1], op=replace(s.interventions[1].op, chosen=b))))
            for a, pa in enumerate((linalg.KET0, linalg.KET1)):
                got = engine.conditional_prob(cond, 0, linalg.projector(pa), (0.5, 2.0))
                same = 1.0 if a == b else 0.0
                want = same * np.sin(theta / 2) ** 2 + (1 - same) * np.cos(theta / 2) ** 2
                worst = max(worst, abs(got - want))
        for a in (0, 1):
            sa = replace(s, interventions=(
                replace(s.interventions[0], op=replace(s.interventions[0].op, chosen=a)),
                s.interventions[1]))
            want = linalg.kron(linalg.projector((linalg.KET0, linalg.KET1)[a]),
                               linalg.projector((linalg.KET1, linalg.KET0)[a]))
            worst = max(worst, dist(engine.sector(sa, (2.0, 0.5), (0, 1)), want))
    ok = worst <= TOL
    announce(3, ok, f"correlations, joints, marginals, conditionals and "
                    f"post-readout sectors over five angles, max err {worst:.2e}")
    assert worst <= TOL


def test_criterion_4_prescription_audit(announce):
    s = load_fixture("bell_sigma_z.scn")
    report = audit.criteria_report(s, PROBE)
    rows = {r.name: r for r in report.rows}
    pol = rows["polystate"]
    pol_err = max(abs(pol.marginal_a - 1.0), abs(pol.marginal_b - 0.0),
                  abs(pol.correlation + 1.0), pol.ignorance_distance)
    rival_gaps = {}
    targets = (report.target_marginal_a, report.target_marginal_b, report.target_correlation)
    for name in ("future_lightcone", "past_lightcone", "foliation"):
        r = rows[name]
        gaps = [abs(v - t) for v, t in zip((r.marginal_a, r.marginal_b, r.correlation), targets)]
        gaps.append(r.ignorance_distance)
        rival_gaps[name] = max(gaps)
    ok = (pol_err <= TOL and pol.all_ok
          and all(g >= 0.5 for g in rival_gaps.values())
          and all(not rows[n].all_ok for n in rival_gaps))
    gap_text = ", ".join(f"{n} off by {g:.2f}" for n, g in rival_gaps.items())
    announce(4, ok, f"sector rule reproduces (+1, 0, -1) to {pol_err:.2e}; {gap_text}")
    assert pol_err <= TOL and pol.all_ok
    for name, gap in rival_gaps.items():
        assert gap >= 0.5 and not rows[name].all_ok, name


def test_criterion_5_charge_ledger(announce):
    s = load_fixture("bell_sigma_z.scn")
    rest = Foliation(np.zeros(1))
    initial = linalg.expect(s.initial_state, linalg.total_charge(2))
    worst_initial = abs(initial + 1.0)

    locals_ = audit.reduced_states(audit.FutureLightcone(), s, PROBE)
    q_sum = sum(linalg.expect(r, linalg.CHARGE) for r in locals_)
    worst_flc = abs(q_sum + 0.5)

    rng = np.random.default_rng(50505)
    worst_joint = 0.0
    for _ in range(5):
        f = Foliation(np.array([float(rng.uniform(-0.85, 0.85))]))
        led = audit.charge_ledger(s, f, np.linspace(-3, 5, 11), audit.PolystateRule())
        worst_joint = max(worst_joint, max(abs(q + 1.0) for q in led.q_joint))

    worst_rec = 0.0
    for _ in range(10):
        z = random_worldline(rng, 1)
        rep = audit.recollection_conservation(s, z, np.linspace(-2, 5, 50), rest)
        worst_rec = max(worst_rec, rep.max_deviation)

    worst = max(worst_initial, worst_flc, worst_joint, worst_rec)
    ok = worst <= TOL
    announce(5, ok, f"initial charge -1, lightcone sum-of-locals -1/2, joint "
                    f"charge conserved on 5 foliations and 10 recollection "
                    f"worldlines, max err {worst:.2e}")
    assert worst <= TOL


def test_criterion_6_foliation_tables(announce):
    s = load_fixture("foliation_demo.scn")
    ket0p = linalg.projector(linalg.product_ket("0+"))
    sigma = Foliation(np.array([0.5]))
    xi = Foliation(np.array([-0.5]))
    rows = [
        (sigma, -1.0, PSI_PLUS), (sigma, 0.5, KETPP), (sigma, 2.0, ket0p),
        (xi, -1.0, PSI_PLUS), (xi, 1.5, KET01), (xi, 3.0, ket0p),
    ]
    worst = max(dist(engine.foliation_state(s, f, t), want) for f, t, want in rows)
    mid_sigma = engine.foliation_state(s, sigma, 0.5)
    mid_xi = engine.foliation_state(s, xi, 1.5)
    mid_gap = linalg.trace_distance(mid_sigma, mid_xi)
    late_gap = linalg.trace_distance(engine.foliation_state(s, sigma, 2.0),
                                     engine.foliation_state(s, xi, 3.0))
    ok = worst <= TOL and mid_gap > 0.5 and late_gap <= TOL
    announce(6, ok, f"six regimes, max err {worst:.2e}; mid-history gap "
                    f"{mid_gap:.3f} (> 0.5), late agreement {late_gap:.2e}")
    assert worst <= TOL
    assert mid_gap > 0.5
    assert late_gap <= TOL


def test_criterion_7_analytic_oracle_equivalence(announce):
    worst = 0.0
    checked = 0
    for name in ("bell_sigma_z.scn", "bell_sigma_x.scn", "epr_test.scn"):
        s = load_fixture(name)
        for taus in ((0.5, 0.5), (2.0, 1.5), (0.5, 3.5), (2.0, 3.5)):
            for subset in ((0,), (1,), (0, 1)):
                worst = max(worst, linalg.trace_distance(
                    ensemble.analytic_sector(s, subset, taus),
                    engine.sector(s, taus, subset)))
                checked += 1
    rng = np.random.default_rng(70707)
    scenarios_done = 0
    while scenarios_done < 25:
        s = random_two_qubit_scenario(rng)
        branches = branch_table(s)
        probs = np.array(list(branches.values()))
        if probs.sum() < 1e-9:
            continue
        pick = rng.choice(len(branches), p=probs / probs.sum())
        s = with_outcomes(s, list(branches)[pick])
        taus = tuple(rng.uniform(-2.0, 4.0, size=2))
        for subset in ((0,), (1,), (0, 1)):
            worst = max(worst, linalg.trace_distance(
                ensemble.analytic_sector(s, subset, taus),
                engine.sector(s, taus, subset)))
            checked += 1
        scenarios_done += 1
    ok = worst <= TOL
    announce(7, ok, f"post-selection oracle equals engine sectors on "
                    f"{checked} sector evaluations, max distance {worst:.2e}")
    assert worst <= TOL


def test_criterion_8_monte_carlo_convergence(announce):
    s = load_fixture("foliation_demo.scn")
    n = 100_000
    # At tau=(0.5, 1.5) the first subsystem's ensemble average weights the
    # other side's sampled outcomes by their observed frequencies, so the
    # distance is genuinely statistical rather than identically zero.
    taus = (0.5, 1.5)
    start = time.perf_counter()
    log = ensemble.sample_runs(s, n, seed=20260815)
    gap = max(linalg.trace_distance(ensemble.empirical_sector(log, s, subset, taus),
                                    ensemble.analytic_sector(s, subset, taus))
              for subset in ((0,), (1,), (0, 1)))
    report = ensemble.compare_to_polystate(log, s, taus)
    elapsed = time.perf_counter() - start

    freq = ensemble.branch_frequencies(log)
    sigma_ok = True
    for outcomes, probability in branch_table(s).items():
        sigma = np.sqrt(n * probability * (1 - probability))
        if abs(freq[outcomes] - n * probability) > 6 * sigma:
            sigma_ok = False
    ok = (0.0 < gap <= 0.02) and report.max_empirical <= 0.02 and sigma_ok and elapsed < 30.0
    announce(8, ok, f"{n} runs in {elapsed:.1f} s, empirical vs analytic "
                    f"distance {gap:.2e} (nonzero, <= 0.02), branch counts "
                    f"within 6 sigma: {sigma_ok}")
    assert 0.0 < gap <= 0.02
    assert report.max_empirical <= 0.02
    assert sigma_ok
    assert elapsed < 30.0


def test_criterion_9_property_suites(announce):
    props = Path(__file__).with_name("test_properties.py")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-show-statistics", str(props)],
        capture_output=True, text=True, timeout=600)
    import re
    counts = [int(m) for m in re.findall(r"(\d+) passing examples", res.stdout)]
    ok = res.returncode == 0 and len(counts) == 5 and all(c >= 200 for c in counts)
    announce(9, ok, f"five property suites with example counts {counts}")
    assert res.returncode == 0, res.stdout[-2000:]
    assert len(counts) == 5
    assert all(c >= 200 for c in counts)
