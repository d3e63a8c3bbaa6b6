"""Property suites for the state-update kernel: the axis-local update
against the lifted operator it replaces, the initial state's factor, and
the pushed-factor states of the engine's sectors, of every audit rule and of
every ensemble branch against pushing the whole joint state and tracing
afterwards; the Gram states of `state_after`, weighed once per cut and
validated on the small side of their factor, against the dense push, trace
and full validation; one push per distinct selection or prefix of one, and
one shared cache against fresh pushes, bit for bit; the push of a cut
against multiplying its operators in (tau, id) order; the stacked push,
which stacks the branches of outcome arrays on leading axes, slice by slice
against the push of each branch; and the rounding bound with which
`linalg.gram_density` accepts a Gram state without eigvalsh, against a
kernel that always reads the spectrum.

Scenario structure (subsystem count, local dimensions, kinds, order and
proper times of the interventions, worldlines, evaluation times) is drawn by
hypothesis; the matrix entries come from a numpy generator seeded by a drawn
integer, since a 3^4-dimensional density operator is too many floats to draw
one by one."""

import json
import tracemalloc
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as hs

from polystate import audit, engine, ensemble, linalg
from polystate.errors import ImpossibleOutcomeError, StateValidationError
from polystate.scenario import (Intervention, Scenario, SelectiveOp, UnitaryOp,
                                apply_interventions, boosted_scenario, parse_scenario,
                                selected_ids)
from polystate.spacetime import Foliation, Region, Worldline, position

from helpers import (branch_table, flip_outcomes, load_fixture, prefix_closure,
                     proper_time_lines, random_density, random_ket, random_unitary,
                     reference_event_cuts, reference_gram_density)
from test_properties import tau_values, velocities, worldlines

SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.filter_too_much,
                                        HealthCheck.too_slow])
TOL = 1e-12

local_dims = hs.lists(hs.sampled_from([2, 3]), min_size=1, max_size=3)
seeds = hs.integers(min_value=0, max_value=2**32 - 1)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@SUITE
@given(dims=local_dims, seed=seeds)
def test_apply_local_equals_lifted_conjugation(dims, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    rho = random_matrix(rng, total)
    for target, d in enumerate(dims):
        op = random_matrix(rng, d)
        lifted = linalg.conj_apply(linalg.lift_local(op, target, dims), rho)
        assert np.max(np.abs(linalg.apply_local(op, target, dims, rho) - lifted)) < TOL


def random_op(rng, kind: str, d: int):
    """A unitary, a projective measurement, or a two-outcome weak
    measurement whose Kraus operators are not projectors."""
    u = random_unitary(rng, d)
    if kind == "unitary":
        return UnitaryOp(matrix=u)
    if kind == "projective":
        kraus = tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d))
    else:
        q = rng.uniform(0.05, 0.95, size=d)
        kraus = tuple((u * np.sqrt(w)) @ u.conj().T for w in (q, 1 - q))
    return SelectiveOp(kraus=kraus, chosen=int(rng.integers(len(kraus))),
                       labels=tuple(str(k) for k in range(len(kraus))))


@hs.composite
def scenarios(draw, local_dim=hs.sampled_from([2, 3])):
    n = draw(hs.integers(min_value=2, max_value=4))
    dims = tuple(draw(local_dim) for _ in range(n))
    rng = np.random.default_rng(draw(seeds))
    interventions = []
    for _ in range(draw(hs.integers(min_value=0, max_value=6))):
        subsystem = draw(hs.integers(min_value=0, max_value=n - 1))
        tau = draw(tau_values)
        assume(all(iv.subsystem != subsystem or abs(iv.tau - tau) > 1e-3
                   for iv in interventions))
        kind = draw(hs.sampled_from(["unitary", "projective", "weak"]))
        interventions.append(Intervention(subsystem, tau, random_op(rng, kind, dims[subsystem])))
    return Scenario(spatial_dim=1, names=tuple("ABCD"[:n]), dims=dims,
                    worldlines=tuple(draw(worldlines()) for _ in range(n)),
                    initial_state=random_density(rng, int(np.prod(dims))),
                    interventions=tuple(interventions))


def pushed_sector_or_none(s, taus, subset):
    """The sector by pushing the full joint state, then tracing."""
    region = Region.union_of_pasts([position(s.worldlines[i], taus[i]) for i in subset])
    ids = selected_ids(s, region)
    try:
        return linalg.normalize(linalg.ptrace(
            apply_interventions(s, ids, s.initial_state), s.dims, subset))
    except ImpossibleOutcomeError:
        return None


def pushed_or_none(s, ids, keep):
    """An audit rule's reduced state by pushing the full joint state,
    normalizing, then tracing; None when the recorded branches cannot
    occur."""
    try:
        full = linalg.normalize(apply_interventions(s, ids, s.initial_state))
    except ImpossibleOutcomeError:
        return None
    return linalg.ptrace(full, s.dims, keep)


def assert_close_or_both_none(got, want):
    if got is None or want is None:
        assert got is None and want is None
    else:
        assert np.max(np.abs(got - want)) < TOL


@SUITE
@given(s=scenarios(), taus=hs.lists(tau_values, min_size=4, max_size=4))
def test_factor_kernel_sector_equals_pushed_sector(s, taus):
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    for subset in engine.all_subsets(s.n):
        want = pushed_sector_or_none(s, taus, subset)
        try:
            got = engine.sector(s, taus, subset)
        except ImpossibleOutcomeError:
            got = None
        assert_close_or_both_none(got, want)


def reference_states(p, s, taus):
    """Per-subsystem and single states of an audit rule, deciding each
    intervention on its own and pushing the full joint state."""
    id_sets = [tuple(k for k in range(len(s.interventions))
                     if p.applied(s.events[k], position(s.worldlines[i], taus[i])))
               for i in range(s.n)]
    reduced = [pushed_or_none(s, ids, (i,)) for i, ids in enumerate(id_sets)]
    union = tuple(sorted(set().union(*id_sets)))
    if isinstance(p, audit.PolystateRule) or all(ids == union for ids in id_sets):
        single = pushed_or_none(s, union, range(s.n))
    elif any(r is None for r in reduced):
        single = None
    else:
        single = linalg.kron_all(*reduced)
    return reduced, single


def states_or_none(p, s, taus):
    out = []
    for f in (audit.reduced_states, audit.single_state):
        try:
            out.append(f(p, s, taus))
        except ImpossibleOutcomeError:
            out.append(None)
    return out


@hs.composite
def scenarios_with_blocked_branch(draw, base=scenarios(), tilts=(0.0,)):
    """A scenario drawn from `base` that, when a drawn flag is set, starts
    from |0...0> and gets a z measurement on one subsystem recording outcome
    1, so selections that include it (and no earlier rotation of that
    subsystem) have zero Born weight. Given more than one tilt, the
    readout's basis is turned by a drawn one of them, from |0> towards |1>,
    and outcome 1 there has the weight sin^2(tilt / 2) instead."""
    s = draw(base)
    if not draw(hs.booleans()):
        return s
    i = draw(hs.integers(min_value=0, max_value=s.n - 1))
    tau = draw(tau_values)
    assume(all(iv.subsystem != i or abs(iv.tau - tau) > 1e-3 for iv in s.interventions))
    tilt = draw(hs.sampled_from(tilts)) if len(tilts) > 1 else tilts[0]
    total = int(np.prod(s.dims))
    zero = np.zeros((total, total), dtype=complex)
    zero[0, 0] = 1.0
    up = np.zeros(s.dims[i], dtype=complex)
    up[:2] = np.cos(tilt / 2), np.sin(tilt / 2)
    p0 = np.outer(up, up)
    blocked = SelectiveOp(kraus=(p0, np.eye(s.dims[i]) - p0), chosen=1, labels=("0", "1"))
    return replace(s, initial_state=zero,
                   interventions=s.interventions + (Intervention(i, tau, blocked),))


@SUITE
@given(s=scenarios_with_blocked_branch(), taus=hs.lists(tau_values, min_size=4, max_size=4),
       v=velocities())
def test_audit_rule_states_equal_pushed_states(s, taus, v):
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    for p in audit.default_prescriptions(Foliation(v)):
        want_reduced, want_single = reference_states(p, s, taus)
        got_reduced, got_single = states_or_none(p, s, taus)
        if got_reduced is None:
            assert any(r is None for r in want_reduced), p.name
        else:
            for got, want in zip(got_reduced, want_reduced):
                assert_close_or_both_none(got, want)
        assert_close_or_both_none(got_single, want_single)


def reference_leaf_states(p, s, taus):
    """`audit.leaf_states` from the cuts each rule's `applied` picks per
    event (`helpers.reference_event_cuts`); None when a state it needs
    cannot occur."""
    cuts = reference_event_cuts(p, s, taus)
    union = tuple(map(max, *cuts))
    try:
        locals_ = [engine.state_after(s, cut, (i,)) for i, cut in enumerate(cuts)]
        if isinstance(p, audit.PolystateRule) or all(cut == union for cut in cuts):
            return engine.state_after(s, union, tuple(range(s.n))), locals_
    except ImpossibleOutcomeError:
        return None
    return linalg.kron_all(*locals_), locals_


@SUITE
@given(s=scenarios_with_blocked_branch(), v=velocities(), data=hs.data())
def test_leaf_states_equal_per_event_reference(s, v, data):
    """Every default rule's `leaf_states` equals, bit for bit, the states of
    the cuts its `applied` picks per event, with `engine.sector` and
    `polystate_at` called at other proper times in between on the same
    scenario, so that a member row kept from another proper time would
    show. Proper times come from a small pool per member, so they repeat."""
    rules = audit.default_prescriptions(Foliation(v))
    pools = [[data.draw(tau_values) for _ in range(3)] for _ in range(s.n)]

    def some_taus():
        return tuple(data.draw(hs.sampled_from(pool)) for pool in pools)

    for _ in range(data.draw(hs.integers(min_value=1, max_value=4))):
        other = some_taus()
        try:
            if data.draw(hs.booleans()):
                engine.polystate_at(s, other)
            else:
                engine.sector(s, other, data.draw(hs.sampled_from(list(engine.all_subsets(s.n)))))
        except ImpossibleOutcomeError:
            pass
        taus = some_taus()
        for p in rules:
            want = reference_leaf_states(p, s, taus)
            try:
                got = audit.leaf_states(p, s, taus)
            except ImpossibleOutcomeError:
                got = None
            if got is None or want is None:
                assert got is None and want is None, p.name
                continue
            assert np.array_equal(got[0], want[0]), p.name
            assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1])), p.name


# a readout this far off |0> keeps outcome 1 at weight 2.5e-15 on |0>: positive,
# and below 1e-12
FAINT_TILT = 1e-7


def test_branch_weights_and_states_equal_pushed_states():
    """Each branch's weight against the trace of the full push through every
    intervention, and the state it adds to `empirical_sector`
    (`ensemble.branch_state`) against the full push through the subset's
    applied interventions, traced and normalized; a branch the full push
    gives weight 0 weighs exactly 0. A positive branch weight below 1e-12
    is accepted by both paths, and its state is exactly Hermitian with unit
    trace; only a weight of 0 raises. The readout of
    `scenarios_with_blocked_branch` is drawn exactly on z or `FAINT_TILT`
    off it, so that such faint branches occur, and the suite checks that
    they did. The applied interventions are the region
    selection of the subset's pasts, closed on each worldline, and every
    intervention off the subset."""
    faint = []

    @SUITE
    @given(s=scenarios_with_blocked_branch(tilts=(0.0, FAINT_TILT)),
           taus=hs.lists(tau_values, min_size=4, max_size=4))
    def check(s, taus):
        taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
        order = ensemble.selective_order(s)
        every = range(len(s.interventions))
        applied = {}
        for members in ((0,), tuple(range(s.n))):
            subset, _, cut = ensemble._selection(s, members, taus)
            region = Region.union_of_pasts([position(s.worldlines[i], taus[i]) for i in subset])
            ids = prefix_closure(s, set(selected_ids(s, region)).union(
                k for k in every if s.interventions[k].subsystem not in subset))
            assert s.cut_ids(cut) == ids
            applied[subset] = (cut, ids)
        for outcomes, probability in branch_table(s).items():
            assignment = dict(zip(order, outcomes))
            want = float(np.trace(apply_interventions(s, every, s.initial_state,
                                                      outcomes=assignment)).real)
            assert abs(probability - want) < TOL
            assert want != 0.0 or probability == 0.0
            for subset, (cut, ids) in applied.items():
                weight = engine.branch_weight(engine.push(s, cut, assignment))
                try:
                    got = ensemble.branch_state(s, cut, subset, assignment)
                except ImpossibleOutcomeError:
                    assert weight == 0.0
                    got = None
                try:
                    ref = linalg.normalize(linalg.ptrace(
                        apply_interventions(s, ids, s.initial_state, outcomes=assignment),
                        s.dims, subset))
                except ImpossibleOutcomeError:
                    ref = None
                if 0 < weight < 1e-12:
                    faint.append(weight)
                    assert got is not None and ref is not None
                    assert np.array_equal(got, got.conj().T)
                    assert abs(np.trace(got) - 1) < TOL
                assert_close_or_both_none(got, ref)

    check()
    assert faint, "no drawn branch had a positive weight below 1e-12"


# readout tilts from `FAINT_TILT` to 1e-3, outcome 1 of weight 2.5e-15 to 2.5e-7
# on |0>, and exactly blocked readouts
FAINT_TILTS = (0.0, FAINT_TILT, 1e-6, 1e-5, 1e-4, 1e-3)


def tilted_readout(tilt: float) -> Scenario:
    """Two static qubits from |00>, A at x = 0 and B at x = 5, with the
    readout of `scenarios_with_blocked_branch` on A at tau 0, turned by
    `tilt`: it records outcome 1, of weight sin^2(tilt / 2), so it is
    blocked at tilt 0 and faint at `FAINT_TILT`. At proper times (1, 1) A's
    and the joint sector read it, and B's, spacelike to it, does not."""
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    up = np.array([np.cos(tilt / 2), np.sin(tilt / 2)], dtype=complex)
    p0 = np.outer(up, up)
    readout = SelectiveOp(kraus=(p0, np.eye(2) - p0), chosen=1, labels=("0", "1"))
    return Scenario(spatial_dim=1, names=("A", "B"), dims=(2, 2),
                    worldlines=(Worldline(np.array([0.0, 0.0])),
                                Worldline(np.array([0.0, 5.0]))),
                    initial_state=zero, interventions=(Intervention(0, 0.0, readout),))


def test_engine_oracle_and_ensemble_agree_on_which_branches_occur():
    """Every subset's sector of a drawn scenario, recorded branch, faint or
    blocked readout and proper times, by the engine and by the dense oracle
    `analytic_sector`, and its empirical sector from a one-run log that took
    the recorded branch against the engine's state on the cut that sector
    reads: each pair accepts or refuses together, and agrees within 1e-12
    when it accepts. For the full subset the two cuts are one, so all three
    paths agree. Faint branches below 1e-12 occur and are accepted, and
    blocked ones occur and are refused: the two explicit examples make
    sure of both, whichever draws the search makes."""
    seen = {"faint": 0, "refused": 0}

    @SUITE
    @example(s=tilted_readout(0.0), taus=[1.0] * 4)
    @example(s=tilted_readout(FAINT_TILT), taus=[1.0] * 4)
    @given(s=scenarios_with_blocked_branch(tilts=FAINT_TILTS),
           taus=hs.lists(tau_values, min_size=4, max_size=4))
    def check(s, taus):
        taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
        order = ensemble.selective_order(s)
        counts = [len(s.interventions[k].op.kraus) for k in order]
        code = np.ravel_multi_index([s.interventions[k].op.chosen for k in order], counts)
        log = ensemble.RunLog(seed=0, n_runs=1, order=order,
                              weights=ensemble.enumerate_branches(s).reshape(counts),
                              codes=np.array([code], dtype=np.intp))
        for subset in engine.all_subsets(s.n):
            _, _, applied = ensemble._selection(s, subset, taus)
            pairs = ((outcome_of(engine.sector, s, taus, subset),
                      outcome_of(ensemble.analytic_sector, s, subset, taus)),
                     (outcome_of(engine.state_after, s, applied, subset),
                      outcome_of(ensemble.empirical_sector, log, s, subset, taus)))
            for want, got in pairs:
                if isinstance(want, type) or isinstance(got, type):
                    assert want is got is ImpossibleOutcomeError, subset
                else:
                    assert np.max(np.abs(got - want)) < TOL, subset
            weight = engine.branch_weight(engine.push(s, engine.past_cut(s, taus, subset)))
            seen["refused"] += isinstance(pairs[0][0], type)
            seen["faint"] += 0 < weight < 1e-12 and not isinstance(pairs[0][0], type)

    check()
    assert seen["faint"] and seen["refused"], seen


def factor_of(rho):
    return Scenario(spatial_dim=1, names=(), dims=(), worldlines=(),
                    initial_state=rho, interventions=()).initial_factor


def ghz_density(n):
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    return np.outer(ket, ket.conj())


def test_initial_factor_has_the_rank_of_the_state():
    """Rounding dust in the spectrum is dropped: pure states give one column,
    full-rank states all of them, and the product gives the state back."""
    rng = np.random.default_rng(1024)
    fixtures = ("bell_sigma_z.scn", "bell_sigma_x.scn", "epr_test.scn", "foliation_demo.scn")
    pure = ([load_fixture(name).initial_state for name in fixtures]
            + [ghz_density(n) for n in range(1, 11)]
            + [np.outer(k, k.conj()) for k in (random_ket(rng, d) for d in (2, 3, 16, 100, 1024))])
    mixed = [random_density(rng, d) for d in (2, 3, 16, 100)]
    for rho, rank in [(rho, 1) for rho in pure] + [(rho, rho.shape[0]) for rho in mixed]:
        psi = factor_of(rho)
        assert psi.shape == (rho.shape[0], rank)
        assert np.max(np.abs(psi @ psi.conj().T - rho)) < TOL


@hs.composite
def scenarios_of_rank(draw, base=scenarios()):
    """A scenario drawn from `base` with an initial state of drawn rank: 1
    (as a parsed ket would give), 2, or full. A low rank makes the sector's
    factor taller than wide for large subsets."""
    s = draw(base)
    total = int(np.prod(s.dims))
    rank = draw(hs.sampled_from([1, 2, total]))
    if rank == total:
        return s
    rng = np.random.default_rng(draw(seeds))
    psi = rng.normal(size=(total, rank)) + 1j * rng.normal(size=(total, rank))
    psi /= np.linalg.norm(psi)
    state = psi @ psi.conj().T
    pure = (state, psi[:, 0]) if rank == 1 and draw(hs.booleans()) else None
    return replace(s, initial_state=state, pure_input=pure)


def outcome_of(f, *args):
    try:
        return f(*args)
    except (ImpossibleOutcomeError, StateValidationError) as exc:
        return type(exc)


def reference_state_after(s, cut, subset):
    """The dense reference for `state_after`: the full joint state pushed
    through the cut's interventions, traced, normalized and validated on its
    full spectrum."""
    return linalg.normalize(linalg.ptrace(
        apply_interventions(s, s.cut_ids(cut), s.initial_state), s.dims, subset))


def cut_of_lengths(s, lengths):
    """The cut that applies the first lengths[j] interventions of each
    subsystem j, or all of them where it has fewer."""
    return tuple(min(length, len(line)) for length, line in zip(lengths, proper_time_lines(s)))


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank()),
       lengths=hs.lists(hs.integers(0, 7), min_size=4, max_size=4))
def test_state_after_equals_normalized_pushed_state(s, lengths):
    """Within 1e-12 of the dense reference, exactly Hermitian and of unit
    trace within 1e-12. Both raise together."""
    cut = cut_of_lengths(s, lengths)
    tall = 0
    for subset in engine.all_subsets(s.n):
        d_s = int(np.prod([s.dims[i] for i in subset]))
        tall += d_s * d_s > int(np.prod(s.dims)) * s.initial_factor.shape[1]
        got = outcome_of(engine.state_after, s, cut, subset)
        want = outcome_of(reference_state_after, s, cut, subset)
        if isinstance(got, type):
            assert got is want, subset
            continue
        assert np.array_equal(got, got.conj().T), subset
        assert abs(np.trace(got).real - 1.0) < TOL, subset
        assert not isinstance(want, type), subset
        assert np.max(np.abs(got - want)) < TOL, subset
    if s.initial_factor.shape[1] == 1:
        assert tall  # the full subset's factor is d_S x 1


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank()),
       lengths=hs.lists(hs.integers(0, 7), min_size=4, max_size=4))
def test_blocked_branches_still_raise(s, lengths):
    """When `scenarios_with_blocked_branch` adds its z readout of 1 on
    |0...0> as the first intervention of its subsystem, every cut that
    applies it has weight exactly 0 and raises for every subset, however
    small the cut's other operators make the bound it is judged against."""
    blocked = len(s.interventions) - 1
    # a drawn density never has the entry 1.0 exactly; |0...0> does
    if s.initial_state[0, 0] != 1.0 or s.chains.rank[blocked] != 0:
        return
    i = s.interventions[blocked].subsystem
    cut = list(cut_of_lengths(s, lengths))
    cut[i] = max(cut[i], 1)
    for subset in engine.all_subsets(s.n):
        assert outcome_of(engine.state_after, s, tuple(cut), subset) is ImpossibleOutcomeError


def zero_padded_prefixes(s, cut):
    """The cuts `push` holds on its way to `cut`: after each head the cut
    applies, the cut with every later head at 0."""
    prefix, out = [0] * s.n, []
    for j in s.chains.heads:
        if cut[j]:
            prefix[j] = cut[j]
            out.append(tuple(prefix))
    return out


@SUITE
@given(s=scenarios_of_rank(), taus=hs.lists(tau_values, min_size=4, max_size=4))
def test_polystate_pushes_once_per_selection(s, taus):
    """Every distinct selection gets a cache entry; every entry is a
    selection, a zero-padded prefix of one or the empty cut; and no cut's
    factor is formed twice: each entry but the empty cut's, which is Psi
    itself, costs exactly one subsystem application."""
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    selections = {engine.past_cut(s, taus, subset) for subset in engine.all_subsets(s.n)}
    prefixes = {p for cut in selections for p in zero_padded_prefixes(s, cut)}
    empty = (0,) * s.n
    applied = []
    original = engine._apply

    def counting(dims, j, m, psi):
        applied.append(j)
        return original(dims, j, m, psi)

    cache = {}
    engine._apply = counting
    try:
        engine.polystate_at(s, taus, cache)
        assert set(cache) >= selections
    except ImpossibleOutcomeError:
        pass
    finally:
        engine._apply = original
    assert set(cache) <= selections | prefixes | {empty}
    assert len(applied) == len(cache) - (empty in cache)


def fresh_entry(s, cut, subset):
    """`state_after`'s factor, weight, verdict and state for one request,
    pushed from the initial factor with no cache."""
    psi = engine.push(s, cut)
    weight = engine.branch_weight(psi)
    why = engine.impossibility(s, cut, weight)
    state = (ImpossibleOutcomeError if why else
             outcome_of(linalg.gram_density, engine.subset_factor(s.dims, psi, subset), weight))
    return psi, weight, why, state


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank(), tilts=(0.0, FAINT_TILT)),
       cuts=hs.lists(hs.lists(hs.integers(0, 6), min_size=4, max_size=4),
                     min_size=1, max_size=5),
       data=hs.data())
def test_shared_cache_equals_fresh_pushes(s, cuts, data):
    """Drawn cuts and some of their zero-padded prefixes, requested in a
    drawn order with drawn subsets through one cache, on initial states of
    rank 1, 2 and D with blocked and faint readouts: every factor, weight,
    verdict and state equals a fresh push's, bit for bit. Afterwards every
    read cut's entry is a `PushedCut` whose factor, weight and verdict equal
    a fresh push's, judged once; every other entry, a prefix only passed
    through, is a bare factor equal to its cut's fresh push, and no unread
    cut is judged."""
    cuts = {cut_of_lengths(s, lengths) for lengths in cuts}
    prefixes = sorted({p for cut in cuts for p in zero_padded_prefixes(s, cut)} - cuts)
    picked = data.draw(hs.lists(hs.booleans(), min_size=len(prefixes), max_size=len(prefixes)))
    requests = sorted(cuts) + [p for p, pick in zip(prefixes, picked) if pick]
    requests = data.draw(hs.permutations(requests))
    subsets = list(engine.all_subsets(s.n))
    cache, judged = {}, []
    judge = engine.impossibility
    for cut in requests:
        subset = data.draw(hs.sampled_from(subsets))
        with mock.patch.object(engine, "impossibility",
                               lambda s, cut, *args: judged.append(cut) or judge(s, cut, *args)):
            got = outcome_of(engine.state_after, s, cut, subset, cache)
        psi, weight, why, state = fresh_entry(s, cut, subset)
        entry = cache[cut]
        assert entry.factor.tobytes() == psi.tobytes()
        assert entry.weight.hex() == weight.hex() and entry.impossible == why
        if isinstance(state, type):
            assert got is state
        else:
            assert got.tobytes() == state.tobytes()
    assert sorted(judged) == sorted(requests)
    for cut, entry in cache.items():
        psi, weight, why, _ = fresh_entry(s, cut, (0,))
        if cut in requests:
            assert isinstance(entry, engine.PushedCut)
            assert entry.factor.tobytes() == psi.tobytes()
            assert entry.weight.hex() == weight.hex() and entry.impossible == why
        else:
            assert isinstance(entry, np.ndarray) and entry.tobytes() == psi.tobytes()


def raised_or_state(read, *args):
    """What a read returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except (ImpossibleOutcomeError, StateValidationError) as exc:
        return type(exc), str(exc)


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank(), tilts=FAINT_TILTS),
       cuts=hs.lists(hs.lists(hs.integers(0, 6), min_size=4, max_size=4),
                     min_size=1, max_size=5),
       data=hs.data())
def test_plan_reads_equal_fresh_state_reads(s, cuts, data):
    """Drawn (cut, subset) requests, cuts repeated and some of their
    zero-padded prefixes among them, read in a drawn order by
    `engine._state` over one shared dict, as `audit.leaf_states` reads a
    leaf, on initial states of rank 1, 2 and D with blocked and faint
    readouts: each state equals `engine._state`'s read of its request with
    a fresh cache, bit for bit, and the shared reads raise the type and
    message of the first request whose fresh read raises. The first cut
    applies the last intervention, the readout when one was added, so that
    blocked readouts are read."""
    cuts = [cut_of_lengths(s, lengths) for lengths in cuts]
    if s.interventions:
        last = len(s.interventions) - 1
        first = list(cuts[0])
        j = s.interventions[last].subsystem
        first[j] = max(first[j], int(s.chains.rank[last]) + 1)
        cuts[0] = tuple(first)
    prefixes = sorted({p for cut in cuts for p in zero_padded_prefixes(s, cut)})
    picked = data.draw(hs.lists(hs.booleans(), min_size=len(prefixes), max_size=len(prefixes)))
    subsets = list(engine.all_subsets(s.n))
    requests = [(cut, data.draw(hs.sampled_from(subsets)))
                for cut in cuts + [p for p, pick in zip(prefixes, picked) if pick]]
    requests = data.draw(hs.permutations(requests))
    want = []
    for cut, subset in requests:
        want.append(raised_or_state(engine._state, s, cut, subset, {}))
        if isinstance(want[-1], tuple):
            break
    cache = {}
    got = raised_or_state(lambda: [engine._state(s, cut, subset, cache)
                                   for cut, subset in requests])
    if isinstance(want[-1], tuple):
        assert got == want[-1]
    else:
        assert [state.tobytes() for state in got] == [state.tobytes() for state in want]


def reference_push(s, ids, outcomes=None):
    """`engine.push` as a plain loop: each subsystem's operators (recorded
    branches, or the ones `outcomes` assigns) multiplied in (tau, id) order,
    and applied in the order of each subsystem's first."""
    outcomes = outcomes or {}
    products = {}
    for k in sorted(set(ids), key=lambda k: (s.interventions[k].tau, k)):
        iv = s.interventions[k]
        if isinstance(iv.op, UnitaryOp):
            op = iv.op.matrix
        else:
            op = iv.op.kraus[outcomes.get(k, iv.op.chosen)]
        j = iv.subsystem
        products[j] = op @ products[j] if j in products else op
    psi = s.initial_factor
    for j, m in products.items():
        psi = m @ psi.reshape(int(np.prod(s.dims[:j])), s.dims[j], -1)
    return psi.reshape(int(np.prod(s.dims)), -1)


def prefix_ids(s, lengths):
    """The first lengths[j] interventions of each subsystem j in (tau, id)
    order, listed backwards with the first one repeated."""
    ids = [k for line, length in zip(proper_time_lines(s), lengths) for k in line[:length]]
    return tuple(ids[::-1] + ids[:1])


def variants(s):
    """s itself first, so that its products exist before any variant asks
    for its own: a copy with the interventions in reverse order, a boosted
    copy, and every subsystem's outcomes flipped in turn."""
    return ([s, replace(s, interventions=s.interventions[::-1]), boosted_scenario(s, 0.7)]
            + [flip_outcomes(s, j) for j in range(s.n)])


@SUITE
@given(s=scenarios_of_rank(), lengths=hs.lists(hs.integers(0, 6), min_size=4, max_size=4),
       picks=hs.lists(hs.integers(0, 5), max_size=8))
def test_push_equals_multiplication_in_proper_time_order(s, lengths, picks):
    """Bit for bit on drawn, empty and full cuts (read from
    `Scenario.chains`), with and without outcome overrides, for the scenario
    and variants that each record their own branches; the reference
    multiplies the cut's ids, listed out of order and repeated."""
    for v in variants(s):
        counts = [len(line) for line in proper_time_lines(v)]
        others = {k: (v.interventions[k].op.chosen + 1) % len(v.interventions[k].op.kraus)
                  for k in picks
                  if k < len(v.interventions) and isinstance(v.interventions[k].op, SelectiveOp)}
        for cut in (cut_of_lengths(v, lengths), (0,) * v.n, tuple(counts)):
            ids = prefix_ids(v, cut)
            assert v.cut_ids(cut) == tuple(sorted(set(ids)))
            for outcomes in (None, {}, others):
                assert np.array_equal(engine.push(v, cut, outcomes),
                                      reference_push(v, ids, outcomes))


def ghz_scenario(names, interventions):
    """GHZ over the named qubits, on static worldlines three apart, with
    the given scenario-file interventions."""
    ket = [0.0] * 2**len(names)
    ket[0] = ket[-1] = 2**-0.5
    return parse_scenario(json.dumps({
        "spacetime": {"d": 1},
        "subsystems": [{"name": name, "dim": 2,
                        "worldline": {"anchor": [0.0, 3.0 * x], "segments": [],
                                      "final_v": [0.0]}}
                       for x, name in enumerate(names)],
        "initial_state": {"ket": ket},
        "interventions": interventions,
    }))


def readout(name, tau, basis, outcome):
    return {"on": name, "tau": tau, "measure": {"projective_basis": basis, "outcome": outcome}}


def ghz5_scenario():
    """GHZ-5 on five static worldlines, a z readout on every qubit at tau 1
    and an x readout on A, C and E at tau 2: 256 branches, of which every
    one with disagreeing z outcomes has weight exactly 0."""
    return ghz_scenario("ABCDE", [readout(name, 1.0, "pauli_z", 0) for name in "ABCDE"]
                        + [readout(name, 2.0, "pauli_x", 1) for name in "ACE"])


def assert_stack_equals_single_pushes(s, cut, fixed: int, backwards: bool):
    """Override the cut's selectives after the first `fixed` of them with
    outcome arrays, in `selective_order` or backwards, for every assignment
    to those fixed: once as the open mesh of `np.ix_`, one axis per
    selective, and once as flat arrays listing every assignment in turn.
    Each slice of either stack equals the push with its outcomes fixed, bit
    for bit, and its row-wise pairwise sum of squares is that push's
    `branch_weight`, exactly 0 where the dense push through the same
    branches has trace 0."""
    inside = set(s.cut_ids(cut))
    sel = tuple(k for k in ensemble.selective_order(s) if k in inside)
    fixed = min(fixed, len(sel))
    opened = sel[fixed:][::-1] if backwards else sel[fixed:]
    counts = [len(s.interventions[k].op.kraus) for k in opened]
    assignments = list(product(*map(range, counts)))
    flat = np.array(assignments, dtype=np.intp).reshape(len(assignments), -1).T
    factor = (int(np.prod(s.dims)), s.initial_factor.shape[1])
    for prefix in product(*[range(len(s.interventions[k].op.kraus)) for k in sel[:fixed]]):
        pinned = dict(zip(sel, prefix))
        mesh = engine.push(s, cut, {**pinned, **dict(zip(opened, np.ix_(*map(range, counts))))})
        listed = engine.push(s, cut, {**pinned, **dict(zip(opened, flat))})
        assert mesh.shape == (*counts, *factor)
        assert listed.shape == ((len(assignments),) if opened else ()) + factor
        singles = []
        for rest in assignments:
            outcomes = {**pinned, **dict(zip(opened, rest))}
            single = engine.push(s, cut, outcomes)
            dense = apply_interventions(s, s.cut_ids(cut), s.initial_state, outcomes=outcomes)
            singles.append((outcomes, single, np.trace(dense)))
        for stack in (mesh, listed):
            rows = stack.reshape(-1, *factor)
            weights = np.square(rows.reshape(len(rows), -1).view(float)).sum(axis=1)
            assert len(rows) == len(singles)
            for (outcomes, single, trace), row, weight in zip(singles, rows, weights):
                assert np.array_equal(row, single), outcomes
                assert weight == engine.branch_weight(single)
                assert trace != 0 or weight == 0.0


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank()),
       lengths=hs.lists(hs.integers(0, 7), min_size=4, max_size=4),
       fixed=hs.integers(0, 3), backwards=hs.booleans())
def test_stacked_push_slices_equal_single_pushes(s, lengths, fixed, backwards):
    """On drawn cuts of scenarios with pure, rank-2 and full-rank mixed
    initial states, with and without a blocked branch."""
    assert_stack_equals_single_pushes(s, cut_of_lengths(s, lengths), fixed, backwards)


def test_stacked_push_slices_equal_single_pushes_on_ghz5():
    s = ghz5_scenario()
    every = tuple(map(len, s.chains.products))
    for fixed, backwards in ((0, False), (0, True), (3, False)):
        assert_stack_equals_single_pushes(s, every, fixed, backwards)
    weights = ensemble.enumerate_branches(s).tolist()
    assert weights.count(0.0) == 256 - 16


def test_stacked_push_keeps_no_prefix_stack():
    """A push of a flat stack of every GHZ-5 assignment holds at most two
    stacks at once, the one a step reads and the one it writes: no prefix's
    stack outlives its step, where keeping every head's would hold five."""
    s = ghz5_scenario()
    every = tuple(map(len, s.chains.products))
    sel = ensemble.selective_order(s)
    outcomes = dict(zip(sel, np.array(list(product(range(2), repeat=len(sel)))).T))
    engine.push(s, every, outcomes)  # the scenario's tables, formed before tracing
    tracemalloc.start()
    try:
        stack = engine.push(s, every, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (256, 32, 1)
    assert peak < 3 * stack.nbytes


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank(), tilts=FAINT_TILTS),
       taus=hs.lists(tau_values, min_size=4, max_size=4),
       cuts=hs.lists(hs.lists(hs.integers(0, 6), min_size=4, max_size=4),
                     min_size=1, max_size=4),
       fixed=hs.integers(0, 3), backwards=hs.booleans(), data=hs.data())
def test_cache_pushes_equal_fresh_pushes(s, taus, cuts, fixed, backwards, data):
    """`push`'s recursion run through one shared cache (`engine._pushed`),
    after `sector` and `polystate_at` reads have left judged entries and
    bare prefixes in it, on drawn cuts and their zero-padded prefixes in a
    drawn order: every factor equals a fresh `push`'s, bit for bit, and
    every entry the reads left stays as it was. A push with flat or mesh
    `outcomes` (`assert_stack_equals_single_pushes`) leaves the cache
    untouched."""
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    cache = {}
    if data.draw(hs.booleans()):
        outcome_of(engine.polystate_at, s, taus, cache)
    for subset in data.draw(hs.lists(hs.sampled_from(list(engine.all_subsets(s.n))), max_size=4)):
        outcome_of(engine.sector, s, taus, subset, cache)
    held = dict(cache)
    cuts = [cut_of_lengths(s, lengths) for lengths in cuts]
    requests = data.draw(hs.permutations(
        sorted({*cuts, *(p for cut in cuts for p in zero_padded_prefixes(s, cut))})))
    for cut in requests:
        assert engine._pushed(s, cut, cache).tobytes() == engine.push(s, cut).tobytes()
    assert all(cache[cut] is entry for cut, entry in held.items())
    held = dict(cache)
    assert_stack_equals_single_pushes(s, cuts[0], fixed, backwards)
    assert cache.keys() == held.keys()
    assert all(cache[cut] is entry for cut, entry in held.items())


# The rounding bound of `linalg.gram_density`: where it decides, the Gram
# state is the always-eigvalsh reference's, bit for bit, no eigvalsh runs,
# and the reference's least eigenvalue keeps within the proved bound.

PROVABLE = linalg._PROVABLE_K


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def provable(phi, weight) -> bool:
    m, k = sorted(phi.shape)
    return m == 1 or (m < len(PROVABLE) and k <= PROVABLE[m]
                      and linalg._SAFE_WEIGHTS[0] <= weight <= linalg._SAFE_WEIGHTS[1])


def assert_gram_equals_reference(phi, weight):
    """`gram_density` against `reference_gram_density`, bit for bit; where
    the bound decides, with no eigvalsh call and the reference's least
    eigenvalue at or above minus the bound, else with one, on the factor's
    small side. The least eigenvalue is above the clamp trigger either way."""
    want, least = reference_gram_density(phi, weight)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        got = linalg.gram_density(phi, weight)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    m, k = sorted(phi.shape)
    if provable(phi, weight):
        assert spy.call_count == 0
        assert least >= -linalg._gram_error(k, m)
    else:
        assert [c.args[0].shape for c in spy.call_args_list] == [(m, m)]
    assert least > linalg.CLAMP_TRIGGER


@hs.composite
def provable_factors(draw):
    """A factor whose sides m <= k have k <= `_PROVABLE_K[m]`, wide or
    tall, drawn as one of
    - rank 1, 2 or full, its rows and columns scaled so that its entries
      spread over up to 1e-150 to 1;
    - nearly dependent rows: one row plus 1e-8 to 1e-16 of random ones;
    - blocked-branch dust: U U^dagger - 1 for a random unitary U, the
      rounding residue of a branch whose exact weight is 0."""
    m = draw(hs.integers(1, len(PROVABLE) - 1))
    k = draw(hs.one_of(hs.just(PROVABLE[m]), hs.integers(m, PROVABLE[m])))
    rng = np.random.default_rng(draw(seeds))
    kind = draw(hs.sampled_from(["rank", "dependent", "dust"]))
    if kind == "rank":
        rank = min(m, draw(hs.sampled_from([1, 2, m])))
        phi = complex_normal(rng, (m, rank)) @ complex_normal(rng, (rank, k))
        spread = draw(hs.sampled_from([0, 16, 150]))
        phi *= 10.0 ** -rng.uniform(0, spread / 2, (m, 1))
        phi *= 10.0 ** -rng.uniform(0, spread / 2, (1, k))
    elif kind == "dependent":
        phi = complex_normal(rng, (m, k))
        phi = phi[:1] + 10.0 ** -draw(hs.integers(8, 16)) * phi
    else:
        u = random_unitary(rng, k)
        phi = (u @ u.conj().T - np.eye(k))[:m]
    return phi.T if draw(hs.booleans()) else phi


@SUITE
@given(phi=provable_factors())
def test_gram_density_within_the_bound_equals_the_reference(phi):
    weight = engine.branch_weight(phi)
    assume(weight > 0)
    assert_gram_equals_reference(phi, weight)


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank(), tilts=(0.0, FAINT_TILT)),
       lengths=hs.lists(hs.integers(0, 6), min_size=4, max_size=4))
def test_pushed_gram_states_equal_the_reference(s, lengths):
    """Every subset's state of a drawn cut, faint readouts and blocked
    branches included, on factors of rank 1, 2 and full."""
    psi = engine.push(s, cut_of_lengths(s, lengths))
    weight = engine.branch_weight(psi)
    assume(weight > 0)
    for subset in engine.all_subsets(s.n):
        assert_gram_equals_reference(engine.subset_factor(s.dims, psi, subset), weight)


@SUITE
@given(m=hs.integers(2, len(PROVABLE)), tall=hs.booleans(), seed=seeds)
def test_gram_density_reads_the_spectrum_one_size_past_the_bound(m, tall, seed):
    """One inner dimension past `_PROVABLE_K[m]`, or any factor of an order
    the table does not reach, keeps eigvalsh; m = 1 needs no bound."""
    k = PROVABLE[m] + 1 if m < len(PROVABLE) else m
    phi = complex_normal(np.random.default_rng(seed), (m, k))
    phi = phi.T if tall else phi
    assert not provable(phi, engine.branch_weight(phi))
    assert_gram_equals_reference(phi, engine.branch_weight(phi))


def test_gram_density_reads_the_spectrum_of_weights_outside_the_safe_range():
    """A factor the bound would decide by its shape keeps eigvalsh when its
    weight is small enough for underflow to matter, or large enough for the
    Gram product to overflow."""
    phi = np.array([[1, 1j, -1], [0.5j, 1, 0.25]])
    for scale in (1e-145, 5e153):
        tiny_or_huge = phi * scale
        weight = engine.branch_weight(tiny_or_huge)
        assert not linalg._SAFE_WEIGHTS[0] <= weight <= linalg._SAFE_WEIGHTS[1]
        assert_gram_equals_reference(tiny_or_huge, weight)


def test_ghz7_sectors_equal_the_reference_without_eigvalsh():
    """All 127 sectors of GHZ-7, at proper-time tuples that put between
    none and all of its readouts and its unitary in their pasts, are
    decided by the bound and equal the always-eigvalsh reference kernel,
    bit for bit."""
    s = ghz_scenario("ABCDEFG", [
        readout("A", 1.0, "pauli_x", 0), readout("C", 1.2, "pauli_y", 1),
        readout("E", 0.8, "pauli_n(0.7, 0.3)", 0), readout("G", 2.0, "pauli_x", 1),
        {"on": "G", "tau": 0.5, "unitary": "hadamard"}])
    tuples = ([tau] * 7 for tau in (0.0, 2.0, 5.0, 20.0))
    for taus in [*tuples, [1.1, 4.0, 7.0, 2.5, 9.0, 1.6, 25.0]]:
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError):
            p = engine.polystate_at(s, taus)
        assert len(p.sectors) == 127
        for subset, got in p.sectors.items():
            psi = engine.push(s, engine.past_cut(s, taus, subset))
            phi = engine.subset_factor(s.dims, psi, subset)
            want = reference_gram_density(phi, engine.branch_weight(psi))[0]
            assert got.tobytes() == want.tobytes(), (taus, subset)


def test_ghz8_sectors_equal_the_reference_without_eigvalsh():
    """All 255 sectors of pure GHZ-8, with and without readouts in their
    pasts, are decided without eigvalsh and equal the always-eigvalsh
    reference kernel, bit for bit: the full sector's factor is 256 x 1, past
    the bound's table, and a 1 x 1 small side needs no bound."""
    s = ghz_scenario("ABCDEFGH", [
        readout("A", 1.0, "pauli_x", 0), readout("D", 1.2, "pauli_y", 1),
        readout("H", 0.8, "pauli_n(0.7, 0.3)", 0)])
    for taus in ([0.0] * 8, [30.0] * 8, [1.1, 4.0, 7.0, 2.5, 9.0, 1.6, 25.0, 0.5]):
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError):
            p = engine.polystate_at(s, taus)
        assert len(p.sectors) == 255
        for subset, got in p.sectors.items():
            psi = engine.push(s, engine.past_cut(s, taus, subset))
            phi = engine.subset_factor(s.dims, psi, subset)
            want = reference_gram_density(phi, engine.branch_weight(psi))[0]
            assert got.tobytes() == want.tobytes(), (taus, subset)
