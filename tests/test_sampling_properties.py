"""Property suites for bulk Monte Carlo sampling: the bulk SplitMix64
doubles against the generator run one output at a time, `sample_runs`
against a per-run scalar loop over the seed's one stream, the code-based run
counting against counting outcome rows with `np.unique(..., axis=0)`, and
`empirical_sector`'s stacked pushes against one `branch_state` per branch."""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from polystate import ensemble
from polystate.errors import EmptyEnsembleError, ImpossibleOutcomeError

from helpers import branch_table, load_fixture, splitmix64_uniforms
from test_kernel_properties import SUITE, scenarios_of_rank, scenarios_with_blocked_branch
from test_properties import tau_values

seeds64 = hs.one_of(hs.sampled_from([0, 1, 2**64 - 1]),
                    hs.integers(min_value=0, max_value=2**64 - 1))


def scalar_sample_runs(s, n_runs, seed):
    """The per-run loop: the seed's one SplitMix64 stream, drawn one double
    at a time, k per run, one run after another, and a walk over a dict of
    prefix weights per selective."""
    order = ensemble.selective_order(s)
    branches = branch_table(s)
    counts = [len(s.interventions[k].op.kraus) for k in order]
    k = len(order)
    outcomes = np.zeros((n_runs, k), dtype=int)
    if k == 0:
        return outcomes
    prefix_prob = {(): 1.0}
    for depth in range(1, k + 1):
        for branch, probability in branches.items():
            key = branch[:depth]
            prefix_prob[key] = prefix_prob.get(key, 0.0) + probability
    stream = splitmix64_uniforms(seed)
    for run in range(n_runs):
        us = [next(stream) for _ in range(k)]
        prefix = ()
        for j in range(k):
            u = us[j] * prefix_prob.get(prefix, 0.0)
            acc = 0.0
            choice = counts[j] - 1
            for o in range(counts[j]):
                acc += prefix_prob.get(prefix + (o,), 0.0)
                if u <= acc:
                    choice = o
                    break
            outcomes[run, j] = choice
            prefix = prefix + (choice,)
    return outcomes


def observed_counts(freq):
    """The nonzero counts of a `branch_frequencies` array, by outcome tuple."""
    return {outcomes: int(c) for outcomes, c in np.ndenumerate(freq) if c}


def rows_frequencies(outcomes):
    """Outcome-tuple counts by unique rows."""
    if outcomes.shape[1] == 0:
        return {(): outcomes.shape[0]}
    rows, counts = np.unique(outcomes, axis=0, return_counts=True)
    return {tuple(int(v) for v in row): int(c) for row, c in zip(rows, counts)}


def rows_empirical_sector(log, s, subset, taus):
    """`empirical_sector` with retained runs grouped by unique rows; each
    branch state comes from the same kernel, `ensemble.branch_state`, so the
    two agree bit for bit (the kernel itself is checked against the full
    push in `test_kernel_properties`)."""
    subset, inside, applied = ensemble._selection(s, subset, taus)
    inside = set(s.cut_ids(inside))
    order = log.order
    keep_cols = [j for j, k in enumerate(order) if k in inside]
    recorded = np.array([s.interventions[order[j]].op.chosen for j in keep_cols])
    mask = np.ones(log.n_runs, dtype=bool)
    if keep_cols:
        mask = np.all(log.outcomes[:, keep_cols] == recorded, axis=1)
    retained = log.outcomes[mask]
    if retained.shape[0] == 0:
        raise EmptyEnsembleError("no retained run")
    dim = int(np.prod([s.dims[i] for i in subset]))
    acc = np.zeros((dim, dim), dtype=complex)
    if retained.shape[1] == 0:
        rows, counts = np.zeros((1, 0), dtype=np.int8), np.array([retained.shape[0]])
    else:
        rows, counts = np.unique(retained, axis=0, return_counts=True)
    for row, count in zip(rows, counts):
        assignment = {k: int(row[j]) for j, k in enumerate(order)}
        acc += count * ensemble.branch_state(s, applied, subset, assignment)
    return acc / retained.shape[0]


def sector_or_error(f, *args):
    """The sector, or the type of the error it raised."""
    try:
        return f(*args)
    except (EmptyEnsembleError, ImpossibleOutcomeError) as exc:
        return type(exc)


def test_splitmix64_reference_gives_the_published_first_output():
    # seed 0's first output is 0xE220A8397B1DCDAF
    assert next(splitmix64_uniforms(0)) == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


@SUITE
@given(seed=seeds64, first=hs.integers(min_value=0, max_value=5000),
       count=hs.integers(min_value=0, max_value=40))
def test_bulk_uniforms_equal_the_sequential_generator(seed, first, count):
    stream = splitmix64_uniforms(seed)
    for _ in range(first):
        next(stream)
    want = [next(stream) for _ in range(count)]
    assert ensemble._uniforms(seed, first, count).tolist() == want


@SUITE
@given(s=scenarios_with_blocked_branch(), n_runs=hs.integers(min_value=1, max_value=300),
       seed=seeds64, taus=hs.lists(tau_values, min_size=4, max_size=4))
def test_sample_runs_and_counting_equal_scalar_references(s, n_runs, seed, taus):
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    log = ensemble.sample_runs(s, n_runs, seed)
    # the log's only per-run array is its codes; the weights are per branch
    arrays = {f.name for f in fields(log) if isinstance(getattr(log, f.name), np.ndarray)}
    assert arrays == {"weights", "codes"}
    assert log.weights.shape == tuple(len(s.interventions[k].op.kraus) for k in log.order)
    assert log.codes.dtype == np.intp and log.codes.shape == (n_runs,)
    assert np.array_equal(log.outcomes, scalar_sample_runs(s, n_runs, seed))
    assert observed_counts(ensemble.branch_frequencies(log)) == rows_frequencies(log.outcomes)
    for subset in ((0,), tuple(range(s.n))):
        got = sector_or_error(ensemble.empirical_sector, log, s, subset, taus)
        want = sector_or_error(rows_empirical_sector, log, s, subset, taus)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


def test_chunked_stacks_equal_one_stack():
    """With the byte cap cut to a few branches' factors, `enumerate_branches`
    and `empirical_sector` push their stacks in several chunks and give the
    bits of one stack; the suite checks that some empirical sector did span
    several chunks."""
    sector_pushes = []

    @SUITE
    @given(s=scenarios_with_blocked_branch(scenarios_of_rank()),
           n_runs=hs.integers(min_value=1, max_value=200), seed=seeds64,
           taus=hs.lists(tau_values, min_size=4, max_size=4), rows=hs.integers(1, 3))
    def check(s, n_runs, seed, taus, rows):
        taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
        whole = ensemble.enumerate_branches(s)
        log = ensemble.sample_runs(s, n_runs, seed)
        subsets = ((0,), tuple(range(s.n)))
        sectors = [sector_or_error(ensemble.empirical_sector, log, s, subset, taus)
                   for subset in subsets]
        cap = rows * 16 * int(np.prod(s.dims)) * s.initial_factor.shape[1]
        with mock.patch.object(ensemble, "_STACK_BYTES", cap), \
                mock.patch.object(ensemble, "push", wraps=ensemble.push) as pushes:
            assert np.array_equal(ensemble.enumerate_branches(s), whole)
            assert pushes.call_count > 1 or len(whole) <= rows
            for subset, want in zip(subsets, sectors):
                pushes.reset_mock()
                got = sector_or_error(ensemble.empirical_sector, log, s, subset, taus)
                sector_pushes.append(pushes.call_count)
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                else:
                    assert got == want

    check()
    assert max(sector_pushes) > 1


def test_sample_runs_across_the_block_boundary():
    # the first run of the second block, and logs that end on either side
    # of the boundary are prefixes of the longer one
    s = load_fixture("foliation_demo.scn")  # four equally likely branches
    n = ensemble._BLOCK + 3
    log = ensemble.sample_runs(s, n, seed=29)
    assert np.array_equal(log.outcomes, scalar_sample_runs(s, n, 29))
    for shorter in (ensemble._BLOCK - 2, ensemble._BLOCK, ensemble._BLOCK + 1):
        assert np.array_equal(log.outcomes[:shorter],
                              ensemble.sample_runs(s, shorter, seed=29).outcomes)


def test_sample_runs_with_more_outcomes_than_int8_holds():
    # 130 equally likely outcomes: indices 128 and 129 must neither wrap
    # nor overflow the outcome log
    s = load_fixture("bell_sigma_z.scn")
    count = 130
    kraus = (np.eye(2) / np.sqrt(count),) * count
    op = replace(s.interventions[0].op, kraus=kraus, chosen=129,
                 labels=tuple(str(o) for o in range(count)))
    s = replace(s, interventions=(replace(s.interventions[0], op=op),))
    log = ensemble.sample_runs(s, 3000, seed=5)
    assert np.array_equal(log.outcomes, scalar_sample_runs(s, 3000, 5))
    assert log.outcomes.max() == count - 1
    assert observed_counts(ensemble.branch_frequencies(log)) == rows_frequencies(log.outcomes)
    taus = (5.0, 5.0)
    assert np.array_equal(ensemble.empirical_sector(log, s, (0, 1), taus),
                          rows_empirical_sector(log, s, (0, 1), taus))
