"""Statistical oracles for the post-selection reading of selective updates.

A scenario's recorded outcomes single out a sub-ensemble of repeated runs.
`enumerate_branches` weighs every outcome assignment exactly, as one array
in mixed-radix code order; `sample_runs` draws seeded Monte Carlo runs from
one counter-based stream per seed, the uniforms of all runs in bulk, block
by block, with run r depending only on (seed, r), and logs each run as one
code over that array; `empirical_sector` rebuilds the ensemble a subsystem
subset holds at given proper times, discarding runs only on the outcomes
whose events lie inside the subset's union of causal pasts, since nothing
else can have reached it. `analytic_sector` is the exact version of the
same conditioning and must agree with the engine's sector.

A branch goes through one Kraus operator per intervention, so its weight
and its states come from the engine's pushed factor (`engine.push`), as
every sector does: a branch weight is its squared norm
(`engine.branch_weight`), and a retained run's state its Gram matrix on the
subset over that weight, read as the engine reads a sector, from the
branch's judged entry (`engine._judged`, `engine._read`). A push keeps
no cache: it never reads or writes one a caller holds, and no prefix stack
outlives its step, so the ensemble passes none. Many branches are pushed
at once: `engine.push` takes arrays of outcomes and stacks their branches
on leading axes, so the branch weights (every assignment, as an `np.ix_`
mesh) and the distinct retained assignments of the empirical column (a
flat list) come from stacked pushes, chunk by chunk, not from one
Python-level push per branch. `analytic_sector` alone pushes the full
density operator through every channel and traces afterwards, so that it
stays an independent check of that kernel.

`compare_to_polystate` sets both against the engine's sectors, all read
from one `engine.polystate_at`, in one pass over the subsets grouped by
the key of their dense push: the applied cut, and the interventions in it
outside the past union, which act as channels. The subsets of one group
share more than the push: they retain the same runs, and those runs hold
the same branches. So per group the oracle pushes the density operator
once and every subset is traced from it, the retained codes and their
distinct branches are worked out once (`_Retained`), and each branch is
pushed and judged once, the recorded one read as the applied cut's own
entry in the cut cache of the `polystate_at`. Per subset there is one read
of each distinct branch and one of the engine's sector, which is not kept;
its two distances are queued against it, and each group's push, branches
and sectors are released before the next group's are made. A refusal is
the one reading each subset on its own raises: the first refused subset in
subset order, its empirical refusal before its analytic one.

`branch_state` is the one read of a state on overridden outcomes: the
audit's ignorance cell (`audit.criteria_report`) reads a description with
one party's recorded outcomes flipped through it, on the same scenario.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import linalg
from .engine import (_judged, _read, _weighed, branch_weight, check_subset, impossibility,
                     past_cut, polystate_at, push, refuse)
from .errors import (BranchExplosionError, EmptyEnsembleError, ImpossibleOutcomeError,
                     StateValidationError)
from .scenario import Scenario, SelectiveOp, apply_interventions

BRANCH_CAP = 10**6


def selective_order(s: Scenario) -> tuple:
    """Scenario indices of the selective interventions, in the fixed
    (tau, subsystem) order used for outcome records and branch tuples."""
    ids = [k for k, iv in enumerate(s.interventions) if isinstance(iv.op, SelectiveOp)]
    return tuple(sorted(ids, key=lambda k: (s.interventions[k].tau, s.interventions[k].subsystem)))


def _outcome_counts(s: Scenario, order) -> list:
    return [len(s.interventions[k].op.kraus) for k in order]


def enumerate_branches(s: Scenario) -> np.ndarray:
    """The Born weight of every outcome assignment to the selective
    interventions, as one flat array in mixed-radix code order (see
    `RunLog.codes`); its length is the branch count, and the weights sum to
    one. A weight is the squared norm of the initial state pushed through
    every intervention on that assignment's branches. The factors come from
    stacked pushes of the full cut over every assignment
    (`_stacked_pushes`), each row weighed by `engine.branch_weight`. More
    branches than `BRANCH_CAP` raise `BranchExplosionError`.
    """
    order = selective_order(s)
    total = math.prod(_outcome_counts(s, order))
    if total > BRANCH_CAP:
        raise BranchExplosionError(f"{total} branches exceed the cap {BRANCH_CAP}")
    every = tuple(map(len, s.chains.products))
    return np.concatenate([branch_weight(stack) for stack in _stacked_pushes(s, every, order)])


def _digits(codes, counts) -> np.ndarray:
    """The outcome tuples that mixed-radix codes stand for, one row per
    code, shape (len(codes), len(counts))."""
    place = np.array([math.prod(counts[j + 1:]) for j in range(len(counts))], dtype=np.intp)
    return codes[:, None] // place % np.array(counts, dtype=np.intp)


@dataclass
class RunLog:
    seed: int
    n_runs: int
    order: tuple  # scenario indices of the selectives, sampling order
    weights: np.ndarray  # branch weights, shape: the outcome counts of `order`
    # each run's outcome tuple as one mixed-radix integer, first selective
    # most significant, so that code order is lexicographic outcome order
    # and `weights.flat[code]` is the run's branch weight
    codes: np.ndarray  # shape (n_runs,)

    @property
    def outcomes(self) -> np.ndarray:
        """Each run's outcome tuple, shape (n_runs, len(order)), read off its
        code. The log stores only the codes; this view stays because the
        benchmark's `sample_runs` counter reads it."""
        return _digits(self.codes, self.weights.shape)


# runs drawn per block: bounds the working arrays of one call while the
# outcome log itself is allocated once, up front
_BLOCK = 1 << 16

# bytes one stacked push may hold (`engine.push` with outcome arrays); a
# larger stack is pushed chunk by chunk
_STACK_BYTES = 1 << 24

# bytes of difference matrices that may wait for stacked eigvalsh calls
# (`_TraceDistances`); a matrix this large is read on its own, where the
# call's own cost outweighs the per-call overhead that stacking saves
_EIGVALSH_BYTES = 1 << 20


def _stacked_pushes(s: Scenario, cut, sel, rows=None):
    """Factors of outcome assignments to the selectives `sel` (ids inside
    the cut), pushed through the cut and yielded chunk by chunk as stacks
    of shape (m, D, r), one factor per assignment, in order. Without rows,
    every assignment in mixed-radix code order, first selective most
    significant: each chunk fixes the leading selectives and passes the
    trailing ones as an `np.ix_` mesh, as few fixed as keep it within
    `_STACK_BYTES`. Given rows, an (m, len(sel)) int array of assignments,
    just those, in chunks within `_STACK_BYTES`."""
    counts = _outcome_counts(s, sel)
    row = 16 * math.prod(s.dims) * s.initial_factor.shape[1]  # complex factor
    if rows is None:
        fixed = 0
        while fixed < len(sel) and row * math.prod(counts[fixed:]) > _STACK_BYTES:
            fixed += 1
        size = math.prod(counts[fixed:])
        mesh = np.ix_(*map(range, counts[fixed:]))
        for c in range(math.prod(counts[:fixed])):
            prefix = map(int, np.unravel_index(c, counts[:fixed]))
            stack = push(s, cut, dict(zip(sel, (*prefix, *mesh))))
            yield stack.reshape(size, *stack.shape[-2:])
        return
    size = max(1, _STACK_BYTES // row)
    for first in range(0, len(rows), size):
        chunk = rows[first:first + size]
        stack = push(s, cut, dict(zip(sel, chunk.T)))
        yield stack.reshape(len(chunk), *stack.shape[-2:])


# SplitMix64 (Steele, Lea & Flood 2014): output i of the stream seeded with
# s mixes the counter s + (i + 1) gamma (mod 2**64) through a bijection, so
# any stretch of the stream is computed at once, in numpy's core
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))


def _uniforms(seed: int, first: int, count: int) -> np.ndarray:
    """Doubles first, ..., first + count - 1 of the SplitMix64 stream seeded
    with `seed`, each the top 53 bits of an output over 2**53."""
    z = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed)
    for shift, factor in _MIX:
        z ^= z >> shift
        z *= factor
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _prefix_cumulants(weights) -> list:
    """Per depth j, the prefix sums at depth j (one per outcome prefix, in
    mixed-radix code order) and the running sums over their children,
    shape (prefixes, counts[j]), for branch weights shaped by the outcome
    counts. Each prefix sum adds its branches' weights one by one in code
    order, and each running sum adds the children left to right, so the
    tables hold the floats a walk over the branches accumulating from 0.0
    would (up to the sign of a zero, which no comparison sees)."""
    counts = weights.shape
    sums = [np.ones(1)]
    for depth in range(1, len(counts) + 1):
        sums.append(np.cumsum(weights.reshape(math.prod(counts[:depth]), -1), axis=1)[:, -1])
    return [(sums[j], np.cumsum(sums[j + 1].reshape(-1, c), axis=1))
            for j, c in enumerate(counts)]


def sample_runs(s: Scenario, n_runs: int, seed: int) -> RunLog:
    """N independent runs; outcome k of each selective intervention is drawn
    with its conditional Born probability given the earlier outcomes of the
    same run. Each seed has one stream of uniforms, SplitMix64 seeded with
    it: with k selectives, run r takes doubles r k, ..., r k + k - 1 of it,
    so run r's code depends only on (seed, r) and k, not on n_runs or on how
    the runs are split into blocks. The uniforms are drawn in bulk, block by
    block of runs, into the one per-run array of the log, its codes,
    allocated up front, so a run count too large to allocate is refused here
    even when there is no selective.

    Run r's j-th uniform u picks the first outcome whose running sum of
    branch weights under the run's outcome prefix reaches u times the
    prefix's weight (the last outcome if none does).
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    order = selective_order(s)
    weights = enumerate_branches(s).reshape(_outcome_counts(s, order))
    codes = np.zeros(n_runs, dtype=np.intp)
    log = RunLog(seed=seed, n_runs=n_runs, order=order, weights=weights, codes=codes)
    k = len(order)
    if k == 0:
        return log

    tables = _prefix_cumulants(weights)
    for start in range(0, n_runs, _BLOCK):
        stop = min(start + _BLOCK, n_runs)
        us = _uniforms(seed, start * k, (stop - start) * k).reshape(-1, k)
        # the outcome prefix so far, coded as in `RunLog.codes`; the running
        # sums never decrease, so the count of those below u among the first
        # c - 1 is the index of the first one that reaches it, else c - 1
        prefix = np.zeros(stop - start, dtype=np.intp)
        for j, (total, cum) in enumerate(tables):
            u = us[:, j] * total[prefix]
            choice = np.zeros(stop - start, dtype=np.intp)
            for outcome in range(weights.shape[j] - 1):
                choice += cum[prefix, outcome] < u
            prefix = prefix * weights.shape[j] + choice
        codes[start:stop] = prefix
    return log


def branch_frequencies(log: RunLog) -> np.ndarray:
    """Observed run count per branch, shaped like `log.weights`."""
    return np.bincount(log.codes, minlength=log.weights.size).reshape(log.weights.shape)


class _Tally(NamedTuple):
    """A run log counted once: its selectives, and for each distinct code,
    in ascending order, the number of runs that hold it and its outcome
    digits, one row per code."""
    order: tuple
    runs: np.ndarray
    digits: np.ndarray


def _tally(log: RunLog) -> _Tally:
    # one count per code up to the largest held, not one per branch as in
    # `branch_frequencies`: a hand-made log may name few of many branches
    freq = np.bincount(log.codes)
    codes = np.flatnonzero(freq)
    return _Tally(log.order, freq[codes], _digits(codes, log.weights.shape))


def _selection(s: Scenario, subset, taus) -> tuple:
    """The sorted subset, the cut of the union of its members' causal
    pasts, and the cut of the interventions that reach its ensemble: those
    inside the past union, and every one on a subsystem outside the subset,
    which happens regardless, just to someone else's qubit."""
    subset = check_subset(s.n, subset)
    inside = past_cut(s, taus, subset)
    applied = tuple(inside[j] if j in subset else len(chain)
                    for j, chain in enumerate(s.chains.products))
    return subset, inside, applied


def branch_state(s: Scenario, cut, subset, outcomes) -> np.ndarray:
    """The subset's state after the cut's interventions on the branches
    `outcomes` assigns: the pushed factor, weighed and judged on those
    branches (`engine._judged`), read as every sector is (`engine._read`):
    its Gram matrix on the subset over its weight. A branch that cannot
    occur, which a drawn run never takes but a hand-made log can hold,
    raises `ImpossibleOutcomeError`."""
    return _read(s, subset, _judged(s, cut, push(s, cut, outcomes), outcomes))


def empirical_sector(log: RunLog, s: Scenario, subset, taus) -> np.ndarray:
    """The subset's ensemble average over retained runs.

    A run is retained iff its sampled outcome equals the recorded outcome
    for every selective intervention inside the subset's union of causal
    pasts. Each retained run contributes its normalized branch state,
    reduced to the subset; runs that differ only in outcomes that never
    reached the subset stay in the ensemble and contribute their own branch.

    The log is counted once (`_tally`), and its retained codes are read off
    as for a dense-key group of one subset (`_Retained`): the distinct
    assignments to the applied cut's selectives are pushed as one flat
    stack and judged once each, each read on the subset as `branch_state`
    reads its one branch, and added as run count times state in code order,
    the sum `branch_state` would make branch by branch.
    """
    subset, inside, applied = _selection(s, subset, taus)
    key = _dense_key(s.cut_ids, inside, applied)
    return _Retained(s, _tally(log), key, s.cut_ids).sector(subset)


class _Retained:
    """The empirical column's share of one dense-key group (`_dense_key`).

    Every subset of a group has the same applied cut, and the same
    selectives inside its past union: the applied cut's, less the channels.
    So the subsets retain the same codes of the tally, and those codes hold
    the same assignments to the applied cut's selectives, the same
    branches. The selection is made once per group, and each distinct
    branch is pushed and judged once. The branches other than the recorded
    one are pushed as one flat stack (`_stacked_pushes`) and judged one by
    one (`engine._judged`). Given the cut cache of the pass's
    `polystate_at`, the recorded branch is the applied cut's own entry there
    (`engine._weighed`), bit for bit the push and judgement of its
    assignment; without one it is pushed with the rest. Per subset
    (`sector`), only the Gram reads and the run-weighted sum are left. A
    group with no retained run raises `EmptyEnsembleError`."""

    def __init__(self, s: Scenario, tally: _Tally, key, cut_ids, cache: dict | None = None):
        applied, channels = key
        in_cut, channels = set(cut_ids(applied)), set(channels)
        order = tally.order
        # a code is retained when its digits match the recorded outcomes inside
        # the past union: the applied cut's selectives that are not channels
        keep_cols = [j for j, k in enumerate(order) if k in in_cut and k not in channels]
        recorded = [s.interventions[order[j]].op.chosen for j in keep_cols]
        self.s, self.runs, digits = s, tally.runs, tally.digits
        if keep_cols:
            kept = (digits[:, keep_cols] == recorded).all(axis=1)
            self.runs, digits = self.runs[kept], digits[kept]
        self.retained = int(self.runs.sum())
        if self.retained == 0:
            raise EmptyEnsembleError("no run matches the recorded outcomes inside the causal past")

        # each retained code's assignment to the selectives the applied cut
        # holds; the distinct ones, in code order, are pushed and judged once
        cols = [j for j, k in enumerate(order) if k in in_cut]
        sel = tuple(order[j] for j in cols)
        assigned = list(map(tuple, digits[:, cols].tolist()))
        distinct = sorted(set(assigned))
        where = {row: i for i, row in enumerate(distinct)}
        self.index = [where[row] for row in assigned]
        own = None if cache is None else tuple(s.interventions[k].op.chosen for k in sel)
        pushed = [row for row in distinct if row != own]
        entries = {}
        if pushed:
            stacks = _stacked_pushes(s, applied, sel, np.array(pushed, dtype=np.intp))
            entries = {row: _judged(s, applied, psi, dict(zip(sel, row)))
                       for row, psi in zip(pushed, chain.from_iterable(stacks))}
        if own in where:
            entries[own] = _weighed(s, applied, cache)
        self.entries = [entries[row] for row in distinct]

    def sector(self, subset) -> np.ndarray:
        """The subset's ensemble average: each distinct branch read on the
        subset (`engine._read`), in code order, then run count times state
        added code by code, over the retained runs."""
        s = self.s
        states = [_read(s, subset, entry) for entry in self.entries]
        dim = math.prod(s.dims[i] for i in subset)
        acc = np.zeros((dim, dim), dtype=complex)
        for count, i in zip(self.runs, self.index):
            acc += count * states[i]
        return acc / self.retained


def analytic_sector(s: Scenario, subset, taus) -> np.ndarray:
    """Exact limit of `empirical_sector`: selective interventions inside the
    past union are pinned to their recorded outcomes, everything else that
    still happens is applied as the full trace-preserving channel, and the
    result is reduced and normalized. Equals the engine's sector because
    channels on traced-out subsystems drop out of the partial trace. The
    channels keep the trace, so it is the weight of the past cut's
    branches, judged by `engine.impossibility` against the bound of the
    dense push (`_DensePush.error`).
    """
    subset, inside, applied = _selection(s, subset, taus)
    applied, channels = _dense_key(s.cut_ids, inside, applied)
    return _DensePush(s, s.cut_ids(applied), channels).sector(subset, inside)


def _dense_key(cut_ids, inside, applied) -> tuple:
    """The key of a selection's dense push: the applied cut, and the ids of
    the interventions in it outside the past union, `cut_ids` listing a
    cut's ids. Outside the past union only interventions off the subset
    happen, and with no outcome recorded a selective acts as its full
    channel; inside it each is pinned to its recorded branch."""
    recorded = set(cut_ids(inside))
    return applied, tuple(k for k in cut_ids(applied) if k not in recorded)


class _DensePush:
    """The oracle's dense push for one key (`_dense_key`), given the ids of
    its applied cut: the initial density operator pushed through those
    interventions (`apply_interventions`), the channel ids as their full
    channel and the rest on their recorded branches. Every subset whose
    selection has this key is traced from the one push (`sector`), and the
    rounding bound of the push is worked out once for them all (`error`)."""

    def __init__(self, s: Scenario, ids, channels):
        self.s, self.ids, self.channels = s, ids, dict.fromkeys(channels)
        self.state = apply_interventions(s, self.ids, s.initial_state, outcomes=self.channels)
        n = total = math.prod(s.dims)
        for k in self.ids:
            d, op = s.dims[s.interventions[k].subsystem], s.interventions[k].op
            n += 8 * d + (len(op.kraus) if k in self.channels and isinstance(op, SelectiveOp)
                          else 1)
            total *= float(d) ** 2
        self.gamma = linalg._gamma(2 * (n + 1))
        self.gate = self.gamma * total
        self.absolute = None

    def sector(self, subset, inside) -> np.ndarray:
        """The subset's state from the push: traced, its weight judged with
        `engine.impossibility` over the past cut `inside`, and normalized."""
        s = self.s
        out = linalg.ptrace(self.state, s.dims, subset)
        weight = float(out.trace().real)
        refuse(s, subset, impossibility(s, inside, weight, error=self.error(weight)))
        return linalg.normalize(out)

    def error(self, weight: float) -> float:
        """A bound on the rounding error of a weight traced from the push,
        the trace of the dense push of the key's ids (`apply_interventions`)
        then of the partial trace: a weight no larger cannot be told from 0.

        With gamma_j = j u / (1 - j u) (Higham 2002, sections 3.5 and 3.6),
        a Kraus operator K on a factor of dimension d is applied as two
        complex products of inner dimension d, each off by at most
        gamma_{4d} times the product of the absolute values (as in
        `linalg.push_error`), and m operators of one channel are summed. By
        induction, with Higham's lemma 3.3, the computed state is off by at
        most gamma_N P entrywise, where P is the same push of |rho_0|
        through the |K| and N = sum_k (8 d_k + m_k) + D + 1 covers the
        pushes, the partial trace and the trace. So the weight is off by at
        most gamma_N tr(P).

        tr(P) is read in two steps, as the bound of a dense push is first
        order and only the componentwise one separates a faint weight from
        dust. Both return gamma_2N times what they read, which covers the
        rounding of the second:
        - at once, tr(P) <= sum(P) <= D prod_k d_k^2, since sum|rho_0| <= D
          for a unit-trace state, and a step multiplies sum(P) by at most
          sum_K ||K||_1^2 <= d_k^2, as sum_K K^dagger K <= 1 for its Kraus
          operators. This gate is one value per key, and a larger weight is
          accepted with no more work;
        - else by pushing |rho_0| through the |K|, in the same arithmetic,
          to a trace within gamma_N of tr(P), once per key, as the trace
          does not depend on the subset. Measured on two qubits, this keeps
          a readout of |0> tilted 1e-7 from z, outcome 1 of weight 2.5e-15
          and bound 1.2e-29, and refuses a singlet read along one axis on
          both sides, whose same outcome gets at most 3.9e-17 of dust, and
          at most 1.7e-2 of its bound, over 20000 random axes.
        """
        if weight > self.gate:
            return self.gate
        if self.absolute is None:
            pushed = apply_interventions(self.s, self.ids, np.abs(self.s.initial_state),
                                         outcomes=self.channels, absolute=True)
            self.absolute = self.gamma * float(pushed.trace().real)
        return self.absolute


@dataclass
class SectorComparison:
    """One sector of `polystate ensemble`: the subset names its entry, and
    the other fields are the entry's keys (`cli._report`), so renaming one
    changes the CLI schema."""
    subset: tuple
    empirical_distance: float
    analytic_distance: float


@dataclass
class ComparisonReport:
    rows: list
    max_empirical: float
    max_analytic: float


def compare_to_polystate(log: RunLog, s: Scenario, taus) -> ComparisonReport:
    """Trace distances between the ensemble reconstructions and the engine's
    sectors, for every nonempty subset, the sectors read from one
    `engine.polystate_at`, which refuses more than `engine.MAX_SUBSYSTEMS`
    subsystems with a ValueError. The analytic column is exact and must
    vanish to numerical precision; the empirical column carries the
    sampling noise of the run log.

    One pass over the subsets, grouped by the key of their dense push
    (`_dense_key`: the applied cut and the interventions outside the past
    union, which act as channels). The log is counted once (`_tally`), and
    each cut's ids are listed once. The groups are taken one after
    another, and each is read once for all its subsets:
    - the oracle pushes the initial density operator once per key, and its
      absolute value at most once per key, when a weight needs the
      componentwise bound (`_DensePush`);
    - the retained codes, their assignments to the applied cut's
      selectives and the distinct branches are worked out once per group,
      and each branch is pushed and judged once (`_Retained`), the
      recorded one read from the cut cache of the `polystate_at`.
    Per subset, the empirical sector is its Gram reads and their
    run-weighted sum, the analytic one is traced from the group's push,
    and the engine's sector is formed once and not kept
    (`engine.Sectors.formed`); both distances are queued against it
    before the next subset's sectors are made. A group's push, branches
    and sectors are released before the next group's are made.

    A subset that cannot be read is refused as reading it on its own would
    refuse it: the first such subset in subset order, its empirical
    refusal before its analytic one. Every distance is
    `linalg.trace_distance`'s arithmetic, its eigvalsh stacked with those
    of other pairs of the same dimension (`_TraceDistances`)."""
    cache = {}
    sectors = polystate_at(s, taus, cache).sectors
    tally = _tally(log)
    cut_ids = functools.cache(s.cut_ids)
    selections = [_selection(s, subset, taus) for subset in sectors]
    groups = {}
    for pos, (_, inside, applied) in enumerate(selections):
        groups.setdefault(_dense_key(cut_ids, inside, applied), []).append(pos)
    distances = _TraceDistances(2 * len(selections))
    refused = {}
    for key, members in groups.items():
        try:
            retained = _Retained(s, tally, key, cut_ids, cache)
        except EmptyEnsembleError as exc:
            refused.update(dict.fromkeys(members, exc))
            continue
        dense = _DensePush(s, cut_ids(key[0]), key[1])
        for pos in members:
            subset, inside, _ = selections[pos]
            try:
                emp = retained.sector(subset)
                ana = dense.sector(subset, inside)
            except (ImpossibleOutcomeError, StateValidationError) as exc:
                refused[pos] = exc
                continue
            eng = sectors.formed(subset)
            distances.add(2 * pos, emp, eng)
            distances.add(2 * pos + 1, ana, eng)
            del emp, ana, eng  # before the next subset's are made
        del dense, retained  # before the next key's are made
    if refused:
        raise refused[min(refused)]
    out = distances.read().tolist()
    rows = [SectorComparison(subset=subset, empirical_distance=out[2 * pos],
                             analytic_distance=out[2 * pos + 1])
            for pos, (subset, _, _) in enumerate(selections)]
    return ComparisonReport(
        rows=rows,
        max_empirical=max(r.empirical_distance for r in rows),
        max_analytic=max(r.analytic_distance for r in rows),
    )


class _TraceDistances:
    """`linalg.trace_distance` of many pairs, with stacked eigvalsh calls:
    each pair's symmetrized difference waits in a queue by dimension, and
    the queues are read, one stacked eigvalsh each, whenever they hold
    `_EIGVALSH_BYTES` together, and at the end. Each slice of a stacked
    eigvalsh is, bit for bit, the call on that matrix alone."""

    def __init__(self, size: int):
        self.out = np.empty(size)
        self.queues: dict = {}
        self.held = 0

    def add(self, slot: int, a, b) -> None:
        """Queue the distance between a and b for `out[slot]`."""
        diff = a - b
        diff = (diff + diff.conj().T) / 2
        self.queues.setdefault(diff.shape[0], []).append((slot, diff))
        self.held += diff.nbytes
        if self.held >= _EIGVALSH_BYTES:
            self._read()

    def _read(self) -> None:
        for queue in self.queues.values():
            slots, diffs = zip(*queue)
            w = np.linalg.eigvalsh(np.stack(diffs))
            self.out[list(slots)] = 0.5 * abs(w).sum(axis=-1)
        self.queues.clear()
        self.held = 0

    def read(self) -> np.ndarray:
        """Every distance, by slot, once all are queued."""
        self._read()
        return self.out
