"""Statistical oracles for the post-selection reading of selective updates.

A scenario's recorded outcomes single out a sub-ensemble of repeated runs.
`enumerate_branches` lists every outcome assignment exactly; `sample_runs`
draws seeded Monte Carlo runs from one counter-based stream per seed, the
uniforms of all runs in bulk, block by block, with run r's row depending
only on (seed, r); `empirical_sector` rebuilds the ensemble a subsystem
subset holds at given proper times, discarding runs only on the outcomes
whose events lie inside the subset's union of causal pasts, since nothing
else can have reached it. `analytic_sector` is the exact version of the
same conditioning and must agree with the engine's sector.

A branch goes through one Kraus operator per intervention, so its weight
and its states come from the engine's pushed factor (`engine.push`), as
every sector does: a branch weight is its squared norm
(`engine.branch_weight`), and a retained run's state its Gram matrix on the
subset over that weight (`linalg.gram_density`). Many branches are pushed
at once: `engine.push` keeps the outcomes of the selectives it resolves on
leading axes of one stack, so the branch weights and each empirical
sector's distinct branches come from stacked pushes, chunk by chunk, not
from one Python-level push per branch. `analytic_sector` alone pushes the
full density operator through every channel and traces afterwards, so that
it stays an independent check of that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .engine import all_subsets, branch_weight, past_cut, push, sector, subset_factor
from .errors import BranchExplosionError, EmptyEnsembleError, ImpossibleOutcomeError
from .scenario import Scenario, SelectiveOp, apply_interventions

BRANCH_CAP = 10**6


def selective_order(s: Scenario) -> tuple:
    """Scenario indices of the selective interventions, in the fixed
    (tau, subsystem) order used for outcome records and branch tuples."""
    ids = [k for k, iv in enumerate(s.interventions) if isinstance(iv.op, SelectiveOp)]
    return tuple(sorted(ids, key=lambda k: (s.interventions[k].tau, s.interventions[k].subsystem)))


def _outcome_counts(s: Scenario, order) -> list:
    return [len(s.interventions[k].op.kraus) for k in order]


@dataclass
class Branch:
    outcomes: tuple
    probability: float


def enumerate_branches(s: Scenario, cap: int = BRANCH_CAP) -> list:
    """One Branch per outcome assignment to every selective intervention.

    A probability is the Born weight of pushing the initial state through
    every intervention on that assignment's branches, the squared norm of
    the pushed factor; they sum to one. The factors come from stacked
    pushes of the full cut with every selective resolved (`_stacked_pushes`),
    and each weight is its row's pairwise sum of squares, the bits
    `engine.branch_weight` gives the single push.
    """
    order = selective_order(s)
    counts = _outcome_counts(s, order)
    total = math.prod(counts) if counts else 1
    if total > cap:
        raise BranchExplosionError(f"{total} branches exceed the cap {cap}")
    every = tuple(map(len, s.chains.products))
    weights = np.concatenate([np.square(stack.reshape(len(stack), -1).view(float)).sum(axis=1)
                              for _, stack in _stacked_pushes(s, every, order)])
    return list(map(Branch, product(*[range(c) for c in counts]), weights.tolist()))


@dataclass
class RunLog:
    seed: int
    n_runs: int
    order: tuple  # scenario indices of the selectives, sampling order
    outcomes: np.ndarray  # shape (n_runs, len(order))
    # each run's outcome tuple as one mixed-radix integer, first selective
    # most significant, so that code order is lexicographic row order and
    # `np.unravel_index(code, counts)` gives the tuple back
    codes: np.ndarray  # shape (n_runs,)
    branches: list  # the enumerated branches the runs were drawn from


# runs drawn per block: bounds the working arrays of one call while the
# outcome log itself is allocated once, up front
_BLOCK = 1 << 16

# bytes one stacked push may hold (`engine.push` with `resolve`); a larger
# stack is pushed chunk by chunk
_STACK_BYTES = 1 << 24


def _stacked_pushes(s: Scenario, cut, sel, wanted=None):
    """The factors of every outcome assignment to the selectives `sel` (ids
    inside the cut), pushed through the cut and yielded chunk by chunk as
    (first code, stack): the stack has shape (assignments, D, r), with
    assignments in mixed-radix code order, first selective most significant.
    Each chunk fixes the leading selectives and resolves the trailing ones,
    as few fixed as keep it within `_STACK_BYTES`. Given `wanted`, an array
    of codes, only the chunks that hold one are pushed."""
    counts = _outcome_counts(s, sel)
    row = 16 * math.prod(s.dims) * s.initial_factor.shape[1]  # complex factor
    fixed = 0
    while fixed < len(sel) and row * math.prod(counts[fixed:]) > _STACK_BYTES:
        fixed += 1
    size = math.prod(counts[fixed:])
    chunks = (range(math.prod(counts[:fixed])) if wanted is None
              else np.flatnonzero(np.bincount(wanted // size)))
    for c in map(int, chunks):
        prefix = map(int, np.unravel_index(c, counts[:fixed]))
        stack = push(s, cut, dict(zip(sel, prefix)), resolve=sel[fixed:])
        yield c * size, stack.reshape(size, *stack.shape[-2:])


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


def _prefix_cumulants(branches, counts) -> list:
    """Per depth j, the prefix sums at depth j (one per outcome prefix, in
    mixed-radix code order) and the running sums over their children,
    shape (prefixes, counts[j]). Each prefix sum adds its branches' weights
    one by one in enumeration order, and each running sum adds the children
    left to right, so the tables hold the floats a walk over the branch list
    accumulating from 0.0 would (up to the sign of a zero, which no
    comparison sees)."""
    probs = np.array([b.probability for b in branches], dtype=float)
    sums = [np.ones(1)]
    for depth in range(1, len(counts) + 1):
        sums.append(np.cumsum(probs.reshape(math.prod(counts[:depth]), -1), axis=1)[:, -1])
    return [(sums[j], np.cumsum(sums[j + 1].reshape(-1, c), axis=1))
            for j, c in enumerate(counts)]


def sample_runs(s: Scenario, n_runs: int, seed: int) -> RunLog:
    """N independent runs; outcome k of each selective intervention is drawn
    with its conditional Born probability given the earlier outcomes of the
    same run. Each seed has one stream of uniforms, SplitMix64 seeded with
    it: with k selectives, run r takes doubles r k, ..., r k + k - 1 of it,
    so row r depends only on (seed, r) and k, not on n_runs or on how the
    runs are split into blocks. The uniforms are drawn in bulk, block by
    block of runs, into an outcome log allocated up front, each run's
    outcome tuple and its code, so a run count too large to allocate is
    refused here even when there is no selective.

    Run r's j-th uniform u picks the first outcome whose running sum of
    branch weights under the run's outcome prefix reaches u times the
    prefix's weight (the last outcome if none does).
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    order = selective_order(s)
    branches = enumerate_branches(s)
    counts = _outcome_counts(s, order)
    k = len(order)
    # int8 unless some selective has more outcomes than int8 can index
    dtype = np.int8 if max(counts, default=0) <= 128 else np.int32
    outcomes = np.zeros((n_runs, k), dtype=dtype)
    codes = np.zeros(n_runs, dtype=np.intp)
    log = RunLog(seed=seed, n_runs=n_runs, order=order, outcomes=outcomes, codes=codes,
                 branches=branches)
    if k == 0:
        return log

    tables = _prefix_cumulants(branches, counts)
    for start in range(0, n_runs, _BLOCK):
        stop = min(start + _BLOCK, n_runs)
        us = _uniforms(seed, start * k, (stop - start) * k).reshape(-1, k)
        # the outcome prefix so far, coded as in `RunLog.codes`; the running
        # sums never decrease, so the count of those below u is the index
        # of the first one that reaches it
        prefix = np.zeros(stop - start, dtype=np.intp)
        for j, (total, cum) in enumerate(tables):
            u = us[:, j] * total[prefix]
            choice = np.minimum(np.count_nonzero(cum[prefix] < u[:, None], axis=1),
                                counts[j] - 1)
            outcomes[start:stop, j] = choice
            prefix = prefix * counts[j] + choice
        codes[start:stop] = prefix
    return log


def branch_frequencies(log: RunLog, s: Scenario) -> dict:
    """Observed count per outcome tuple."""
    counts = _outcome_counts(s, log.order)
    freq = np.bincount(log.codes)
    return {_outcome_tuple(code, counts): int(freq[code]) for code in np.flatnonzero(freq)}


def _outcome_tuple(code, counts) -> tuple:
    """The outcome tuple a mixed-radix code stands for."""
    return tuple(map(int, np.unravel_index(code, counts)))


def _selection(s: Scenario, subset, taus) -> tuple:
    """The sorted subset, the ids inside the union of its members' causal
    pasts, and the cut of the interventions that reach its ensemble: those
    inside the past union, and every one on a subsystem outside the subset,
    which happens regardless, just to someone else's qubit."""
    subset = tuple(sorted(set(subset)))
    inside = past_cut(s, taus, subset)
    applied = tuple(inside[j] if j in subset else len(chain)
                    for j, chain in enumerate(s.chains.products))
    return subset, set(s.cut_ids(inside)), applied


def _read_branch(s: Scenario, psi, subset):
    """The subset's state read from a branch's pushed factor, its Gram
    matrix on the subset over the branch weight; None for weight 0."""
    weight = branch_weight(psi)
    return linalg.gram_density(subset_factor(s, psi, subset), weight) if weight else None


def _impossible(s: Scenario, subset, branch) -> ImpossibleOutcomeError:
    names = ",".join(s.names[i] for i in subset)
    return ImpossibleOutcomeError(f"sector {{{names}}}: branch {branch} "
                                  "has weight 0 and cannot occur")


def branch_state(s: Scenario, cut, subset, outcomes) -> np.ndarray:
    """The subset's state after the cut's interventions on the branches
    `outcomes` assigns: the pushed factor's Gram matrix on the subset over
    its weight. A branch of weight 0, which a drawn run never takes but a
    hand-made log can hold, raises `ImpossibleOutcomeError`."""
    state = _read_branch(s, push(s, cut, outcomes), subset)
    if state is None:
        raise _impossible(s, subset, tuple(outcomes.values()))
    return state


def empirical_sector(log: RunLog, s: Scenario, subset, taus) -> np.ndarray:
    """The subset's ensemble average over retained runs.

    A run is retained iff its sampled outcome equals the recorded outcome
    for every selective intervention inside the subset's union of causal
    pasts. Each retained run contributes its normalized branch state,
    reduced to the subset; runs that differ only in outcomes that never
    reached the subset stay in the ensemble and contribute their own branch.

    A branch state depends only on the outcomes of the selectives in the
    applied cut, so one stacked push over those (`_stacked_pushes`) gives
    every retained branch's factor, and each distinct assignment to them is
    read once, as `branch_state` reads its one branch. The retained runs
    are counted per outcome code with `np.bincount` and added as count times
    state in code order, the sum `branch_state` would make branch by branch.
    """
    subset, inside, applied = _selection(s, subset, taus)
    order = log.order
    keep_cols = [j for j, k in enumerate(order) if k in inside]
    recorded = np.array([s.interventions[order[j]].op.chosen for j in keep_cols])
    counts = _outcome_counts(s, order)
    retained = log.codes
    if keep_cols:
        retained = retained[np.all(log.outcomes[:, keep_cols] == recorded, axis=1)]
    if retained.shape[0] == 0:
        raise EmptyEnsembleError("no run matches the recorded outcomes inside the causal past")

    freq = np.bincount(retained)
    codes = np.flatnonzero(freq)
    # each retained code's assignment to the selectives the applied cut holds
    in_cut = set(s.cut_ids(applied))
    cols = [j for j, k in enumerate(order) if k in in_cut]
    keys = np.zeros(codes.shape[0], dtype=np.intp)
    if cols:
        digits = np.unravel_index(codes, counts)
        keys = np.ravel_multi_index([digits[j] for j in cols], [counts[j] for j in cols])
    # per key, its state, or None for a branch of weight 0
    states = {}
    distinct = np.flatnonzero(np.bincount(keys))
    for first, stack in _stacked_pushes(s, applied, tuple(order[j] for j in cols), distinct):
        for key in distinct[(distinct >= first) & (distinct < first + len(stack))].tolist():
            states[key] = _read_branch(s, stack[key - first], subset)

    dim = math.prod(s.dims[i] for i in subset)
    acc = np.zeros((dim, dim), dtype=complex)
    for code, key in zip(codes.tolist(), keys.tolist()):
        if states[key] is None:
            raise _impossible(s, subset, _outcome_tuple(code, counts))
        acc += freq[code] * states[key]
    return acc / retained.shape[0]


def analytic_sector(s: Scenario, subset, taus) -> np.ndarray:
    """Exact limit of `empirical_sector`: selective interventions inside the
    past union are pinned to their recorded outcomes, everything else that
    still happens is applied as the full trace-preserving channel, and the
    result is reduced and normalized. Equals the engine's sector because
    channels on traced-out subsystems drop out of the partial trace.
    """
    subset, inside, applied = _selection(s, subset, taus)
    applied = s.cut_ids(applied)
    # outside the past union, only interventions off the subset happen, and
    # with no outcome recorded they act as their full channel
    channels = {k: None for k in applied if k not in inside}
    out = apply_interventions(s, applied, s.initial_state, outcomes=channels)
    return linalg.normalize(linalg.ptrace(out, s.dims, subset))


@dataclass
class SectorComparison:
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
    sectors, for every nonempty subset. The analytic column is exact and
    must vanish to numerical precision; the empirical column carries the
    sampling noise of the run log."""
    rows = []
    for subset in all_subsets(s.n):
        eng = sector(s, taus, subset)
        emp = empirical_sector(log, s, subset, taus)
        ana = analytic_sector(s, subset, taus)
        rows.append(SectorComparison(
            subset=subset,
            empirical_distance=linalg.trace_distance(emp, eng),
            analytic_distance=linalg.trace_distance(ana, eng),
        ))
    return ComparisonReport(
        rows=rows,
        max_empirical=max(r.empirical_distance for r in rows),
        max_analytic=max(r.analytic_distance for r in rows),
    )
