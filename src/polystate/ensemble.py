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
subset over that weight (`linalg.gram_density`). Many branches are pushed
at once: `engine.push` takes arrays of outcomes and stacks their branches
on leading axes, so the branch weights (every assignment, as an `np.ix_`
mesh) and each empirical sector's distinct retained assignments (a flat
list) come from stacked pushes, chunk by chunk, not from one Python-level
push per branch. `analytic_sector` alone pushes the
full density operator through every channel and traces afterwards, so that
it stays an independent check of that kernel. `compare_to_polystate` sets
both against the engine's sectors, all read from one `engine.polystate_at`.

`branch_state` is the one read of a state on overridden outcomes: the
audit's ignorance cell (`audit.criteria_report`) reads a description with
one party's recorded outcomes flipped through it, on the same scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import (branch_weight, check_subset, impossibility, past_cut, polystate_at, push,
                     refuse, subset_factor)
from .errors import BranchExplosionError, EmptyEnsembleError
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
    return np.concatenate([branch_weight(stack) for _, stack in _stacked_pushes(s, every, order)])


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


def _stacked_pushes(s: Scenario, cut, sel, codes=None):
    """Factors of outcome assignments to the selectives `sel` (ids inside
    the cut), pushed through the cut and yielded chunk by chunk as (codes,
    stack): stack[i], of shape (D, r), is the assignment that codes[i]
    stands for in mixed-radix order, first selective most significant.
    Without codes, every assignment in code order: each chunk fixes the
    leading selectives and passes the trailing ones as an `np.ix_` mesh, as
    few fixed as keep it within `_STACK_BYTES`. Given ascending codes, just
    those, in chunks within `_STACK_BYTES`, each chunk's outcomes read off
    its codes."""
    counts = _outcome_counts(s, sel)
    row = 16 * math.prod(s.dims) * s.initial_factor.shape[1]  # complex factor
    if codes is None:
        fixed = 0
        while fixed < len(sel) and row * math.prod(counts[fixed:]) > _STACK_BYTES:
            fixed += 1
        size = math.prod(counts[fixed:])
        mesh = np.ix_(*map(range, counts[fixed:]))
        for c in range(math.prod(counts[:fixed])):
            prefix = map(int, np.unravel_index(c, counts[:fixed]))
            stack = push(s, cut, dict(zip(sel, (*prefix, *mesh))))
            yield range(c * size, (c + 1) * size), stack.reshape(size, *stack.shape[-2:])
        return
    size = max(1, _STACK_BYTES // row)
    for first in range(0, len(codes), size):
        chunk = codes[first:first + size]
        stack = push(s, cut, dict(zip(sel, _digits(chunk, counts).T)))
        yield chunk, stack.reshape(len(chunk), *stack.shape[-2:])


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


def _read_branch(s: Scenario, cut, subset, psi, outcomes) -> np.ndarray:
    """The subset's state read from a branch's pushed factor, once judged
    able to occur: its Gram matrix on the subset over the branch weight."""
    weight = branch_weight(psi)
    refuse(s, subset, impossibility(s, cut, weight, outcomes))
    return linalg.gram_density(subset_factor(s, psi, subset), weight)


def branch_state(s: Scenario, cut, subset, outcomes) -> np.ndarray:
    """The subset's state after the cut's interventions on the branches
    `outcomes` assigns: the pushed factor's Gram matrix on the subset over
    its weight. A branch that cannot occur, which a drawn run never takes
    but a hand-made log can hold, raises `ImpossibleOutcomeError`."""
    return _read_branch(s, cut, subset, push(s, cut, outcomes), outcomes)


def empirical_sector(log: RunLog, s: Scenario, subset, taus) -> np.ndarray:
    """The subset's ensemble average over retained runs.

    A run is retained iff its sampled outcome equals the recorded outcome
    for every selective intervention inside the subset's union of causal
    pasts. Each retained run contributes its normalized branch state,
    reduced to the subset; runs that differ only in outcomes that never
    reached the subset stay in the ensemble and contribute their own branch.

    A branch state depends only on the outcomes of the selectives in the
    applied cut, so the distinct assignments to those that retained runs
    hold are pushed as one flat stack (`_stacked_pushes`), each read once,
    as `branch_state` reads its one branch. The retained runs
    are counted per outcome code with `np.bincount` and added as count times
    state in code order, the sum `branch_state` would make branch by branch.
    """
    subset, inside, applied = _selection(s, subset, taus)
    inside = set(s.cut_ids(inside))
    order = log.order
    counts = log.weights.shape
    freq = np.bincount(log.codes)
    codes = np.flatnonzero(freq)
    digits = _digits(codes, counts)
    # a run is retained when the digits of its code match the recorded
    # outcomes inside the past union
    keep_cols = [j for j, k in enumerate(order) if k in inside]
    recorded = [s.interventions[order[j]].op.chosen for j in keep_cols]
    kept = np.all(digits[:, keep_cols] == recorded, axis=1)
    codes, digits = codes[kept], digits[kept]
    retained = int(freq[codes].sum())
    if retained == 0:
        raise EmptyEnsembleError("no run matches the recorded outcomes inside the causal past")

    # each retained code's assignment to the selectives the applied cut holds
    in_cut = set(s.cut_ids(applied))
    cols = [j for j, k in enumerate(order) if k in in_cut]
    sel, radix = tuple(order[j] for j in cols), [counts[j] for j in cols]
    keys = (np.ravel_multi_index(tuple(digits[:, cols].T), radix) if cols
            else np.zeros(codes.shape[0], dtype=np.intp))
    branches = dict(zip(keys.tolist(), digits[:, cols].tolist()))
    states = {}
    distinct = np.flatnonzero(np.bincount(keys))
    for chunk, stack in _stacked_pushes(s, applied, sel, distinct):
        for key, psi in zip(chunk.tolist(), stack):
            states[key] = _read_branch(s, applied, subset, psi, dict(zip(sel, branches[key])))

    dim = math.prod(s.dims[i] for i in subset)
    acc = np.zeros((dim, dim), dtype=complex)
    for code, key in zip(codes.tolist(), keys.tolist()):
        acc += freq[code] * states[key]
    return acc / retained


def analytic_sector(s: Scenario, subset, taus) -> np.ndarray:
    """Exact limit of `empirical_sector`: selective interventions inside the
    past union are pinned to their recorded outcomes, everything else that
    still happens is applied as the full trace-preserving channel, and the
    result is reduced and normalized. Equals the engine's sector because
    channels on traced-out subsystems drop out of the partial trace. The
    channels keep the trace, so it is the weight of the past cut's
    branches, judged by `engine.impossibility` against `_dense_error`.
    """
    subset, inside, applied = _selection(s, subset, taus)
    recorded, applied = set(s.cut_ids(inside)), s.cut_ids(applied)
    # outside the past union, only interventions off the subset happen, and
    # with no outcome recorded they act as their full channel
    channels = {k: None for k in applied if k not in recorded}
    out = linalg.ptrace(apply_interventions(s, applied, s.initial_state, outcomes=channels),
                        s.dims, subset)
    weight = float(out.trace().real)
    refuse(s, subset, impossibility(s, inside, weight,
                                    error=_dense_error(s, applied, channels, weight)))
    return linalg.normalize(out)


def _dense_error(s: Scenario, ids, channels, weight: float) -> float:
    """A bound on the rounding error of `analytic_sector`'s weight, the
    trace of the dense push of `ids` (`apply_interventions`) then of the
    partial trace: a weight no larger cannot be told from 0.

    With gamma_j = j u / (1 - j u) (Higham 2002, sections 3.5 and 3.6), a
    Kraus operator K on a factor of dimension d is applied as two complex
    products of inner dimension d, each off by at most gamma_{4d} times the
    product of the absolute values (as in `linalg.push_error`), and m
    operators of one channel are summed. By induction, with Higham's lemma
    3.3, the computed state is off by at most gamma_N P entrywise, where P
    is the same push of |rho_0| through the |K| and N = sum_k (8 d_k + m_k)
    + D + 1 covers the pushes, the partial trace and the trace. So the
    weight is off by at most gamma_N tr(P).

    tr(P) is read in two steps, as the bound of a dense push is first order
    and only the componentwise one separates a faint weight from dust. Both
    return gamma_2N times what they read, which covers the rounding of the
    second:
    - at once, tr(P) <= sum(P) <= D prod_k d_k^2, since sum|rho_0| <= D for
      a unit-trace state, and a step multiplies sum(P) by at most
      sum_K ||K||_1^2 <= d_k^2, as sum_K K^dagger K <= 1 for its Kraus
      operators. A larger weight is accepted with no more work;
    - else by pushing |rho_0| through the |K|, in the same arithmetic, to a
      trace within gamma_N of tr(P). Measured on two qubits, this keeps a
      readout of |0> tilted 1e-7 from z, outcome 1 of weight 2.5e-15 and
      bound 1.2e-29, and refuses a singlet read along one axis on both
      sides, whose same outcome gets at most 3.9e-17 of dust, and at most
      1.7e-2 of its bound, over 20000 random axes.
    """
    n = total = math.prod(s.dims)
    for k in ids:
        d, op = s.dims[s.interventions[k].subsystem], s.interventions[k].op
        n += 8 * d + (len(op.kraus) if k in channels and isinstance(op, SelectiveOp) else 1)
        total *= float(d) ** 2
    gamma = linalg._gamma(2 * (n + 1))
    if weight > gamma * total:
        return gamma * total
    pushed = apply_interventions(s, ids, np.abs(s.initial_state), outcomes=channels,
                                 absolute=True)
    return gamma * float(np.trace(pushed).real)


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
    sectors, for every nonempty subset, the sectors read from one
    `engine.polystate_at`, which refuses more than `engine.MAX_SUBSYSTEMS`
    subsystems with a ValueError. The analytic column is exact and must
    vanish to numerical precision; the empirical column carries the
    sampling noise of the run log."""
    rows = []
    for subset, eng in polystate_at(s, taus).sectors.items():
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
