"""Statistical oracles for the post-selection reading of selective updates.

A scenario's recorded outcomes single out a sub-ensemble of repeated runs.
`enumerate_branches` lists every outcome assignment exactly; `sample_runs`
draws seeded Monte Carlo runs, generating the uniforms of all runs in bulk,
block by block, with run r's row depending only on (seed, r);
`empirical_sector` rebuilds the ensemble a subsystem subset holds at given
proper times, discarding runs only on the outcomes whose events lie inside
the subset's union of causal pasts, since nothing else can have reached it.
`analytic_sector` is the exact version of the same conditioning and must
agree with the engine's sector.

A branch goes through one Kraus operator per intervention, so its weight
and its states come from the engine's pushed factor (`engine.push`), as
every sector does: a branch weight is its squared norm
(`engine.branch_weight`), and a retained run's state its Gram matrix on the
subset over that weight (`linalg.gram_density`). `analytic_sector` alone
pushes the full density operator through every channel and traces
afterwards, so that it stays an independent check of that kernel.
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
    the pushed factor; they sum to one.
    """
    order = selective_order(s)
    counts = _outcome_counts(s, order)
    total = math.prod(counts) if counts else 1
    if total > cap:
        raise BranchExplosionError(f"{total} branches exceed the cap {cap}")
    every = tuple(map(len, s.chains.products))
    return [Branch(outcomes=combo,
                   probability=branch_weight(push(s, every, dict(zip(order, combo)))))
            for combo in product(*[range(c) for c in counts])]


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

# Philox4x64-10 round multipliers and key increments (Random123)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a, b):
    """High and low words of the 128-bit product of uint64 a and b, built
    from 32-bit halves so that no partial product overflows."""
    a_lo, a_hi = a & _LO32, a >> _S32
    b_lo, b_hi = b & _LO32, b >> _S32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _S32) + (lh & _LO32) + (hl & _LO32)
    return a_hi * b_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32), a * b


def _philox_uniforms(seed: int, runs: np.ndarray, k: int) -> np.ndarray:
    """Row r holds the first k doubles of
    `np.random.Generator(np.random.Philox(key=[seed, runs[r]])).random(k)`,
    bit for bit: Philox4x64-10 on counters (b, 0, 0, 0), b = 1, 2, ..., one
    block of four words each, and each word's top 53 bits scaled by 2**-53."""
    blocks = -(-k // 4)
    shape = (runs.shape[0], blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0 = np.full(shape, seed, dtype=np.uint64)
    k1 = np.broadcast_to(runs[:, None], shape)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(shape[0], 4 * blocks)[:, :k]
    return (words >> np.uint64(11)) * 2.0**-53


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
    same run. Run r uses the Philox4x64 stream keyed by (seed, r) from
    counter zero, so row r depends only on (seed, r): results are independent
    of evaluation order and of n_runs. The uniforms of all runs are generated
    in bulk, block by block of runs, into an outcome log allocated up front,
    each run's outcome tuple and its code, so a run count too large to
    allocate is refused here even when there is no selective.

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
        us = _philox_uniforms(seed, np.arange(start, stop, dtype=np.uint64), k)
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
    codes, freq = np.unique(log.codes, return_counts=True)
    return {tuple(map(int, np.unravel_index(c, counts))): int(f) for c, f in zip(codes, freq)}


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


def branch_state(s: Scenario, cut, subset, outcomes) -> np.ndarray:
    """The subset's state after the cut's interventions on the branches
    `outcomes` assigns: the pushed factor's Gram matrix on the subset over
    its weight. A branch of weight 0, which a drawn run never takes but a
    hand-made log can hold, raises `ImpossibleOutcomeError`."""
    psi = push(s, cut, outcomes)
    weight = branch_weight(psi)
    if weight == 0:
        names = ",".join(s.names[i] for i in subset)
        raise ImpossibleOutcomeError(f"sector {{{names}}}: branch {tuple(outcomes.values())} "
                                     "has weight 0 and cannot occur")
    return linalg.gram_density(subset_factor(s, psi, subset), weight)


def empirical_sector(log: RunLog, s: Scenario, subset, taus) -> np.ndarray:
    """The subset's ensemble average over retained runs.

    A run is retained iff its sampled outcome equals the recorded outcome
    for every selective intervention inside the subset's union of causal
    pasts. Each retained run contributes its normalized branch state,
    reduced to the subset; runs that differ only in outcomes that never
    reached the subset stay in the ensemble and contribute their own branch.
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

    dim = math.prod(s.dims[i] for i in subset)
    acc = np.zeros((dim, dim), dtype=complex)
    # code order is lexicographic row order, so branches add up in the
    # order of their outcome tuples
    for code, count in zip(*np.unique(retained, return_counts=True)):
        assignment = dict(zip(order, map(int, np.unravel_index(code, counts))))
        acc += count * branch_state(s, applied, subset, assignment)
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
