"""Statistical oracles for the post-selection reading of selective updates.

A scenario's recorded outcomes single out a sub-ensemble of repeated runs.
`enumerate_branches` lists every outcome assignment exactly; `sample_runs`
draws seeded Monte Carlo runs; `empirical_sector` rebuilds the ensemble a
subsystem subset holds at given proper times, discarding runs only on the
outcomes whose events lie inside the subset's union of causal pasts, since
nothing else can have reached it. `analytic_sector` is the exact version of
the same conditioning and must agree with the engine's sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .engine import all_subsets, sector
from .errors import BranchExplosionError, EmptyEnsembleError
from .scenario import Scenario, SelectiveOp, apply_interventions, intervention_event
from .spacetime import Region, position, region_contains

BRANCH_CAP = 10**6


def selective_order(s: Scenario) -> tuple:
    """Scenario indices of the selective interventions, in the fixed
    (tau, subsystem) order used for outcome records and branch tuples."""
    ids = [k for k, iv in enumerate(s.interventions) if isinstance(iv.op, SelectiveOp)]
    return tuple(sorted(ids, key=lambda k: (s.interventions[k].tau, s.interventions[k].subsystem)))


@dataclass
class Branch:
    outcomes: tuple
    probability: float
    final_state: np.ndarray | None


def enumerate_branches(s: Scenario, cap: int = BRANCH_CAP) -> list:
    """One Branch per outcome assignment to every selective intervention.

    Probabilities are the traces of the unnormalized chains and sum to one;
    the final state is the normalized chain result, omitted when the branch
    has zero weight.
    """
    order = selective_order(s)
    counts = [len(s.interventions[k].op.kraus) for k in order]
    total = math.prod(counts) if counts else 1
    if total > cap:
        raise BranchExplosionError(f"{total} branches exceed the cap {cap}")
    branches = []
    for combo in product(*[range(c) for c in counts]):
        assignment = dict(zip(order, combo))
        raw = apply_interventions(s, range(len(s.interventions)), s.initial_state,
                                  outcomes=assignment)
        prob = float(np.trace(raw).real)
        state = None
        if prob > linalg.ZERO_TRACE:
            state = linalg.normalize(raw)
        branches.append(Branch(outcomes=combo, probability=max(prob, 0.0), final_state=state))
    return branches


@dataclass
class RunLog:
    seed: int
    n_runs: int
    order: tuple  # scenario indices of the selectives, sampling order
    outcomes: np.ndarray  # shape (n_runs, len(order))


def sample_runs(s: Scenario, n_runs: int, seed: int) -> RunLog:
    """N independent runs; outcome k of each selective intervention is drawn
    with its conditional Born probability given the earlier outcomes of the
    same run. Each run has its own counter-based stream keyed by
    (seed, run index), so results are independent of evaluation order.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    order = selective_order(s)
    branches = enumerate_branches(s)
    counts = [len(s.interventions[k].op.kraus) for k in order]
    k = len(order)
    outcomes = np.zeros((n_runs, k), dtype=np.int8)
    if k == 0:
        return RunLog(seed=seed, n_runs=n_runs, order=order, outcomes=outcomes)

    # conditional tables from the exact branch probabilities
    prefix_prob: dict = {(): 1.0}
    for depth in range(1, k + 1):
        for b in branches:
            key = b.outcomes[:depth]
            prefix_prob[key] = prefix_prob.get(key, 0.0) + b.probability

    # one Philox stream per run, keyed by (seed, run) from counter zero;
    # resetting the key is much cheaper than building a generator per run
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for run in range(n_runs):
        state["state"]["key"] = np.array([seed, run], dtype=np.uint64)
        bitgen.state = state
        us = gen.random(k)
        prefix = ()
        for j in range(k):
            total = prefix_prob.get(prefix, 0.0)
            u = us[j] * total
            acc = 0.0
            choice = counts[j] - 1
            for o in range(counts[j]):
                acc += prefix_prob.get(prefix + (o,), 0.0)
                if u <= acc:
                    choice = o
                    break
            outcomes[run, j] = choice
            prefix = prefix + (choice,)
    return RunLog(seed=seed, n_runs=n_runs, order=order, outcomes=outcomes)


def branch_frequencies(log: RunLog, s: Scenario) -> dict:
    """Observed count per outcome tuple."""
    freq: dict = {}
    if log.outcomes.shape[1] == 0:
        return {(): log.n_runs}
    codes, counts = np.unique(log.outcomes, axis=0, return_counts=True)
    for row, c in zip(codes, counts):
        freq[tuple(int(v) for v in row)] = int(c)
    return freq


def _region_and_roles(s: Scenario, subset, taus):
    subset = tuple(sorted(set(subset)))
    region = Region.union_of_pasts([position(s.worldlines[i], taus[i]) for i in subset])
    inside = {k: region_contains(region, intervention_event(s, k))
              for k in range(len(s.interventions))}
    return subset, region, inside


def _applied_for_subset(s: Scenario, subset, inside) -> list:
    # an intervention reaches the subset's ensemble when its event is inside
    # the past union; interventions on subsystems outside the subset happen
    # regardless, they just happen to someone else's qubit
    return [k for k in range(len(s.interventions))
            if inside[k] or s.interventions[k].subsystem not in subset]


def empirical_sector(log: RunLog, s: Scenario, subset, taus) -> np.ndarray:
    """The subset's ensemble average over retained runs.

    A run is retained iff its sampled outcome equals the recorded outcome
    for every selective intervention inside the subset's union of causal
    pasts. Each retained run contributes its normalized branch state,
    reduced to the subset; runs that differ only in outcomes that never
    reached the subset stay in the ensemble and contribute their own branch.
    """
    subset, region, inside = _region_and_roles(s, subset, taus)
    applied = _applied_for_subset(s, subset, inside)
    order = log.order
    keep_cols = [j for j, k in enumerate(order) if inside[k]]
    recorded = np.array([s.interventions[order[j]].op.chosen for j in keep_cols], dtype=np.int8)
    mask = np.ones(log.n_runs, dtype=bool)
    if keep_cols:
        mask = np.all(log.outcomes[:, keep_cols] == recorded, axis=1)
    retained = log.outcomes[mask]
    if retained.shape[0] == 0:
        raise EmptyEnsembleError("no run matches the recorded outcomes inside the causal past")

    dim = math.prod(s.dims[i] for i in subset)
    acc = np.zeros((dim, dim), dtype=complex)
    if retained.shape[1] == 0:
        rows, counts = np.zeros((1, 0), dtype=np.int8), np.array([retained.shape[0]])
    else:
        rows, counts = np.unique(retained, axis=0, return_counts=True)
    for row, count in zip(rows, counts):
        assignment = {k: int(row[j]) for j, k in enumerate(order)}
        raw = apply_interventions(s, applied, s.initial_state, outcomes=assignment)
        state = linalg.normalize(linalg.ptrace(raw, s.dims, subset))
        acc += count * state
    return linalg.check_density(acc / retained.shape[0])


def analytic_sector(s: Scenario, subset, taus) -> np.ndarray:
    """Exact limit of `empirical_sector`: selective interventions inside the
    past union are pinned to their recorded outcomes, everything else that
    still happens is applied as the full trace-preserving channel, and the
    result is reduced and normalized. Equals the engine's sector because
    channels on traced-out subsystems drop out of the partial trace.
    """
    subset, region, inside = _region_and_roles(s, subset, taus)
    applied = _applied_for_subset(s, subset, inside)
    # outside the past union, only interventions off the subset happen, and
    # with no outcome recorded they act as their full channel
    channels = {k: None for k in applied if not inside[k]}
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
