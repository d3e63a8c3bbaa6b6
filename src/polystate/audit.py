"""Rival single-density-operator update prescriptions and the audits that
separate them from the sector-based description.

Each prescription answers one question: standing at an evaluation event x,
which interventions have already been folded into "the state"? The future
lightcone rule folds an intervention only once x is in its causal future.
The past lightcone rule (the Hellwig-Kraus reading) folds it everywhere
except strictly inside the intervention's own causal past, boundary
included. A fixed foliation folds it once the intervention's leaf lies at
or below the leaf through x. Each rule's test is its `applied(events, x)`
method, which the sector rule shares with the future lightcone rule, and
every state below is `engine.state_after` on the id sets a test picks.

When the two parties' evaluation events disagree about what has been folded
in, no single joint operator exists; `single_state` then returns the
patchwork product of the per-event reduced states, which is exactly the
object a single-state bookkeeper would be forced to write down. The sector
rule takes the sector of the union of their causal pasts instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine, linalg
from .scenario import Intervention, Scenario, SelectiveOp
from .spacetime import (Foliation, Worldline, causally_precedes,
                        chronologically_precedes, position, proper_time_at_leaf)

MATCH_TOL = 1e-9


@dataclass
class PastLightcone:
    """Retrodictive rule: an event is updated by every intervention not
    strictly in its future, so spacelike separated readouts update each
    other. Those mutual updates are folded in per-subsystem proper-time
    order; no frame-independent order exists, so that is a modeling choice
    for this rule."""
    name = "past_lightcone"

    def applied(self, events, x):
        # the boundary counts as updated
        return ~chronologically_precedes(x, events)


@dataclass
class FutureLightcone:
    """An event is updated only by interventions in its causal past."""
    name = "future_lightcone"

    def applied(self, events, x):
        return causally_precedes(events, x)


@dataclass
class FixedFoliation:
    """Updates happen at the leaf containing the intervention, for every
    observer at once, regardless of their location."""
    foliation: Foliation
    name = "foliation"

    def applied(self, events, x):
        return self.foliation.time(events) <= self.foliation.time(x)


@dataclass
class PolystateRule(FutureLightcone):
    """The engine's sector rule: the future lightcone rule per event, with
    the sector of the union of the causal pasts as its joint state."""
    name = "polystate"


def _event_id_sets(p, s: Scenario, taus) -> list:
    """Per subsystem, the interventions the rule has applied at its
    evaluation event (`p.applied` on one event or a stack of them)."""
    xs = [position(s.worldlines[i], taus[i]) for i in range(s.n)]
    return [tuple(np.flatnonzero(p.applied(s.events, x)).tolist()) for x in xs]


def _reduced(s: Scenario, id_sets) -> list:
    return [engine.state_after(s, ids, (i,)) for i, ids in enumerate(id_sets)]


def _union_state(p, s: Scenario, id_sets):
    """The joint state when the applied sets define one, for the sector rule
    or when every evaluation event applied all of their union; else None."""
    union = tuple(sorted(set().union(*id_sets)))
    if isinstance(p, PolystateRule) or all(ids == union for ids in id_sets):
        return engine.state_after(s, union, range(s.n))
    return None


def _patchwork(locals_) -> np.ndarray:
    return linalg.check_density(linalg.kron_all(*locals_))


def single_state(p, s: Scenario, taus) -> np.ndarray:
    """The prescription's one density operator for the whole system at the
    given proper times. The sector rule and any rule whose evaluation events
    agree on the applied interventions give one well-defined state; otherwise
    it degrades to the tensor product of the per-event reduced states."""
    id_sets = _event_id_sets(p, s, taus)
    joint = _union_state(p, s, id_sets)
    return _patchwork(_reduced(s, id_sets)) if joint is None else joint


def reduced_states(p, s: Scenario, taus) -> list:
    """Per-subsystem local descriptions under the prescription."""
    return _reduced(s, _event_id_sets(p, s, taus))


def leaf_states(p, s: Scenario, taus) -> tuple:
    """(`single_state`, `reduced_states`) at one proper-time tuple, computed
    in that order from one evaluation of the rule's applied sets; a
    patchwork joint state is built from the reduced states it returns."""
    id_sets = _event_id_sets(p, s, taus)
    joint = _union_state(p, s, id_sets)
    locals_ = _reduced(s, id_sets)
    return (_patchwork(locals_) if joint is None else joint), locals_


def _flip_outcomes(s: Scenario, subsystem: int) -> Scenario:
    """Variant scenario with every recorded outcome on one subsystem moved
    to the next branch; used for the outcome-independence check."""
    flipped = []
    for iv in s.interventions:
        if iv.subsystem == subsystem and isinstance(iv.op, SelectiveOp):
            op = replace(iv.op, chosen=(iv.op.chosen + 1) % len(iv.op.kraus))
            flipped.append(Intervention(iv.subsystem, iv.tau, op))
        else:
            flipped.append(iv)
    return replace(s, interventions=tuple(flipped))


@dataclass
class PrescriptionRow:
    name: str
    marginal_a: float
    marginal_b: float
    correlation: float
    marginal_a_ok: bool
    marginal_b_ok: bool
    correlation_ok: bool
    ignorance_distance: float
    ignorance_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.marginal_a_ok and self.marginal_b_ok
                and self.correlation_ok and self.ignorance_ok)


@dataclass
class CriteriaReport:
    taus: tuple
    target_marginal_a: float
    target_marginal_b: float
    target_correlation: float
    rows: list


def default_prescriptions(foliation: Foliation | None = None):
    f = foliation if foliation is not None else Foliation(np.zeros(1))
    return [PolystateRule(), FutureLightcone(), PastLightcone(), FixedFoliation(f)]


def criteria_report(s: Scenario, taus, foliation: Foliation | None = None) -> CriteriaReport:
    """Score every prescription on a bipartite qubit scenario.

    Targets are the sector values: subsystem marginals of sigma_z from the
    singleton sectors and the joint sigma_z correlation from the pair
    sector. A prescription passes a cell when it reproduces the target
    within 1e-9; the ignorance cell asks that the second subsystem's local
    description not change when the first subsystem's recorded outcomes are
    flipped.
    """
    if s.n != 2 or any(d != 2 for d in s.dims):
        raise ValueError("criteria report is defined for two-qubit scenarios")
    if foliation is None:
        foliation = Foliation(np.zeros(s.spatial_dim))
    sz = linalg.SIGMA_Z
    szz = linalg.kron(sz, sz)
    target_a = linalg.expect(engine.sector(s, taus, (0,)), sz)
    target_b = linalg.expect(engine.sector(s, taus, (1,)), sz)
    target_c = linalg.expect(engine.sector(s, taus, (0, 1)), szz)

    flipped = _flip_outcomes(s, 0)
    rows = []
    for p in default_prescriptions(foliation):
        joint, locals_ = leaf_states(p, s, taus)
        ma = linalg.expect(locals_[0], sz)
        mb = linalg.expect(locals_[1], sz)
        corr = linalg.expect(joint, szz)
        ign = linalg.trace_distance(locals_[1], reduced_states(p, flipped, taus)[1])
        rows.append(PrescriptionRow(
            name=p.name,
            marginal_a=ma, marginal_b=mb, correlation=corr,
            marginal_a_ok=abs(ma - target_a) <= MATCH_TOL,
            marginal_b_ok=abs(mb - target_b) <= MATCH_TOL,
            correlation_ok=abs(corr - target_c) <= MATCH_TOL,
            ignorance_distance=ign,
            ignorance_ok=ign <= MATCH_TOL,
        ))
    return CriteriaReport(
        taus=tuple(taus),
        target_marginal_a=target_a,
        target_marginal_b=target_b,
        target_correlation=target_c,
        rows=rows,
    )


@dataclass
class ChargeLedger:
    t_grid: list
    q_joint: list
    q_sum: list
    initial: float


def charge_ledger(s: Scenario, f: Foliation, t_grid, source) -> ChargeLedger:
    """Total-charge bookkeeping along a foliation under one prescription:
    the joint expectation versus the sum of per-subsystem local charges."""
    if any(d != 2 for d in s.dims):
        raise ValueError("charge ledger is defined for qubit scenarios")
    q_total = linalg.total_charge(s.n)
    q_local = linalg.CHARGE
    initial = linalg.expect(s.initial_state, q_total)
    q_joint, q_sum = [], []
    for t in t_grid:
        taus = [proper_time_at_leaf(s.worldlines[i], f, t) for i in range(s.n)]
        joint, locals_ = leaf_states(source, s, taus)
        q_joint.append(linalg.expect(joint, q_total))
        q_sum.append(sum(linalg.expect(r, q_local) for r in locals_))
    return ChargeLedger(t_grid=list(t_grid), q_joint=q_joint, q_sum=q_sum, initial=initial)


@dataclass
class ConservationReport:
    initial: float
    values: list
    max_deviation: float


def recollection_conservation(s: Scenario, z: Worldline, t_grid, f: Foliation) -> ConservationReport:
    """Total charge in the recollection along a worldline, sampled where the
    worldline crosses each leaf; reports the largest deviation from the
    initial value. Deviations are findings, not errors."""
    if any(d != 2 for d in s.dims):
        raise ValueError("charge audits are defined for qubit scenarios")
    q_total = linalg.total_charge(s.n)
    initial = linalg.expect(s.initial_state, q_total)
    values = []
    for t in t_grid:
        tau = proper_time_at_leaf(z, f, t)
        values.append(linalg.expect(engine.recollection(s, z, tau), q_total))
    max_dev = max((abs(v - initial) for v in values), default=0.0)
    return ConservationReport(initial=initial, values=values, max_deviation=max_dev)
