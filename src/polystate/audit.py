"""Rival single-density-operator update prescriptions and the audits that
separate them from the sector-based description.

Each prescription answers one question: standing at an evaluation event x,
which interventions have already been folded into "the state"? The future
lightcone rule folds an intervention only once x is in its causal future.
The past lightcone rule (the Hellwig-Kraus reading) folds it everywhere
except strictly inside the intervention's own causal past, boundary
included. A fixed foliation folds it once the intervention's leaf lies at
or below the leaf through x. Each rule's test is its `applied(events, x)`
method, which the sector rule shares with the future lightcone rule. That
shared test is the closed causal past of x, which the engine already keeps
per member and proper time, so the two lightcone rules read their cuts from
the engine's member rows (`engine.past_cut`) and the past lightcone and
foliation rules run `applied`. Every state below is the engine's read of
the cut of the set a test picks (`engine._state`, unchecked, as the package
builds its cuts itself), evaluated once per leaf by `leaf_states`, and every
charge is read off a diagonal (`linalg.expect_diag`). `criteria_report`
reads its targets from one `engine.polystate_at`, and varies A's recorded
outcomes as overrides of the same scenario's branches
(`ensemble.branch_state`), not as a second scenario.

When the two parties' evaluation events disagree about what has been folded
in, no single joint operator exists; `leaf_states` then returns the
patchwork product of the per-event reduced states, which is exactly the
object a single-state bookkeeper would be forced to write down. The sector
rule takes the sector of the union of their causal pasts instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, ensemble, linalg
from .scenario import Scenario, SelectiveOp
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


def _event_cuts(p, s: Scenario, taus) -> list:
    """Per subsystem, the cut of the interventions the rule has applied at
    its evaluation event. A lightcone rule's test is the closed causal past,
    so it reads the engine's member rows (`engine.past_cut`), tested once per
    member and proper time; any other rule runs `p.applied` on the event."""
    if isinstance(p, FutureLightcone):
        return [engine.past_cut(s, taus, (i,)) for i in range(s.n)]
    engine.check_taus(s, taus)
    return [s.cut_of(p.applied(s.events, position(w, tau))) for w, tau in zip(s.worldlines, taus)]


def _reduced(s: Scenario, cuts, cache: dict) -> list:
    return [engine._state(s, cut, (i,), cache) for i, cut in enumerate(cuts)]


def leaf_states(p, s: Scenario, taus) -> tuple:
    """(joint, reduced states) of the prescription at one proper-time tuple,
    from one evaluation of its applied cuts, each distinct cut pushed once.
    The joint state is the state after the union of the cuts for the sector
    rule and when every evaluation event applied all of it; otherwise it is
    the patchwork, the tensor product of the reduced states."""
    cuts = _event_cuts(p, s, taus)
    cache: dict = {}
    union = tuple(max(lengths) for lengths in zip(*cuts))
    joint = None
    if isinstance(p, PolystateRule) or all(cut == union for cut in cuts):
        joint = engine._state(s, union, tuple(range(s.n)), cache)
    locals_ = _reduced(s, cuts, cache)
    if joint is None:
        # exactly Hermitian, as its validated factors are
        joint = linalg.kron_all(*locals_)
    return joint, locals_


def single_state(p, s: Scenario, taus) -> np.ndarray:
    """The joint state of `leaf_states`."""
    return leaf_states(p, s, taus)[0]


def reduced_states(p, s: Scenario, taus) -> list:
    """The reduced states of `leaf_states`, computed alone. No union cut is
    formed, so this returns where `leaf_states` raises because the union's
    recorded branches cannot occur together while each local cut can. No
    caller in the package is left; `bench/layertrace.py` traces it by name."""
    return _reduced(s, _event_cuts(p, s, taus), {})


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

    Targets are the sector values, read from one `engine.polystate_at`:
    subsystem marginals of sigma_z from the singleton sectors and the joint
    sigma_z correlation from the pair sector. A prescription passes a cell
    when it reproduces the target within 1e-9; the ignorance cell asks that
    the second subsystem's local description not change when the first
    subsystem's recorded outcomes are flipped, each to its next branch. The
    flipped description is B's state on the rule's cut with those outcomes
    overridden (`ensemble.branch_state`), so a flipped branch that cannot
    occur raises naming B; A's flipped state is never formed.
    """
    if s.n != 2 or any(d != 2 for d in s.dims):
        raise ValueError("criteria report is defined for two-qubit scenarios")
    if foliation is None:
        foliation = Foliation(np.zeros(s.spatial_dim))
    sz = linalg.SIGMA_Z
    szz = linalg.kron(sz, sz)
    sectors = engine.polystate_at(s, taus).sectors
    target_a = linalg.expect(sectors[0,], sz)
    target_b = linalg.expect(sectors[1,], sz)
    target_c = linalg.expect(sectors[0, 1], szz)

    flips = {k: (iv.op.chosen + 1) % len(iv.op.kraus) for k, iv in enumerate(s.interventions)
             if iv.subsystem == 0 and isinstance(iv.op, SelectiveOp)}
    rows = []
    for p in default_prescriptions(foliation):
        joint, locals_ = leaf_states(p, s, taus)
        ma = linalg.expect(locals_[0], sz)
        mb = linalg.expect(locals_[1], sz)
        corr = linalg.expect(joint, szz)
        flipped = ensemble.branch_state(s, _event_cuts(p, s, taus)[1], (1,), flips)
        ign = linalg.trace_distance(locals_[1], flipped)
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


def _initial_charge(s: Scenario) -> float:
    """The total charge of a qubit scenario's initial state."""
    if any(d != 2 for d in s.dims):
        raise ValueError("charge audits are defined for qubit scenarios")
    return linalg.expect_diag(s.initial_state, linalg.charges(s.n))


def leaf_charges(joint, locals_) -> tuple:
    """(joint total charge, sum of the local charges) of one leaf's qubit
    `leaf_states`, each read off a diagonal (`linalg.expect_diag`)."""
    return (linalg.expect_diag(joint, linalg.charges(len(locals_))),
            sum(linalg.expect_diag(r, linalg.charges(1)) for r in locals_))


def charge_ledger(s: Scenario, f: Foliation, t_grid, source) -> ChargeLedger:
    """Total-charge bookkeeping along a foliation under one prescription:
    the joint total charge versus the sum of per-subsystem local charges,
    each read off its state's diagonal by `linalg.expect_diag`."""
    initial = _initial_charge(s)
    q_joint, q_sum = [], []
    for t in t_grid:
        taus = [proper_time_at_leaf(s.worldlines[i], f, t) for i in range(s.n)]
        q, local = leaf_charges(*leaf_states(source, s, taus))
        q_joint.append(q)
        q_sum.append(local)
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
    initial = _initial_charge(s)
    values = []
    for t in t_grid:
        tau = proper_time_at_leaf(z, f, t)
        values.append(linalg.expect_diag(engine.recollection(s, z, tau), linalg.charges(s.n)))
    max_dev = max((abs(v - initial) for v in values), default=0.0)
    return ConservationReport(initial=initial, values=values, max_deviation=max_dev)
