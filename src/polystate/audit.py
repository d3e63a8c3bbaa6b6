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
shared test is the closed causal past of x, which the engine keeps as its
member rows, so the two lightcone rules read their cuts from those rows
(`engine._member_rows`) and the past lightcone and foliation rules run
`applied`. Either way a leaf makes one stacked test, of every member's
event at once, or none when the rows are already at those proper times;
the foliation rule keeps the leaf times of the scenario's events, which do
not move, per frame velocity. Every state below is the engine's read of
the cut of the set a test picks (`engine.readout`, unchecked, as the
package builds its cuts itself), judged and decided by `_leaf_readouts` in
the scenario's leaf memo (`Scenario.leaf_memo`), a cut cache by the
engine's one rule (only the cuts read are weighed and judged) that every
rule's reads at one proper-time tuple share with each other and with the
tuple read before: a rule's cuts change only when an event enters or
leaves a past, so along a sweep most of a leaf's cuts were read at the
leaf before. The memo holds the reads of those two tuples only, and keeps
no refusal. `leaf_states` forms the states from those readouts; the
charge ledgers and the CLI's sweep form none (`leaf_charges`): a charge is
one dot product with a readout's populations, a union's fidelity is read
off its factor, and a patchwork's one axis at a time.
`criteria_report` reads its targets from one `engine.polystate_at`,
evaluates each rule's cuts once for its states and its ignorance cell, and
varies A's recorded outcomes as overrides of the same scenario's branches
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
    _held = (None,)  # (events, frame velocity bytes, the events' leaf times)

    def applied(self, events, x):
        """Whether each event's leaf lies at or below x's. A read-only stack
        of events, such as `Scenario.events`, cannot change, so the leaf
        times of the last one tested are kept, with the frame velocity's
        bytes they were computed at."""
        key = self.foliation.frame_velocity.tobytes()
        if (held := self._held)[0] is not events or held[1] != key:
            held = (events, key, self.foliation.time(events))
            if isinstance(events, np.ndarray) and not events.flags.writeable:
                self._held = held
        return held[2] <= self.foliation.time(x)


@dataclass
class PolystateRule(FutureLightcone):
    """The engine's sector rule: the future lightcone rule per event, with
    the sector of the union of the causal pasts as its joint state."""
    name = "polystate"


def _event_cuts(p, s: Scenario, taus) -> list:
    """Per subsystem, the cut of the interventions the rule has applied at
    its evaluation event, every member's in one stacked test: a lightcone
    rule's test is the closed causal past, so it reads the engine's member
    rows (`engine._member_rows`); any other rule runs `p.applied` once, on
    the stack of the members' events, one row each, and cuts the rows in
    one `Scenario.cut_of`."""
    if isinstance(p, FutureLightcone):
        return engine._member_rows(s, taus, range(s.n))
    engine.check_taus(s, taus)
    x = np.array([position(w, tau) for w, tau in zip(s.worldlines, taus)])
    return s.cut_of(p.applied(s.events, x[:, None]))


def leaf_states(p, s: Scenario, taus) -> tuple:
    """(joint, reduced states) of the prescription at one proper-time tuple,
    from one evaluation of its applied cuts, each formed from its
    `engine.readout` in the scenario's leaf memo (`_leaf_readouts`): each
    distinct cut pushed once, from its prefix, and only the cuts read
    weighed and judged, once while the memo holds them. The joint state is
    the state after the union of the cuts for the sector rule and when every
    evaluation event applied all of it; otherwise it is the patchwork, the
    tensor product of the reduced states. A state that deciding formed (a
    clamp, or a wide factor's product) is the memo's, so it is read-only."""
    return _leaf_states(p, s, taus, _event_cuts(p, s, taus))


def _leaf_states(p, s: Scenario, taus, cuts) -> tuple:
    """`leaf_states` on the rule's applied cuts (`_event_cuts`), which
    `criteria_report` evaluates once and reads for the ignorance cell too."""
    whole, locals_ = _leaf_readouts(p, s, taus, cuts)
    states = [r.density() for r in locals_]
    # a patchwork is exactly Hermitian, as its validated factors are
    return (linalg.kron_all(*states) if whole is None else whole.density()), states


def _leaf_readouts(p, s: Scenario, taus, cuts) -> tuple:
    """(joint, local) `engine.readout`s of one leaf's states on the rule's
    applied cuts at proper times taus, judged and decided, so raised or
    clamped, in that order: the joint one on the union of the cuts for the
    sector rule and when every evaluation event applied all of it, else None
    for a patchwork. Each is read from the scenario's leaf memo at taus
    (`Scenario.leaf_memo`), which every rule's leaves share: a cut's entry
    is pushed from its prefix, weighed and judged only once while the memo
    holds it, and a readout decided once, its arrays made read-only. A
    refusal or a rejected state keeps no readout, so it raises again on
    every read."""
    memo, union = s.leaf_memo.at(taus), engine._union(cuts)
    joint = isinstance(p, PolystateRule) or all(cut == union for cut in cuts)
    whole = _memo_readout(s, memo, union, tuple(range(s.n))) if joint else None
    return whole, [_memo_readout(s, memo, cut, (i,)) for i, cut in enumerate(cuts)]


def _memo_readout(s: Scenario, memo, cut, subset: tuple) -> engine.Readout:
    """The subset's decided readout on the cut, from the leaf memo or
    decided and kept there, its state read-only."""
    # a read moves the cut's entry forward with its readouts
    entry = engine._weighed(s, cut, memo)
    if (r := memo.get((cut, subset))) is None:
        r = memo[cut, subset] = engine.readout(s, subset, entry)
        r.rows.flags.writeable = False
    return r


def single_state(p, s: Scenario, taus) -> np.ndarray:
    """The joint state of `leaf_states`."""
    return leaf_states(p, s, taus)[0]


def reduced_states(p, s: Scenario, taus) -> list:
    """The reduced states of `leaf_states`, computed alone. No union cut is
    formed, so this returns where `leaf_states` raises because the union's
    recorded branches cannot occur together while each local cut can. No
    caller in the package is left; `bench/layertrace.py` traces it by name."""
    cache = {}
    return [engine._state(s, cut, (i,), cache) for i, cut in enumerate(_event_cuts(p, s, taus))]


@dataclass
class PrescriptionRow:
    """One rule's row of `criteria_report`. Its fields and `all_ok` are the
    keys of a `polystate audit` criteria row, `name` as "prescription"
    (`cli._report`), so renaming one changes the CLI schema."""
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
    """The `criteria` object of `polystate audit`: its fields are the keys,
    each `target_<key>` as <key> of "targets" (`cli._report`), so renaming
    one changes the CLI schema."""
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
        cuts = _event_cuts(p, s, taus)
        joint, locals_ = _leaf_states(p, s, taus, cuts)
        ma = linalg.expect(locals_[0], sz)
        mb = linalg.expect(locals_[1], sz)
        corr = linalg.expect(joint, szz)
        flipped = ensemble.branch_state(s, cuts[1], (1,), flips)
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
    """One rule's `charge_ledgers` entry of `polystate audit`: its fields
    are the keys, `t_grid` as "t" (`cli._report`), so renaming one changes
    the CLI schema."""
    t_grid: list
    q_joint: list
    q_sum: list
    initial: float


def _charge(r: engine.Readout) -> float:
    """The total charge of a qubit readout's state: one dot product of its
    populations with the charges of the product basis states."""
    return float(r.populations() @ linalg.charges(len(r.axes)))


def _check_qubits(s: Scenario) -> None:
    """The one check of every charge audit: each subsystem a qubit."""
    if any(d != 2 for d in s.dims):
        raise ValueError("charge audits are defined for qubit scenarios")


def _initial_charge(s: Scenario) -> float:
    """The total charge of a qubit scenario's initial state, read off the
    diagonal of the state as parsed, O(D)."""
    _check_qubits(s)
    return float((s.initial_state.diagonal() * linalg.charges(s.n)).sum().real)


def leaf_charges(p, s: Scenario, taus, kets=()) -> tuple:
    """(joint total charge, sum of the local charges, fidelity of the joint
    state to each of `kets`) of the prescription at one qubit proper-time
    tuple: `leaf_states`' states, decided as it decides them
    (`_leaf_readouts`), but none formed but a patchwork's local states for
    its fidelities. A charge is read off a readout's populations and a
    union's fidelity off its factor; a patchwork's charge is the sum of the
    local ones, and its fidelity is read one axis at a time
    (`_patchwork_fidelity`). A scenario with a subsystem other than a qubit
    raises ValueError before anything is read."""
    _check_qubits(s)
    whole, locals_ = _leaf_readouts(p, s, taus, _event_cuts(p, s, taus))
    local = sum(map(_charge, locals_))
    if whole is not None:
        return _charge(whole), local, [whole.fidelity(k) for k in kets]
    states = [r.density() for r in locals_] if kets else ()
    return local, local, [_patchwork_fidelity(s.dims, states, k) for k in kets]


def _patchwork_fidelity(dims: tuple, states, ket) -> float:
    """<k| (x)_j rho_j |k> for a ket on subsystems of local dimensions
    `dims`, each rho_j applied on its own axis (`engine._apply`), with no
    Kronecker product formed."""
    ket = linalg.as_ket(ket, int(np.prod(dims)))
    out = ket[:, None]
    for j, rho in enumerate(states):
        out = engine._apply(dims, j, rho, out)
    return float(np.vdot(ket, out).real)


def charge_ledger(s: Scenario, f: Foliation, t_grid, source) -> ChargeLedger:
    """Total-charge bookkeeping along a foliation under one prescription:
    the joint total charge versus the sum of per-subsystem local charges,
    each read off its state's populations by `leaf_charges`, with no joint
    state formed."""
    initial = _initial_charge(s)
    q_joint, q_sum = [], []
    for t in t_grid:
        taus = [proper_time_at_leaf(s.worldlines[i], f, t) for i in range(s.n)]
        q, local, _ = leaf_charges(source, s, taus)
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
    worldline crosses each leaf, read off the populations of its factor;
    reports the largest deviation from the initial value. Deviations are
    findings, not errors."""
    initial = _initial_charge(s)
    values = []
    for t in t_grid:
        cut = engine.observer_cut(s, position(z, proper_time_at_leaf(z, f, t)))
        values.append(_charge(engine.readout(s, tuple(range(s.n)),
                                             engine._weighed(s, cut, {}))))
    max_dev = max((abs(v - initial) for v in values), default=0.0)
    return ConservationReport(initial=initial, values=values, max_deviation=max_dev)
