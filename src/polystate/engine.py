"""The selective-update engine.

A scenario's description of a subsystem subset I at proper times tau is the
sector: push the initial joint state through every intervention located in
the union of the causal pasts of the subset's evaluation events, trace out
the complement, normalize. The polystate collects the sectors of all
nonempty subsets. Singleton sectors depend only on their own proper time by
construction, so the evaluation never signals across spacelike separation.

A sector is two steps: `past_cut` selects the interventions and
`state_after` computes the state they leave, the `push`ed factor's Gram
matrix on the subset over its `branch_weight`. Every other state the package
assigns is read the same way, from a judged entry (`_read`, `readout`):
observer and foliation states by `_state`, the read that `state_after`
wraps in checks for callers outside the package, on the cuts the package
builds itself; the audit rules' states by `readout` on their own cuts; the
ensemble's branch states, and the audit's states with flipped outcomes, by
`ensemble.branch_state` on their outcome assignments.

Cost model: every intervention the engine applies is a single operator, a
unitary or a recorded branch, so subsystem j's selected sequence
multiplies into one d_j x d_j matrix M_j. The selections the engine and
the audit rules make (a causal past, the complement of a chronological
future, a foliation half-space) each cut a timelike worldline in a
proper-time prefix, so a selection is a cut: per subsystem j, the number
L_j of its interventions applied in (tau, id) order (`Scenario.cut_of`).
The scenario multiplies each subsystem's recorded operators up once, on
first use (`Scenario.chains`), and `push` reads M_j as the L_j-th product:
n small products per cut, not one per intervention. Only subsystems with
outcome overrides (the ensemble's branches) multiply as they go. An
override is a branch index or an int array of them; the arrays broadcast
together and lead the result, so one call pushes a stack of branches, a
flat list of assignments or the open mesh of all of them, and the ensemble
makes no Python-level push per branch. The scenario factors its
initial state once, rho = Psi Psi^dagger with Psi of shape D x r
(`Scenario.initial_factor`: the parsed ket itself for a `named` or `ket`
input, r = 1; otherwise one `eigh`, r = 1 for a pure state). `push`
applies each M_j on its own tensor axis of Psi, O(D r d) per subsystem, one
subsystem after another in the order of their first interventions
(`Scenario.chains.heads`); the pushed factor depends only on the cut, not on
the subset. Subsets with different members take in different pasts, so
their cuts often agree on the first heads and part only later: the cache
below forms a cut from its prefix's factor, so it pays for one subsystem
once the prefix is cached. A sector moves
the subset's axes to the front and reshapes the pushed factor to Phi, of
shape d_S x rest with rest = D r / d_S. The
unnormalized sector is the Gram matrix Phi Phi^dagger, O(d_S D r): no
D x D operator is formed or traced unless the subset is everything. Every
subset of a cut has the same trace, the cut's branch weight ||Psi||_F^2,
computed once per cut, O(D r). `linalg.gram_density` symmetrizes the Gram
matrix and divides it by the weight together, so the sector is exactly
Hermitian with unit trace by construction. Its spectrum is all that is left
to decide: a rounding bound on the Gram product decides it when Phi is
small enough (`linalg._PROVABLE_K`: up to 8 x 135, say), and otherwise
eigvalsh reads it on Phi's small side: when d_S > rest, from the
rest x rest matrix Phi^dagger Phi. No Hermiticity or trace pass runs over a
sector. For a
full-rank mixed initial state (r = D) the Gram product is O(d_S D^2),
dearer than a pure one, most for large subsets.

A caller that wants a few numbers of a state, not the state, reads them off
the judged entry without forming it (`readout`): the populations
sum_c |Psi_ic|^2 / w over the D basis states, summed over the axes outside
the subset, of which a diagonal observable such as a charge is one dot
product; a ket's fidelity ||k^dagger Phi||^2 / w; and a product observable's
expectation tr(Psi^dagger (x)_j O_j Psi) / w, each O_j applied on its own
axis as a push applies M_j. Each is O(D r d) at most, where the state's Gram
product is O(d_S D r), O(D^2 r) for the joint state: a 200-leaf sweep of
pure GHZ-10 reads a 1024 x 1 factor per leaf, not a 1024 x 1024 state. The
readout decides the state first, exactly as forming it would: by the
rounding bound where it proves the state, else by `linalg.gram_verdict`,
whose raise or clamp is the read's and whose formed state is the one read.
The audit's charge ledgers, the CLI's sweep and the outcome probabilities
below (`joint_outcome_prob`, `marginal_prob`, `conditional_prob`) read this
way.

A cut whose recorded outcomes cannot occur raises `ImpossibleOutcomeError`
by `impossibility`, the one verdict of the engine, the ensemble and the
oracle. It is judged relative to the cut's operators, not by an absolute
weight floor, so long chains of likely outcomes with a tiny joint weight
still evaluate: a subsystem's operator chain collapses within the cut (a
product below eta^2 times the one before it, in squared spectral norm),
whatever the state, or the weight cannot be told from 0 under the rounding
of the push that computed it. For a pushed factor that is eta^2
prod_j ||M_j||_2^2, the most the cut's operators keep of a unit-norm
factor, times the square of eta, the push's rounding bound
(`linalg.push_error`); the dense oracle brings the bound of its own push.
A factor weight of at least eta^2 passes both tests: only smaller ones are
judged, from norms the scenario tables once beside its products
(`Scenario.chain_norms`), in O(n) scalars, once per cut.

A subset's cut is the elementwise max of its members' past rows. Member
i's row at proper time tau is the cut of the closed past of its evaluation
event among the K intervention events (`Scenario.events`), kept in
`Scenario.past_rows` until i is asked for at another tau. The members a
request finds without a row for their tau are tested together: one
`causally_precedes` call over the m x K stack of their events against the
events, one event row per member, cut in one `Scenario.cut_of`, whose
product with the n x K table `Chains.places` and max give the m cuts at
once. `polystate_at` and the audit's lightcone rules request every member,
so one call costs at most one stacked test, not one per member of each of
its 2^n - 1 subsets; `sector` requests its subset's members. A stack gives
each row the bits of its event tested alone (`spacetime._separation`). A
`replace`d or boosted copy starts without rows. Observer and foliation
states take the cut of their region's mask.

Sectors are piecewise constant in the proper times: they change only when an
intervention event enters or leaves the union of causal pasts. The optional
cache passed to `sector` and `polystate_at` is a dict keyed by the cut, so a
subset on a cut already pushed costs only its Gram product and spectrum.
The cache keeps no sector: none of the package's callers reads one (cut,
subset) twice from one cache, and a cache holds D r entries per cut, not
d_S^2 per sector read from it.
A cut's factor comes from one recursion, `push`'s own (`_pushed`): the
empty cut's factor is Psi, and any other cut's is M_j of its last head j
(the last in `Scenario.chains.heads` order with L_j > 0) applied on axis j
to the factor of its prefix, the same cut with L_j = 0: Psi if the prefix is
empty, else its entry, taken from the cache or formed by the same rule. So
every entry is, bit for bit, the push of its cut. Every cache follows one
rule: a cut is weighed and judged when it is first read (`_weighed`), and
its entry (`PushedCut`) then holds the pushed factor, its weight and the
verdict on whether its outcomes can occur, O(D r) once; a prefix that is
only passed through is kept as a bare factor, and an empty prefix gets no
entry. `polystate_at` keeps a cache of its own when given none, so one call
forms each distinct cut, and each prefix of one, once. One pass of the
benchmark's `ghz_wide` workload (every sector of a GHZ-7 at eight
proper-time tuples, one cache per tuple) applies 263 subsystem products
this way, against 677 when each cut is pushed from Psi, and judges the 184
cuts it reads, against 267 entries when every prefix was judged. The audit
reads its leaves by the same rule, in a memo that the reads of the last two
proper-time tuples share (`Scenario.leaf_memo`), with the decided readouts
beside the entries: one pass of the benchmark's `chain_sweep` judges 212
entries, 147 of them in its ledger leaves, applies 353 subsystem products,
256 of them there, and decides 670 readouts, where a dict per leaf judged
989 (924), applied 1557 (1460) and decided 1893.

`polystate_at` judges every cut and decides every sector's spectrum when it
is called, so any raise or clamp happens there, but forms a sector only
where deciding it did: a wide factor whose spectrum the bound cannot
decide, or a clamp. Every other sector is formed from its cut's factor on
its first read from `Polystate.sectors` and kept there. A pure GHZ-10
holds 1023 sectors, 149 MiB in all, so a caller that reads a few of them
no longer pays for the rest. A caller that reads each sector once, as
`ensemble.compare_to_polystate` does, reads it with `Sectors.formed`,
which forms it and does not keep it, so it holds one sector at a time.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, chain, combinations
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ImpossibleOutcomeError
from .scenario import Scenario, SelectiveOp, product_norms
from .spacetime import (Foliation, PastOfEvent, PastOfLeaf, Worldline,
                        causally_precedes, position)

MAX_SUBSYSTEMS = 10


@dataclass
class Polystate:
    """All 2^n - 1 sectors of a scenario at one proper-time tuple. `sectors`
    is read-only (`Sectors`); a plain dict given for it is copied into one."""

    n: int
    sectors: Mapping
    eval_taus: tuple

    def __post_init__(self):
        if not isinstance(self.sectors, Sectors):
            self.sectors = Sectors(self.sectors)

    def sector(self, subset) -> np.ndarray:
        return self.sectors[check_subset(self.n, subset)]


class Sectors(Mapping):
    """A polystate's sectors by subset, read-only, in the order given. Each
    value is a state, or the subset's `Readout` on its cut's judged entry
    when the state was decided without being formed: it is then formed on
    first read (`Readout.density`) and kept, so a repeat read returns the
    same array and no read raises."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, subset) -> np.ndarray:
        entry = self._entries[subset] = self.formed(subset)
        return entry

    def formed(self, subset) -> np.ndarray:
        """The subset's sector as a read returns it, but not kept: a state
        not yet formed is formed anew on every call, so a caller that reads
        each sector once holds one at a time."""
        entry = self._entries[subset]
        return entry.density() if isinstance(entry, Readout) else entry

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def check_subset(n: int, subset) -> tuple:
    """A subset of n subsystems as sectors are keyed: its indices sorted,
    each once. Raises ValueError, naming it, unless it is a nonempty
    collection of integers in range(n); a bool is a mask entry, not an
    index, and is refused too."""
    try:
        items = tuple(subset)
        out = tuple(sorted(set(map(operator.index, items))))
    except TypeError:
        out = ()
    if not out or out[0] < 0 or out[-1] >= n or bool in map(type, items):
        raise ValueError(f"subset {subset!r} is not a nonempty set of subsystem indices "
                         f"in range({n})")
    return out


def check_subsystem_cap(n: int) -> None:
    """Raise ValueError, naming the cap, if n subsystems are more than
    `MAX_SUBSYSTEMS`: `polystate_at` would form 2^n - 1 sectors."""
    if n > MAX_SUBSYSTEMS:
        raise ValueError(f"{n} subsystems would need {2**n - 1} sectors; cap is {MAX_SUBSYSTEMS}")


def check_taus(s: Scenario, taus) -> None:
    """Raise ValueError, naming them, unless the proper-time tuple has one
    entry per subsystem; `spacetime.position` refuses an entry that is not
    finite when it is read."""
    if len(taus) != s.n:
        raise ValueError(f"proper times {tuple(taus)!r}: need one per subsystem, "
                         f"{s.n}, got {len(taus)}")


def past_cut(s: Scenario, taus, subset) -> tuple:
    """The cut of the union of the subset's closed causal pasts at the given
    proper times: the elementwise max of its members' past rows
    (`_member_rows`), each kept until the member is asked for at another
    proper time. The members without a row at their proper time are tested
    together, in one `causally_precedes` call on the stack of their events.
    The tuple is checked by `check_taus`."""
    return _union(_member_rows(s, taus, subset))


def _union(cuts) -> tuple:
    """The cut of the union of the selections of a nonempty list of cuts:
    their elementwise max."""
    return cuts[0] if len(cuts) == 1 else tuple(map(max, *cuts))


def _member_rows(s: Scenario, taus, members) -> list:
    """The members' past rows at the given proper times, in order: member
    i's is the cut of the interventions in the closed causal past of its
    event at taus[i], kept in `Scenario.past_rows`. The members whose kept
    row is for another proper time, or missing, are tested together, in one
    `causally_precedes` call over the stack of their events, one event row
    per member, and cut in one `Scenario.cut_of`; `spacetime._separation`
    gives a stack, row by row, the values of single events, so each row has
    the bits of a test of its member alone."""
    check_taus(s, taus)
    rows = s.past_rows
    stale = [i for i in members if rows[i] is None or rows[i][0] != float(taus[i])]
    if stale:
        x = np.array([position(s.worldlines[i], float(taus[i])) for i in stale])
        for i, cut in zip(stale, s.cut_of(causally_precedes(s.events[None], x[:, None]))):
            rows[i] = (float(taus[i]), cut)
    return [rows[i][1] for i in members]


def push(s: Scenario, cut, outcomes=None) -> np.ndarray:
    """The initial factor Psi pushed through a cut's interventions, D x r:
    subsystem j's first L_j operators in (tau, id) order make one M_j,
    applied on its axis of Psi (`_apply`), one subsystem after another in
    `Scenario.chains.heads` order, skipping those with L_j = 0. A subsystem
    whose recorded branches all stand reads M_j from `Scenario.chains`; one
    with a selective that `outcomes` overrides multiplies as it goes,
    K_o @ M. The heads are applied by the cut cache's one recursion
    (`_pushed`), with no cache, so a cache entry's factor is, bit for bit,
    its cut's push, and a push never reads or writes a cache a caller
    holds.

    `outcomes` maps selective ids, those outside the cut ignored, to a
    branch index or an int array of them. The arrays broadcast together,
    and their shape leads the result, (*shape, D, r), each slice equal, bit
    for bit, to the push with those outcomes fixed: flat arrays push a list
    of assignments, and the open mesh of `np.ix_` every assignment."""
    return _pushed(s, cut, None, outcomes)


def _pushed(s: Scenario, cut, cache: dict | None, outcomes=None) -> np.ndarray:
    """The cut's factor by the one rule of `push` and of every cache: Psi
    for the empty cut, else M_j of the cut's last head j (the last in
    `Scenario.chains.heads` order with L_j > 0) applied on axis j to the
    factor of its prefix, the cut with L_j = 0, formed by the same rule.
    Given a cache, the factor of each cut but an empty prefix is kept there,
    bare, unless its cut already has an entry there, bare or judged
    (`_weighed`), which is read instead. Without one, as in `push`, no
    prefix outlives its step: a stack of branches would hold one stack per
    head."""
    entry = None if cache is None else cache.get(cut)
    if entry is not None:
        return entry.factor if isinstance(entry, PushedCut) else entry
    psi = s.initial_factor
    for j in reversed(s.chains.heads):
        if cut[j]:
            prefix = (*cut[:j], 0, *cut[j + 1:])
            if any(prefix):
                psi = _pushed(s, prefix, cache, outcomes)
            m = s.chains.products[j][cut[j] - 1]
            if outcomes and not outcomes.keys().isdisjoint(line := s.chains.ids[j][:cut[j]]):
                m = reduce(lambda m, op: op @ m, _branch_ops(s, line, outcomes))
                m = m[..., None, :, :]  # the stack meets the factor's; the new axis spans prod dims[:j]
            psi = _apply(s.dims, j, m, psi)
            break
    if cache is not None:
        cache[cut] = psi
    return psi


def _apply(dims: tuple, j: int, m, psi) -> np.ndarray:
    """M_j applied on subsystem j's axis of a factor, D x r or a stack of
    them: M_j is d_j x d_j, or a stack of them shaped (*stack, 1, d_j, d_j);
    the stacks broadcast and lead the result, (*stack, D, r)."""
    # M_j meets psi as (*stack, prod dims[:j], d_j, rest)
    out = m @ psi.reshape(psi.shape[:-2] + (math.prod(dims[:j]), dims[j], -1))
    return out.reshape(out.shape[:-3] + psi.shape[-2:])


def _branch_ops(s: Scenario, ids, outcomes):
    """Interventions `ids`' operators, a selective's on its `outcomes` branch,
    else its recorded, read from its stacked Kraus operators
    (`Scenario.kraus_stacks`)."""
    stacks = s.kraus_stacks
    for k in ids:
        op = s.interventions[k].op
        yield (stacks[k][outcomes.get(k, op.chosen)]
               if isinstance(op, SelectiveOp) else op.matrix)


def subset_factor(dims: tuple, psi, subset) -> np.ndarray:
    """Phi: a pushed factor on subsystems of local dimensions `dims` with
    the subset's axes moved to the front, in the order given, reshaped to
    d_S x rest: Phi Phi^dagger is the subset's unnormalized state
    Tr_complement[K rho K^dagger]."""
    axes, rows = _subset_plan(dims, tuple(subset))
    return psi.reshape(*dims, -1).transpose(axes).reshape(rows, -1)


@cache
def _subset_plan(dims: tuple, subset) -> tuple:
    """`subset_factor`'s axis order and row count d_S for local dimensions
    `dims`; axis n indexes the factor's columns and is summed over with the
    rest."""
    rest = (j for j in range(len(dims) + 1) if j not in subset)
    return (*subset, *rest), math.prod(dims[i] for i in subset)


@cache
def _diagonal_plan(dims: tuple, axes: tuple) -> tuple:
    """`Readout.populations`' plan: the factor's axes outside the subset,
    summed over, and the order that puts the subset's axes, which the sum
    keeps in natural order, in the order given."""
    order = sorted(axes)
    return _subset_plan(dims, axes)[0][len(axes):], tuple(order.index(j) for j in axes)


def branch_weight(psi):
    """||Psi||_F^2 of a pushed factor: the Born weight of the branches it
    was pushed through, and the trace of every Gram matrix read from it. A
    float for one factor, D x r; an array over the stack for a stack of
    them, (*stack, D, r)."""
    # numpy's pairwise sum, not a BLAS dot: on the fixtures it gives the
    # bits of the Gram trace it stands for, so printed digits stay put
    weight = np.add.reduce(np.square(psi.reshape(psi.shape[:-2] + (-1,)).view(float)), axis=-1)
    return float(weight) if psi.ndim == 2 else weight


class PushedCut(NamedTuple):
    """A `state_after` cache entry for a cut that was read: the pushed
    factor Psi, the branch weight ||Psi||_F^2 of its recorded outcomes and
    why those cannot occur (None when they can), weighed and judged once,
    on the cut's first read (`_weighed`). A cut that was only passed through
    on the way to a longer one keeps its bare factor instead. No state read
    from it is kept: each is a Gram product of the factor, formed where it
    is read."""
    factor: np.ndarray
    weight: float
    impossible: str | None


def impossibility(s: Scenario, cut, weight: float, outcomes=None, error=None) -> str | None:
    """The one verdict of engine, ensemble and oracle: why the cut's
    branches, recorded or as `outcomes` assigns them (as in `push`), cannot
    occur, or None when they can. Either a subsystem's operator chain
    vanishes at a step within the cut (`scenario.product_norms`), or the
    weight cannot be told from 0 under the rounding of the arithmetic that
    computed it: `error`, the bound of a dense push, else, for the squared
    norm of a pushed factor, eta^2 prod_j ||M_j||_2^2 with eta =
    `linalg.push_error`, the dust the push leaves of a unit-norm factor.

    A factor weight of at least eta^2, or a dense weight above `error`, is
    accepted at once: the operators are contractions, so a chain that
    vanished leaves, to rounding, at most eta^2 of weight. Any other weight
    costs O(n) scalars, from norms tabled once per scenario, plus an SVD per
    chain `outcomes` changes."""
    floor = linalg.push_error(s.dims) ** 2
    if (weight >= floor) if error is None else (weight > error):
        return None
    bound = 1.0
    for j, (length, line, norms, vanishes) in enumerate(zip(cut, s.chains.ids, *s.chain_norms)):
        if not length:
            continue
        line = line[:length]
        if outcomes and not outcomes.keys().isdisjoint(line):
            ops = _branch_ops(s, line, outcomes)
            norms, vanishes = product_norms(list(accumulate(ops, lambda m, op: op @ m)), s.dims)
        if vanishes is not None and length > vanishes:
            k = line[vanishes]
            return (f"intervention {k} on {s.names[j]} at tau {s.interventions[k].tau:g} "
                    "annihilates every state the earlier ones leave; "
                    "the recorded outcome cannot occur")
        bound *= norms[length - 1]
    if error is None and weight >= floor * bound:
        return None
    return f"branch weight {weight:.3e} is zero; the recorded outcome cannot occur"


def refuse(s: Scenario, subset, why) -> None:
    """Raise `ImpossibleOutcomeError`, naming the sector, if `why`, an
    `impossibility` verdict, says its branches cannot occur."""
    if why:
        names = ",".join(s.names[i] for i in subset)
        raise ImpossibleOutcomeError(f"sector {{{names}}}: {why}")


def state_after(s: Scenario, cut, subset, cache=None) -> np.ndarray:
    """The subset's state after the cut's interventions: the `push`ed
    factor's Gram matrix on the subset, normalized by the recorded branches'
    Born weight and validated on its small side (`linalg.gram_density`),
    formed anew on every call. A cache, a dict shared across calls for the
    same scenario, keeps each cut's factor, and each prefix's, so each is
    pushed once (`_pushed`); a cut that is read is also weighed and judged
    once, on its first read, and its entry is then a `PushedCut`
    (`_weighed`), while a prefix only passed through stays a bare factor.

    This is the checking entry point for callers outside the package, and
    only a wrapper: the subset is checked as `check_subset` does, and a cut
    not yet in the cache before anything is pushed: one that is not a tuple
    of n integers with 0 <= L_j <= the length of subsystem j's chain raises
    ValueError, naming it. The read is `_state`, which the package's own
    callers use directly on the cuts they build (`past_cut`,
    `Scenario.cut_of`) and the subsets they spell out."""
    subset = check_subset(s.n, subset)
    cache = {} if cache is None else cache
    lines = s.chains.ids
    try:
        valid = cut in cache or (isinstance(cut, tuple) and len(cut) == len(lines) and all(
            [0 <= operator.index(c) <= len(line) for c, line in zip(cut, lines)]))
    except TypeError:  # an unhashable cut, or a count that is not an integer
        valid = False
    if not valid:
        raise ValueError(f"cut {cut!r} is not {len(lines)} counts within {tuple(map(len, lines))}")
    return _state(s, cut, subset, cache)


def _state(s: Scenario, cut, subset: tuple, cache=None) -> np.ndarray:
    """`state_after` unchecked: the read for a valid cut and a sorted
    subset tuple, as the package builds them."""
    return _read(s, subset, _weighed(s, cut, {} if cache is None else cache))


def _read(s: Scenario, subset: tuple, entry: PushedCut) -> np.ndarray:
    """The subset's state from a judged entry: refused by name if its
    branches cannot occur, else the Gram matrix of its factor on the subset
    over its weight (`linalg.gram_density`): the bits of the entry's
    `readout` formed (`Readout.density`), read without building a readout
    on the path every sector read takes."""
    refuse(s, subset, entry.impossible)
    return linalg.gram_density(subset_factor(s.dims, entry.factor, subset), entry.weight)


class Readout(NamedTuple):
    """A subset's state on a judged entry, decided but not formed: the
    partial trace of rows cols^dagger / weight over the axes of `dims` not
    in `axes`. Unless deciding formed the state, rows and cols are both the
    entry's pushed factor Psi, `dims` the scenario's and `axes` the
    subset's, and no read forms a d_S x d_S product of Psi: each costs
    O(D r d) at most. When deciding formed it (a wide factor's product, or a
    clamp), rows is that state, cols None and the weight 1, on the subset's
    own axes, so that every read is of the state as it stands: its
    diagonal, its trace or the state itself, with no other d_S x d_S array
    held or formed."""
    dims: tuple
    axes: tuple
    rows: np.ndarray
    cols: np.ndarray | None
    weight: float

    def density(self) -> np.ndarray:
        """The state, formed here unless deciding formed it: the bits of
        `linalg.gram_density`."""
        if self.cols is None:
            return self.rows
        return linalg.gram_product(subset_factor(self.dims, self.rows, self.axes), self.weight)

    def populations(self) -> np.ndarray:
        """The state's diagonal, d_S reals: the populations
        sum_c |Psi_ic|^2 / weight over the D basis states, summed over the
        axes not in the subset, in the order of `axes`, as the state's
        diagonal is; a formed state's own diagonal."""
        if self.cols is None:
            return self.rows.diagonal().real.copy()
        terms = (self.rows * self.cols.conj()).real.reshape(*self.dims, -1)
        rest, order = _diagonal_plan(self.dims, self.axes)
        return np.add.reduce(terms, axis=rest).transpose(order).ravel() / self.weight

    def fidelity(self, ket) -> float:
        """<k| rho |k> for a ket of length d_S, however shaped
        (`linalg.as_ket`): ||k^dagger Phi||^2 / weight for Phi the factor on
        the subset, or k^dagger rho k for a formed state."""
        ket = linalg.as_ket(ket, _subset_plan(self.dims, self.axes)[1])
        amp = (ket.conj()[:, None] * subset_factor(self.dims, self.rows, self.axes)).sum(axis=0)
        other = ket.conj() if self.cols is None else amp
        return float(np.vdot(other, amp).real) / self.weight

    def expectation(self, ops) -> float:
        """tr(rho (x)_j O_j) for exactly one d_j x d_j factor O_j per
        member, None for the identity: tr(cols^dagger (x)_j O_j rows) /
        weight, or the trace of (x)_j O_j rows for a formed state, each O_j
        applied on its member's axis of rows as `_apply` applies a product.
        Its imaginary part must be negligible, as in `linalg.expect`."""
        if len(ops := list(ops)) != len(self.axes):
            raise ValueError(f"{len(ops)} operators for {len(self.axes)} subsystems")
        out = self.rows
        for j, op in zip(self.axes, ops):
            if op is not None:
                if np.shape(op) != (self.dims[j],) * 2:
                    raise DimensionMismatchError(f"operator {np.shape(op)} on dimension "
                                                 f"{self.dims[j]}")
                out = _apply(self.dims, j, np.asarray(op, dtype=complex), out)
        return linalg.real_part((np.trace(out) if self.cols is None
                                 else np.vdot(self.cols, out)) / self.weight)


def readout(s: Scenario, subset: tuple, entry: PushedCut) -> Readout:
    """The subset's `Readout` on a judged entry: refused by name if its
    branches cannot occur (`refuse`), then decided as `linalg.gram_density`
    decides it, so that it raises and clamps where forming the state would:
    by the rounding bound from Phi's shape alone where it proves the Gram
    state (`linalg.gram_proved`), else by `linalg.gram_verdict`, whose
    formed state, if any, is the one read."""
    refuse(s, subset, entry.impossible)
    d_s = _subset_plan(s.dims, subset)[1]
    state = None
    if not linalg.gram_proved((d_s, entry.factor.size // d_s), entry.weight):
        state = linalg.gram_verdict(subset_factor(s.dims, entry.factor, subset), entry.weight)
    if state is None:
        return Readout(s.dims, subset, entry.factor, entry.factor, entry.weight)
    return Readout(tuple(s.dims[i] for i in subset), tuple(range(len(subset))), state, None, 1.0)


def _weighed(s: Scenario, cut, cache: dict) -> PushedCut:
    """The cut's judged entry, for a cut that is read: on its first read
    its factor is `push`ed through the cache (`_pushed`), from the longest
    prefix held there, then weighed and judged (`_judged`) and stored in
    place of the bare factor. A prefix only passed through stays bare."""
    entry = cache.get(cut)
    if not isinstance(entry, PushedCut):
        entry = cache[cut] = _judged(s, cut, _pushed(s, cut, cache))
    return entry


def _judged(s: Scenario, cut, psi, outcomes=None) -> PushedCut:
    """A cut's entry from its pushed factor, on the recorded branches or on
    those `outcomes` assigns (as in `push`): weighed, and judged by
    `impossibility`."""
    weight = branch_weight(psi)
    return PushedCut(psi, weight, impossibility(s, cut, weight, outcomes))


def sector(s: Scenario, taus, subset, cache=None) -> np.ndarray:
    """Density operator the subset assigns itself at the given proper times.

    :param taus: proper-time tuple, one entry per subsystem; entries outside
        the subset are ignored (singleton sectors depend only on their own).
    :param cache: optional dict shared across calls for the same scenario,
        as in `state_after`: it keeps the judged entry of every cut read and
        the bare factor of every prefix only passed through.
    """
    subset = check_subset(s.n, subset)
    return _state(s, past_cut(s, taus, subset), subset, cache)


def all_subsets(n: int):
    idx = range(n)
    return chain.from_iterable(combinations(idx, r) for r in range(1, n + 1))


def polystate_at(s: Scenario, taus, cache=None) -> Polystate:
    """Every sector at one proper-time tuple, each judged and decided here
    (`readout`), so that any raise or clamp happens in this call. A sector
    is formed here only if deciding it formed it (`linalg.gram_verdict`);
    every other is formed on its first read from the polystate
    (`Sectors`)."""
    check_subsystem_cap(s.n)
    member_cuts = _member_rows(s, taus, range(s.n))
    cache = {} if cache is None else cache
    sectors = {}
    for subset in all_subsets(s.n):
        sectors[subset] = readout(s, subset,
                                  _weighed(s, _union([member_cuts[i] for i in subset]), cache))
    return Polystate(n=s.n, sectors=Sectors(sectors), eval_taus=tuple(taus))


def expect_individual(p: Polystate, i: int, obs) -> float:
    return linalg.expect(p.sector((i,)), obs)


def expect_joint(p: Polystate, subset, obs) -> float:
    return linalg.expect(p.sector(subset), obs)


def sector_readout(s: Scenario, taus, subset) -> Readout:
    """The `readout` of the subset's sector at the given proper times, on a
    cache of its own; the subset is checked as `sector` checks it."""
    subset = check_subset(s.n, subset)
    return readout(s, subset, _weighed(s, past_cut(s, taus, subset), {}))


def joint_outcome_prob(s: Scenario, taus, projectors) -> float:
    """Probability of a simultaneous outcome tuple, read off the full joint
    sector's factor: the expectation of the tensor product of the
    projectors, each applied on its own axis (`Readout.expectation`). Pass
    None to leave a subsystem unprobed (identity); a list of any length
    but n raises ValueError."""
    return sector_readout(s, taus, range(s.n)).expectation(projectors)


def marginal_prob(s: Scenario, taus, i: int, proj) -> float:
    """Outcome probability from subsystem i's own sector; independent of the
    other entries of taus by construction."""
    return sector_readout(s, taus, (i,)).expectation([proj])


def conditional_prob(s: Scenario, i: int, proj, conditioning_taus) -> float:
    """Outcome probability for subsystem i in the joint sector evaluated at
    `conditioning_taus`. Place the conditioning party's measurement inside
    the past union (its tau at or after the measurement) and keep subsystem
    i's tau before its own measurement; the recorded outcomes of the
    interventions inside the union do the conditioning."""
    return joint_outcome_prob(s, conditioning_taus, [proj if j == i else None for j in range(s.n)])


def observer_state(s: Scenario, x) -> np.ndarray:
    """What a maximally informed observer at event x assigns the whole
    system: the initial state pushed through the causal past of x. An event
    with a coordinate that is not finite raises ValueError, naming it."""
    return _state(s, observer_cut(s, x), tuple(range(s.n)))


def observer_cut(s: Scenario, x) -> tuple:
    """The cut of the causal past of event x, as `observer_state` reads it."""
    past = PastOfEvent(x)
    if not np.isfinite(past.apex).all():
        raise ValueError(f"event {past.apex.tolist()} has a coordinate that is not finite")
    return s.cut_of(past.contains(s.events))


def recollection(s: Scenario, z: Worldline, tau: float) -> np.ndarray:
    """Observer state along a worldline, as a function of its proper time."""
    return observer_state(s, position(z, tau))


def foliation_state(s: Scenario, f: Foliation, t: float) -> np.ndarray:
    """State conditioned on everything at or below leaf t of the foliation.
    A leaf t that is not finite raises ValueError, naming it."""
    if not math.isfinite(t):
        raise ValueError(f"leaf {t} is not a finite number")
    return _state(s, s.cut_of(PastOfLeaf(f, t).contains(s.events)), tuple(range(s.n)))
