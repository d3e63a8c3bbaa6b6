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
assigns is read the same way: observer, foliation and audit-rule states by
`_state`, the read that `state_after` wraps in checks for callers outside
the package, on the cuts the package builds itself; the ensemble's branch
states, and the audit's states with flipped outcomes, by
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
i's row at proper time tau is one vectorised test of its evaluation event's
closed past against the K intervention events (`Scenario.events`), kept as
a cut in `Scenario.past_rows` until i is asked for at another tau, so a
`polystate_at` call costs at most n tests, not one per member of each of its
2^n - 1 subsets. A `replace`d or boosted copy starts without rows. Observer
and foliation states take the cut of their region's mask.

Sectors are piecewise constant in the proper times: they change only when an
intervention event enters or leaves the union of causal pasts. The optional
cache passed to `sector` and `polystate_at` is a dict keyed by the cut; each
entry (`PushedCut`) holds the pushed factor, its weight and the verdict on
whether its outcomes can occur, so a subset on a cut already pushed costs
only its Gram product and spectrum. The cache keeps no sector: none of the
package's callers reads one (cut, subset) twice from one cache, and a
cache holds D r entries per cut, not d_S^2 per sector read from it.
An entry is defined by one recursive rule (`_weighed`): the empty cut's
factor is Psi, and any other cut's is M_j of its last head j (the last in
`Scenario.chains.heads` order with L_j > 0) applied on axis j to the factor
of its prefix, the same cut with L_j = 0: Psi if the prefix is empty, else
its entry, taken from the cache or formed by the same rule. An empty prefix
gets no entry unless it is requested. `push` applies the heads in that
order too, so every entry is, bit for bit, the push of its cut. Every entry
is weighed and judged when it is formed, O(D r), whether its cut was
requested or only a longer one was. `polystate_at` keeps a cache of its
own when given none, so one call forms each distinct cut, and each prefix
of one, once. One pass of the benchmark's `ghz_wide` workload (every sector
of a GHZ-7 at eight proper-time tuples, one cache per tuple) applies 263
subsystem products this way, against 677 when each cut is pushed from Psi.

`polystate_at` judges every cut and decides every sector's spectrum when it
is called, so any raise or clamp happens there, but forms a sector only
where deciding it did: a wide factor whose spectrum the bound cannot
decide, or a clamp. Every other sector is formed from its cut's factor on
its first read from `Polystate.sectors` and kept there. A pure GHZ-10
holds 1023 sectors, 149 MiB in all, so a caller that reads a few of them
no longer pays for the rest.
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
from .errors import ImpossibleOutcomeError
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
            self.sectors = Sectors(None, self.sectors)

    def sector(self, subset) -> np.ndarray:
        return self.sectors[check_subset(self.n, subset)]


class Sectors(Mapping):
    """A polystate's sectors by subset, read-only, in the order given. Each
    value is a state, or the weighed `PushedCut` of the subset's cut when
    the state was decided without being formed: it is then formed on first
    read (`linalg.gram_product`) and kept, so a repeat read returns the same
    array and no read raises."""

    def __init__(self, s: Scenario | None, entries):
        self._s, self._entries = s, dict(entries)

    def __getitem__(self, subset) -> np.ndarray:
        entry = self._entries[subset]
        if isinstance(entry, PushedCut):
            phi = subset_factor(self._s, entry.factor, subset)
            entry = self._entries[subset] = linalg.gram_product(phi, entry.weight)
        return entry

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
    proper times: the elementwise max of its members' past rows, each
    computed once per member and proper time (`Scenario.past_rows`). The
    tuple is checked by `check_taus`."""
    check_taus(s, taus)
    rows = s.past_rows
    for i in subset:
        tau = float(taus[i])
        if rows[i] is None or rows[i][0] != tau:
            inside = causally_precedes(s.events, position(s.worldlines[i], tau))
            rows[i] = (tau, s.cut_of(inside))
    if len(subset) == 1:
        return rows[subset[0]][1]
    return tuple(map(max, *(rows[i][1] for i in subset)))


def push(s: Scenario, cut, outcomes=None) -> np.ndarray:
    """The initial factor Psi pushed through a cut's interventions, D x r:
    subsystem j's first L_j operators in (tau, id) order make one M_j,
    applied on its axis of Psi (`_apply`), one subsystem after another in
    `Scenario.chains.heads` order, skipping those with L_j = 0. A subsystem
    whose recorded branches all stand reads M_j from `Scenario.chains`; one
    with a selective that `outcomes` overrides multiplies as it goes,
    K_o @ M.

    `outcomes` maps selective ids, those outside the cut ignored, to a
    branch index or an int array of them. The arrays broadcast together,
    and their shape leads the result, (*shape, D, r), each slice equal, bit
    for bit, to the push with those outcomes fixed: flat arrays push a list
    of assignments, and the open mesh of `np.ix_` every assignment."""
    products, lines = s.chains.products, s.chains.ids
    psi = s.initial_factor
    for j in s.chains.heads:
        if not cut[j]:
            continue
        m = products[j][cut[j] - 1]
        if outcomes and not outcomes.keys().isdisjoint(lines[j][:cut[j]]):
            m = reduce(lambda m, op: op @ m, _branch_ops(s, lines[j][:cut[j]], outcomes))
            m = m[..., None, :, :]  # the stack meets the factor's; the new axis spans prod dims[:j]
        psi = _apply(s.dims, j, m, psi)
    return psi


def _apply(dims: tuple, j: int, m, psi) -> np.ndarray:
    """M_j applied on subsystem j's axis of a factor, D x r or a stack of
    them: M_j is d_j x d_j, or a stack of them shaped (*stack, 1, d_j, d_j);
    the stacks broadcast and lead the result, (*stack, D, r)."""
    # M_j meets psi as (*stack, prod dims[:j], d_j, rest)
    out = m @ psi.reshape(psi.shape[:-2] + (math.prod(dims[:j]), dims[j], -1))
    return out.reshape(out.shape[:-3] + psi.shape[-2:])


def _branch_ops(s: Scenario, ids, outcomes):
    """Interventions `ids`' operators, a selective's on its `outcomes` branch, else its recorded."""
    for k in ids:
        op = s.interventions[k].op
        yield (np.asarray(op.kraus)[outcomes.get(k, op.chosen)]
               if isinstance(op, SelectiveOp) else op.matrix)


def subset_factor(s: Scenario, psi, subset) -> np.ndarray:
    """Phi: a pushed factor with the subset's axes moved to the front, in
    the order given, reshaped to d_S x rest: Phi Phi^dagger is the
    subset's unnormalized state Tr_complement[K rho K^dagger]."""
    axes, rows = _subset_plan(s.dims, tuple(subset))
    return psi.reshape(*s.dims, -1).transpose(axes).reshape(rows, -1)


@cache
def _subset_plan(dims: tuple, subset) -> tuple:
    """`subset_factor`'s axis order and row count d_S for local dimensions
    `dims`; axis n indexes the factor's columns and is summed over with the
    rest."""
    rest = (j for j in range(len(dims) + 1) if j not in subset)
    return (*subset, *rest), math.prod(dims[i] for i in subset)


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
    """A `state_after` cache entry for one cut: the pushed factor Psi, the
    branch weight ||Psi||_F^2 of its recorded outcomes and why those cannot
    occur (None when they can), all three formed together, once, from the
    entry of the cut's prefix (`_weighed`), whether the cut was requested
    or only a longer one was. No state read from it is kept: each is a Gram
    product of the factor, formed where it is read."""
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
    same scenario, keeps a `PushedCut` entry per cut, so each cut, and each
    prefix of one, is pushed, weighed and judged once (`_weighed`).

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
    entry = _weighed(s, cut, {} if cache is None else cache)
    refuse(s, subset, entry.impossible)
    return linalg.gram_density(subset_factor(s, entry.factor, subset), entry.weight)


def _weighed(s: Scenario, cut, cache: dict) -> PushedCut:
    """The cut's cache entry, formed, weighed and judged on first request:
    Psi for the empty cut, else M_j of the cut's last head j applied on
    axis j to the factor of its prefix, the cut with L_j = 0: Psi if that is
    empty, else the prefix's entry, entered the same way. So the factor is,
    bit for bit, the cut's `push`."""
    entry = cache.get(cut)
    if entry is None:
        psi = s.initial_factor
        for j in reversed(s.chains.heads):
            if cut[j]:
                prefix = (*cut[:j], 0, *cut[j + 1:])
                base = _weighed(s, prefix, cache).factor if any(prefix) else psi
                psi = _apply(s.dims, j, s.chains.products[j][cut[j] - 1], base)
                break
        weight = branch_weight(psi)
        entry = cache[cut] = PushedCut(psi, weight, impossibility(s, cut, weight))
    return entry


def sector(s: Scenario, taus, subset, cache=None) -> np.ndarray:
    """Density operator the subset assigns itself at the given proper times.

    :param taus: proper-time tuple, one entry per subsystem; entries outside
        the subset are ignored (singleton sectors depend only on their own).
    :param cache: optional dict shared across calls for the same scenario,
        as in `state_after`.
    """
    subset = check_subset(s.n, subset)
    return _state(s, past_cut(s, taus, subset), subset, cache)


def all_subsets(n: int):
    idx = range(n)
    return chain.from_iterable(combinations(idx, r) for r in range(1, n + 1))


def polystate_at(s: Scenario, taus, cache=None) -> Polystate:
    """Every sector at one proper-time tuple, each judged and decided here,
    so that any raise or clamp happens in this call. A sector is formed
    here only if deciding it formed it (`linalg.gram_verdict`); every other
    is formed on its first read from the polystate (`Sectors`)."""
    check_subsystem_cap(s.n)
    cache = {} if cache is None else cache
    sectors = {}
    for subset in all_subsets(s.n):
        entry = _weighed(s, past_cut(s, taus, subset), cache)
        refuse(s, subset, entry.impossible)
        rows = _subset_plan(s.dims, subset)[1]
        state = None
        if not linalg.gram_proved((rows, entry.factor.size // rows), entry.weight):
            state = linalg.gram_verdict(subset_factor(s, entry.factor, subset), entry.weight)
        sectors[subset] = entry if state is None else state
    return Polystate(n=s.n, sectors=Sectors(s, sectors), eval_taus=tuple(taus))


def expect_individual(p: Polystate, i: int, obs) -> float:
    return linalg.expect(p.sector((i,)), obs)


def expect_joint(p: Polystate, subset, obs) -> float:
    return linalg.expect(p.sector(subset), obs)


def joint_outcome_prob(s: Scenario, taus, projectors) -> float:
    """Probability of a simultaneous outcome tuple, read from the full joint
    sector: the expectation of the tensor product of the projectors. Pass
    None to leave a subsystem unprobed (identity)."""
    full = sector(s, taus, range(s.n))
    mats = [np.eye(s.dims[i], dtype=complex) if projectors[i] is None
            else np.asarray(projectors[i], dtype=complex)
            for i in range(s.n)]
    return linalg.expect(full, linalg.kron_all(*mats))


def marginal_prob(s: Scenario, taus, i: int, proj) -> float:
    """Outcome probability from subsystem i's own sector; independent of the
    other entries of taus by construction."""
    return linalg.expect(sector(s, taus, (i,)), proj)


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
    past = PastOfEvent(x)
    if not np.isfinite(past.apex).all():
        raise ValueError(f"event {past.apex.tolist()} has a coordinate that is not finite")
    return _state(s, s.cut_of(past.contains(s.events)), tuple(range(s.n)))


def recollection(s: Scenario, z: Worldline, tau: float) -> np.ndarray:
    """Observer state along a worldline, as a function of its proper time."""
    return observer_state(s, position(z, tau))


def foliation_state(s: Scenario, f: Foliation, t: float) -> np.ndarray:
    """State conditioned on everything at or below leaf t of the foliation.
    A leaf t that is not finite raises ValueError, naming it."""
    if not math.isfinite(t):
        raise ValueError(f"leaf {t} is not a finite number")
    return _state(s, s.cut_of(PastOfLeaf(f, t).contains(s.events)), tuple(range(s.n)))
