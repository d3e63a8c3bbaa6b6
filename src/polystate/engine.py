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
`state_after` on their own selections, and the ensemble's branch states by
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
applies each M_j on its own tensor axis of Psi, O(D r d) per subsystem; the
pushed factor depends only on the cut, not on the subset. A sector moves
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
cache passed to `sector` and `polystate_at` is keyed by the cut; each entry
(`PushedCut`) holds the pushed factor, its weight, the verdict on whether its
outcomes can occur and the sectors already read from it, so a new subset on
a cut already pushed costs only its Gram product and spectrum.
`polystate_at` keeps a cache of its own when given none, so one call pushes
once per distinct cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
    """All 2^n - 1 sectors of a scenario at one proper-time tuple."""

    n: int
    sectors: dict
    eval_taus: tuple

    def sector(self, subset) -> np.ndarray:
        return self.sectors[tuple(sorted(subset))]


def past_cut(s: Scenario, taus, subset) -> tuple:
    """The cut of the union of the subset's closed causal pasts at the given
    proper times: the elementwise max of its members' past rows, each
    computed once per member and proper time (`Scenario.past_rows`)."""
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
    applied on its axis of Psi. A subsystem whose recorded branches all
    stand reads M_j from `Scenario.chains`; one with a selective that
    `outcomes` overrides multiplies as it goes, K_o @ M.

    `outcomes` maps selective ids, those outside the cut ignored, to a
    branch index or an int array of them. The arrays broadcast together,
    and their shape leads the result, (*shape, D, r), each slice equal, bit
    for bit, to the push with those outcomes fixed: flat arrays push a list
    of assignments, and the open mesh of `np.ix_` every assignment."""
    dims = s.dims
    products, lines = s.chains.products, s.chains.ids
    psi = s.initial_factor.reshape(-1)
    for j in s.chains.heads:
        if not cut[j]:
            continue
        m = products[j][cut[j] - 1]
        if outcomes and not outcomes.keys().isdisjoint(lines[j][:cut[j]]):
            m = reduce(lambda m, op: op @ m, _branch_ops(s, lines[j][:cut[j]], outcomes))
        # psi is (*stack, D r); M_j meets it as (*stack, prod dims[:j], d_j, rest)
        lead = psi.shape[:-1]
        psi = m[..., None, :, :] @ psi.reshape(*lead, math.prod(dims[:j]), dims[j], -1)
        psi = psi.reshape(*psi.shape[:-3], -1)
    return psi.reshape(*psi.shape[:-1], math.prod(dims), -1)


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
    subset = list(subset)
    # axis n indexes the factor's columns and is summed over with the rest
    rest = [j for j in range(s.n + 1) if j not in subset]
    phi = psi.reshape(*s.dims, -1).transpose(subset + rest)
    return phi.reshape(math.prod(s.dims[i] for i in subset), -1)


def branch_weight(psi) -> float:
    """||Psi||_F^2 of a pushed factor: the Born weight of the branches it
    was pushed through, and the trace of every Gram matrix read from it."""
    # numpy's pairwise sum, not a BLAS dot: on the fixtures it gives the
    # bits of the Gram trace it stands for, so printed digits stay put
    return float(np.square(psi.reshape(-1).view(float)).sum())


class PushedCut(NamedTuple):
    """A `state_after` cache entry for one cut: the pushed factor Psi, the
    branch weight ||Psi||_F^2 of its recorded outcomes, why those cannot
    occur (None when they can), and the states already read from it, by
    subset."""
    factor: np.ndarray
    weight: float
    impossible: str | None
    states: dict


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
    Born weight and validated on its small side (`linalg.gram_density`). A
    cache, a dict shared across calls for the same scenario, keeps a
    `PushedCut` entry per cut, so each cut is pushed, weighed and judged once."""
    cache = {} if cache is None else cache
    entry = cache.get(cut)
    if entry is None:
        psi = push(s, cut)
        weight = branch_weight(psi)
        entry = cache[cut] = PushedCut(psi, weight, impossibility(s, cut, weight), {})
    if subset not in entry.states:
        refuse(s, subset, entry.impossible)
        phi = subset_factor(s, entry.factor, subset)
        entry.states[subset] = linalg.gram_density(phi, entry.weight)
    return entry.states[subset]


def sector(s: Scenario, taus, subset, cache=None) -> np.ndarray:
    """Density operator the subset assigns itself at the given proper times.

    :param taus: proper-time tuple, one entry per subsystem; entries outside
        the subset are ignored (singleton sectors depend only on their own).
    :param cache: optional dict shared across calls for the same scenario,
        as in `state_after`.
    """
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise ValueError("subset must be nonempty")
    return state_after(s, past_cut(s, taus, subset), subset, cache)


def all_subsets(n: int):
    idx = range(n)
    return chain.from_iterable(combinations(idx, r) for r in range(1, n + 1))


def polystate_at(s: Scenario, taus, cache=None) -> Polystate:
    """Every sector at one proper-time tuple."""
    if s.n > MAX_SUBSYSTEMS:
        raise ValueError(f"{s.n} subsystems would need {2**s.n - 1} sectors; cap is {MAX_SUBSYSTEMS}")
    cache = {} if cache is None else cache
    sectors = {subset: sector(s, taus, subset, cache) for subset in all_subsets(s.n)}
    return Polystate(n=s.n, sectors=sectors, eval_taus=tuple(taus))


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
    system: the initial state pushed through the causal past of x."""
    return state_after(s, s.cut_of(PastOfEvent(x).contains(s.events)), range(s.n))


def recollection(s: Scenario, z: Worldline, tau: float) -> np.ndarray:
    """Observer state along a worldline, as a function of its proper time."""
    return observer_state(s, position(z, tau))


def foliation_state(s: Scenario, f: Foliation, t: float) -> np.ndarray:
    """State conditioned on everything at or below leaf t of the foliation."""
    return state_after(s, s.cut_of(PastOfLeaf(f, t).contains(s.events)), range(s.n))
