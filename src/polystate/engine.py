"""The selective-update engine.

A scenario's description of a subsystem subset I at proper times tau is the
sector: push the initial joint state through every intervention located in
the union of the causal pasts of the subset's evaluation events, trace out
the complement, normalize. The polystate collects the sectors of all
nonempty subsets. Singleton sectors depend only on their own proper time by
construction, so the evaluation never signals across spacelike separation.

A sector is two steps: `past_union_ids` selects the interventions and
`state_after` computes the state they leave, the unnormalized `pushed`
state divided by its trace. Every other state the package assigns
(observer and foliation states, each audit rule's states) is `state_after`
on its own selection, and the ensemble's branch weights and branch states
are `pushed` on their outcome assignments.

Cost model: every intervention the engine applies is a single operator, a
unitary or a recorded branch, so subsystem j's selected sequence
multiplies into one d_j x d_j matrix M_j. The scenario factors its initial
state once, rho = Psi Psi^dagger with Psi of shape D x r
(`Scenario.initial_factor`: the parsed ket itself for a `named` or `ket`
input, r = 1; otherwise one `eigh`, r = 1 for a pure state). `push`
applies each M_j on its own tensor axis of Psi, O(D r d) per subsystem; the
pushed factor depends only on the selected interventions, not on the
subset. A sector moves the subset's axes to the front and reshapes the
pushed factor to Phi, of shape d_S x rest with rest = D r / d_S. The
unnormalized sector is the Gram matrix Phi Phi^dagger, O(d_S D r): no
D x D operator is formed or traced unless the subset is everything. Its
validation reads the spectrum on Phi's small side: when d_S > rest, from
the rest x rest matrix Phi^dagger Phi (see `linalg.normalize`). For a
full-rank mixed initial state (r = D) the Gram product is O(d_S D^2),
dearer than a pure one, most for large subsets.

Selecting the interventions is the OR of the members' past rows. The
scenario computes its intervention events once (`Scenario.events`, a
K x (1+d) array). Member i's row at proper time tau is one vectorised test
of its evaluation event's closed past against all K rows, kept as a bitmask
in `Scenario.past_rows` until i is asked for at another tau. So a subset's
selection (`past_union_ids`) locates and tests only members whose proper
time changed, and a `polystate_at` call costs at most n tests, not one per
member of each of its 2^n - 1 subsets. The rows live on the scenario, not in
the sector cache, and a `replace`d or boosted copy starts without them.
Observer and foliation states select through a `Region` (`selected_ids`).

Sectors are piecewise constant in the proper times: they change only when an
intervention event enters or leaves the union of causal pasts. The optional
cache passed to `sector` and `polystate_at` is keyed by the selected
intervention ids; each entry holds the pushed factor and the sectors
already read from it, so a new subset on a selection already pushed costs
only its Gram product and validation, and sweeps over tau grids reuse each distinct
computation. `polystate_at` keeps a cache of its own when given none, so one
call pushes once per distinct selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import linalg
from .errors import ImpossibleOutcomeError
from .scenario import Scenario, local_sequences, selected_ids
from .spacetime import (Foliation, PastOfEvent, PastOfLeaf, Region, Worldline,
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


def past_union_ids(s: Scenario, taus, subset) -> tuple:
    """Ids of the interventions inside the union of the subset's closed
    causal pasts at the given proper times, in ascending order: the OR of
    its members' past rows, each computed once per member and proper time
    (`Scenario.past_rows`)."""
    rows = s.past_rows
    mask = 0
    for i in subset:
        tau = float(taus[i])
        if rows[i] is None or rows[i][0] != tau:
            inside = causally_precedes(s.events, position(s.worldlines[i], tau))
            rows[i] = (tau, sum(1 << k for k in np.flatnonzero(inside).tolist()))
        mask |= rows[i][1]
    # bit k of the mask is character k of bin(mask) read from the right
    return tuple(k for k, bit in enumerate(reversed(bin(mask))) if bit == "1")


def push(s: Scenario, ids, outcomes=None) -> np.ndarray:
    """The initial factor Psi pushed through the chosen interventions, D x r:
    each subsystem's operators (the recorded branches, or the ones
    `outcomes` assigns, as in `local_sequences`) multiply into one M_j,
    applied on that subsystem's axis of Psi."""
    dims = s.dims
    psi = s.initial_factor
    for j, sequence in local_sequences(s, ids, outcomes).items():
        (m,) = sequence[0]
        for (k,) in sequence[1:]:
            m = k @ m
        psi = m @ psi.reshape(math.prod(dims[:j]), dims[j], -1)
    return psi.reshape(math.prod(dims), -1)


def _subset_factor(s: Scenario, psi, subset) -> np.ndarray:
    """Phi: a pushed factor with the subset's axes moved to the front, in
    the order given, reshaped to d_S x rest."""
    subset = list(subset)
    # axis n indexes the factor's columns and is summed over with the rest
    rest = [j for j in range(s.n + 1) if j not in subset]
    phi = psi.reshape(*s.dims, -1).transpose(subset + rest)
    return phi.reshape(math.prod(s.dims[i] for i in subset), -1)


def pushed(s: Scenario, ids, subset, outcomes=None) -> np.ndarray:
    """Tr_complement[K rho K^dagger] on the given subsystems, in the order
    given, for the chosen interventions, not normalized: its trace is the
    Born weight of their recorded branches (or of the branches `outcomes`
    assigns). It is the Gram matrix Phi Phi^dagger of the `push`ed factor."""
    phi = _subset_factor(s, push(s, ids, outcomes), subset)
    return phi @ phi.conj().T


def state_after(s: Scenario, ids, subset, psi=None) -> np.ndarray:
    """The subset's state after the given interventions: `pushed`,
    normalized by the recorded branches' Born weight and validated on the
    small side of its factor. Pass `psi`, the factor `push` returns for
    these ids, to reuse it."""
    phi = _subset_factor(s, push(s, ids) if psi is None else psi, subset)
    try:
        return linalg.normalize(phi @ phi.conj().T, phi)
    except ImpossibleOutcomeError as exc:
        names = ",".join(s.names[i] for i in subset)
        raise ImpossibleOutcomeError(f"sector {{{names}}}: {exc}") from None


def sector(s: Scenario, taus, subset, cache=None) -> np.ndarray:
    """Density operator the subset assigns itself at the given proper times.

    :param taus: proper-time tuple, one entry per subsystem; entries outside
        the subset are ignored (singleton sectors depend only on their own).
    :param cache: optional dict shared across calls for the same scenario,
        keyed by the selected intervention ids; each entry holds the pushed
        factor and the sectors already read from it.
    """
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise ValueError("subset must be nonempty")
    ids = past_union_ids(s, taus, subset)
    if cache is None:
        return state_after(s, ids, subset)
    if ids not in cache:
        cache[ids] = (push(s, ids), {})
    psi, sectors = cache[ids]
    if subset not in sectors:
        sectors[subset] = state_after(s, ids, subset, psi)
    return sectors[subset]


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
    full = sector(s, conditioning_taus, range(s.n))
    return linalg.expect(full, linalg.lift_local(proj, i, s.dims))


def observer_state(s: Scenario, x) -> np.ndarray:
    """What a maximally informed observer at event x assigns the whole
    system: the initial state pushed through the causal past of x."""
    ids = selected_ids(s, Region((PastOfEvent(np.asarray(x, dtype=float)),)))
    return state_after(s, ids, range(s.n))


def recollection(s: Scenario, z: Worldline, tau: float) -> np.ndarray:
    """Observer state along a worldline, as a function of its proper time."""
    return observer_state(s, position(z, tau))


def foliation_state(s: Scenario, f: Foliation, t: float) -> np.ndarray:
    """State conditioned on everything at or below leaf t of the foliation."""
    ids = selected_ids(s, Region((PastOfLeaf(f, t),)))
    return state_after(s, ids, range(s.n))
