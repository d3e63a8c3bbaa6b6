"""The selective-update engine.

A scenario's description of a subsystem subset I at proper times tau is the
sector: push the initial joint state through every intervention located in
the union of the causal pasts of the subset's evaluation events, trace out
the complement, normalize. The polystate collects the sectors of all
nonempty subsets. Singleton sectors depend only on their own proper time by
construction, so the evaluation never signals across spacelike separation.

Cost model: a sector never forms the d^n x d^n pushed state. Each
subsystem outside the subset folds its selected interventions into one
effect E_j = (K_m...K_1)^dagger (K_m...K_1) and is traced out of the initial
state first, Tr_j[K rho K^dagger] = Tr_j[E_j rho], one factor at a time; the
subset's own interventions then act on axis-local tensor factors at the
subset's dimension d^|S|. A local operator costs O(d D^2) on a D x D state
(`linalg.apply_local`), never a Kronecker lift and two D^3 products.

Sectors are piecewise constant in the proper times: they change only when an
intervention event enters or leaves the union of causal pasts. The optional
cache passed to `sector` and `polystate_at` is keyed by the subset and the
selected intervention set, so sweeps over tau grids reuse each distinct
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import linalg
from .errors import ImpossibleOutcomeError
from .scenario import Scenario, apply_interventions, local_sequences, selected_ids
from .spacetime import Foliation, PastOfEvent, PastOfLeaf, Region, Worldline, position

MAX_SUBSYSTEMS = 10


@dataclass
class Polystate:
    """All 2^n - 1 sectors of a scenario at one proper-time tuple."""

    n: int
    sectors: dict
    eval_taus: tuple

    def sector(self, subset) -> np.ndarray:
        return self.sectors[tuple(sorted(subset))]


def _past_union(s: Scenario, taus, subset) -> Region:
    events = [position(s.worldlines[i], taus[i]) for i in subset]
    return Region.union_of_pasts(events)


def _effect(sequence):
    """E = M^dagger M for M = K_m ... K_1, the recorded branch operators one
    subsystem goes through; None when it goes through none."""
    if not sequence:
        return None
    (m,) = sequence[0]
    for (k,) in sequence[1:]:
        m = k @ m
    return m.conj().T @ m


def _unnormalized_sector(s: Scenario, ids, subset) -> np.ndarray:
    """Tr_complement[K rho K^dagger] for the selected interventions, by effect
    contraction at the subset's own dimension (see the module docstring);
    its trace is the recorded branches' Born weight. Factors are traced out
    from the last, so the indices still to visit stay put."""
    seqs = local_sequences(s, ids)
    rho, dims = s.initial_state, list(s.dims)
    for j in reversed(range(s.n)):
        if j not in subset:
            rho = linalg.trace_factor(rho, dims, j, _effect(seqs.get(j, ())))
            del dims[j]
    for pos, i in enumerate(subset):
        rho = linalg.apply_channels(seqs.get(i, ()), pos, dims, rho)
    return rho


def sector(s: Scenario, taus, subset, cache=None) -> np.ndarray:
    """Density operator the subset assigns itself at the given proper times.

    :param taus: proper-time tuple, one entry per subsystem; entries outside
        the subset are ignored (singleton sectors depend only on their own).
    :param cache: optional dict shared across calls for the same scenario.
    """
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise ValueError("subset must be nonempty")
    ids = selected_ids(s, _past_union(s, taus, subset))
    key = (subset, ids)
    if cache is not None and key in cache:
        return cache[key]
    try:
        result = linalg.normalize(_unnormalized_sector(s, ids, subset))
    except ImpossibleOutcomeError as exc:
        names = ",".join(s.names[i] for i in subset)
        raise ImpossibleOutcomeError(f"sector {{{names}}}: {exc}") from None
    if cache is not None:
        cache[key] = result
    return result


def all_subsets(n: int):
    idx = range(n)
    return chain.from_iterable(combinations(idx, r) for r in range(1, n + 1))


def polystate_at(s: Scenario, taus, cache=None) -> Polystate:
    """Every sector at one proper-time tuple."""
    if s.n > MAX_SUBSYSTEMS:
        raise ValueError(f"{s.n} subsystems would need {2**s.n - 1} sectors; cap is {MAX_SUBSYSTEMS}")
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
    return linalg.normalize(apply_interventions(s, ids, s.initial_state))


def recollection(s: Scenario, z: Worldline, tau: float) -> np.ndarray:
    """Observer state along a worldline, as a function of its proper time."""
    return observer_state(s, position(z, tau))


def foliation_state(s: Scenario, f: Foliation, t: float) -> np.ndarray:
    """State conditioned on everything at or below leaf t of the foliation."""
    ids = selected_ids(s, Region((PastOfLeaf(f, t),)))
    return linalg.normalize(apply_interventions(s, ids, s.initial_state))
