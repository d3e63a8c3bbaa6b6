"""Property suites for the state-update kernel: the axis-local update
against the lifted operator it replaces, and the engine's effect-contracted
sectors against pushing the whole joint state and tracing afterwards.

Scenario structure (subsystem count, local dimensions, kinds, order and
proper times of the interventions, worldlines, evaluation times) is drawn by
hypothesis; the matrix entries come from a numpy generator seeded by a drawn
integer, since a 3^4-dimensional density operator is too many floats to draw
one by one."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hs

from polystate import engine, linalg
from polystate.errors import ImpossibleOutcomeError
from polystate.scenario import (Intervention, Scenario, SelectiveOp, UnitaryOp,
                                apply_interventions, selected_ids)
from polystate.spacetime import Region, position

from helpers import random_density, random_unitary
from test_properties import tau_values, worldlines

SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.filter_too_much,
                                        HealthCheck.too_slow])
TOL = 1e-12

local_dims = hs.lists(hs.sampled_from([2, 3]), min_size=1, max_size=3)
seeds = hs.integers(min_value=0, max_value=2**32 - 1)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@SUITE
@given(dims=local_dims, seed=seeds)
def test_apply_local_equals_lifted_conjugation(dims, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    rho = random_matrix(rng, total)
    for target, d in enumerate(dims):
        op = random_matrix(rng, d)
        lifted = linalg.conj_apply(linalg.lift_local(op, target, dims), rho)
        assert np.max(np.abs(linalg.apply_local(op, target, dims, rho) - lifted)) < TOL


def random_op(rng, kind: str, d: int):
    """A unitary, a projective measurement, or a two-outcome weak
    measurement whose Kraus operators are not projectors."""
    u = random_unitary(rng, d)
    if kind == "unitary":
        return UnitaryOp(matrix=u)
    if kind == "projective":
        kraus = tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d))
    else:
        q = rng.uniform(0.05, 0.95, size=d)
        kraus = tuple((u * np.sqrt(w)) @ u.conj().T for w in (q, 1 - q))
    return SelectiveOp(kraus=kraus, chosen=int(rng.integers(len(kraus))),
                       labels=tuple(str(k) for k in range(len(kraus))))


@hs.composite
def scenarios(draw):
    n = draw(hs.integers(min_value=2, max_value=4))
    dims = tuple(draw(hs.sampled_from([2, 3])) for _ in range(n))
    rng = np.random.default_rng(draw(seeds))
    interventions = []
    for _ in range(draw(hs.integers(min_value=0, max_value=6))):
        subsystem = draw(hs.integers(min_value=0, max_value=n - 1))
        tau = draw(tau_values)
        assume(all(iv.subsystem != subsystem or abs(iv.tau - tau) > 1e-3
                   for iv in interventions))
        kind = draw(hs.sampled_from(["unitary", "projective", "weak"]))
        interventions.append(Intervention(subsystem, tau, random_op(rng, kind, dims[subsystem])))
    return Scenario(spatial_dim=1, names=tuple("ABCD"[:n]), dims=dims,
                    worldlines=tuple(draw(worldlines()) for _ in range(n)),
                    initial_state=random_density(rng, int(np.prod(dims))),
                    interventions=tuple(interventions))


def pushed_sector_or_none(s, taus, subset):
    """The sector by pushing the full joint state, then tracing."""
    region = Region.union_of_pasts([position(s.worldlines[i], taus[i]) for i in subset])
    ids = selected_ids(s, region)
    try:
        return linalg.normalize(linalg.ptrace(
            apply_interventions(s, ids, s.initial_state), s.dims, subset))
    except ImpossibleOutcomeError:
        return None


@SUITE
@given(s=scenarios(), taus=hs.lists(tau_values, min_size=4, max_size=4))
def test_effect_contracted_sector_equals_pushed_sector(s, taus):
    for subset in engine.all_subsets(s.n):
        want = pushed_sector_or_none(s, taus, subset)
        try:
            got = engine.sector(s, taus, subset)
        except ImpossibleOutcomeError:
            got = None
        if want is None or got is None:
            assert want is None and got is None
        else:
            assert np.max(np.abs(got - want)) < TOL
