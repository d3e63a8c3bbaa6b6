"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

import polystate
from polystate import ensemble, linalg
from polystate.errors import DimensionMismatchError
from polystate.scenario import (Intervention, Scenario, SelectiveOp, UnitaryOp,
                                diagnose_document, parse_scenario, serialize_scenario)
from polystate.spacetime import Segment, Worldline, causally_precedes, position

FIXTURES = Path(polystate.__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_fixture(name: str) -> Scenario:
    return parse_scenario(fixture_text(name))


def random_ket(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projective_kraus(rng, dim: int) -> tuple:
    u = random_unitary(rng, dim)
    return tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(dim))


def random_velocity(rng, d: int, v_max: float = 0.85) -> np.ndarray:
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.0, v_max)


def random_worldline(rng, d: int, max_segments: int = 2) -> Worldline:
    anchor = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(-3, 3, size=d)])
    segments = tuple(
        Segment(float(rng.uniform(0.3, 2.0)), random_velocity(rng, d))
        for _ in range(rng.integers(0, max_segments + 1))
    )
    return Worldline(anchor, segments, random_velocity(rng, d))


def random_two_qubit_scenario(rng, d: int = 1, n_interventions: int | None = None) -> Scenario:
    """Random bipartite qubit scenario with projective measurements and the
    occasional unitary; recorded outcomes are uniform placeholders."""
    if n_interventions is None:
        n_interventions = int(rng.integers(1, 4))
    worldlines = (random_worldline(rng, d), random_worldline(rng, d))
    ket = random_ket(rng, 4)
    interventions = []
    for _ in range(n_interventions):
        subsystem = int(rng.integers(0, 2))
        tau = float(rng.uniform(-2.0, 3.0))
        while any(iv.subsystem == subsystem and abs(iv.tau - tau) < 1e-6 for iv in interventions):
            tau = float(rng.uniform(-2.0, 3.0))
        if rng.uniform() < 0.25:
            op = UnitaryOp(matrix=random_unitary(rng, 2))
        else:
            op = SelectiveOp(kraus=random_projective_kraus(rng, 2),
                             chosen=int(rng.integers(0, 2)), labels=("+1", "-1"))
        interventions.append(Intervention(subsystem=subsystem, tau=tau, op=op))
    return Scenario(
        spatial_dim=d,
        names=("A", "B"),
        dims=(2, 2),
        worldlines=worldlines,
        initial_state=np.outer(ket, ket.conj()),
        interventions=tuple(interventions),
    )


def branch_table(s: Scenario) -> dict:
    """Each outcome tuple's branch weight, read off `ensemble.enumerate_branches`'
    flat array in code order (first selective most significant)."""
    counts = [len(s.interventions[k].op.kraus) for k in ensemble.selective_order(s)]
    return dict(zip(product(*map(range, counts)), ensemble.enumerate_branches(s).tolist()))


def with_outcomes(s: Scenario, assignment) -> Scenario:
    """Scenario with the selective outcomes replaced, in (tau, subsystem)
    order of the selective interventions."""
    order = sorted((k for k, iv in enumerate(s.interventions)
                    if isinstance(iv.op, SelectiveOp)),
                   key=lambda k: (s.interventions[k].tau, s.interventions[k].subsystem))
    new = list(s.interventions)
    for j, k in enumerate(order):
        iv = new[k]
        new[k] = Intervention(iv.subsystem, iv.tau, replace(iv.op, chosen=int(assignment[j])))
    return replace(s, interventions=tuple(new))


def flip_outcomes(s: Scenario, subsystem: int) -> Scenario:
    """Variant scenario with every recorded outcome on one subsystem moved
    to the next branch: a second scenario, against which the engine's
    outcome overrides (`engine.push`'s `outcomes`) are checked."""
    flipped = []
    for iv in s.interventions:
        if iv.subsystem == subsystem and isinstance(iv.op, SelectiveOp):
            op = replace(iv.op, chosen=(iv.op.chosen + 1) % len(iv.op.kraus))
            flipped.append(Intervention(iv.subsystem, iv.tau, op))
        else:
            flipped.append(iv)
    return replace(s, interventions=tuple(flipped))


def reference_validate(s: Scenario) -> list:
    """The diagnostics of a Scenario value by a JSON text round trip: its
    serialized document, parsed and diagnosed as a file is."""
    return diagnose_document(serialize_scenario(s))


def crossing_oracle(w: Worldline, apex, past: bool, lo=-300.0, hi=300.0) -> float:
    """Boundary of {tau : the worldline point is causally related to apex},
    found by plain bisection on the membership predicate. Independent of the
    quadratic solver under test."""
    apex = np.asarray(apex, dtype=float)

    def inside(tau: float) -> bool:
        x = position(w, tau)
        return causally_precedes(x, apex) if past else causally_precedes(apex, x)

    if past:
        in_tau, out_tau = lo, hi
    else:
        in_tau, out_tau = hi, lo
    assert inside(in_tau) and not inside(out_tau)
    for _ in range(200):
        mid = 0.5 * (in_tau + out_tau)
        if inside(mid):
            in_tau = mid
        else:
            out_tau = mid
    return 0.5 * (in_tau + out_tau)


def proper_time_lines(s: Scenario) -> list:
    """Per subsystem, its intervention ids in (tau, id) order."""
    return [sorted((k for k, iv in enumerate(s.interventions) if iv.subsystem == j),
                   key=lambda k: (s.interventions[k].tau, k))
            for j in range(s.n)]


def reference_cut(s: Scenario, ids) -> tuple:
    """The cut of a set of ids, by a plain walk: per subsystem, one past the
    last chosen place in its (tau, id) order, 0 if none is chosen."""
    ids = set(ids)
    return tuple(max((r + 1 for r, k in enumerate(line) if k in ids), default=0)
                 for line in proper_time_lines(s))


def reference_event_cuts(p, s: Scenario, taus) -> list:
    """Per subsystem, the cut of the interventions an audit rule has applied
    at its evaluation event, by the rule's own `applied` test on the event,
    whatever the rule."""
    return [s.cut_of(p.applied(s.events, position(w, tau))) for w, tau in zip(s.worldlines, taus)]


def prefix_closure(s: Scenario, ids) -> tuple:
    """The ids together with every intervention earlier in its subsystem's
    (tau, id) order than a chosen one, in ascending order."""
    cut = reference_cut(s, ids)
    return tuple(sorted(k for line, length in zip(proper_time_lines(s), cut)
                        for k in line[:length]))


def reference_gram_density(phi, weight: float) -> tuple:
    """`linalg.gram_density` with its spectrum always read: the Gram state
    built the same way, eigvalsh on the factor's small side, and the same
    raise, clamp or accept. Returns the state and that least eigenvalue."""
    phic = phi.conj()
    rho = phi @ phic.T
    rho += rho.conj().T
    rho *= 0.5 / weight
    small = rho if phi.shape[0] <= phi.shape[1] else phic.T @ phi / weight
    w = np.linalg.eigvalsh(small)
    out = linalg._settle(rho, w)
    return (out if out is rho else (out + out.conj().T) / 2), float(w[0])


def reference_fidelity_to_ket(rho, ket) -> float:
    """<psi|rho|psi> for a pure reference state, read off a formed density
    operator: the dense read that `engine.Readout.fidelity` replaces."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != ket.shape[0]:
        raise DimensionMismatchError(f"state {rho.shape} vs ket dim {ket.shape[0]}")
    return float((ket.conj() @ rho @ ket).real)


def reference_expect_diag(rho, q) -> float:
    """Tr(rho diag(q)) = sum_i rho_ii q_i for a real vector q, such as
    `linalg.charges(n)`, off a formed density operator, with the imaginary
    part checked as `linalg.expect` checks it: the dense read that
    `engine.Readout.populations` replaces. Summed in the order np.trace
    sums, it equals `expect(rho, diag(q))` bit for bit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (len(q), len(q)):
        raise DimensionMismatchError(f"state {rho.shape} vs diagonal of length {len(q)}")
    return linalg.real_part((rho.diagonal() * q).sum())


def splitmix64_uniforms(seed: int):
    """The SplitMix64 generator as published (Steele, Lea & Flood 2014), one
    output at a time in Python integers: the state advances by the golden
    gamma and each output is the mixed state. Yields each output's top 53
    bits over 2**53, the uniforms `ensemble.sample_runs` draws."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        yield ((z ^ (z >> 31)) >> 11) * 2.0**-53
