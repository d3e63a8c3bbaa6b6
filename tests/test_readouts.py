"""Property suites for the engine's readout (`engine.readout`): the
populations, ket fidelities and product-observable expectations it reads off
a judged cut entry's factor, against the same numbers read off the formed
state (`linalg.gram_density`, then its diagonal, an overlap or a trace),
within 1e-12; the same refusals and validation errors, in the same order;
and the same clamps. The audit's leaf charges and the sweep's fidelities
(`audit.leaf_charges`) are checked the same way against the dense reads of
`audit.leaf_states`' joint states, a union sector or a patchwork product.

Scenarios are `test_kernel_properties`' draws: two to four subsystems of
dimension 2 or 3 (qubits only for the charges), initial states of rank 1, 2
or D, and, when a drawn flag is set, a readout recording an outcome that is
blocked (weight 0) or faint (weight 2.5e-15 to 2.5e-7)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from polystate import audit, engine, linalg
from polystate.errors import (DimensionMismatchError, ImpossibleOutcomeError,
                              StateValidationError)
from polystate.scenario import Scenario
from polystate.spacetime import Foliation, Worldline

from helpers import (random_density, random_ket, reference_expect_diag,
                     reference_fidelity_to_ket)
from test_kernel_properties import (FAINT_TILT, FAINT_TILTS, SUITE, outcome_of, scenarios,
                                    scenarios_of_rank, scenarios_with_blocked_branch, seeds,
                                    tilted_readout)
from test_properties import tau_values, velocities

TOL = 1e-12


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def dense_read(s, subset, entry):
    """The subset's state as the engine formed it before the readout: the
    entry's verdict by name, then the Gram state of its factor on the
    subset, decided and formed by `linalg.gram_density`."""
    engine.refuse(s, subset, entry.impossible)
    return linalg.gram_density(engine.subset_factor(s.dims, entry.factor, subset), entry.weight)


def assert_readout_equals_dense_read(s, subset, entry, rng):
    """Every read of the subset's readout within 1e-12 of the same read off
    the dense state, its formed state bit for bit, or the same error."""
    want = outcome_of(dense_read, s, subset, entry)
    got = outcome_of(engine.readout, s, subset, entry)
    if isinstance(want, type) or isinstance(got, type):
        assert want is got, subset
        return want
    assert np.array_equal(got.density(), want)
    assert np.max(np.abs(got.populations() - want.diagonal().real)) < TOL
    ket = random_ket(rng, len(want))
    assert abs(got.fidelity(ket) - reference_fidelity_to_ket(want, ket)) < TOL
    ops = [None if rng.uniform() < 0.3 else random_hermitian(rng, s.dims[i]) for i in subset]
    dense = linalg.kron_all(*(np.eye(s.dims[i]) if op is None else op
                              for i, op in zip(subset, ops)))
    assert abs(got.expectation(ops) - linalg.expect(want, dense)) < TOL
    return None


def test_readouts_equal_dense_reads():
    """Every subset's readout on the cut of its causal past, against the
    dense reads of its formed state. Initial states of rank 1, 2 and D, on
    qubits and qutrits, and blocked and faint readouts all occur: blocked
    ones are refused by both, faint ones (weight below 1e-12) read by both;
    the two explicit examples make sure of both."""
    seen = {"rank": set(), "dim": set(), "refused": 0, "faint": 0}

    @SUITE
    @example(s=tilted_readout(0.0), taus=[1.0] * 4, seed=0)
    @example(s=tilted_readout(FAINT_TILT), taus=[1.0] * 4, seed=0)
    @given(s=scenarios_with_blocked_branch(scenarios_of_rank(), tilts=FAINT_TILTS),
           taus=hs.lists(tau_values, min_size=4, max_size=4), seed=seeds)
    def check(s, taus, seed):
        taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
        rng = np.random.default_rng(seed)
        seen["rank"].add(s.initial_factor.shape[1] if s.initial_factor.shape[1] < 3 else "D")
        seen["dim"].update(s.dims)
        cache = {}
        for subset in engine.all_subsets(s.n):
            entry = engine._weighed(s, engine.past_cut(s, taus, subset), cache)
            error = assert_readout_equals_dense_read(s, subset, entry, rng)
            seen["refused"] += error is ImpossibleOutcomeError
            seen["faint"] += 0 < entry.weight < 1e-12 and error is None

    check()
    assert seen["rank"] == {1, 2, "D"} and seen["dim"] == {2, 3}, seen
    assert seen["refused"] and seen["faint"], seen


# taller than `linalg._PROVABLE_K` allows for two rows: A's factor is
# 2 x 256, so the bound cannot decide A's Gram state and its spectrum is read
WIDE = 256


def unprovable_pair() -> Scenario:
    """A qubit A and a 256-level B, static and apart, in a random pure
    state, with no interventions."""
    ket = random_ket(np.random.default_rng(31), 2 * WIDE)
    return Scenario(spatial_dim=1, names=("A", "B"), dims=(2, WIDE),
                    worldlines=(Worldline(np.array([0.0, 0.0])),
                                Worldline(np.array([0.0, 5.0]))),
                    initial_state=linalg.projector(ket), interventions=())


@pytest.mark.parametrize("spectrum,error", [([0.25, 0.75], None),
                                            ([-1e-12, 1.0], None),
                                            ([-1e-9, 1.0], StateValidationError)])
def test_readout_takes_the_verdict_of_an_unprovable_state(monkeypatch, spectrum, error):
    """Where the bound cannot prove A's Gram state, the readout runs
    `linalg.gram_verdict`: given the spectrum, it accepts the state as
    built, clamps it, or raises, as `gram_density` does, and every read is
    off the state it decided on, the clamped one included."""
    s = unprovable_pair()
    entry = engine._weighed(s, (0, 0), {})
    assert not linalg.gram_proved((2, WIDE), entry.weight)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: np.asarray(spectrum) if m.shape == (2, 2) else eigvalsh(m))
    if error:
        for read in (dense_read, engine.readout):
            with pytest.raises(error):
                read(s, (0,), entry)
        return
    want = dense_read(s, (0,), entry)
    got = engine.readout(s, (0,), entry)
    # the verdict formed the state, and the readout reads it as it stands
    assert got.cols is not got.rows and np.array_equal(got.density(), want)
    assert np.array_equal(got.populations(), want.diagonal().real)
    assert got.fidelity(linalg.KET1) == reference_fidelity_to_ket(want, linalg.KET1)
    assert got.expectation([linalg.SIGMA_Z]) == linalg.expect(want, linalg.SIGMA_Z)


def dense_leaf_reads(p, s, taus, kets):
    """`audit.leaf_charges` off `audit.leaf_states`' formed states: the
    joint total charge and the ket fidelities off the joint state, a union
    sector or the Kronecker product of the local states, and the sum of the
    local charges."""
    joint, locals_ = audit.leaf_states(p, s, taus)
    local = sum(reference_expect_diag(r, linalg.charges(1)) for r in locals_)
    return (reference_expect_diag(joint, linalg.charges(s.n)), local,
            [reference_fidelity_to_ket(joint, k) for k in kets])


def test_leaf_charges_equal_dense_reads_of_leaf_states():
    """Every default rule's leaf charges and fidelities against the dense
    reads of its `leaf_states`, within 1e-12, with the same error where
    either raises. Union and patchwork joints both occur, and so do refused
    leaves; the explicit examples make sure of all three."""
    seen = {"union": 0, "patchwork": 0, "refused": 0}

    @SUITE
    @example(s=tilted_readout(0.3), taus=[1.0] * 4, v=np.zeros(1), seed=0)
    @example(s=tilted_readout(0.0), taus=[1.0] * 4, v=np.zeros(1), seed=0)
    @given(s=scenarios_with_blocked_branch(scenarios_of_rank(scenarios(local_dim=hs.just(2))),
                                           tilts=FAINT_TILTS),
           taus=hs.lists(tau_values, min_size=4, max_size=4), v=velocities(), seed=seeds)
    def check(s, taus, v, seed):
        taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
        rng = np.random.default_rng(seed)
        kets = [random_ket(rng, 2**s.n), linalg.product_ket("0" * s.n)]
        for p in audit.default_prescriptions(Foliation(v)):
            want = outcome_of(dense_leaf_reads, p, s, taus, kets)
            got = outcome_of(audit.leaf_charges, p, s, taus, kets)
            if isinstance(want, type) or isinstance(got, type):
                assert want is got, p.name
                seen["refused"] += 1
                continue
            q, local, fids = got
            assert abs(q - want[0]) < TOL and abs(local - want[1]) < TOL
            assert max(abs(a - b) for a, b in zip(fids, want[2])) < TOL
            cuts = audit._event_cuts(p, s, taus)
            union = isinstance(p, audit.PolystateRule) or len(set(cuts)) == 1
            seen["union" if union else "patchwork"] += 1

    check()
    assert all(seen.values()), seen


def test_readout_reads_a_subset_in_the_order_given():
    """A subset given out of order is read in that order, as its formed
    state is: its populations are the diagonal of that state, not of the
    state in natural order. A qubit and a qutrit in a random mixed state
    of full rank, so the two orders differ."""
    rho = random_density(np.random.default_rng(7), 6)
    s = Scenario(spatial_dim=1, names=("A", "B"), dims=(2, 3),
                 worldlines=(Worldline(np.array([0.0, 0.0])), Worldline(np.array([0.0, 5.0]))),
                 initial_state=rho, interventions=())
    entry = engine._weighed(s, (0, 0), {})
    got, want = engine.readout(s, (1, 0), entry), dense_read(s, (1, 0), entry)
    assert np.array_equal(got.density(), want)
    assert np.max(np.abs(got.populations() - want.diagonal().real)) < TOL
    natural = engine.readout(s, (0, 1), entry).populations()
    assert np.max(np.abs(got.populations() - natural)) > 1e-3


def test_fidelities_read_a_ket_of_any_shape_and_refuse_another_length():
    """`audit.leaf_charges` reads a ket flat, whether given flat, as a
    column or as a row, on a union leaf and on a patchwork leaf alike, the
    same bits each way; a ket of any other length, 1 included, raises
    `DimensionMismatchError` on both."""
    s, taus = tilted_readout(0.3), [1.0, 1.0]
    ket = random_ket(np.random.default_rng(5), 4)
    kinds = set()
    for p in audit.default_prescriptions(Foliation(np.zeros(1))):
        whole, _ = audit._leaf_readouts(p, s, taus, audit._event_cuts(p, s, taus))
        kinds.add("patchwork" if whole is None else "union")
        fids = audit.leaf_charges(p, s, taus, [ket, ket[:, None], ket[None, :]])[2]
        assert fids == [fids[0]] * 3, p.name
        for bad in (ket[:1], ket[:3], np.ones((8, 1))):
            with pytest.raises(DimensionMismatchError):
                audit.leaf_charges(p, s, taus, [bad])
    assert kinds == {"union", "patchwork"}


def test_joint_outcome_prob_takes_one_projector_per_subsystem():
    """`engine.joint_outcome_prob` reads one projector, or None, per
    subsystem; a list of any other length raises ValueError rather than
    leaving the missing subsystems unprobed."""
    s, p0 = tilted_readout(0.3), linalg.projector(linalg.KET0)
    assert 0 < engine.joint_outcome_prob(s, (1.0, 1.0), [p0, None]) < 1
    for projectors in ([], [p0], [p0, None, None]):
        with pytest.raises(ValueError):
            engine.joint_outcome_prob(s, (1.0, 1.0), projectors)
