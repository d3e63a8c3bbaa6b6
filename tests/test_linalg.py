import math

import numpy as np
import pytest

from polystate import linalg
from polystate.errors import DimensionMismatchError, ImpossibleOutcomeError, StateValidationError

from helpers import random_density, random_ket, random_unitary

RNG = np.random.default_rng(20260815)


def test_kron_matches_numpy():
    a = random_density(RNG, 2)
    b = random_density(RNG, 3)
    assert np.allclose(linalg.kron(a, b), np.kron(a, b))
    c = random_density(RNG, 2)
    assert np.allclose(linalg.kron_all(a, b, c), np.kron(np.kron(a, b), c))


@pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((4, 4), (2, 2)), ((2, 2), (8, 8)),
                                    ((3, 3), (2, 2)), ((2, 3), (3, 1))])
def test_kron_equals_numpy_bit_for_bit(shapes):
    a, b = (RNG.normal(size=s) + 1j * RNG.normal(size=s) for s in shapes)
    a[0, 0] = -0.0
    for got, want in ((linalg.kron(a, b), np.kron(a, b)),
                      (linalg.kron_all(a, b, a), np.kron(np.kron(a, b), a)),
                      (linalg.kron_all(b), b)):
        assert got.shape == want.shape
        # equal bits, signed zeros included
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(DimensionMismatchError):
        linalg.kron(a, b[0])
    with pytest.raises(DimensionMismatchError):
        linalg.kron_all(a, b[0])


def test_ptrace_product_state_factors():
    a = random_density(RNG, 2)
    b = random_density(RNG, 3)
    c = random_density(RNG, 2)
    joint = np.kron(np.kron(a, b), c)
    assert np.allclose(linalg.ptrace(joint, (2, 3, 2), (0,)), a, atol=1e-12)
    assert np.allclose(linalg.ptrace(joint, (2, 3, 2), (1,)), b, atol=1e-12)
    assert np.allclose(linalg.ptrace(joint, (2, 3, 2), (0, 2)), np.kron(a, c), atol=1e-12)


def test_ptrace_bell_gives_maximally_mixed():
    rho = linalg.projector(linalg.BELL_PSI_PLUS)
    for keep in ((0,), (1,)):
        assert np.allclose(linalg.ptrace(rho, (2, 2), keep), np.eye(2) / 2, atol=1e-12)


def test_ptrace_keeps_trace():
    rho = random_density(RNG, 12)
    reduced = linalg.ptrace(rho, (2, 3, 2), (1,))
    assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_lift_local_matches_explicit_kron():
    m = random_unitary(RNG, 3)
    lifted = linalg.lift_local(m, 1, (2, 3, 2))
    explicit = np.kron(np.kron(np.eye(2), m), np.eye(2))
    assert np.allclose(lifted, explicit)


def test_expect_real_and_raises_on_complex():
    rho = random_density(RNG, 2)
    assert isinstance(linalg.expect(rho, linalg.SIGMA_Z), float)
    with pytest.raises(StateValidationError):
        linalg.expect(rho, np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_distance_known_values():
    p0 = linalg.projector(linalg.KET0)
    p1 = linalg.projector(linalg.KET1)
    assert abs(linalg.trace_distance(p0, p1) - 1.0) < 1e-12
    assert abs(linalg.trace_distance(p0, p0)) < 1e-12
    pp = linalg.projector(linalg.KET_PLUS)
    # orthogonal-component overlap: D = sqrt(1 - |<0|+>|^2)
    assert abs(linalg.trace_distance(p0, pp) - np.sqrt(1 - 0.5)) < 1e-12


def test_trace_distance_plus_plus_vs_01():
    a = linalg.projector(linalg.product_ket("++"))
    b = linalg.projector(linalg.product_ket("01"))
    assert abs(linalg.trace_distance(a, b) - np.sqrt(3) / 2) < 1e-12


def test_fidelity_to_ket():
    rho = linalg.projector(linalg.KET_PLUS)
    assert abs(linalg.fidelity_to_ket(rho, linalg.KET_PLUS) - 1.0) < 1e-12
    assert abs(linalg.fidelity_to_ket(rho, linalg.KET0) - 0.5) < 1e-12


def test_check_density_accepts_and_normalizes_small_negatives():
    rho = random_density(RNG, 4)
    out = linalg.check_density(rho)
    assert np.allclose(out, rho, atol=1e-12)
    dented = np.diag([0.6, 0.4 + 4e-11, -4e-11, 0.0]).astype(complex)

    fixed = linalg.check_density(dented)
    assert np.min(np.linalg.eigvalsh(fixed)) >= -1e-14
    assert abs(np.trace(fixed) - 1.0) < 1e-12


def test_check_density_rejects_bad_states():
    with pytest.raises(StateValidationError):
        linalg.check_density(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(StateValidationError):
        linalg.check_density(np.diag([0.9, 0.4]))
    with pytest.raises(StateValidationError):
        linalg.check_density(np.diag([1.5, -0.5]))


def gram_spectra(monkeypatch, spectrum=None):
    """Record the shape of every matrix `eigvalsh` is given; return the
    given spectrum in place of its own, when one is set."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(m):
        shapes.append(m.shape)
        return eigvalsh(m) if spectrum is None else np.asarray(spectrum)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


# taller than `linalg._PROVABLE_K` allows for two columns, so the rounding
# bound cannot decide these Gram states and their spectrum is read
TALL = 400


def test_gram_density_decides_on_its_small_side_spectrum(monkeypatch):
    """Given a spectrum on the 2 x 2 small side of a 400 x 2 factor, the
    Gram state is accepted as built, rejected beyond the tolerance, and
    clamped for dust below the trigger, which diagonalizes the state
    itself (here clean) and renormalizes it."""
    assert TALL > linalg._PROVABLE_K[2]
    phi = np.zeros((TALL, 2), dtype=complex)
    phi[0, 0], phi[1, 1] = np.sqrt(0.75), 0.5
    rho = phi @ phi.conj().T
    shapes = gram_spectra(monkeypatch, [0.25, 0.75])
    assert np.array_equal(linalg.gram_density(phi, 1.0), rho)
    assert shapes == [(2, 2)]
    gram_spectra(monkeypatch, [-1e-9, 1.0])
    with pytest.raises(StateValidationError):
        linalg.gram_density(phi, 1.0)
    gram_spectra(monkeypatch, [-1e-12, 1.0])
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or eigh(m))
    clamped = linalg.gram_density(phi, 1.0)
    assert eighs == [(TALL, TALL)]
    assert np.max(np.abs(clamped - rho)) < 1e-15
    assert np.array_equal(clamped, clamped.conj().T)
    assert abs(np.trace(clamped) - 1.0) < 1e-15


def test_gram_density_reads_a_tall_factor_on_its_small_side(monkeypatch):
    """A tall factor's spectrum comes from the 2 x 2 Phi^dagger Phi, never
    from the 400 x 400 state, and a wide one's from the 2 x 2 state itself;
    either way the state is exactly Hermitian, of unit trace, within 1e-12
    of the dense `normalize`, and `check_density` is never called."""
    phi = RNG.normal(size=(TALL, 2)) + 1j * RNG.normal(size=(TALL, 2))
    wide = phi.conj().T.copy()
    wants = [linalg.normalize(f @ f.conj().T) for f in (phi, wide)]
    shapes = gram_spectra(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("a Gram state needs no dense validation")

    monkeypatch.setattr(linalg, "check_density", forbidden)
    for factor, want in zip((phi, wide), wants):
        got = linalg.gram_density(factor, float(np.vdot(factor, factor).real))
        assert shapes.pop() == (2, 2)
        assert np.array_equal(got, got.conj().T)
        assert abs(np.trace(got).real - 1.0) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-12


def test_gram_density_rejects_a_weight_without_finite_inverse():
    phi = np.array([[1.0], [0.0]], dtype=complex)
    for weight in (np.nan, np.inf, 0.0, 5e-324):
        with pytest.raises(StateValidationError):
            linalg.gram_density(phi, weight)


def test_normalize_raises_on_zero_branch():
    with pytest.raises(ImpossibleOutcomeError):
        linalg.normalize(np.zeros((2, 2), dtype=complex))


def test_spin_basis_are_sigma_n_eigenvectors():
    for theta, phi in [(0.0, 0.0), (np.pi / 4, 0.3), (np.pi / 2, np.pi / 2), (2.1, -1.0)]:
        up, down = linalg.spin_basis(theta, phi)
        n = linalg.sigma_n(theta, phi)
        assert np.allclose(n @ up, up, atol=1e-12)
        assert np.allclose(n @ down, -down, atol=1e-12)
        assert abs(np.vdot(up, down)) < 1e-12


def test_sigma_n_axis_cases():
    assert np.allclose(linalg.sigma_n(0.0, 0.0), linalg.SIGMA_Z)
    assert np.allclose(linalg.sigma_n(np.pi / 2, 0.0), linalg.SIGMA_X)
    assert np.allclose(linalg.sigma_n(np.pi / 2, np.pi / 2), linalg.SIGMA_Y)


def test_product_ket_symbols():
    assert np.allclose(linalg.product_ket("01"), np.kron(linalg.KET0, linalg.KET1))
    assert np.allclose(linalg.product_ket("+-"), np.kron(linalg.KET_PLUS, linalg.KET_MINUS))


def test_charge_observable():
    # charge counts -1 for spin-down, 0 for spin-up
    assert abs(linalg.expect(linalg.projector(linalg.KET0), linalg.CHARGE)) < 1e-15
    assert abs(linalg.expect(linalg.projector(linalg.KET1), linalg.CHARGE) + 1.0) < 1e-15
    bell = linalg.projector(linalg.BELL_PSI_PLUS)
    assert abs(linalg.expect(bell, linalg.total_charge(2)) + 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_total_charge_equals_sum_of_lifted_charges(n):
    lifted = sum(linalg.lift_local(linalg.CHARGE, i, [2] * n) for i in range(n))
    got = linalg.total_charge(n)
    assert got.dtype == lifted.dtype
    assert np.array_equal(got, lifted)


def _gram_state(dim: int, rank: int) -> np.ndarray:
    phi = RNG.normal(size=(dim, rank)) + 1j * RNG.normal(size=(dim, rank))
    return linalg.gram_density(phi, float(np.square(phi.view(float)).sum()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_charge_reader_equals_dense_expectation_bit_for_bit(n):
    """`expect_diag` on `charges(n)` gives the bits of `expect` on
    `total_charge(n)`, the sign of a zero included, on Gram states,
    product-basis projectors and patchworks of one-qubit states."""
    dim = 2**n
    q, dense = linalg.charges(n), linalg.total_charge(n)
    assert np.array_equal(np.diag(q).astype(complex), dense)
    # built once per n, and shared, so it cannot be written
    assert linalg.charges(n) is q and not q.flags.writeable
    states = [_gram_state(dim, rank) for rank in (1, 2, dim) for _ in range(5)]
    basis = np.eye(dim, dtype=complex)
    states += [linalg.projector(basis[0]), linalg.projector(basis[-1])]
    states += [linalg.kron_all(*(_gram_state(2, 1 + (j + k) % 2) for j in range(n)))
               for k in range(5)]
    values = []
    for rho in states:
        got, want = linalg.expect_diag(rho, q), linalg.expect(rho, dense)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        values.append(got)
    # the projectors on |0...0> and |1...1> carry charge 0 and -n
    assert values[-7:-5] == [0.0, -n]


def test_diagonal_charge_reader_rejects_an_imaginary_diagonal():
    rho = np.eye(2, dtype=complex) / 2
    rho[1, 1] += 2e-10j
    with pytest.raises(StateValidationError):
        linalg.expect_diag(rho, linalg.charges(1))
    rho[1, 1] = 0.5 + 5e-11j
    assert linalg.expect_diag(rho, linalg.charges(1)) == -0.5
    with pytest.raises(DimensionMismatchError):
        linalg.expect_diag(rho, linalg.charges(2))


def test_max_dim_env_override(monkeypatch):
    monkeypatch.setenv("POLYSTATE_MAX_DIM", "16")
    assert linalg.max_dim() == 16
    monkeypatch.delenv("POLYSTATE_MAX_DIM")
    assert linalg.max_dim() == linalg.DEFAULT_MAX_DIM


def test_conj_apply_unitary_preserves_trace():
    rho = random_density(RNG, 4)
    u = random_unitary(RNG, 4)
    out = linalg.conj_apply(u, rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.allclose(out, u @ rho @ u.conj().T)


def test_local_kernels_reject_mismatched_shapes():
    with pytest.raises(DimensionMismatchError):
        linalg.apply_local(np.eye(3), 0, (2, 2), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        linalg.apply_local(np.eye(2), 2, (2, 2), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        linalg.apply_local(np.eye(2), 0, (2, 3), np.eye(4))
