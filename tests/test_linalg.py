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
        linalg.trace_factor(np.eye(4), (2, 3), 0)
