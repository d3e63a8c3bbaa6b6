"""Dense complex linear algebra for small multi-qubit Hilbert spaces.

Operators and states are plain complex numpy arrays; density operators are
validated ndarrays rather than a wrapper class. Everything here is a pure
function of its inputs and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from functools import reduce

import numpy as np

from .errors import (ConfigurationError, DimensionMismatchError, ImpossibleOutcomeError,
                     StateValidationError)

HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
CLAMP_TRIGGER = -1e-13
# below this, a branch weight counts as conditioning on probability zero
ZERO_TRACE = 1e-12

DEFAULT_MAX_DIM = 2**10


def max_dim() -> int:
    """Hilbert dimension cap; override with the POLYSTATE_MAX_DIM env var,
    a positive integer."""
    raw = os.environ.get("POLYSTATE_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigurationError(f"POLYSTATE_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def kron_all(*ops) -> np.ndarray:
    return reduce(np.kron, (np.asarray(o, dtype=complex) for o in ops))


def ptrace(rho, dims, keep) -> np.ndarray:
    """Partial trace over the complement of ``keep``.

    :param rho: square matrix on the full tensor product.
    :param dims: local dimension of each subsystem, in order.
    :param keep: iterable of subsystem indices to retain.
    :return: matrix on the kept factors, subsystem order preserved.
    """
    rho = _as_matrix(rho)
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(keep))
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise DimensionMismatchError(
            f"state dim {rho.shape} does not match subsystem dims {dims}")
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"invalid keep set {keep} for {n} subsystems")
    t = rho.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    kept_dim = math.prod(dims[k] for k in keep)
    return np.einsum(t, row + col, out).reshape(kept_dim, kept_dim)


def lift_local(op, target: int, dims) -> np.ndarray:
    """Embed a local operator as identity on every factor except ``target``."""
    op = _as_matrix(op)
    dims = list(dims)
    if op.shape != (dims[target], dims[target]):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not fit subsystem {target} of dims {dims}")
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[target] = op
    return kron_all(*factors)


def apply_local(op, target: int, dims, rho) -> np.ndarray:
    """Return K rho K^dagger for K acting on factor ``target`` alone.

    Equals ``conj_apply(lift_local(op, target, dims), rho)`` without forming
    the lift: rows are contracted as a batch of (d, d) @ (d, right*D)
    products, columns as a batch of (d, d) @ (d, right) products, so the cost
    is O(d D^2) instead of O(D^3).
    """
    op = _as_matrix(op)
    rho = _as_matrix(rho)
    dims = list(dims)
    if not 0 <= target < len(dims):
        raise DimensionMismatchError(f"no subsystem {target} in dims {dims}")
    left, d, right = math.prod(dims[:target]), dims[target], math.prod(dims[target + 1:])
    total = left * d * right
    if rho.shape != (total, total):
        raise DimensionMismatchError(f"state dim {rho.shape} does not match subsystem dims {dims}")
    if op.shape != (d, d):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not fit subsystem {target} of dims {dims}")
    out = op @ rho.reshape(left, d, right * total)
    out = op.conj() @ out.reshape(total * left, d, right)
    return out.reshape(total, total)


def apply_channels(channels, target: int, dims, rho) -> np.ndarray:
    """Apply a sequence of channels, each a tuple of Kraus operators, to
    factor ``target`` in order: rho -> sum_K K rho K^dagger per channel."""
    for kraus in channels:
        terms = [apply_local(k, target, dims, rho) for k in kraus]
        rho = sum(terms[1:], terms[0])
    return rho


def conj_apply(k, rho) -> np.ndarray:
    """Return k @ rho @ k.conj().T, not normalized."""
    k = _as_matrix(k)
    rho = _as_matrix(rho)
    if k.shape != rho.shape:
        raise DimensionMismatchError(f"operator {k.shape} vs state {rho.shape}")
    return k @ rho @ k.conj().T


def expect(rho, obs) -> float:
    """Tr(rho obs); the imaginary part must be negligible."""
    rho = _as_matrix(rho)
    obs = _as_matrix(obs)
    if rho.shape != obs.shape:
        raise DimensionMismatchError(f"state {rho.shape} vs observable {obs.shape}")
    val = np.trace(rho @ obs)
    if abs(val.imag) > HERMITICITY_TOL:
        raise StateValidationError(
            f"expectation has imaginary part {val.imag:.3e}; non-Hermitian input")
    return float(val.real)


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b), via the Hermitian eigenvalues."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} vs {b.shape}")
    diff = a - b
    diff = (diff + diff.conj().T) / 2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def fidelity_to_ket(rho, ket) -> float:
    """<psi|rho|psi> for a pure reference state."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    rho = _as_matrix(rho)
    if rho.shape[0] != ket.shape[0]:
        raise DimensionMismatchError(f"state {rho.shape} vs ket dim {ket.shape[0]}")
    val = ket.conj() @ rho @ ket
    return float(val.real)


def check_density(rho, spectrum=None) -> np.ndarray:
    """Validate the density-operator invariants and return a cleaned copy.

    Hermiticity and unit trace are required within 1e-10. Eigenvalues in
    (-1e-10, 0), the typical float dust from partial traces of projectors,
    are clamped to zero and the operator is renormalized; anything more
    negative is an error.

    :param spectrum: rho's eigenvalues apart from exact zeros, when the
        caller has them more cheaply than `eigvalsh` of rho (see
        `normalize`); the clamp, if one is needed, still diagonalizes rho.
    """
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density operator must be square, got {rho.shape}")
    # the tolerance tests are written so that a NaN or infinite entry fails
    if not np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL:
        raise StateValidationError("matrix is not Hermitian within 1e-10")
    rho = (rho + rho.conj().T) / 2
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateValidationError(f"trace {tr} is not 1 within 1e-10")
    w = np.linalg.eigvalsh(rho) if spectrum is None else spectrum
    if w.min() < -EIGENVALUE_TOL:
        raise StateValidationError(f"negative eigenvalue {w.min():.3e} beyond tolerance")
    if w.min() < CLAMP_TRIGGER:
        # leave eigvalsh dust above the trigger alone so that validating a
        # clean operator returns it bit for bit
        w_full, v = np.linalg.eigh(rho)
        w_full = np.clip(w_full, 0, None)
        rho = (v * w_full) @ v.conj().T
        rho = rho / float(np.trace(rho).real)
    return rho


def normalize(rho, factor=None) -> np.ndarray:
    """Divide by the trace and validate; the trace is the branch weight.

    :param factor: Phi with rho = Phi Phi^dagger, if known. When Phi has
        more rows than columns, rho's nonzero spectrum is read from the
        smaller Gram matrix Phi^dagger Phi / trace instead of rho itself.
    """
    rho = _as_matrix(rho)
    tr = float(np.trace(rho).real)
    if tr < ZERO_TRACE:
        raise ImpossibleOutcomeError(
            f"branch weight {tr:.3e} is zero; the recorded outcome cannot occur")
    spectrum = None
    if factor is not None and factor.shape[0] > factor.shape[1]:
        spectrum = np.linalg.eigvalsh(factor.conj().T @ factor / tr)
    return check_density(rho / tr, spectrum)


# Standard single-qubit and Bell-pair catalog. All kets are unit column vectors.

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# one excitation carries charge -1
CHARGE = (SIGMA_Z - ID2) / 2

BELL_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
BELL_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


def sigma_n(theta: float, phi: float = 0.0) -> np.ndarray:
    """Pauli operator along the (theta, phi) spin axis."""
    return (math.sin(theta) * math.cos(phi) * SIGMA_X
            + math.sin(theta) * math.sin(phi) * SIGMA_Y
            + math.cos(theta) * SIGMA_Z)


def spin_basis(theta: float, phi: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Eigenkets of sigma_n, (+1 eigenket, -1 eigenket)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    up = np.array([c, np.exp(1j * phi) * s], dtype=complex)
    down = np.array([-np.exp(-1j * phi) * s, c], dtype=complex)
    return up, down


def projector(ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


_SYMBOL_KETS = {"0": KET0, "1": KET1, "+": KET_PLUS, "-": KET_MINUS}


def product_ket(symbols: str) -> np.ndarray:
    """Tensor product ket from a symbol string over the 0/1/+/- alphabet."""
    try:
        kets = [_SYMBOL_KETS[ch] for ch in symbols]
    except KeyError as exc:
        raise ValueError(f"unknown ket symbol {exc.args[0]!r}") from None
    return reduce(np.kron, kets)


def total_charge(n: int) -> np.ndarray:
    """Sum of local charge operators on n qubits. CHARGE is diagonal, so the
    sum is too: each product basis state carries the sum of its qubits'
    charges, built up one qubit at a time in Kronecker order."""
    charges = np.zeros(1)
    for _ in range(n):
        charges = np.add.outer(charges, np.diag(CHARGE).real).ravel()
    return np.diag(charges).astype(complex)
