"""Dense complex linear algebra for small multi-qubit Hilbert spaces.

Operators and states are plain complex numpy arrays; density operators are
validated ndarrays rather than a wrapper class. Everything here is a pure
function of its inputs and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from functools import cache, reduce

import numpy as np

from .errors import (ConfigurationError, DimensionMismatchError, ImpossibleOutcomeError,
                     StateValidationError)

HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
CLAMP_TRIGGER = -1e-13
# A branch weight below this counts as conditioning on probability zero.
# `normalize` applies it as an absolute floor, for the oracle alone. The
# engine judges a weight below it relative to the cut: one below ZERO_TRACE
# times the product of the squared spectral norms of the applied operators,
# or one operator product that falls below ZERO_TRACE times the one before
# it (`Scenario.chain_norms`), cannot occur.
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


def _kron2(a, b) -> np.ndarray:
    # np.kron's own broadcast product, without its generic n-d bookkeeping:
    # each entry is the same single product, so the result is bit-identical
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return _kron2(_as_matrix(a), _as_matrix(b))


def kron_all(*ops) -> np.ndarray:
    return reduce(_kron2, map(_as_matrix, ops))


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


def expect_diag(rho, q) -> float:
    """Tr(rho diag(q)) = sum_i rho_ii q_i for a real vector q, such as
    `charges(n)`; the imaginary part must be negligible, as in `expect`.
    Summed in the order np.trace sums, it equals `expect(rho, diag(q))`
    bit for bit: every term of (rho diag(q))_ii but rho_ii q_i is an exact
    zero, so no D x D product is needed."""
    rho = _as_matrix(rho)
    if rho.shape != (len(q), len(q)):
        raise DimensionMismatchError(f"state {rho.shape} vs diagonal of length {len(q)}")
    val = (rho.diagonal() * q).sum()
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


def _settle(rho, w) -> np.ndarray:
    """Decide a Hermitian, unit-trace rho on its spectrum w (apart from
    exact zeros), ascending as eigvalsh returns it, so w[0] is the least:
    an eigenvalue below -1e-10 is an error, one in (-1e-10, -1e-13) is
    clamped to zero by diagonalizing rho, and the result is renormalized.
    eigvalsh dust above the trigger is left alone, so that a clean operator
    comes back bit for bit."""
    if w[0] < -EIGENVALUE_TOL:
        raise StateValidationError(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
    if w[0] < CLAMP_TRIGGER:
        w_full, v = np.linalg.eigh(rho)
        rho = (v * np.clip(w_full, 0, None)) @ v.conj().T
        rho = rho / float(np.trace(rho).real)
    return rho


def check_density(rho) -> np.ndarray:
    """Validate the density-operator invariants and return a cleaned copy.

    Hermiticity and unit trace are required within 1e-10. Eigenvalues in
    (-1e-10, 0), the typical float dust from partial traces of projectors,
    are clamped to zero and the operator is renormalized; anything more
    negative is an error. This is the full check for matrices from outside
    the engine's kernel: parsed inputs and `normalize`; every state the
    kernel assigns, a sector or a branch state, goes through `gram_density`.
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
    return _settle(rho, np.linalg.eigvalsh(rho))


def normalize(rho) -> np.ndarray:
    """Divide by the trace and validate with `check_density`; the trace is
    the branch weight, and one below the absolute floor `ZERO_TRACE` raises.
    The dense path of the oracle `ensemble.analytic_sector` alone; every
    other state takes `gram_density`."""
    rho = _as_matrix(rho)
    tr = float(np.trace(rho).real)
    if tr < ZERO_TRACE:
        raise ImpossibleOutcomeError(
            f"branch weight {tr:.3e} is zero; the recorded outcome cannot occur")
    return check_density(rho / tr)


def gram_density(phi, weight: float) -> np.ndarray:
    """The density operator Phi Phi^dagger / weight, where weight is
    ||Phi||_F^2 computed by the caller (the branch weight of a pushed
    factor, the same for every subset of a cut).

    Symmetrized and divided by the weight together, the result is exactly
    Hermitian by construction and its trace is 1 to rounding, so neither is
    tested again. Only the spectrum is read, on Phi's small side: eigvalsh
    of the result when Phi has no more rows than columns, else of the
    smaller Gram matrix Phi^dagger Phi / weight, which has the same nonzero
    eigenvalues. It is decided, and a clamp made, as in `check_density`.
    """
    scale = 0.5 / weight if weight > 0 else math.inf
    # NaN, infinite and zero weights fail here, and ones whose inverse overflows
    if not (math.isfinite(weight) and math.isfinite(scale)):
        raise StateValidationError(f"branch weight {weight:.3e} has no finite inverse")
    # one conjugate copy serves both Gram products
    phic = phi.conj()
    rho = phi @ phic.T
    rho += rho.conj().T
    rho *= scale
    small = rho if phi.shape[0] <= phi.shape[1] else phic.T @ phi / weight
    out = _settle(rho, np.linalg.eigvalsh(small))
    # a clamp's eigh reconstruction is Hermitian only to rounding
    return out if out is rho else (out + out.conj().T) / 2


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


@cache
def charges(n: int) -> np.ndarray:
    """Diagonal of the total charge on n qubits, a read-only real vector of
    length 2^n, built once per n: each product basis state carries the sum
    of its qubits' charges, built up one qubit at a time in Kronecker order."""
    out = np.zeros(1)
    for _ in range(n):
        out = np.add.outer(out, np.diag(CHARGE).real).ravel()
    out.flags.writeable = False
    return out


def total_charge(n: int) -> np.ndarray:
    """Sum of local charge operators on n qubits. CHARGE is diagonal, so the
    sum is too: `charges(n)` on the diagonal."""
    return np.diag(charges(n)).astype(complex)
