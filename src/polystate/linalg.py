"""Dense complex linear algebra for small multi-qubit Hilbert spaces.

Operators and states are plain complex numpy arrays; density operators are
validated ndarrays rather than a wrapper class. Everything here is a pure
function of its inputs and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import cache, reduce

import numpy as np

from .errors import (ConfigurationError, DimensionMismatchError, ImpossibleOutcomeError,
                     StateValidationError)

HERMITICITY_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
CLAMP_TRIGGER = -1e-13

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
    return float(0.5 * abs(np.linalg.eigvalsh(diff)).sum())


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
        rho = rho / float(rho.trace().real)
    return rho


def check_density(rho) -> np.ndarray:
    """Validate the density-operator invariants and return a cleaned copy.

    Hermiticity and unit trace are required within 1e-10. Eigenvalues in
    (-1e-10, 0), the typical float dust from partial traces of projectors,
    are clamped to zero and the operator is renormalized; anything more
    negative is an error. This is the full check for matrices from outside
    the engine's kernel: parsed inputs and `normalize`; every state the
    kernel assigns, a sector or a branch state, goes through `gram_density`
    or its two halves, `gram_verdict` and `gram_product`.
    """
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density operator must be square, got {rho.shape}")
    adjoint = rho.conj().T
    # the tolerance tests are written so that a NaN or infinite entry fails
    if not abs(rho - adjoint).max() <= HERMITICITY_TOL:
        raise StateValidationError("matrix is not Hermitian within 1e-10")
    rho = (rho + adjoint) / 2
    tr = float(rho.trace().real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateValidationError(f"trace {tr} is not 1 within 1e-10")
    return _settle(rho, np.linalg.eigvalsh(rho))


def normalize(rho) -> np.ndarray:
    """Divide by the trace and validate with `check_density`; a trace with
    no finite inverse raises. Whether a branch of small weight can occur is
    `engine.impossibility`'s to decide. The dense path of the oracle
    `ensemble.analytic_sector` alone; every other state takes `gram_density`."""
    rho = _as_matrix(rho)
    tr = float(rho.trace().real)
    if not (0 < tr < math.inf and 1 / tr < math.inf):
        raise ImpossibleOutcomeError(f"branch weight {tr:.3e} has no finite inverse")
    return check_density(rho / tr)


_U = np.finfo(float).eps / 2


def _gamma(j: int) -> float:
    return j * _U / (1 - j * _U)


@cache
def push_error(dims) -> float:
    """eta for a scenario of local dimensions `dims`: a pushed factor, or a
    step of a subsystem's operator chain, no larger than eta times the most
    its operators can keep is rounding dust, and its outcomes cannot occur
    (`engine.impossibility`).

    With u = eps / 2, gamma_j = j u / (1 - j u) (Higham 2002, sections 3.5
    and 3.6), D = prod(dims), and || |A| ||_2 <= ||A||_F <= sqrt(d) ||A||_2
    for a d x d matrix A:

    - a complex product A B of inner dimension d is computed as A B + E,
      |E| <= sqrt(2) gamma_2d |A| |B| <= gamma_4d |A| |B| entrywise, as each
      real or imaginary part of an entry is a sum of 2d real products;
    - so a step M_L = K_L M_{L-1} of subsystem j's chain, ||K_L||_2 <= 1, is
      off by at most d_j gamma_{4 d_j} ||M_{L-1}||_2 in spectral norm: a
      product no larger cannot be told from one that annihilates every state
      the chain so far leaves;
    - `engine.push` applies one product M_j per subsystem on its axis of the
      initial factor Psi, ||Psi||_F = 1, so by Higham's lemma 3.3 the pushed
      factor is off by at most gamma_{4 sum d} (x_j |M_j|) |Psi| entrywise,
      and by gamma_{4 sum d} sqrt(D) prod_j ||M_j||_2 in Frobenius norm: a
      factor no larger cannot be told from 0, and its squared norm, the
      branch weight, is below eta^2 prod_j ||M_j||_2^2.

    eta = D gamma_{4 sum d} bounds both, and every cut's, whose dims are
    among the scenario's, so the chain steps are judged once per scenario
    (`Scenario.chain_norms`): 64 u = 7.1e-15 for two qubits, eta^2 = 5.0e-29;
    D gamma_80 = 9.1e-12 for ten, eta^2 = 8.3e-23. O(n) scalars. Measured
    in double precision, eta^2 has two margins on two qubits:

    - it is above the rounding dust of outcomes that cannot occur. The two
      outcomes of one rotated basis, read in turn, give a step ratio
      ||K_down K_up||_2^2 / ||K_up||_2^2 of at most 7.8e-34 over 5 axes, and
      a singlet read along one axis on both sides gives the same outcome a
      weight of at most 1.5e-32 over 20000 random axes.
    - it is far below the faint weights that can occur and must pass: a
      readout of |0> tilted 1e-7 or 1e-6 from z gives outcome 1 the weight
      2.5e-15 or 2.5e-13.
    """
    return math.prod(dims) * _gamma(4 * sum(dims))


def _gram_error(k: int, m: int) -> float:
    """How far below zero eigvalsh can put the least eigenvalue of an m x m
    Gram state of inner dimension k, built as `gram_density` builds it."""
    trace = (1 + 16 * k * m * _U**3) / (1 - _gamma(2 * k * m))
    product = math.sqrt(2) * _gamma(2 * k + 3) * trace + 32 * k * m * _U**3
    return product + m * m * _U * (trace + product)


def _provable_inner_dims() -> tuple:
    """Entry m: the largest inner dimension k >= m whose `_gram_error` is at
    most half of |CLAMP_TRIGGER|; the tuple ends at the first m with none."""
    table = [0]
    while True:
        m = len(table)
        # the bound grows with k, so this counts the k that pass
        count = bisect_right(range(m, 2**20), -CLAMP_TRIGGER / 2,
                             key=lambda k: _gram_error(k, m))
        if not count:
            return tuple(table)
        table.append(m + count - 1)


_PROVABLE_K = _provable_inner_dims()
# the weights for which the Gram product cannot overflow and its underflow
# stays below 4 u^3 w per operation
_SAFE_WEIGHTS = (float(np.finfo(float).tiny / np.finfo(float).eps**2),
                 float(np.finfo(float).max / 4))


def gram_density(phi, weight: float) -> np.ndarray:
    """The density operator Phi Phi^dagger / weight. The weight must be
    ||Phi||_F^2 of the same entries, summed in any order, as
    `engine.branch_weight` computes it: the branch weight of a pushed
    factor, the same for every subset of a cut.

    Symmetrized and divided by the weight together, the result is exactly
    Hermitian by construction and its trace is 1 to rounding, so neither is
    tested again. The spectrum is all that is left to decide, and for small
    factors a rounding bound decides it without computing it.

    Let m <= k be Phi's two sides and G the exact Gram matrix on the small
    side, Phi Phi^dagger / w if Phi is wide, Phi^dagger Phi / w if tall: it
    is m x m with inner dimension k, positive semidefinite, and
    ||G||_2 <= tr G = ||Phi||_F^2 / w = t. With u = eps / 2 and
    gamma_j = j u / (1 - j u) (Higham 2002, sections 3.1, 3.5 and 3.6):

    - the weight sums 2km squares, so t <= 1 / (1 - gamma_2km);
    - each real or imaginary part of a Gram entry is a sum of 2k real
      products, in whatever order and with or without the fused
      multiply-adds a BLAS kernel uses; with the symmetrizing sum and the
      two roundings of the scaling (one division on the tall side), the
      computed matrix H is G + E with
      |E| <= sqrt(2) gamma_{2k+3} |Phi| |Phi|^dagger / w entrywise, so
      ||E||_2 <= sqrt(2) gamma_{2k+3} t, as || |Phi| ||_2^2 <= ||Phi||_F^2;
    - eigvalsh is backward stable: its eigenvalues are those of H + F with
      ||F||_2 <= p(m) u ||H||_2, taken as p(m) = m^2, and
      ||H||_2 <= t + ||E||_2;
    - by Weyl's inequality, then, the least eigenvalue it returns is at
      least -(||E||_2 + m^2 u (t + ||E||_2)).

    For a weight in `_SAFE_WEIGHTS` nothing overflows, and gradual
    underflow, at most u * tiny per real product, adds at most 16 k m u^3
    to t and 32 k m u^3 to ||E||_2. `_gram_error(k, m)` is that total. When
    it is at most |CLAMP_TRIGGER| / 2, `_settle` would accept the state as
    built, so it is returned without eigvalsh and, on the tall side,
    without Phi^dagger Phi. `_PROVABLE_K[m]`, computed once, is the largest
    such k: 135 at m = 8, none past m = 19, and any k at m = 1 (>= 0 or NaN).
    That covers every sector of GHZ-8 and every fixture sector and branch.

    Otherwise the spectrum is read on the small side: eigvalsh of the result
    when Phi has no more rows than columns, else of Phi^dagger Phi / weight,
    which has the same nonzero eigenvalues. It is decided, and a clamp made,
    as in `check_density`.

    The two halves are apart, so that a state can be decided at once and
    formed later: `gram_verdict` raises or clamps, and returns the state
    when deciding formed it; `gram_product` forms the state as built.
    """
    state = gram_verdict(phi, weight)
    return gram_product(phi, weight) if state is None else state


def gram_proved(shape, weight: float) -> bool:
    """Whether the rounding bound alone shows the Gram state of a factor of
    this shape and weight valid as built (`gram_density`): its small side
    is 1, or the factor is within `_PROVABLE_K` and the weight within
    `_SAFE_WEIGHTS`. Reads the shape, not the factor. A weight with no
    finite inverse raises."""
    # NaN, infinite and zero weights fail here, and ones whose inverse overflows
    if not (0 < weight < math.inf and 0.5 / weight < math.inf):
        raise StateValidationError(f"branch weight {weight:.3e} has no finite inverse")
    rows, cols = shape
    m, k = (rows, cols) if rows <= cols else (cols, rows)
    return m == 1 or m < len(_PROVABLE_K) and k <= _PROVABLE_K[m] and (
        _SAFE_WEIGHTS[0] <= weight <= _SAFE_WEIGHTS[1])


def gram_verdict(phi, weight: float) -> np.ndarray | None:
    """Decide the Gram state Phi Phi^dagger / weight as `gram_density`
    does, raising if it is not a state. None when `gram_product` as built
    is the state: the bound proves it, or the spectrum read on a tall
    factor's small side passes. Otherwise the state deciding formed: a wide
    factor's product, or a clamp."""
    if gram_proved(phi.shape, weight):
        return None
    rows, cols = phi.shape
    rho = gram_product(phi, weight) if rows <= cols else None
    w = np.linalg.eigvalsh(phi.conj().T @ phi / weight if rho is None else rho)
    if not w[0] < CLAMP_TRIGGER:
        return rho
    out = _settle(gram_product(phi, weight) if rho is None else rho, w)
    # a clamp's eigh reconstruction is Hermitian only to rounding
    return (out + out.conj().T) / 2


def gram_product(phi, weight: float) -> np.ndarray:
    """Phi Phi^dagger plus its conjugate transpose, times 0.5 / weight:
    `gram_density`'s state as built, exactly Hermitian, its spectrum
    unread. The weight is one `gram_proved` accepts."""
    rho = phi @ phi.conj().T
    rho += rho.conj().T
    rho *= 0.5 / weight
    return rho


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

# every scenario that names one of these shares it, so none may write to it
for _constant in (KET0, KET1, KET_PLUS, KET_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, ID2, HADAMARD,
                  CHARGE, BELL_PSI_PLUS, BELL_PSI_MINUS):
    _constant.flags.writeable = False
del _constant


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
    return ket[:, None] * ket.conj()


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
