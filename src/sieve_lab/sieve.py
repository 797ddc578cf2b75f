"""Exact evaluation of the sieve quadratic form and its optimal constant.

The optimal constant is the largest eigenvalue of the Toeplitz Gram matrix
T[m,n] = c(m-n), c(t) = sum over points of e(a t / q^k).  We eigensolve the
N x N Toeplitz side (not the |F| x |F| side): both carry the same nonzero
spectrum and Toeplitz structure gives O(N log N) products via a circulant
embedding.

The autocorrelation c(t) has an exact closed form over the bases alone: per
base q and squarefree divisor d | q, the full geometric sum over a residue
class vanishes unless (q^k / d) | t, where it contributes mu(d) * q^k / d.  So
the constant is computed from (Q, N, k, mode) without building any point.
c(t) is a real integer, so T is real symmetric: its products use real FFTs
and its top eigenvalue comes from a restarted Lanczos iteration.  The O(|F| N)
brute-force sum over the enumerated points, kernels.autocorr, is the oracle.

The quadratic form itself has one entry, kernels.quadform, which the lemma1
command calls with one (B, N) coefficient array per chunk and sigma_exact
with the one vector of a CoefficientVector.

Note on the enumerated range: the zero frequency (base q = 1, value 1, whose
aligned term would add |sum v_n|^2) is never part of the system, so the
measured constant is the best constant over the fractions with denominator
q^k >= 2^k only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import CapacityError, EigensolverError
from .farey import Mode, PowerFareySystem, squarefree_divisors_with_mu, system_bases

# Fixed seed of the Lanczos start vector; results are deterministic.
START_SEED = 0xC0FFEE
ITERATION_CAP_BASE = 1000
# Krylov basis size per Lanczos cycle (capped at N): the basis holds
# RESTART_LENGTH * N floats, about 34 MB at N = 2^16.
RESTART_LENGTH = 64
# Lanczos steps between scheduled convergence tests (see power_iteration).
RITZ_CHECK_EVERY = 4
# Largest estimated eigensolve footprint toeplitz_kernel accepts, in bytes:
# the basis plus 16 more float64 N-vectors (c, the 2N embedding and its rfft,
# the FFT temporaries of one product and the iteration vectors).  2 GiB admits
# N up to about 3.3e6; N = 2^16 needs about 42 MB.
EIGEN_BUDGET_BYTES = 1 << 31
# beta_j below this fraction of the top Ritz value: the basis spans an
# invariant subspace to working precision.
INVARIANT_TOL = 1e-12
# Vectors T is applied to per step.  Each Lanczos step applies T to one
# vector, so the trace in perfbench/tracing.py, which counts products as
# iterations * BLOCK_SIZE, stays true.
BLOCK_SIZE = 1


@dataclass(frozen=True)
class CoefficientVector:
    """Complex coefficients v_n for M < n <= M + N; values[j] is v_{M+1+j}.
    The shift M does not change the quadratic form (see sigma_exact)."""

    M: int
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("values must be a nonempty 1-d complex array")
        object.__setattr__(self, "values", v)

    @property
    def N(self) -> int:
        return int(self.values.shape[0])

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.values.real ** 2 + self.values.imag ** 2))


class ToeplitzKernel:
    """Real symmetric Toeplitz operator T[m,n] = c(|m-n|) given real c(t) for
    0 <= t < N.

    The circulant embedding (length 2N) is transformed once by a real FFT, so
    a product costs two real FFTs; a complex vector v is applied as
    T Re v + i T Im v.  A complex c is rejected.  Immutable after construction.
    """

    def __init__(self, c: np.ndarray):
        c = np.asarray(c)
        if np.iscomplexobj(c):
            raise ValueError("c must be real: T is real symmetric")
        c = c.astype(np.float64)
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("c must be a nonempty 1-d array")
        self.c = c
        self.N = int(c.shape[0])
        emb = np.zeros(2 * self.N)
        emb[:self.N] = c
        emb[self.N + 1:] = c[1:][::-1]
        self._circ_fft = np.fft.rfft(emb)

    def _real_matvec(self, v: np.ndarray) -> np.ndarray:
        n2 = 2 * self.N
        return np.fft.irfft(self._circ_fft * np.fft.rfft(v, n2), n2)[:self.N]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v via the circulant embedding, O(N log N)."""
        v = np.asarray(v)
        if np.iscomplexobj(v):
            return self._real_matvec(v.real) + 1j * self._real_matvec(v.imag)
        return self._real_matvec(v.astype(np.float64, copy=False))

    def dense(self) -> np.ndarray:
        """Materialized N x N matrix (oracle/cross-check use)."""
        idx = np.arange(self.N)
        return self.c[np.abs(idx[:, None] - idx[None, :])]


def toeplitz_kernel(Q: int, N: int, k: int, mode: Mode = "full") -> ToeplitzKernel:
    """Autocorrelation kernel c(t), t = 0..N-1, of the system for (Q, k, mode),
    in closed form from its bases (see the module docstring).

    Raises CapacityError as system_bases does, or before allocating anything
    when the eigensolve at this N would need more than EIGEN_BUDGET_BYTES;
    builds no point.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    bases = system_bases(Q, k, mode)
    need = 8 * N * (min(RESTART_LENGTH, N) + 16)
    if need > EIGEN_BUDGET_BYTES:
        raise CapacityError(f"N = {N} needs about {need} bytes for the eigensolve, "
                            f"above the budget of {EIGEN_BUDGET_BYTES}")
    c = np.zeros(N, dtype=np.float64)
    for q in bases:
        qk = q ** k
        for d, mu in squarefree_divisors_with_mu(q):
            step = qk // d
            c[::step] += float(mu * step)
    return ToeplitzKernel(c)


class PowerResult(NamedTuple):
    value: float
    residual: float
    iterations: int


def power_iteration(kernel: ToeplitzKernel, rel_tol: float = 1e-8) -> PowerResult:
    """Largest eigenvalue of the PSD kernel by explicitly restarted Lanczos.

    Each cycle runs the plain three-term recurrence for at most RESTART_LENGTH
    steps, with no reorthogonalisation: only the top eigenvalue is wanted, and
    a Lanczos basis loses orthogonality only along Ritz vectors that have
    already converged (Paige 1980).  The convergence test, a dense eigh of the
    growing tridiagonal matrix, costs more than a product at small N, so it is
    scheduled only every RITZ_CHECK_EVERY steps, at the cycle's last step, at
    the product cap and whenever beta_j is small enough for the
    invariant-subspace stop.  The cycle stops at the first scheduled test that
    passes: the Ritz estimate beta_j |y_j| / theta of the top Ritz pair is
    below rel_tol, or beta_j marks an invariant subspace.  The normalised top
    Ritz vector x is certified by one explicit product: value = x*Tx (a
    Rayleigh quotient, never above lambda_max) and residual =
    ||Tx - value x|| / value.  The result is returned only when
    residual < rel_tol; otherwise the next cycle restarts from x, reusing Tx
    as its first product.  The residual bounds the distance from value to
    *an* eigenvalue, not to lambda_max: when the top two eigenvalues are
    closer than rel_tol, value can sit up to their gap below lambda_max (a
    kernel with a 2.5e-8 relative top gap gives value 2.1e-8 below it, with
    residual 9.2e-9 < 1e-8).  The first cycle starts from a fixed-seed Gaussian
    vector, so the result is deterministic.  `iterations` counts every
    product applied with T.  Raises EigensolverError with the last value and
    residual when the cap of 10N + 1000 products is reached.  rel_tol must
    lie in (0, 1).
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    n = kernel.N
    c0 = float(kernel.c[0])
    if c0 <= 0.0:
        return PowerResult(0.0, 0.0, 0)  # empty system: T = 0
    if n == 1:
        return PowerResult(c0, 0.0, 0)  # 1x1 matrix
    m = min(RESTART_LENGTH, n)
    cap = 10 * n + ITERATION_CAP_BASE
    # T is PSD, so |c(t)| <= c0 and every Ritz value is at most n * c0: above
    # this, beta_j cannot pass the invariant-subspace test.
    near_invariant = 2 * INVARIANT_TOL * n * c0
    rng = np.random.default_rng(START_SEED)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    V = np.empty((m, n))
    alpha = np.zeros(m)
    beta = np.zeros(m)
    tx = kernel.matvec(x)
    matvecs = 1
    while True:
        value = float(np.vdot(x, tx))
        if value <= 0.0:
            return PowerResult(0.0, 0.0, matvecs)  # numerically null operator
        residual = float(np.linalg.norm(tx - value * x)) / value
        if residual < rel_tol:
            return PowerResult(value, residual, matvecs)
        if matvecs >= cap:
            raise EigensolverError(
                f"Lanczos did not converge in {cap} matvecs "
                f"(last value {value!r}, residual {residual!r})",
                last_value=value, last_residual=residual, iterations=matvecs)
        V[0] = x
        w = tx
        for j in range(m):
            if j > 0:
                w = kernel.matvec(V[j])
                matvecs += 1
            alpha[j] = V[j] @ w
            w = w - alpha[j] * V[j]
            if j > 0:
                w -= beta[j - 1] * V[j - 1]
            beta[j] = float(np.linalg.norm(w))
            last = j == m - 1 or matvecs >= cap - 1
            if last or (j + 1) % RITZ_CHECK_EVERY == 0 or beta[j] <= near_invariant:
                # top Ritz pair (theta[-1], y) of the (j+1) x (j+1) tridiagonal
                theta, Y = np.linalg.eigh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
                                          + np.diag(beta[:j], -1))
                y = Y[:, -1]
                if (last or beta[j] * abs(y[j]) < rel_tol * theta[-1]
                        or beta[j] <= INVARIANT_TOL * theta[-1]):
                    break
            V[j + 1] = w / beta[j]
        x = y @ V[:j + 1]
        x /= np.linalg.norm(x)
        tx = kernel.matvec(x)
        matvecs += 1


def dense_lambda_max(kernel: ToeplitzKernel) -> float:
    """Dense symmetric eigensolver oracle for the same matrix."""
    return float(np.linalg.eigvalsh(kernel.dense())[-1])


def sigma_exact(system: PowerFareySystem, vec: CoefficientVector) -> float:
    """The sieve quadratic form of one vector, sum over points of
    |sum_n v_n e((a/q^k) n)|^2 for n = M+1..M+N: kernels.quadform's batch of
    one.  M does not change the value, since shifting n by M multiplies each
    inner sum by e(a M / q^k), of modulus 1."""
    return kernels.quadform(system.numerators, system.moduli, vec.M, vec.values)


def measure_constant(Q: int, N: int, k: int, mode: Mode = "full",
                     rel_tol: float = 1e-8) -> PowerResult:
    """Optimal constant Delta(Q, N, k): the largest Rayleigh quotient of the
    sieve quadratic form per unit |v|^2, with the eigensolver's residual and
    product count.  Builds no point."""
    return power_iteration(toeplitz_kernel(Q, N, k, mode), rel_tol)
