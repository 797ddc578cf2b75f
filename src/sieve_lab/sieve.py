"""Exact evaluation of the sieve quadratic form and its optimal constant.

The optimal constant is the largest eigenvalue of the Hermitian Toeplitz Gram
matrix T[m,n] = c(m-n), c(t) = sum over points of e(a t / q^k).  We eigensolve
the N x N Toeplitz side (not the |F| x |F| side): both carry the same nonzero
spectrum and Toeplitz structure gives O(N log N) products via a circulant
embedding.

The autocorrelation c(t) has an exact closed form: per base q and squarefree
divisor d | q, the full geometric sum over a residue class vanishes unless
(q^k / d) | t, where it contributes mu(d) * q^k / d.  In particular c(t) is a
real integer, so T is real symmetric: its products use real FFTs and its top
eigenvalue comes from a restarted Lanczos iteration.  The O(|F| N)
brute-force path (complex, Hermitian) is kept permanently behind the method
flag as the oracle.

Note on the enumerated range: the zero frequency (base q = 1, value 1, whose
aligned term would add |sum v_n|^2) is never part of the system, so the
measured constant is the best constant over the fractions with denominator
q^k >= 2^k only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import kernels
from .errors import EigensolverError
from .farey import Mode, PowerFareySystem, enumerate_system

# Fixed seed of the Lanczos start vector; results are deterministic.
START_SEED = 0xC0FFEE
ITERATION_CAP_BASE = 1000
# Krylov basis size per Lanczos cycle (capped at N): the basis holds
# RESTART_LENGTH * N floats, about 34 MB at N = 2^16.
RESTART_LENGTH = 64
# beta_j below this fraction of the top Ritz value: the basis spans an
# invariant subspace to working precision.
INVARIANT_TOL = 1e-12
# Vectors T is applied to per step.  Each Lanczos step applies T to one
# vector, so the trace in perfbench/tracing.py, which counts products as
# iterations * BLOCK_SIZE, stays true.
BLOCK_SIZE = 1


@dataclass(frozen=True)
class CoefficientVector:
    """Complex coefficients v_n for M < n <= M + N; values[j] is v_{M+1+j}."""

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
    """Hermitian Toeplitz operator T[m,n] = c(m-n) given c(t) for 0 <= t < N.

    c(-t) is the conjugate of c(t).  The circulant embedding (length 2N) is
    transformed once, so matvec costs two FFTs.  A real c (the closed form)
    makes T real symmetric and the products use real FFTs; a complex c (the
    brute-force oracle, hand-built partial point sets) keeps complex FFTs.
    Immutable after construction.
    """

    def __init__(self, c: np.ndarray):
        c = np.asarray(c)
        self.is_real = not np.iscomplexobj(c)
        c = c.astype(np.float64 if self.is_real else np.complex128)
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("c must be a nonempty 1-d array")
        self.c = c
        self.N = int(c.shape[0])
        emb = np.zeros(2 * self.N, dtype=c.dtype)
        emb[:self.N] = c
        if self.N > 1:
            emb[self.N + 1:] = np.conj(c[1:][::-1])
        self._circ_fft = np.fft.rfft(emb) if self.is_real else np.fft.fft(emb)

    def _real_matvec(self, v: np.ndarray) -> np.ndarray:
        n2 = 2 * self.N
        return np.fft.irfft(self._circ_fft * np.fft.rfft(v, n2), n2)[:self.N]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v via the circulant embedding, O(N log N)."""
        v = np.asarray(v)
        if not self.is_real:
            vf = np.fft.fft(v.astype(np.complex128, copy=False), 2 * self.N)
            return np.fft.ifft(self._circ_fft * vf)[:self.N]
        if np.iscomplexobj(v):
            return self._real_matvec(v.real) + 1j * self._real_matvec(v.imag)
        return self._real_matvec(v.astype(np.float64, copy=False))

    def dense(self) -> np.ndarray:
        """Materialized N x N matrix (oracle/cross-check use)."""
        idx = np.arange(self.N)
        diff = idx[:, None] - idx[None, :]
        out = np.where(diff >= 0, self.c[np.abs(diff)], np.conj(self.c[np.abs(diff)]))
        return out


def _squarefree_divisors_with_mu(q: int) -> list[tuple[int, int]]:
    """(d, mu(d)) over the squarefree divisors of q."""
    primes = []
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -mu) for d, mu in divs]
    return divs


def toeplitz_kernel(system: PowerFareySystem, N: int,
                    method: Literal["closed_form", "brute_force"] = "closed_form",
                    ) -> ToeplitzKernel:
    """Autocorrelation kernel c(t), t = 0..N-1, of the system's point set.

    The closed form requires the complete coprime residue set per base (what
    enumerate_system produces); hand-built partial point sets must use the
    brute_force method, which sums over the points as given.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if method == "brute_force":
        c = kernels.autocorr(system.numerators, system.moduli, N)
        return ToeplitzKernel(c)
    if method != "closed_form":
        raise ValueError(f"unknown method {method!r}")
    c = np.zeros(N, dtype=np.float64)
    for q in system.distinct_bases():
        qk = q ** system.k
        for d, mu in _squarefree_divisors_with_mu(q):
            step = qk // d
            weight = float(mu * step)
            if step < N:
                c[::step] += weight
            else:
                c[0] += weight
    return ToeplitzKernel(c)


class PowerResult(NamedTuple):
    value: float
    residual: float
    iterations: int


def power_iteration(kernel: ToeplitzKernel, rel_tol: float = 1e-8) -> PowerResult:
    """Largest eigenvalue of the PSD kernel by explicitly restarted Lanczos.

    Each cycle builds a Krylov basis of at most RESTART_LENGTH vectors with
    full (two-pass) reorthogonalisation and stops early once the Ritz
    estimate beta_j |y_j| / theta of the top Ritz pair falls below rel_tol or
    the basis spans an invariant subspace.  The normalised top Ritz vector x
    is then certified by one explicit product: value = x*Tx (a Rayleigh
    quotient, never above lambda_max) and residual = ||Tx - value x|| / value.
    The result is returned only when residual < rel_tol; otherwise the next
    cycle restarts from x, reusing Tx as its first product.  The first cycle
    starts from a fixed-seed Gaussian vector, so the result is deterministic.
    `iterations` counts products with T.  Raises EigensolverError with the
    last value and residual when the cap of 10N + 1000 products is reached.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    n = kernel.N
    c0 = float(kernel.c[0].real)
    if c0 <= 0.0:
        return PowerResult(0.0, 0.0, 0)  # empty system: T = 0
    if n == 1:
        return PowerResult(c0, 0.0, 0)  # 1x1 matrix
    m = min(RESTART_LENGTH, n)
    cap = 10 * n + ITERATION_CAP_BASE
    rng = np.random.default_rng(START_SEED)
    x = rng.standard_normal(n)
    if not kernel.is_real:
        x = x + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    V = np.empty((m, n), dtype=x.dtype)
    alpha = np.zeros(m)
    beta = np.zeros(m)
    tx = kernel.matvec(x)
    matvecs = 1
    while True:
        value = float(np.real(np.vdot(x, tx)))
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
            alpha[j] = 0.0
            for _ in range(2):  # full reorthogonalisation, two passes
                # conj(V @ conj(w)) = V* w without copying V for a real basis
                h = np.conj(V[:j + 1] @ np.conj(w))
                w = w - h @ V[:j + 1]
                alpha[j] += h[j].real
            beta[j] = float(np.linalg.norm(w))
            theta, Y = np.linalg.eigh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
                                      + np.diag(beta[:j], -1))
            y = Y[:, -1]
            if (beta[j] * abs(y[j]) < rel_tol * theta[-1]
                    or beta[j] <= INVARIANT_TOL * theta[-1]
                    or j == m - 1 or matvecs >= cap - 1):
                break
            V[j + 1] = w / beta[j]
        x = y @ V[:j + 1]
        x /= np.linalg.norm(x)
        tx = kernel.matvec(x)
        matvecs += 1


def dense_lambda_max(kernel: ToeplitzKernel) -> float:
    """Dense Hermitian eigensolver oracle for the same matrix."""
    return float(np.linalg.eigvalsh(kernel.dense())[-1])


def sigma_exact_batch(system: PowerFareySystem, vecs) -> np.ndarray:
    """sigma_exact of each CoefficientVector in vecs (one common length N), as
    an array: sum over points of |sum_n v_n e((a/q^k) n)|^2, n = M+1..M+N.

    The batch is evaluated in one pass (kernels.quadform_batch): per modulus
    q^k the coefficients are folded by residue class mod q^k, and one phase
    matrix with exact integer phase reduction serves every vector.
    """
    vecs = list(vecs)
    if len({vec.N for vec in vecs}) > 1:
        raise ValueError("all vectors of a batch must have the same length")
    if system.size == 0 or not vecs:
        return np.zeros(len(vecs))
    return kernels.quadform_batch(system.numerators, system.moduli,
                                  [vec.M for vec in vecs],
                                  np.stack([vec.values for vec in vecs]))


def sigma_exact(system: PowerFareySystem, vec: CoefficientVector) -> float:
    """The sieve quadratic form of one vector: sigma_exact_batch of [vec]."""
    return float(sigma_exact_batch(system, [vec])[0])


def rayleigh_lower_bound(kernel: ToeplitzKernel, vec: CoefficientVector) -> float:
    """Certified lower bound for the constant: the Rayleigh quotient v*Tv/|v|^2."""
    nsq = vec.norm_sq
    if nsq == 0.0:
        raise ValueError("zero coefficient vector")
    if vec.N != kernel.N:
        raise ValueError(f"vector length {vec.N} != kernel size {kernel.N}")
    w = kernel.matvec(vec.values)
    return float(np.real(np.vdot(vec.values, w))) / nsq


class ConstantResult(NamedTuple):
    value: float
    residual: float
    iterations: int
    size: int


def measure_constant(Q: int, N: int, k: int, mode: Mode = "full",
                     rel_tol: float = 1e-8) -> ConstantResult:
    """Optimal constant Delta(Q, N, k): the largest Rayleigh quotient of the
    sieve quadratic form per unit |v|^2, plus eigensolver diagnostics."""
    system = enumerate_system(Q, k, mode)
    kern = toeplitz_kernel(system, N)
    res = power_iteration(kern, rel_tol)
    return ConstantResult(res.value, res.residual, res.iterations, system.size)
