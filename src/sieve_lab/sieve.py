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
c(t) is a real integer, so T is real symmetric.  T also commutes with the
reversal J, so its top eigenvalue is the larger of the top eigenvalues of its
two parity sectors, the vectors with J v = v and with J v = -v (Cantoni and
Butler 1976).  power_iteration solves each sector, about N/2 entries, by a
restarted Lanczos iteration whose products are real FFTs of length N
(ParitySector), started from the projection of start_vector(N, seed), a
Gaussian vector from the package's one seeded stream (arith.gaussian_pairs;
`constant --seed` picks it).  T's own product, ToeplitzKernel.matvec, and its
dense matrix stay as the oracle.  The O(|F| N) brute-force sum over the
enumerated points, kernels.autocorr, is the oracle for c(t).

The quadratic form itself has one entry, kernels.quadform, which the lemma1
command calls with one (B, N) coefficient array per chunk; sigma_exact
forwards a system's points and a plain coefficient array to it.

Note on the enumerated range: the zero frequency (base q = 1, value 1, whose
aligned term would add |sum v_n|^2) is never part of the system, so the
measured constant is the best constant over the fractions with denominator
q^k >= 2^k only.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .arith import DEFAULT_SEED, gaussian_pairs
from .errors import CapacityError, EigensolverError
from .farey import Mode, PowerFareySystem, squarefree_divisors_with_mu, system_bases

ITERATION_CAP_BASE = 1000
# Krylov basis size per Lanczos cycle (capped at the sector's size): one
# sector is solved at a time, so the basis holds about RESTART_LENGTH * N / 2
# floats, about 17 MB at N = 2^16.
RESTART_LENGTH = 64
# Lanczos steps between scheduled convergence tests (see sector_top).
RITZ_CHECK_EVERY = 4
# A scheduled test whose Ritz estimate is within this factor of rel_tol
# schedules a test at every later step of its cycle (see sector_top).
RITZ_NEAR = 1024
# Largest estimated eigensolve footprint toeplitz_kernel accepts, in bytes:
# a basis of RESTART_LENGTH full-length vectors plus 16 more float64
# N-vectors (c, the 2N embedding and its rfft, the FFT temporaries of one
# product and the iteration vectors).  A sector's basis is half that long, so
# the estimate over-counts, which is safe.  2 GiB admits N up to about 3.3e6;
# N = 2^16 needs about 42 MB.
EIGEN_BUDGET_BYTES = 1 << 31
# beta_j below this fraction of the top Ritz value: the basis spans an
# invariant subspace to working precision.
INVARIANT_TOL = 1e-12
# Vectors a sector is applied to per step.  Each Lanczos step applies one
# sector to one vector, so the trace in perfbench/tracing.py, which counts
# products as iterations * BLOCK_SIZE, stays true.
BLOCK_SIZE = 1


class ToeplitzKernel:
    """Real symmetric Toeplitz operator T[m,n] = c(|m-n|) given real c(t) for
    0 <= t < N.

    matvec and dense are the oracle for the parity sectors that power_iteration
    solves (see ParitySector).  matvec applies T through its circulant
    embedding (length 2N), transformed by a real FFT on the first product, so a
    product costs two real FFTs; a complex vector v is applied as
    T Re v + i T Im v.  A complex c is rejected.  c and N are fixed at
    construction.
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

    @cached_property
    def _circ_fft(self) -> np.ndarray:
        emb = np.zeros(2 * self.N)
        emb[:self.N] = self.c
        emb[self.N + 1:] = self.c[1:][::-1]
        return np.fft.rfft(emb)

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


class ParitySector:
    """The sector of a ToeplitzKernel T (N >= 2) on the vectors v with
    J v = sign * v, J the reversal, in coordinates over an orthonormal basis
    of the sector, so norms and Rayleigh quotients are those of v.

    T commutes with J, so its spectrum is the union of the two sectors'
    (Cantoni and Butler 1976).  With h = N // 2, A the Toeplitz matrix of
    c(0..h-1) and H the Hankel matrix H[i,j] = c(N-1-i-j), both h x h: for
    even N, v = (u, sign J u) and the sector is A + sign H; for odd N the
    antisymmetric sector is A - H with middle entry 0, and the symmetric one
    acts on (sqrt(2) u, m) as [[A + H, sqrt(2) b], [sqrt(2) b^T, c(0)]],
    b_i = c(h - i).  A product is irfft(C^ U + sign G^ conj(U), 2h)[:h] with
    U = rfft(u, 2h), C^ the spectrum of the length-2h circulant embedding of
    c(0..h-1) and G^ that of g(t) = c(N-1-t), t <= 2h-2.  `trace` is exact
    for an integer c; `bound` = N c(0) bounds every eigenvalue of T.
    """

    def __init__(self, kernel: ToeplitzKernel, sign: int):
        c, n = kernel.c, kernel.N
        h = n // 2
        self.sign = sign
        self._h = h
        self._middle = n % 2 == 1 and sign == 1
        self.N = h + self._middle
        self.bound = n * float(c[0])
        emb = np.zeros(2 * h)
        emb[:h] = c[:h]
        emb[h + 1:] = c[1:h][::-1]
        self._c_fft = np.fft.rfft(emb)
        self._g_fft = sign * np.fft.rfft(c[n - 1:n - 2 * h:-1], 2 * h)
        diag = c[n - 1::-2][:h]  # H's diagonal, c(N-1-2i)
        self.trace = float(h * c[0] + sign * np.sum(diag) + self._middle * c[0])
        if self._middle:
            self._c0 = float(c[0])
            self._b = np.sqrt(2.0) * c[h:0:-1]

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """The sector applied to real sector coordinates u."""
        h = self._h
        w = u[:h]
        fw = np.fft.rfft(w, 2 * h)
        out = np.fft.irfft(self._c_fft * fw + self._g_fft * fw.conj(), 2 * h)[:h]
        if not self._middle:
            return out
        m = u[h]
        return np.append(out + m * self._b, _dot(self._b, w) + self._c0 * m)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Sector coordinates of the projection of the length-N vector x onto
        the sector: (x_i + sign x_(N-1-i)) / sqrt(2), then x_h if the sector
        holds the middle entry.  They are iid Gaussian when x is."""
        h = self._h
        u = (x[:h] + self.sign * x[::-1][:h]) * np.sqrt(0.5)
        return np.append(u, x[h]) if self._middle else u


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


def start_vector(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n standard Gaussian floats, the Lanczos start: the real parts (cosine
    halves) of the first n arith.gaussian_pairs of `seed` under the empty
    key, copied out of the complex draw so the start is contiguous.  Entry i
    applies Box-Muller to the splitmix64 words 2i and 2i+1 and does not depend
    on n.  numpy.random, whose import loads OpenSSL's libcrypto (about 6 MB of
    peak RSS), stays out of the eigensolve.
    """
    return gaussian_pairs(seed, (), 0, np.empty(n, dtype=np.complex128)).real.copy()


class PowerResult(NamedTuple):
    value: float
    residual: float
    iterations: int


def power_iteration(kernel: ToeplitzKernel, rel_tol: float = 1e-8, *,
                    seed: int = DEFAULT_SEED) -> PowerResult:
    """Largest eigenvalue of the PSD kernel: the larger sector_top of its two
    ParitySectors, each started from the projection of start_vector(N, seed),
    one seeded Gaussian vector, so the result is deterministic.

    The winning sector's value and residual are those of the length-N vector
    its certified Ritz vector stands for.  A sector whose trace is at most
    INVARIANT_TOL N c(0), the rounding level of its products, is null and
    takes no product.  `iterations` is the sum of both sectors' products.
    The cap of 10 n + 1000 products applies to each sector on its size n;
    the other sector still runs, and EigensolverError carries the larger last
    value of the failed sectors, its residual and both sectors' products.
    rel_tol must lie in (0, 1).
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    c0 = float(kernel.c[0])
    if c0 <= 0.0:
        return PowerResult(0.0, 0.0, 0)  # empty system: T = 0
    if kernel.N == 1:
        return PowerResult(c0, 0.0, 0)  # 1x1 matrix
    x = start_vector(kernel.N, seed)
    best, failed, products = PowerResult(0.0, 0.0, 0), None, 0
    for sign in (1, -1):
        sector = ParitySector(kernel, sign)
        if sector.trace <= INVARIANT_TOL * sector.bound:
            continue  # null sector
        try:
            res = sector_top(sector, sector.project(x), rel_tol)
        except EigensolverError as exc:
            products += exc.iterations
            if failed is None or exc.last_value > failed.last_value:
                failed = exc
            continue
        products += res.iterations
        if res.value > best.value:
            best = res
    if failed is not None:
        raise EigensolverError(f"{failed} ({products} products in both sectors)",
                               last_value=failed.last_value,
                               last_residual=failed.last_residual, iterations=products)
    return best._replace(iterations=products)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two 1-D float arrays by numpy's pairwise sum."""
    return float(np.add.reduce(a * b))


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_dot(x, x))


def sector_top(sector: ParitySector, start: np.ndarray, rel_tol: float) -> PowerResult:
    """Top eigenvalue of one ParitySector by explicitly restarted Lanczos
    from `start`, a nonzero vector of sector coordinates.

    Each cycle runs the plain three-term recurrence for at most RESTART_LENGTH
    steps, with no reorthogonalisation: a Lanczos basis loses orthogonality
    only along Ritz vectors that have already converged (Paige 1980).  The
    convergence test, a dense eigh of the tridiagonal matrix, costs more than
    a product at small N, so it runs every RITZ_CHECK_EVERY steps, at the
    cycle's last step, at the product cap and whenever beta_j is small
    enough for the invariant-subspace stop (judged against T's bound N c(0),
    which a sector's top can reach).  The Ritz estimate is not monotone, so
    once a test's estimate is within RITZ_NEAR of rel_tol every later step
    of the cycle is tested (without this one sector of (7, 4096, 4) dyadic
    stopped 11 steps late).  The cycle stops at the first test where
    beta_j |y_j| < rel_tol theta or beta_j marks an invariant subspace.  The
    normalised top Ritz vector x is certified by one explicit product:
    value = x*Sx, a Rayleigh quotient, and residual = ||Sx - value x|| /
    value.  It is returned when residual < rel_tol; otherwise the next cycle
    restarts from x, reusing Sx.  The residual bounds the distance to *an*
    eigenvalue, so when the sector's top two eigenvalues are closer than
    rel_tol, value can sit up to their gap below its top.  `iterations`
    counts every product; EigensolverError, with the last value and
    residual, is raised at 10 n + 1000 products, n the sector's size.
    No step calls BLAS, whose threads split long sums, so the result has the
    same bits whatever the BLAS thread count: dots and norms are numpy's
    pairwise sums of the products (einsum's single loop was 40 times less
    accurate on a sector of 32768), and the Ritz vector, a sum of at most
    RESTART_LENGTH terms per entry, is an einsum.
    """
    n = sector.N
    m = min(RESTART_LENGTH, n)
    cap = 10 * n + ITERATION_CAP_BASE
    # every Ritz value is at most sector.bound: above this, beta_j cannot pass
    # the invariant-subspace test
    near_invariant = 2 * INVARIANT_TOL * sector.bound
    x = start / _norm(start)
    V = np.empty((m, n))
    alpha = np.zeros(m)
    beta = np.zeros(m)
    tx = sector.matvec(x)
    matvecs = 1
    while True:
        value = _dot(x, tx)
        if value <= 0.0:
            return PowerResult(0.0, 0.0, matvecs)  # numerically null operator
        residual = _norm(tx - value * x) / value
        if residual < rel_tol:
            return PowerResult(value, residual, matvecs)
        if matvecs >= cap:
            raise EigensolverError(
                f"Lanczos did not converge in {cap} matvecs "
                f"(last value {value!r}, residual {residual!r})",
                last_value=value, last_residual=residual, iterations=matvecs)
        V[0] = x
        w = tx
        near = False
        for j in range(m):
            if j > 0:
                w = sector.matvec(V[j])
                matvecs += 1
            alpha[j] = _dot(V[j], w)
            w = w - alpha[j] * V[j]
            if j > 0:
                w -= beta[j - 1] * V[j - 1]
            beta[j] = _norm(w)
            last = j == m - 1 or matvecs >= cap - 1
            if (last or near or (j + 1) % RITZ_CHECK_EVERY == 0
                    or beta[j] <= near_invariant):
                # top Ritz pair (theta[-1], y) of the (j+1) x (j+1) tridiagonal
                theta, Y = np.linalg.eigh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
                                          + np.diag(beta[:j], -1))
                y = Y[:, -1]
                estimate = beta[j] * abs(y[j])
                if (last or estimate < rel_tol * theta[-1]
                        or beta[j] <= INVARIANT_TOL * theta[-1]):
                    break
                near = estimate < RITZ_NEAR * rel_tol * theta[-1]
            V[j + 1] = w / beta[j]
        x = np.einsum("i,ij->j", y, V[:j + 1])
        x /= _norm(x)
        tx = sector.matvec(x)
        matvecs += 1


def dense_lambda_max(kernel: ToeplitzKernel) -> float:
    """Dense symmetric eigensolver oracle for the same matrix."""
    return float(np.linalg.eigvalsh(kernel.dense())[-1])


def sigma_exact(system: PowerFareySystem, values: np.ndarray):
    """The sieve quadratic form sum over points of |sum_n v_n e((a/q^k) n)|^2:
    kernels.quadform over the system's points.  A 1-D values is one vector
    and gives a float; a (B, N) array gives an array of B.  The range of n
    (its shift M) cannot change the value, since shifting n by M multiplies
    each inner sum by e(a M / q^k), of modulus 1."""
    return kernels.quadform(system.numerators, system.moduli, 0, values)


def measure_constant(Q: int, N: int, k: int, mode: Mode = "full",
                     rel_tol: float = 1e-8) -> PowerResult:
    """Optimal constant Delta(Q, N, k): the largest Rayleigh quotient of the
    sieve quadratic form per unit |v|^2, with the eigensolver's residual and
    product count.  Builds no point."""
    return power_iteration(toeplitz_kernel(Q, N, k, mode), rel_tol)
