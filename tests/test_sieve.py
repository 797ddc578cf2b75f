import itertools
import warnings

import numpy as np
import pytest

from sieve_lab import kernels, sieve
from sieve_lab.errors import CapacityError, EigensolverError
from sieve_lab.farey import enumerate_system, system_size
from sieve_lab.sieve import (CoefficientVector, ToeplitzKernel, dense_lambda_max,
                             measure_constant, power_iteration, sigma_exact, toeplitz_kernel)

from helpers import (brute_sigma, int_points, lanczos_every_step, quadform_of,
                     rayleigh_quotient)
from test_farey import make_singleton

GRID = [(Q, k, mode) for Q in (1, 2, 3, 4) for k in (2, 3)
        for mode in ("full", "dyadic")]


def random_vec(n, seed, m_off=0):
    rng = np.random.default_rng(seed)
    return CoefficientVector(m_off, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_sigma_single_entry_counts_points():
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        v = CoefficientVector(0, np.array([1.0 + 0j]))
        assert sigma_exact(s, v) == pytest.approx(s.size, rel=1e-12, abs=1e-12)


def test_sigma_full_2_2_ones_cancels():
    s = enumerate_system(2, 2, "full")
    v = CoefficientVector(0, np.ones(4, dtype=complex))
    assert sigma_exact(s, v) == pytest.approx(0.0, abs=1e-12)


def test_sigma_aligned_singleton_is_n_squared():
    s = make_singleton(3, 4, 3)  # the point 3/64
    n = 17
    ns = np.arange(1, n + 1)
    v = CoefficientVector(0, np.exp(-2j * np.pi * 3 * ns / 64))
    assert sigma_exact(s, v) == pytest.approx(n * n, rel=1e-12)


def test_sigma_matches_brute_force():
    rng = np.random.default_rng(2)
    for Q, k, mode in [(2, 2, "full"), (2, 2, "dyadic"), (3, 3, "full")]:
        s = enumerate_system(Q, k, mode)
        n = int(rng.integers(3, 20))
        m_off = int(rng.integers(-9, 10))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = sigma_exact(s, CoefficientVector(m_off, v))
        assert got == pytest.approx(brute_sigma(int_points(s), m_off, v), rel=1e-9)


def test_sigma_exact_is_batch_of_one():
    rng = np.random.default_rng(4)
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (1, 7):
            v = random_vec(n, int(rng.integers(1 << 30)), int(rng.integers(-30, 31)))
            single = sigma_exact(s, v)
            assert isinstance(single, float)
            assert single == pytest.approx(quadform_of(s, [v])[0], rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 1000, 4096])
@pytest.mark.parametrize("nb", [1, 3, 100])
def test_batch_row_norms_equal_norm_sq(n, nb):
    # the lemma1 command's row norms of a (B, N) batch, bit for bit the
    # norm_sq of each row as a CoefficientVector
    rng = np.random.default_rng([n, nb])
    vs = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
    norms = np.sum(vs.real ** 2 + vs.imag ** 2, axis=1)
    assert norms.tolist() == [CoefficientVector(m, v).norm_sq for m, v in enumerate(vs)]


def test_kernel_c0_is_size_and_examples():
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        kern = toeplitz_kernel(Q, 4, k, mode)
        assert kern.c[0] == pytest.approx(s.size, abs=1e-12)
    # the kernel and the size both sum mu(d) q^k / d over the bases: exact here
    for Q, k, mode in itertools.product(range(1, 31), (2, 3, 4), ("full", "dyadic")):
        assert toeplitz_kernel(Q, 4, k, mode).c[0] == system_size(Q, k, mode), (Q, k, mode)

    full = toeplitz_kernel(2, 4, 2, "full")
    assert full.c[1] == pytest.approx(0.0, abs=1e-12)
    assert full.c[2] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kernel_closed_form_matches_brute_force(k):
    for Q in range(1, 7):
        for mode in ("full", "dyadic"):
            s = enumerate_system(Q, k, mode)
            closed = toeplitz_kernel(Q, 64, k, mode).c
            brute = kernels.autocorr(s.numerators, s.moduli, 64)
            assert np.max(np.abs(closed - brute)) < 1e-10


def test_fast_multiply_matches_dense():
    rng = np.random.default_rng(13)
    for Q, k, mode in GRID:
        for n in (1, 8, 64):
            kern = toeplitz_kernel(Q, n, k, mode)
            dense = kern.dense()
            for _ in range(20):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                fast = kern.matvec(v)
                ref = dense @ v
                scale = max(float(np.linalg.norm(ref)), 1e-30)
                assert float(np.linalg.norm(fast - ref)) / scale < 1e-10


def test_toeplitz_kernel_rejects_complex_c():
    with pytest.raises(ValueError):
        ToeplitzKernel(np.array([2.0, 1.0 + 1.0j]))
    with pytest.raises(ValueError):
        ToeplitzKernel(np.array([2.0 + 0.0j]))


def test_lambda_max_examples():
    for Q, k, mode in GRID:
        sys_ = enumerate_system(Q, k, mode)
        kern = toeplitz_kernel(Q, 1, k, mode)
        assert power_iteration(kern).value == pytest.approx(sys_.size, rel=1e-12, abs=1e-12)

    kern = toeplitz_kernel(2, 8, 2, "full")
    assert power_iteration(kern).value == pytest.approx(dense_lambda_max(kern), rel=1e-8)


def test_lambda_max_matches_dense_on_grid():
    for Q, k, mode in GRID:
        for n in (4, 16, 64):
            kern = toeplitz_kernel(Q, n, k, mode)
            fast = power_iteration(kern).value
            dense = dense_lambda_max(kern)
            assert fast == pytest.approx(dense, rel=1e-11, abs=1e-12)

    # (Q, N, k) full: two k = 4 cells with dense values 3188 and 5236, and two
    # whose top eigenvalues are a near-degenerate even/odd pair (286.11 vs
    # 285.19, 2291.2 vs 2288.7)
    for Q, n, k in [(7, 16, 4), (8, 16, 4), (4, 256, 2), (6, 1000, 3)]:
        kern = toeplitz_kernel(Q, n, k, "full")
        res = power_iteration(kern, 1e-8)
        assert res.residual < 1e-8
        assert res.value == pytest.approx(dense_lambda_max(kern), rel=1e-9)


def test_power_iteration_reports_and_nonconvergence():
    kern = toeplitz_kernel(2, 16, 2, "full")
    res = power_iteration(kern, 1e-8)
    assert res.residual < 1e-8 and res.iterations >= 1

    with pytest.raises(EigensolverError) as info:
        power_iteration(kern, 1e-300)
    assert info.value.last_value > 0
    assert info.value.iterations > 0


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, 1.0, 2.0, float("inf"), float("nan")])
def test_power_iteration_rejects_rel_tol_outside_unit_interval(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        power_iteration(toeplitz_kernel(2, 16, 2), rel_tol)


@pytest.mark.parametrize("mode", ["full", "dyadic"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sparse_ritz_checks_match_every_step_loop(k, mode):
    # (2, 256, 4) dyadic is on this grid: its Ritz estimate passes at a skipped
    # step and fails again at the next scheduled test, so its cycle runs on to
    # a later stop than the reference's and takes the most extra products
    for Q in range(1, 9):
        for n in (2, 3, 4, 5, 16, 63, 64, 65, 256, 1000, 4096):
            kern = toeplitz_kernel(Q, n, k, mode)
            oracle, cycles = lanczos_every_step(kern)
            res = power_iteration(kern)
            assert abs(res.value - oracle.value) <= 1e-12 * oracle.value, (Q, n)
            assert res.residual < 1e-8, (Q, n)
            extra = res.iterations - oracle.iterations
            assert 0 <= extra <= (sieve.RITZ_CHECK_EVERY - 1) * cycles, (Q, n)


# Krylov spaces that close after a step or two: beta_j falls to rounding level,
# which schedules a test at that very step.  (value of Delta, kernel)
EARLY_CLOSING = {
    "rank-1": (192.0, lambda: ToeplitzKernel(np.full(64, 3.0))),
    "two-point-4096": (4096.0, lambda: toeplitz_kernel(2, 4096, 2, "full")),
    "two-point-16": (16.0, lambda: toeplitz_kernel(2, 16, 2, "full")),
}


@pytest.mark.parametrize("name", sorted(EARLY_CLOSING))
def test_early_closing_krylov_spaces(name, monkeypatch):
    delta, make = EARLY_CLOSING[name]
    kern = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a division by beta_j = 0 would raise here
        oracle, _ = lanczos_every_step(kern)
        res = power_iteration(kern)
        assert (res.value, res.iterations) == (oracle.value, oracle.iterations)
        assert res.residual < 1e-14
        assert res.value == pytest.approx(delta, rel=1e-12)
        # a cap of 1000 products keeps the N = 4096 cell under a second
        monkeypatch.setattr(sieve, "ITERATION_CAP_BASE", 1000 - 10 * kern.N)
        with pytest.raises(EigensolverError) as info:
            power_iteration(kern, 1e-300)
    assert 0 < info.value.iterations <= 1000


# Synthetic PSD kernels whose two top eigenvalues lie within 1e-5 relative
# (3.3e-6 and 3.7e-7 here): cos(2 pi f t) with f near 1/4 carries the pair
# (N +- |sum_n e(2 f n)|) / 2.  A weaker second frequency splits the pair
# further in the rank-4 kernel; 0.1 * 0.9^t, itself PSD and of full rank,
# keeps the Krylov space from closing after a few steps.
CLUSTERED_TOP = {
    "rank-4": lambda t: np.cos(2 * np.pi * (0.25 + 1e-9) * t)
    + 0.3 * np.cos(2 * np.pi * 3.5 * t / 1024),
    "full-rank": lambda t: np.cos(2 * np.pi * (0.25 + 1e-9) * t) + 0.1 * 0.9 ** t,
}


@pytest.mark.parametrize("name", sorted(CLUSTERED_TOP))
def test_clustered_top_pair(name):
    kern = ToeplitzKernel(CLUSTERED_TOP[name](np.arange(1024)))
    second, top = np.linalg.eigvalsh(kern.dense())[-2:]
    assert (top - second) / top < 1e-5
    res = power_iteration(kern, 1e-8)
    assert res.residual < 1e-8
    assert res.value == pytest.approx(top, rel=1e-8)


def test_cap_between_scheduled_tests(monkeypatch):
    # full-length cycles with no early stop: the cap falls at every position
    # between two scheduled tests, and no look-ahead product may pass it
    kern = toeplitz_kernel(2, 256, 4, "dyadic")
    for cap in range(200, 200 + 2 * sieve.RITZ_CHECK_EVERY):
        monkeypatch.setattr(sieve, "ITERATION_CAP_BASE", cap - 10 * kern.N)
        with pytest.raises(EigensolverError) as info:
            power_iteration(kern, 1e-300)
        assert info.value.iterations == cap


def test_rayleigh_bounds():
    s = enumerate_system(3, 2, "dyadic")
    n = 24
    kern = toeplitz_kernel(3, n, 2, "dyadic")
    lam = power_iteration(kern).value

    basis = np.zeros(n, dtype=complex)
    basis[0] = 1.0
    assert rayleigh_quotient(kern, basis) == pytest.approx(s.size, rel=1e-12)

    ns = np.arange(1, n + 1)
    aligned = np.exp(-2j * np.pi * int(s.numerators[0]) * ns / int(s.moduli[0]))
    assert rayleigh_quotient(kern, aligned) >= n - 1e-9

    rng = np.random.default_rng(19)
    for _ in range(50):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert rayleigh_quotient(kern, v) <= lam * (1 + 1e-9)


def test_sieve_constant_examples():
    assert measure_constant(2, 1, 2, "full").value == pytest.approx(2.0, rel=1e-12)
    # rank-one lower bound: the constant is at least N
    for Q, k, mode in [(2, 2, "full"), (3, 2, "dyadic"), (2, 3, "full")]:
        for n in (4, 32):
            assert measure_constant(Q, n, k, mode).value >= n * (1 - 1e-9)
    kern = toeplitz_kernel(2, 16, 2, "full")
    assert measure_constant(2, 16, 2, "full").value == pytest.approx(
        dense_lambda_max(kern), rel=1e-6)


def test_duality_sandwich():
    rng = np.random.default_rng(43)
    for Q, k, mode in [(2, 2, "full"), (2, 2, "dyadic"), (3, 3, "dyadic")]:
        s = enumerate_system(Q, k, mode)
        n = 32
        lam = measure_constant(Q, n, k, mode).value
        kern = toeplitz_kernel(Q, n, k, mode)
        best_rayleigh = 0.0
        for _ in range(100):
            v = CoefficientVector(int(rng.integers(-16, 17)),
                                  rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert sigma_exact(s, v) <= lam * v.norm_sq * (1 + 1e-6)
            best_rayleigh = max(best_rayleigh, rayleigh_quotient(kern, v.values))
        assert best_rayleigh <= lam * (1 + 1e-9)


def test_sigma_equals_kernel_quadratic_form():
    rng = np.random.default_rng(47)
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (4, 16):
            kern = toeplitz_kernel(Q, n, k, mode)
            for _ in range(10):
                values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                vec = CoefficientVector(0, values)
                sig = sigma_exact(s, vec)
                quad = float(np.real(np.vdot(values, kern.matvec(values))))
                assert sig == pytest.approx(quad, rel=1e-8, abs=1e-9)


def test_eigensolve_budget_boundary(monkeypatch):
    # N = 16: a basis of 16 vectors plus 16 more N-vectors, 8 bytes each
    need = 8 * 16 * (16 + 16)
    monkeypatch.setattr(sieve, "EIGEN_BUDGET_BYTES", need)
    assert toeplitz_kernel(2, 16, 2).N == 16
    monkeypatch.setattr(sieve, "EIGEN_BUDGET_BYTES", need - 1)
    with pytest.raises(CapacityError, match="above the budget"):
        toeplitz_kernel(2, 16, 2)
