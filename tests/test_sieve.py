import numpy as np
import pytest

from sieve_lab.errors import EigensolverError
from sieve_lab.farey import enumerate_system
from sieve_lab.sieve import (CoefficientVector, dense_lambda_max, lambda_max,
                             power_iteration, rayleigh_lower_bound,
                             sieve_constant, sigma_exact, sigma_exact_batch,
                             toeplitz_kernel)

from helpers import brute_sigma, int_points
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
            assert single == pytest.approx(sigma_exact_batch(s, [v])[0], rel=1e-12)


def test_sigma_exact_batch_shapes():
    s = enumerate_system(2, 2, "dyadic")
    assert sigma_exact_batch(s, []).shape == (0,)
    empty = enumerate_system(1, 2, "full")
    assert empty.size == 0
    assert sigma_exact_batch(empty, [random_vec(4, 1), random_vec(4, 2)]).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        sigma_exact_batch(s, [random_vec(4, 1), random_vec(5, 2)])


def test_kernel_c0_is_size_and_examples():
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        kern = toeplitz_kernel(s, 4)
        assert kern.c[0] == pytest.approx(s.size, abs=1e-12)

    full = toeplitz_kernel(enumerate_system(2, 2, "full"), 4)
    assert full.c[1] == pytest.approx(0.0, abs=1e-12)
    assert full.c[2] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kernel_closed_form_matches_brute_force(k):
    for Q in range(1, 7):
        for mode in ("full", "dyadic"):
            s = enumerate_system(Q, k, mode)
            closed = toeplitz_kernel(s, 64).c
            brute = toeplitz_kernel(s, 64, method="brute_force").c
            assert np.max(np.abs(closed - brute)) < 1e-10


def test_fast_multiply_matches_dense():
    rng = np.random.default_rng(13)
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (1, 8, 64):
            kern = toeplitz_kernel(s, n)
            dense = kern.dense()
            for _ in range(20):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                fast = kern.matvec(v)
                ref = dense @ v
                scale = max(float(np.linalg.norm(ref)), 1e-30)
                assert float(np.linalg.norm(fast - ref)) / scale < 1e-10


def test_lambda_max_examples():
    # a synthetic one-point set is not a complete residue system, so the
    # rank-one check goes through the brute-force kernel
    s = make_singleton(1, 2, 2)
    for n in (1, 5, 33):
        kern = toeplitz_kernel(s, n, method="brute_force")
        assert lambda_max(kern) == pytest.approx(n, rel=1e-10)

    for Q, k, mode in GRID:
        sys_ = enumerate_system(Q, k, mode)
        kern = toeplitz_kernel(sys_, 1)
        assert lambda_max(kern) == pytest.approx(sys_.size, rel=1e-12, abs=1e-12)

    kern = toeplitz_kernel(enumerate_system(2, 2, "full"), 8)
    assert lambda_max(kern) == pytest.approx(dense_lambda_max(kern), rel=1e-8)


def test_lambda_max_matches_dense_on_grid():
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (4, 16, 64):
            kern = toeplitz_kernel(s, n)
            fast = lambda_max(kern)
            dense = dense_lambda_max(kern)
            assert fast == pytest.approx(dense, rel=1e-6, abs=1e-12)

    # (Q, N, k) full: two k = 4 cells with dense values 3188 and 5236, and two
    # whose top eigenvalues are a near-degenerate even/odd pair (286.11 vs
    # 285.19, 2291.2 vs 2288.7)
    for Q, n, k in [(7, 16, 4), (8, 16, 4), (4, 256, 2), (6, 1000, 3)]:
        kern = toeplitz_kernel(enumerate_system(Q, k, "full"), n)
        res = power_iteration(kern, 1e-8)
        assert res.residual < 1e-8
        assert res.value == pytest.approx(dense_lambda_max(kern), rel=1e-9)


def test_power_iteration_reports_and_nonconvergence():
    kern = toeplitz_kernel(enumerate_system(2, 2, "full"), 16)
    res = power_iteration(kern, 1e-8)
    assert res.residual < 1e-8 and res.iterations >= 1

    with pytest.raises(EigensolverError) as info:
        power_iteration(kern, 1e-300)
    assert info.value.last_value > 0
    assert info.value.iterations > 0


def test_rayleigh_bounds():
    s = enumerate_system(3, 2, "dyadic")
    n = 24
    kern = toeplitz_kernel(s, n)
    lam = lambda_max(kern)

    basis = np.zeros(n, dtype=complex)
    basis[0] = 1.0
    assert rayleigh_lower_bound(kern, CoefficientVector(0, basis)) == pytest.approx(
        s.size, rel=1e-12)

    ns = np.arange(1, n + 1)
    aligned = np.exp(-2j * np.pi * int(s.numerators[0]) * ns / int(s.moduli[0]))
    assert rayleigh_lower_bound(kern, CoefficientVector(0, aligned)) >= n - 1e-9

    rng = np.random.default_rng(19)
    for _ in range(50):
        v = CoefficientVector(0, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert rayleigh_lower_bound(kern, v) <= lam * (1 + 1e-9)

    with pytest.raises(ValueError):
        rayleigh_lower_bound(kern, CoefficientVector(0, np.zeros(n, dtype=complex)))


def test_sieve_constant_examples():
    assert sieve_constant(2, 1, 2, "full") == pytest.approx(2.0, rel=1e-12)
    # rank-one lower bound: the constant is at least N
    for Q, k, mode in [(2, 2, "full"), (3, 2, "dyadic"), (2, 3, "full")]:
        for n in (4, 32):
            assert sieve_constant(Q, n, k, mode) >= n * (1 - 1e-9)
    kern = toeplitz_kernel(enumerate_system(2, 2, "full"), 16)
    assert sieve_constant(2, 16, 2, "full") == pytest.approx(dense_lambda_max(kern),
                                                             rel=1e-6)


def test_duality_sandwich():
    rng = np.random.default_rng(43)
    for Q, k, mode in [(2, 2, "full"), (2, 2, "dyadic"), (3, 3, "dyadic")]:
        s = enumerate_system(Q, k, mode)
        n = 32
        lam = sieve_constant(Q, n, k, mode)
        kern = toeplitz_kernel(s, n)
        best_rayleigh = 0.0
        for _ in range(100):
            v = CoefficientVector(int(rng.integers(-16, 17)),
                                  rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert sigma_exact(s, v) <= lam * v.norm_sq * (1 + 1e-6)
            vec0 = CoefficientVector(0, v.values)
            best_rayleigh = max(best_rayleigh, rayleigh_lower_bound(kern, vec0))
        assert best_rayleigh <= lam * (1 + 1e-9)


def test_sigma_equals_kernel_quadratic_form():
    rng = np.random.default_rng(47)
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (4, 16):
            kern = toeplitz_kernel(s, n)
            for _ in range(10):
                values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                vec = CoefficientVector(0, values)
                sig = sigma_exact(s, vec)
                quad = float(np.real(np.vdot(values, kern.matvec(values))))
                assert sig == pytest.approx(quad, rel=1e-8, abs=1e-9)
