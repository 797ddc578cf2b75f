import itertools
import math
import warnings

import numpy as np
import pytest

from sieve_lab import arith, kernels, sieve
from sieve_lab.arith import DEFAULT_SEED
from sieve_lab.errors import CapacityError, EigensolverError
from sieve_lab.farey import enumerate_system, system_size
from sieve_lab.sieve import (ParitySector, ToeplitzKernel, dense_lambda_max, measure_constant,
                             power_iteration, sigma_exact, toeplitz_kernel)

from helpers import (brute_sigma, int_points, keyed_gaussian_pairs, keyed_words,
                     lanczos_every_step, rayleigh_quotient, sector_lift, sector_starts)
from test_farey import make_singleton

GRID = [(Q, k, mode) for Q in (1, 2, 3, 4) for k in (2, 3)
        for mode in ("full", "dyadic")]


def test_sigma_single_entry_counts_points():
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        v = np.array([1.0 + 0j])
        assert sigma_exact(s, v) == pytest.approx(s.size, rel=1e-12, abs=1e-12)


def test_sigma_full_2_2_ones_cancels():
    s = enumerate_system(2, 2, "full")
    v = np.ones(4, dtype=complex)
    assert sigma_exact(s, v) == pytest.approx(0.0, abs=1e-12)


def test_sigma_aligned_singleton_is_n_squared():
    s = make_singleton(3, 4, 3)  # the point 3/64
    n = 17
    ns = np.arange(1, n + 1)
    v = np.exp(-2j * np.pi * 3 * ns / 64)
    assert sigma_exact(s, v) == pytest.approx(n * n, rel=1e-12)


def test_sigma_matches_brute_force():
    # brute_sigma sums n over M+1..M+N at the drawn shift M; sigma_exact
    # has no shift, so this also checks that M cannot change the form
    rng = np.random.default_rng(2)
    for Q, k, mode in [(2, 2, "full"), (2, 2, "dyadic"), (3, 3, "full")]:
        s = enumerate_system(Q, k, mode)
        n = int(rng.integers(3, 20))
        m_off = int(rng.integers(-9, 10))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = sigma_exact(s, v)
        assert got == pytest.approx(brute_sigma(int_points(s), m_off, v), rel=1e-9)


def test_sigma_exact_is_batch_of_one():
    rng = np.random.default_rng(4)
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (1, 7):
            vec_rng = np.random.default_rng(int(rng.integers(1 << 30)))
            rng.integers(-30, 31)  # a shift, drawn and dropped: it cannot change the form
            v = vec_rng.standard_normal(n) + 1j * vec_rng.standard_normal(n)
            single = sigma_exact(s, v)
            assert isinstance(single, float)
            assert single == pytest.approx(sigma_exact(s, v[None])[0], rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 1000, 4096])
@pytest.mark.parametrize("nb", [1, 3, 100])
def test_batch_row_norms_equal_norm_sq(n, nb):
    # the lemma1 command's row norms of a (B, N) batch, bit for bit the
    # squared norm of each row summed on its own
    rng = np.random.default_rng([n, nb])
    vs = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
    norms = np.sum(vs.real ** 2 + vs.imag ** 2, axis=1)
    assert norms.tolist() == [float(np.sum(v.real ** 2 + v.imag ** 2)) for v in vs]


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


def test_splitmix64_reference_matches_the_published_outputs():
    # the widely quoted test vector of splitmix64 at seed 1234567 anchors the
    # Python-int oracle that the keyed stream is checked against
    assert keyed_words(1234567, (), 0, 5) == [6457827717110365317, 3203168211198807973,
                                              9817491932198370423, 4593380528125082431,
                                              16408922859458223821]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_start_vector_matches_python_int_splitmix64(n):
    for seed in (DEFAULT_SEED, 5):
        got = sieve.start_vector(n, seed)
        assert got.dtype == np.float64 and got.shape == (n,)
        want = [c for c, _ in keyed_gaussian_pairs(seed, (), 0, n)]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_start_vector_prefix_is_stable():
    # entry i depends on i alone, not on the length drawn
    full = sieve.start_vector(1000)
    for m in (1, 2, 3, 64, 999, 1000):
        assert full[:m].tobytes() == sieve.start_vector(m).tobytes(), m


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_start_vector_does_not_depend_on_the_draw_block(monkeypatch, block):
    # arith.gaussian_pairs' block size sets how many pairs each pass
    # converts, never their bits
    cases = [(n, seed) for n in (1, 999, 2501) for seed in (DEFAULT_SEED, 5)]
    want = [sieve.start_vector(n, seed).tobytes() for n, seed in cases]
    monkeypatch.setattr(arith, "BLOCK_PAIRS", block)
    assert [sieve.start_vector(n, seed).tobytes() for n, seed in cases] == want


def test_start_vector_is_standard_normal():
    # every entry finite, and |x| <= sqrt(-2 ln 2^-53) since u lies in
    # [2^-53, 1]; moments within 5 sigma of N(0, 1)'s, and the
    # Kolmogorov-Smirnov distance below its 1% critical value 1.63 / sqrt(n)
    n = 1 << 20
    x = sieve.start_vector(n)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x)) <= math.sqrt(106 * math.log(2.0))
    mean, var = x.mean(), x.var()
    kurtosis = np.mean((x - mean) ** 4) / var ** 2 - 3.0
    assert abs(mean) < 5.0 * math.sqrt(1.0 / n)
    assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(kurtosis) < 5.0 * math.sqrt(24.0 / n)
    xs = np.sort(x)
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in xs]))
    i = np.arange(1, n + 1)
    assert max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)) < 1.63 / math.sqrt(n)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, 1.0, 2.0, float("inf"), float("nan")])
def test_power_iteration_rejects_rel_tol_outside_unit_interval(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        power_iteration(toeplitz_kernel(2, 16, 2), rel_tol)


@pytest.mark.parametrize("mode", ["full", "dyadic"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sparse_ritz_checks_match_every_step_loop(k, mode):
    # per parity sector, from the projection of the same start; a Ritz
    # estimate can pass at a skipped step and fail again at the next scheduled
    # test, so a cycle may run on to a later stop than the reference's
    for Q in range(1, 9):
        for n in (2, 3, 4, 5, 16, 63, 64, 65, 256, 1000, 4096):
            kern = toeplitz_kernel(Q, n, k, mode)
            res = power_iteration(kern)
            if kern.c[0] <= 0:
                assert res == (0.0, 0.0, 0), (Q, n)
                continue
            tops = []
            for sector, start in sector_starts(kern):
                oracle, cycles = lanczos_every_step(sector, start)
                top = sieve.sector_top(sector, start, 1e-8)
                assert abs(top.value - oracle.value) <= 1e-12 * oracle.value, (Q, n)
                assert top.residual < 1e-8, (Q, n)
                extra = top.iterations - oracle.iterations
                assert 0 <= extra <= (sieve.RITZ_CHECK_EVERY - 1) * cycles, (Q, n)
                tops.append(top)
            assert res.value == max(top.value for top in tops), (Q, n)
            assert res.iterations == sum(top.iterations for top in tops), (Q, n)


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
        # the reference for the whole kernel: the larger sector top, the
        # products of both sectors
        oracles = []
        for sector, start in sector_starts(kern):
            oracle, _ = lanczos_every_step(sector, start)
            top = sieve.sector_top(sector, start, 1e-8)
            assert abs(top.value - oracle.value) <= 1e-12 * oracle.value
            assert top.iterations == oracle.iterations
            oracles.append(oracle)
        res = power_iteration(kern)
        assert (res.value, res.iterations) == (max(oracle.value for oracle in oracles),
                                               sum(oracle.iterations for oracle in oracles))
        assert res.residual < 1e-14
        assert res.value == pytest.approx(delta, rel=1e-12)
        # a cap of 500 products per sector keeps the N = 4096 cell under a second
        monkeypatch.setattr(sieve, "ITERATION_CAP_BASE", 500 - 10 * (kern.N // 2))
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


def test_top_pair_across_the_sectors():
    # a top pair 2.5e-8 apart with one eigenvalue in each sector: each sector's
    # gap is wide, so the value is the top one (the whole-kernel solve stopped
    # 2.1e-8 below it with residual 9.2e-9)
    t = np.arange(1024)
    kern = ToeplitzKernel(np.cos(2 * np.pi * (0.25 + 1e-9) * t) + 0.01 * 0.9 ** t)
    second, top = np.linalg.eigvalsh(kern.dense())[-2:]
    assert (top - second) / top < 3e-8
    assert abs(power_iteration(kern, 1e-8).value - top) <= 1e-12 * top


def test_cap_between_scheduled_tests(monkeypatch):
    # full-length cycles with no early stop in either sector: the cap falls at
    # every position between two scheduled tests, no look-ahead product may
    # pass it, and power_iteration's error counts both sectors' products
    kern = toeplitz_kernel(2, 256, 4, "dyadic")
    starts = sector_starts(kern)
    assert [sector.N for sector, _ in starts] == [128, 128]
    for cap in range(200, 200 + 2 * sieve.RITZ_CHECK_EVERY):
        monkeypatch.setattr(sieve, "ITERATION_CAP_BASE", cap - 10 * 128)
        for sector, start in starts:
            with pytest.raises(EigensolverError) as info:
                sieve.sector_top(sector, start, 1e-300)
            assert info.value.iterations == cap
        with pytest.raises(EigensolverError) as info:
            power_iteration(kern, 1e-300)
        assert info.value.iterations == 2 * cap


@pytest.mark.parametrize("n", [2, 3, 4, 17, 64, 4097])
@pytest.mark.parametrize("sign", [1, -1])
def test_sector_products_match_matvec(n, sign):
    # the closed-form kernel and a random c with no zero entry, so a dropped
    # or sign-swapped Hankel term shows
    rng = np.random.default_rng([n, sign + 1])
    for kern in (toeplitz_kernel(5, n, 2), ToeplitzKernel(rng.standard_normal(n))):
        sector = ParitySector(kern, sign)
        assert sector.N == n // 2 + (n % 2 == 1 and sign == 1)
        if n <= 64:  # the trace of the sector in an orthonormal basis of lifts
            basis = np.stack([sector_lift(sector, n, e) for e in np.eye(sector.N)], axis=1)
            assert sector.trace == pytest.approx(np.trace(basis.T @ kern.dense() @ basis),
                                                 rel=1e-12, abs=1e-12)
        for _ in range(3):
            u = rng.standard_normal(sector.N)
            v = sector_lift(sector, n, u)
            assert np.allclose(sector.project(v), u, rtol=1e-15, atol=1e-15)
            ref = kern.matvec(v)
            got = sector_lift(sector, n, sector.matvec(u))
            assert float(np.linalg.norm(got - ref)) <= 1e-14 * float(np.linalg.norm(ref))


def test_sector_maximum_matches_dense():
    for Q, k, mode in itertools.product(range(1, 9), (2, 3, 4), ("full", "dyadic")):
        for n in (2, 3, 4, 5, 16, 17, 64, 65, 256):
            kern = toeplitz_kernel(Q, n, k, mode)
            dense = dense_lambda_max(kern)
            res = power_iteration(kern)
            assert abs(res.value - dense) <= 1e-12 * dense, (Q, n, k, mode)


# (Q, k) full at N = 4096 and the sector tops (symmetric, antisymmetric):
# Delta lies in the antisymmetric sector at Q = 6, in the symmetric one at Q = 8
SECTOR_TOPS = {(6, 2): (4378.248376, 4380.148108), (8, 3): (11020.359290, 11012.814902)}


@pytest.mark.parametrize("Q, k", sorted(SECTOR_TOPS))
def test_delta_lies_in_either_sector(Q, k):
    kern = toeplitz_kernel(Q, 4096, k)
    tops = {sector.sign: sieve.sector_top(sector, start, 1e-8)
            for sector, start in sector_starts(kern)}
    assert (tops[1].value, tops[-1].value) == pytest.approx(SECTOR_TOPS[Q, k], abs=1e-6)
    res = power_iteration(kern)
    assert res == max(tops.values())._replace(iterations=tops[1].iterations
                                              + tops[-1].iterations)


def test_one_by_one_and_null_sectors():
    # N = 2: sectors c(0) + c(1) and c(0) - c(1); N = 3: the antisymmetric
    # sector is c(0) - c(2), here 8 above c(0) = 5 and the symmetric top 5.56
    for c, top in (([5.0, 2.0], 7.0), ([5.0, -2.0], 7.0), ([5.0, 1.0, -3.0], 8.0)):
        kern = ToeplitzKernel(np.array(c))
        assert dense_lambda_max(kern) == pytest.approx(top, rel=1e-15)
        assert power_iteration(kern).value == pytest.approx(top, rel=1e-15)
    anti = ParitySector(ToeplitzKernel(np.array([5.0, 1.0, -3.0])), -1)
    assert anti.N == 1
    assert sieve.sector_top(anti, np.array([-0.5]), 1e-8) == (8.0, 0.0, 1)
    # the antisymmetric sector of a rank-1 kernel is null: no product
    kern = ToeplitzKernel(np.full(64, 3.0))
    assert ParitySector(kern, -1).trace == 0.0
    ((sym, start),) = sector_starts(kern)
    assert sym.sign == 1
    assert power_iteration(kern) == sieve.sector_top(sym, start, 1e-8)


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
            rng.integers(-16, 17)  # a shift, drawn and dropped: it cannot change the form
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            norm_sq = np.sum(v.real ** 2 + v.imag ** 2)
            assert sigma_exact(s, v) <= lam * norm_sq * (1 + 1e-6)
            best_rayleigh = max(best_rayleigh, rayleigh_quotient(kern, v))
        assert best_rayleigh <= lam * (1 + 1e-9)


def test_sigma_equals_kernel_quadratic_form():
    rng = np.random.default_rng(47)
    for Q, k, mode in GRID:
        s = enumerate_system(Q, k, mode)
        for n in (4, 16):
            kern = toeplitz_kernel(Q, n, k, mode)
            for _ in range(10):
                values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                sig = sigma_exact(s, values)
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
