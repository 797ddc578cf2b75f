import math
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest

from sieve_lab import arith, sieve
from sieve_lab.arith import (DEFAULT_SEED, dirichlet_approx, gaussian_pairs, integers,
                             splitmix64, uniforms)
from sieve_lab.regression import sample_alphas

from helpers import (brute_dirichlet, fraction_convergents, fraction_dirichlet_approx,
                     keyed_gaussian_pairs, keyed_integers, keyed_uniforms, keyed_words,
                     valid_pairs)

# (seed, key, first word, count): the empty key, keys as lemma1 and majorant
# build them, the largest seed, and an odd first and count that span three
# of gaussian_pairs' blocks
STREAMS = [(DEFAULT_SEED, (), 0, 64), (1, (0, 3), 5, 9), (7, (2, 3, 4, 64, 1), 1000, 33),
           ((1 << 64) - 1, (3, 2, 12, 0, 1), 0, 5), (0, (1,), 1 << 40, 3),
           (5, (2, 2, 3, 17, 0), 4099, 2 * arith.BLOCK_PAIRS + 3)]


def test_dirichlet_exact_rational():
    got = dirichlet_approx(Fraction(1, 3), 10)
    assert (got.u, got.v, got.residual) == (1, 3, 0.0)


def test_dirichlet_pi():
    got = dirichlet_approx(math.pi, 113)
    assert (got.u, got.v) == (355, 113)
    # value frozen from the brute-force scan over 1 <= v <= 113, u = round(v*pi)
    assert got.residual == pytest.approx(3.014435338855037e-05, rel=1e-9)


def test_dirichlet_sqrt2():
    got = dirichlet_approx(math.sqrt(2), 5)
    assert (got.u, got.v) == (7, 5)
    assert got.residual == pytest.approx(0.0710678118654755, rel=1e-12)


def test_dirichlet_matches_brute_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        alpha = float(rng.uniform(-3, 3))
        bound = int(rng.integers(1, 250))
        got = dirichlet_approx(alpha, bound)
        _, _, best_res = brute_dirichlet(alpha, bound)
        assert 1 <= got.v <= bound
        assert math.gcd(got.u, got.v) == 1
        assert got.residual <= best_res + 1e-12
        assert got.residual <= 1.0 / bound + 1e-12
        assert abs(got.v * alpha - got.u) == got.residual


def test_dirichlet_random_rationals_hit_zero():
    rng = np.random.default_rng(31)
    for _ in range(200):
        bound = int(rng.integers(2, 200))
        den = int(rng.integers(1, bound + 1))
        num = int(rng.integers(-3 * den, 3 * den + 1))
        got = dirichlet_approx(Fraction(num, den), bound)
        assert got.residual == 0.0
        assert got.v <= bound


def test_dirichlet_minimal_among_valid_pairs():
    rng = np.random.default_rng(37)
    for _ in range(100):
        alpha = float(rng.uniform(0, 1))
        bound = int(rng.integers(2, 120))
        got = dirichlet_approx(alpha, bound)
        for _, _, res in valid_pairs(alpha, bound):
            assert got.residual <= res + 1e-12


def test_dirichlet_equals_the_fraction_version_on_the_sample_alphas():
    # the integer ranking |v*num - u*den| picks the pair the exact Fraction
    # residuals pick, and the residual is computed the same way: equal, not close.
    # Each alpha's convergents with v <= 512 are built once.
    for seed in (0xC0FFEE, 1, 7):
        for _, alpha in sample_alphas(seed):
            convergents = list(takewhile(lambda c: c[1] <= 512, fraction_convergents(alpha)))
            for bound in range(1, 513):
                got = dirichlet_approx(alpha, bound)
                want = fraction_dirichlet_approx(alpha, bound, convergents)
                assert tuple(got) == want, (alpha, bound)


@pytest.mark.parametrize("alpha", [
    0, 1, 7, -3, 2 ** 70,                                   # ints
    Fraction(-3, 7), Fraction(-355, 113), Fraction(-1, 2 ** 31 - 1),  # negative Fractions
    Fraction(12345, 2 ** 31 - 1), Fraction(2 ** 31 - 2, 2 ** 31 - 1),  # den 2^31 - 1
    5e-324, 1e-300, -1e-17, 1e-9,                           # tiny floats
    1e300, -1e22, 2.0 ** 60 + 2.0 ** 8, 1.7976931348623157e308,  # huge floats
])
def test_dirichlet_equals_the_fraction_version_at_the_edges(alpha):
    for bound in (1, 2, 3, 7, 113, 512, 10 ** 6, 2 ** 31, 2 ** 62):
        got = dirichlet_approx(alpha, bound)
        assert tuple(got) == fraction_dirichlet_approx(alpha, bound), (alpha, bound)


@pytest.mark.parametrize("seed, key, first, count", STREAMS)
def test_keyed_stream_matches_python_int_reference(seed, key, first, count):
    words = splitmix64(seed, key, first, count)
    assert words.dtype == np.uint64
    assert words.tolist() == keyed_words(seed, key, first, count)
    # every uniform is an exact double
    assert uniforms(seed, key, first, count).tolist() == keyed_uniforms(seed, key, first, count)


def _draw(seed, key, first, count):
    """gaussian_pairs into a new array of count entries."""
    return gaussian_pairs(seed, key, first, np.empty(count, dtype=np.complex128))


@pytest.mark.parametrize("seed, key, first, count", STREAMS)
def test_gaussian_pairs_match_python_int_reference(seed, key, first, count):
    # drawn into a slice at an odd offset of a larger array, which it fills
    # and returns, leaving the entries on either side as they were
    fill = 7.0 - 3.0j
    big = np.full(count + 8, fill)
    got = gaussian_pairs(seed, key, first, big[3:3 + count])
    assert np.shares_memory(got, big) and got.shape == (count,)
    assert big[:3].tolist() == [fill] * 3 and big[3 + count:].tolist() == [fill] * 5
    want = np.array(keyed_gaussian_pairs(seed, key, first, count))
    np.testing.assert_allclose(got.real, want[:, 0], rtol=1e-15, atol=0)
    np.testing.assert_allclose(got.imag, want[:, 1], rtol=1e-15, atol=0)
    # pair i depends on i alone: a draw from a later first pair is a suffix
    assert _draw(seed, key, first + 2, count - 2).tobytes() == got[2:].tobytes()


def _gaussian_pairs_before_in_place(seed, key, first, count):
    """Both halves as gaussian_pairs computed them before it drew in place:
    the uniforms of words 2 first .. 2 (first + count) - 1 of the Python-int
    stream, then one numpy expression per half."""
    z = np.array(keyed_words(seed, key, 2 * first, 2 * count), dtype=np.uint64)
    u = ((z >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    return radius * np.cos(angle), radius * np.sin(angle)


@pytest.mark.parametrize("seed, key, first, count", [
    (1, (2, 3, 5, 1024, 0), 0, 2 * arith.BLOCK_PAIRS + 1),
    (7, (3, 2, 12, 0, 1), 4097, 3001),
    ((1 << 64) - 1, (0, 0), 1 << 40, 5),
])
def test_gaussian_pairs_are_the_earlier_formula_bit_for_bit(seed, key, first, count):
    # both halves, so every seeded lemma1 record stays byte-identical
    got = _draw(seed, key, first, count)
    cos_half, sin_half = _gaussian_pairs_before_in_place(seed, key, first, count)
    assert got.real.tobytes() == cos_half.tobytes()
    assert got.imag.tobytes() == sin_half.tobytes()


def _start_vector_before_the_keyed_stream(n):
    """The Lanczos start as the eigensolver drew it before the keyed stream:
    Box-Muller on splitmix64 counters 1..2n from 0xC0FFEE, in numpy."""
    z = np.arange(1, 2 * n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(0xC0FFEE)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = ((z >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * np.pi * u[1::2])


@pytest.mark.parametrize("n", [1, 7, 1000, 8193])
def test_default_seed_with_the_empty_key_is_the_earlier_start_vector(n):
    # bit for bit, so every default-seed constant, fit and crossover record
    # and the frozen delta_ratio_max stay byte-identical
    want = _start_vector_before_the_keyed_stream(n).tobytes()
    assert _draw(DEFAULT_SEED, (), 0, n).real.tobytes() == want
    assert sieve.start_vector(n).tobytes() == want
    assert splitmix64(DEFAULT_SEED, (), 0, 2 * n).tolist() == keyed_words(0xC0FFEE, (), 0, 2 * n)


def test_gaussian_pairs_halves_are_independent_standard_normals():
    # each half's mean, variance and excess kurtosis, and the halves'
    # correlation, within 5 sigma of independent N(0, 1)'s
    n = 1 << 18
    pairs = _draw(3, (2, 1), 0, n)
    cos_half, sin_half = pairs.real, pairs.imag
    for x in (cos_half, sin_half):
        mean, var = x.mean(), x.var()
        assert abs(mean) < 5.0 * math.sqrt(1.0 / n)
        assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / n)
        assert abs(np.mean((x - mean) ** 4) / var ** 2 - 3.0) < 5.0 * math.sqrt(24.0 / n)
    assert abs(np.mean(cos_half * sin_half)) < 5.0 * math.sqrt(1.0 / n)


@pytest.mark.parametrize("bound", [1, 2, 7, 511, 1000, [511, 1, 28, 2 ** 24, 2 ** 32, 3]])
def test_integers_match_the_reference_and_stay_in_range(bound):
    count = 6 if isinstance(bound, list) else 500
    bounds = bound if isinstance(bound, list) else [bound] * count
    got = integers(11, (0, 1), bound, count)
    assert got.dtype == np.int64
    assert got.tolist() == keyed_integers(11, (0, 1), bounds)[0]
    assert np.all((0 <= got) & (got < np.array(bounds)))


def test_integers_pass_a_chi_square_test_at_a_non_power_of_two_bound():
    # 200 expected per value; the statistic lies within 5 sigma of its mean
    # df, sigma = sqrt(2 df)
    bound, n = 1000, 200_000
    counts = np.bincount(integers(DEFAULT_SEED, (0, 0), bound, n), minlength=bound)
    assert counts.shape == (bound,)
    expected = n / bound
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    df = bound - 1
    assert abs(chi2 - df) < 5.0 * math.sqrt(2.0 * df), chi2


def test_integers_take_the_reject_branch():
    # at b = 2^31 + 1 a candidate is rejected with probability (2^31 - 1) / 2^32,
    # so entries reach the high half of their word and later words i + count
    bound, count = (1 << 31) + 1, 1000
    want, rejected = keyed_integers(5, (3, 1), [bound] * count)
    assert rejected > 400
    assert integers(5, (3, 1), bound, count).tolist() == want


@pytest.mark.parametrize("bound", [0, -1, (1 << 32) + 1, [3, 0]])
def test_integers_reject_a_bound_outside_the_32_bit_range(bound):
    with pytest.raises(ValueError, match="bound"):
        integers(1, (), bound, 2)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_stream_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        splitmix64(seed, (), 0, 1)
