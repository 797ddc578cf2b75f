import math
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest

from sieve_lab.arith import dirichlet_approx
from sieve_lab.regression import sample_alphas

from helpers import brute_dirichlet, fraction_convergents, fraction_dirichlet_approx, valid_pairs


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
