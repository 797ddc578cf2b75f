"""The numpy kernels against direct plain-Python oracles (see helpers.py)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sieve_lab import kernels
from sieve_lab.errors import CapacityError
from sieve_lab.farey import enumerate_system

from helpers import (brute_majorant, brute_sigma, brute_weyl_rational, class_majorant,
                     int_points, per_term_majorant)


@pytest.fixture(scope="module")
def system():
    return enumerate_system(3, 2, "dyadic")


@pytest.fixture(scope="module")
def vec():
    rng = np.random.default_rng(3)
    return rng.standard_normal(48) + 1j * rng.standard_normal(48)


def test_quadform_matches_brute_force(system, vec):
    # a scalar offset with a 1-D vector is a batch of one, returned as a float
    got = kernels.quadform(system.numerators, system.moduli, 5, vec)
    assert type(got) is float
    want = brute_sigma(int_points(system), 5, vec)
    assert got == pytest.approx(want, rel=1e-9)


BATCH_CASES = [
    # (Q, k, mode, N, offsets): each row against brute_sigma at its own
    # offset, which quadform does not read.  Every q^k folds
    (3, 2, "dyadic", 48, [-7, 5, 0, 64, -64]),
    # q^k = 8 folds; 27 and 64 exceed N = 16, so a row keeps its N columns
    (4, 3, "full", 16, [0, 0, 0]),
    # all offsets negative
    (4, 3, "full", 16, [-3, -20]),
    (3, 2, "full", 1, [-5, 0, 7]),
    (3, 3, "dyadic", 20, [-9]),
]


@pytest.mark.parametrize("Q,k,mode,n,offsets", BATCH_CASES)
def test_quadform_batch_matches_brute_force_per_row(Q, k, mode, n, offsets):
    s = enumerate_system(Q, k, mode)
    rng = np.random.default_rng([Q, k, n])
    vs = rng.standard_normal((len(offsets), n)) + 1j * rng.standard_normal((len(offsets), n))
    got = kernels.quadform(s.numerators, s.moduli, offsets, vs)
    assert got.shape == (len(offsets),)
    for b, m_off in enumerate(offsets):
        assert got[b] == pytest.approx(brute_sigma(int_points(s), m_off, vs[b]), rel=1e-12)


def test_quadform_does_not_depend_on_the_offset():
    # |e(a M / q^k)| = 1, so the shift M leaves the form as it is: q^k = 8 and
    # 27 fold, 64 exceeds N = 40
    s = enumerate_system(4, 3, "full")
    rng = np.random.default_rng(11)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    offsets = [-64, 0, 64]
    rows = kernels.quadform(s.numerators, s.moduli, offsets, np.stack([v] * 3)).tolist()
    singles = [kernels.quadform(s.numerators, s.moduli, m_off, v) for m_off in offsets]
    assert rows == [rows[0]] * 3 and singles == [singles[0]] * 3
    assert rows[0] == pytest.approx(singles[0], rel=1e-14)
    for m_off in offsets:
        assert singles[0] == pytest.approx(brute_sigma(int_points(s), m_off, v), rel=1e-12)


def test_quadform_batch_over_several_blocks(system, monkeypatch):
    rng = np.random.default_rng(5)
    offsets = rng.integers(-64, 65, 9)
    vs = rng.standard_normal((9, 20)) + 1j * rng.standard_normal((9, 20))
    whole = kernels.quadform(system.numerators, system.moduli, offsets, vs)
    # at most 64 elements per FFT step: 4, 2 and 1 rows a step at q^k = 16, 25, 36
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 64)
    blocked = kernels.quadform(system.numerators, system.moduli, offsets, vs)
    for b, m_off in enumerate(offsets.tolist()):
        want = brute_sigma(int_points(system), m_off, vs[b])
        assert blocked[b] == pytest.approx(want, rel=1e-12)
        assert blocked[b] == pytest.approx(whole[b], rel=1e-12)


def test_quadform_reads_the_transform_at_the_negated_numerator():
    # the one point 3/64 is not closed under a -> q^k - a, as every enumerated
    # system is, so only here does the index (-a) mod q^k differ from a; N = 100
    # folds into 64 columns with a remainder of 36
    nums, mods = np.array([3], dtype=np.int64), np.array([64], dtype=np.int64)
    rng = np.random.default_rng(64)
    vs = rng.standard_normal((2, 100)) + 1j * rng.standard_normal((2, 100))
    got = kernels.quadform(nums, mods, 0, vs)
    for b in range(2):
        assert got[b] == pytest.approx(brute_sigma([(3, 64)], 0, vs[b]), rel=1e-12)


def test_quadform_refuses_a_modulus_above_the_block(monkeypatch):
    # the transform is q^k long whatever N: the one point 1/2^22 at N = 8
    # would take a 64 MB row
    vs = np.ones(8, dtype=np.complex128)
    with pytest.raises(CapacityError, match="above the quadratic form's transform budget"):
        kernels.quadform(np.array([1], dtype=np.int64), np.array([1 << 22], dtype=np.int64),
                         0, vs)
    # a modulus of BLOCK_ELEMENTS is the largest taken
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 64)
    one = np.array([1], dtype=np.int64)
    assert kernels.quadform(one, np.array([64], dtype=np.int64), 0, vs) == pytest.approx(
        brute_sigma([(1, 64)], 0, vs), rel=1e-12)
    with pytest.raises(CapacityError):
        kernels.quadform(one, np.array([65], dtype=np.int64), 0, vs)


def test_quadform_batch_shapes():
    s = enumerate_system(2, 2, "dyadic")
    none = kernels.quadform(s.numerators, s.moduli, np.zeros(0, dtype=np.int64),
                            np.zeros((0, 4), dtype=np.complex128))
    assert none.shape == (0,)
    empty = enumerate_system(1, 2, "full")
    assert empty.size == 0
    rng = np.random.default_rng(1)
    vs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    assert kernels.quadform(empty.numerators, empty.moduli, [0, 0], vs).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0), (2, 2, 2), ()])
def test_quadform_rejects_an_empty_vector_and_other_shapes(shape):
    s = enumerate_system(2, 2, "dyadic")
    with pytest.raises(ValueError, match="1-D or"):
        kernels.quadform(s.numerators, s.moduli, 0, np.zeros(shape, dtype=np.complex128))


def test_weyl_float_matches_naive_at_small_sizes():
    # q**k stays tiny here, so the naive product-then-mod evaluation is accurate
    for alpha in (0.1234, 0.777, 1 / math.e):
        for k, Q in [(2, 8), (3, 5)]:
            naive = sum(np.exp(2j * np.pi * ((alpha * q ** k) % 1.0))
                        for q in range(Q + 1, 2 * Q + 1))
            got = kernels.weyl_float(alpha, k, Q, 2 * Q)
            assert got == pytest.approx(naive, abs=1e-9)


@pytest.mark.parametrize("num,den,k,q_lo,q_hi", [
    (1, 7, 2, 50, 100),          # q runs past den: q mod den matters
    (3, 11, 3, 33, 66),
    (0, 1, 2, 10, 20),
    (122, 123, 4, 20, 40),
    (2**31 - 2, 2**31 - 1, 3, 1000, 1200),   # den near 2^31: residues near the int64 limit
    (123456789, 2**31 - 1, 4, 5000, 5100),   # q^4 far above den
])
def test_weyl_rational_matches_exact_residues(num, den, k, q_lo, q_hi):
    got = kernels.weyl_rational(num, den, k, q_lo, q_hi)
    assert got == pytest.approx(brute_weyl_rational(num, den, k, q_lo, q_hi), abs=1e-9)


# the unit roundoff of float64
U = 2.0 ** -53


def majorant_roundoff(bqs):
    """8u times the absolute mass sum_q (pi^2/4)(1 + 2 floor(B_q))/B_q of a
    majorant sum, every |weight * cosine| being at most 1.

    The bound is fixed from u alone, before any run.  The class sums
    (helpers.class_majorant) and the per-term sum (helpers.per_term_majorant)
    take the same cosine doubles, one expression of the same integer residue,
    so they differ only in rounding the weights, the products and the
    additions.  To first order each rounds every term or class a few times (at
    most 6 roundings of a value <= its share of the mass) and adds them in
    numpy's pairwise order, whose error grows like u*sqrt(log m) for m addends
    in practice (u*log m in the worst case).  That puts each sum within 4u of
    the mass of the exact sum of the same cosines.  The closed form
    (kernels.majorant_sum) takes three sines per modulus instead, each of an
    argument reduced exactly into [0, pi/2] and so within a few u of its own
    size; the quotients S(2n+1)/S(1) <= 2n+1 and (S(n+1)/S(1))^2 <= (n+1)^2
    keep that relative error, and the factors |1 - (n+1)/B_q| <= 1/n and 1/B_q
    scale it back to the modulus's share of the mass.  On 3,300 random cases,
    s0 = 0 and floor(B_q) up to 3e6 (2^61 for r^k <= 5000) among them, the
    closed form's largest difference was 0.16 of the bound from the class sums
    and 0.20 of it from the per-term sum.
    """
    return 8 * U * sum(kernels.PI_SQ_OVER_4 * (1 + 2 * math.floor(bq)) / bq for bq in bqs)


@pytest.mark.parametrize("b,rk,mods,bqs", [
    (2, 9, [9, 16], [11.75, 6.6]),
    (5, 27, [8, 27, 64], [5.0, 0.75, 40.25]),       # integer B_q, and B_q < 1 (only a = 0)
    (2**31 - 4, 2**31 - 1, [2**31 - 2, 46337**2], [300.5, 97.0]),  # a*b*q^k beyond int64
    (3, 8, [4, 6], [50.5, 20.0]),                   # periods P = 2 and 4, far below n_a
    (1, 9, [9, 27, 18], [30.25, 3.0, 12.5]),        # q^k = 0 mod r^k: s0 = 0, P = 1
    (2, 9, [16], [40.5]),                           # P = 9 < floor(B_q) = 40
    (2, 9, [16], [5.5]),                            # P = 9 > floor(B_q) = 5: one term a class
    (2, 9, [16], [9.25]),                           # P = floor(B_q) = 9
    (2, 9, [16, 25], [27.5, 18.0]),                 # P = 9 divides floor(B_q) = 27 and 18
    (5, 2**31 - 1, [2**31 - 1, 3], [1000.5, 60.5]),  # r^k = 2^31 - 1: P = 1, then P = r^k
])
def test_majorant_sum_matches_direct_sum(b, rk, mods, bqs):
    want_value, want_main = brute_majorant(b, rk, mods, bqs)
    value, main = kernels.majorant_sum(b, rk, np.array(mods, dtype=np.int64),
                                       np.array(bqs, dtype=np.float64))
    assert main == pytest.approx(want_main, rel=1e-13)
    assert value == pytest.approx(want_value, rel=1e-12, abs=1e-12 * want_main)
    # the closed form against one cosine per term, within rounding
    term_value, term_main = per_term_majorant(b, rk, mods, bqs)
    assert main == term_main
    assert abs(value - term_value) <= majorant_roundoff(bqs)


# floor(B) near 2^40, and at 2^61, inside the int64 range that fourier_majorant's
# cap on the shortest truncation leaves every floor(B_q)
@pytest.mark.parametrize("bq", [2.0 ** 40 + 0.75, 2.0 ** 40 - 0.5, 3.0e12, 2.0 ** 61])
def test_majorant_sum_one_class_matches_fractions(bq):
    # q^k = 0 mod r^k, so s0 = 0 and every cosine is 1: the tail is the weight
    # sum n - n(n+1)/(2B) over n = floor(B) terms, far beyond a per-term sum,
    # checked here in exact rationals
    n, exact_b = math.floor(bq), Fraction(bq)
    tail = n - Fraction(n * (n + 1), 2) / exact_b
    want = Fraction(kernels.PI_SQ_OVER_4) / exact_b * (1 + 2 * tail)
    value, main = kernels.majorant_sum(3, 49, np.array([49, 98], dtype=np.int64),
                                       np.array([bq, bq], dtype=np.float64))
    assert main == 2 * (kernels.PI_SQ_OVER_4 / bq)
    assert abs(Fraction(value) - 2 * want) <= Fraction(majorant_roundoff([bq, bq]))


# Cases no per-term sum reaches, against the residue-class sums the closed form
# replaced: at most r^k cosines per modulus there, whatever floor(B_q).
@pytest.mark.parametrize("b,rk,mods,bqs", [
    # s0 = 12, 27, 26 != 0 at r^k = 49, floor(B_q) up to 2^61
    (3, 49, [4, 9, 25], [2.0 ** 61, 2.0 ** 40 + 0.75, 3.0e12]),
    # the smallest sine S(1): s0 = 1 and s0 = r^k - 1 at r^k = 2^31 - 1
    (1, 2**31 - 1, [1, 2**31 - 2], [123456.25, 1000.5]),
    (2**31 - 2, 2**31 - 1, [1, 2], [3.0e5, 77.75]),
    # (n+1)*s0 = 0 mod r^k (s0 = 7, n = 6; s0 = 1, n = 48), then
    # (2n+1)*s0 = 0 mod r^k (s0 = 7, n = 3; s0 = 1, n = 24 and 73)
    (1, 49, [7, 50, 7, 1, 99], [6.5, 48.0, 3.25, 24.75, 73.5]),
    # a B_q < 1 modulus (only a = 0) between two others
    (2, 27, [8, 64, 125], [30.5, 0.75, 12.25]),
])
def test_majorant_sum_matches_class_sums(b, rk, mods, bqs):
    mods, bqs = np.array(mods, dtype=np.int64), np.array(bqs, dtype=np.float64)
    value, main = kernels.majorant_sum(b, rk, mods, bqs)
    class_value, class_main = class_majorant(b, rk, mods, bqs)
    assert main == class_main
    assert abs(value - class_value) <= majorant_roundoff(bqs.tolist())
