"""The numpy kernels against direct plain-Python oracles (see helpers.py)."""

import math

import numpy as np
import pytest

from sieve_lab import kernels
from sieve_lab.farey import enumerate_system

from helpers import brute_majorant, brute_sigma, brute_weyl_rational, int_points


@pytest.fixture(scope="module")
def system():
    return enumerate_system(3, 2, "dyadic")


@pytest.fixture(scope="module")
def vec():
    rng = np.random.default_rng(3)
    return rng.standard_normal(48) + 1j * rng.standard_normal(48)


def test_quadform_matches_brute_force(system, vec):
    got = kernels.quadform(system.numerators, system.moduli, 5, vec)
    want = brute_sigma(int_points(system), 5, vec)
    assert got == pytest.approx(want, rel=1e-9)


BATCH_CASES = [
    # (Q, k, mode, N, offsets): every q^k folds
    (3, 2, "dyadic", 48, [-7, 5, 0, 64, -64]),
    # q^k = 8 folds; 27 and 64 exceed the span 16 and are placed unfolded
    (4, 3, "full", 16, [0, 0, 0]),
    # all offsets negative: span 16 + 17
    (4, 3, "full", 16, [-3, -20]),
    (3, 2, "full", 1, [-5, 0, 7]),
    (3, 3, "dyadic", 20, [-9]),
]


@pytest.mark.parametrize("Q,k,mode,n,offsets", BATCH_CASES)
def test_quadform_batch_matches_brute_force_per_row(Q, k, mode, n, offsets):
    s = enumerate_system(Q, k, mode)
    rng = np.random.default_rng([Q, k, n])
    vs = rng.standard_normal((len(offsets), n)) + 1j * rng.standard_normal((len(offsets), n))
    got = kernels.quadform_batch(s.numerators, s.moduli, offsets, vs)
    assert got.shape == (len(offsets),)
    for b, m_off in enumerate(offsets):
        assert got[b] == pytest.approx(brute_sigma(int_points(s), m_off, vs[b]), rel=1e-12)


def test_quadform_batch_over_several_blocks(system, monkeypatch):
    rng = np.random.default_rng(5)
    offsets = rng.integers(-64, 65, 9)
    vs = rng.standard_normal((9, 20)) + 1j * rng.standard_normal((9, 20))
    whole = kernels.quadform_batch(system.numerators, system.moduli, offsets, vs)
    # at most 64 elements per phase matrix or product: 1 to 4 points per block
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 64)
    blocked = kernels.quadform_batch(system.numerators, system.moduli, offsets, vs)
    for b, m_off in enumerate(offsets.tolist()):
        want = brute_sigma(int_points(system), m_off, vs[b])
        assert blocked[b] == pytest.approx(want, rel=1e-12)
        assert blocked[b] == pytest.approx(whole[b], rel=1e-12)


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


def _majorant_every_cos(b, rk, mods, bqs):
    """majorant_sum with one cosine per term (no period reuse), same blocks."""
    total = main = 0.0
    for qk, bq in zip(mods, bqs):
        s0 = (b * (qk % rk)) % rk
        tail = 0.0
        for start in range(1, int(bq) + 1, kernels.BLOCK_ELEMENTS):
            a = np.arange(start, min(start + kernels.BLOCK_ELEMENTS, int(bq) + 1),
                          dtype=np.int64)
            w = np.maximum(1.0 - a * (1.0 / bq), 0.0)
            tail += float(np.sum(w * np.cos(kernels.TWO_PI * (((a * s0) % rk) / rk))))
        total += kernels.PI_SQ_OVER_4 / bq * (1.0 + 2.0 * tail)
        main += kernels.PI_SQ_OVER_4 / bq
    return total, main


@pytest.mark.parametrize("b,rk,mods,bqs", [
    (2, 9, [9, 16], [11.75, 6.6]),
    (5, 27, [8, 27, 64], [5.0, 0.75, 40.25]),       # integer B_q, and B_q < 1 (only a = 0)
    (2**31 - 4, 2**31 - 1, [2**31 - 2, 46337**2], [300.5, 97.0]),  # a*b*q^k beyond int64
    (3, 8, [4, 6], [50.5, 20.0]),                   # periods P = 2 and 4, far below n_a
    (1, 9, [9, 27, 18], [30.25, 3.0, 12.5]),        # q^k = 0 mod r^k: s0 = 0, P = 1
    (2, 9, [16], [40.5]),                           # P = 9, between patched block sizes
])
def test_majorant_sum_matches_direct_sum(b, rk, mods, bqs, monkeypatch):
    want_value, want_main = brute_majorant(b, rk, mods, bqs)
    # one block per modulus, then blocks of 7, 3 and 1 terms (below and above
    # every period P here) with a shorter last one
    for block in (kernels.BLOCK_ELEMENTS, 7, 3, 1):
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", block)
        value, main = kernels.majorant_sum(b, rk, np.array(mods, dtype=np.int64),
                                           np.array(bqs, dtype=np.float64))
        assert main == pytest.approx(want_main, rel=1e-13)
        assert value == pytest.approx(want_value, rel=1e-12, abs=1e-12 * want_main)
        # the period reuse repeats the cosines of the same integer residues:
        # the same doubles as one cosine per term
        assert (value, main) == _majorant_every_cos(b, rk, mods, bqs)
