"""Lane equivalence: every numba kernel must agree with its numpy twin."""

import math

import numpy as np
import pytest

from sieve_lab import kernels
from sieve_lab.farey import enumerate_system

from helpers import brute_sigma, int_points

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")


@pytest.fixture(scope="module")
def system():
    return enumerate_system(3, 2, "dyadic")


@pytest.fixture(scope="module")
def vec():
    rng = np.random.default_rng(3)
    return rng.standard_normal(48) + 1j * rng.standard_normal(48)


@needs_numba
def test_quadform_lanes_agree(system, vec):
    a = kernels.quadform_numba(system.numerators, system.moduli, -7, vec)
    b = kernels.quadform_numpy(system.numerators, system.moduli, -7, vec)
    assert a == pytest.approx(b, rel=1e-11)


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


@needs_numba
def test_autocorr_lanes_agree(system):
    a = kernels.autocorr_loop(system.numerators, system.moduli, 40)
    b = kernels.autocorr_numpy(system.numerators, system.moduli, 40)
    assert np.max(np.abs(a - b)) < 1e-11


@needs_numba
def test_weyl_rational_lanes_agree():
    for num, den, k, Q in [(1, 7, 2, 50), (3, 11, 3, 33), (0, 1, 2, 10), (122, 123, 4, 20)]:
        a = kernels.weyl_rational_numba(num, den, k, Q, 2 * Q)
        b = kernels.weyl_rational_numpy(num, den, k, Q, 2 * Q)
        assert a == pytest.approx(b, abs=1e-11)


@needs_numba
def test_weyl_float_lanes_agree():
    for alpha, k, Q in [(math.pi % 1, 2, 64), (0.123456789, 3, 32), (0.9999, 4, 16)]:
        a = kernels.weyl_float_numba(alpha, k, Q, 2 * Q)
        b = kernels.weyl_float_numpy(alpha, k, Q, 2 * Q)
        assert a == pytest.approx(b, abs=1e-11)


def test_weyl_float_matches_naive_at_small_sizes():
    # q**k stays tiny here, so the naive product-then-mod evaluation is accurate
    for alpha in (0.1234, 0.777, 1 / math.e):
        for k, Q in [(2, 8), (3, 5)]:
            naive = sum(np.exp(2j * np.pi * ((alpha * q ** k) % 1.0))
                        for q in range(Q + 1, 2 * Q + 1))
            got = kernels.weyl_float(alpha, k, Q, 2 * Q)
            assert got == pytest.approx(naive, abs=1e-9)


@needs_numba
def test_majorant_lanes_agree():
    mods = np.array([9, 16], dtype=np.int64)
    bqs = np.array([11.75, 6.6], dtype=np.float64)
    a = kernels.majorant_numba(2, 9, mods, bqs)
    b = kernels.majorant_numpy(2, 9, mods, bqs)
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == pytest.approx(b[1], rel=1e-12)


@needs_numba
def test_pairwise_integral_lanes_agree(system):
    for n in (4, 64, 256):
        a = kernels.pairwise_integral_max_numba(system.numerators, system.moduli, n)
        b = kernels.pairwise_integral_max_numpy(system.numerators, system.moduli, n)
        assert a == pytest.approx(b, rel=1e-12)


def test_lane_flag_env(monkeypatch):
    monkeypatch.setenv("SIEVE_LAB_NO_NUMBA", "1")
    assert kernels.numba_disabled_by_env()
    monkeypatch.setenv("SIEVE_LAB_NO_NUMBA", "0")
    assert not kernels.numba_disabled_by_env()
    monkeypatch.delenv("SIEVE_LAB_NO_NUMBA")
    assert not kernels.numba_disabled_by_env()
