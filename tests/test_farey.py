from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sieve_lab.errors import CapacityError
from sieve_lab.farey import (PowerFareySystem, count_near, counting_rhs,
                             enumerate_system, stieltjes_integral)
from sieve_lab.sieve import CoefficientVector, sigma_exact_batch

from helpers import brute_count_near, brute_enumerate, int_points, totient


def make_singleton(a: int, q: int, k: int) -> PowerFareySystem:
    """A one-point system (used by the closed-form cross-checks)."""
    return PowerFareySystem(Q=q, k=k, mode="full",
                            numerators=np.array([a], dtype=np.int64),
                            bases=np.array([q], dtype=np.int64),
                            moduli=np.array([q ** k], dtype=np.int64))


def test_enumerate_examples():
    s = enumerate_system(2, 2, "dyadic")
    assert s.size == 14
    assert np.sum(s.bases == 3) == 6 and np.sum(s.bases == 4) == 8

    s = enumerate_system(2, 2, "full")
    assert int_points(s) == [(1, 4), (3, 4)]

    s = enumerate_system(1, 2, "dyadic")
    assert int_points(s) == [(1, 4), (3, 4)]


@pytest.mark.parametrize("mode", ["full", "dyadic"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerate_sizes_match_totient_sum(mode, k):
    for Q in range(1, 9):
        s = enumerate_system(Q, k, mode)
        qs = range(2, Q + 1) if mode == "full" else range(Q + 1, 2 * Q + 1)
        assert s.size == sum(q ** (k - 1) * totient(q) for q in qs)


@pytest.mark.parametrize("mode", ["full", "dyadic"])
def test_enumerate_matches_brute_force(mode):
    for Q in range(1, 5):
        for k in (2, 3):
            s = enumerate_system(Q, k, mode)
            got = list(zip(s.numerators.tolist(), s.bases.tolist()))
            assert got == brute_enumerate(Q, k, mode)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_system(0, 2, "full")
    with pytest.raises(ValueError):
        enumerate_system(2, 1, "full")
    with pytest.raises(ValueError):
        enumerate_system(2, 2, "half")
    with pytest.raises(CapacityError):
        enumerate_system(1 << 16, 2, "full")


def test_count_near_examples():
    s = enumerate_system(2, 2, "dyadic")
    assert count_near(s, Fraction(1, 9), 0) == 1
    assert count_near(s, Fraction(5, 16), 1) == s.size

    full = enumerate_system(2, 2, "full")
    assert count_near(full, Fraction(1, 4), 0.5) == 2  # the boundary point counts


def test_count_near_monotone_and_member_floor():
    rng = np.random.default_rng(5)
    for _ in range(20):
        Q = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        s = enumerate_system(Q, k, mode)
        if s.size == 0:
            continue
        idx = int(rng.integers(0, s.size))
        center = Fraction(int(s.numerators[idx]), int(s.moduli[idx]))
        assert count_near(s, center, 0) >= 1
        last = -1
        for x in sorted(rng.uniform(0, 1.2, size=8)):
            c = count_near(s, center, float(x))
            assert c >= last
            last = c
        assert count_near(s, center, 1) == s.size


def test_count_near_matches_fraction_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        Q = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        s = enumerate_system(Q, k, mode)
        center = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 50)))
        x = Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 100)))
        assert count_near(s, center, x) == brute_count_near(int_points(s), center, x)


def test_stieltjes_examples():
    single = make_singleton(1, 2, 2)
    for N in (2, 7, 10, 100):
        assert stieltjes_integral(single, Fraction(1, 4), N) == pytest.approx(N - 2, rel=1e-15)

    full = enumerate_system(2, 2, "full")
    assert stieltjes_integral(full, Fraction(1, 4), 4) == pytest.approx(2.0, rel=1e-15)

    with pytest.raises(ValueError):
        stieltjes_integral(full, Fraction(1, 4), 1)


def _quadrature_oracle(system, center: Fraction, N: int) -> float:
    """Adaptive quadrature of count_near(x)/x^2 over [1/N, 1/2], splitting at
    every jump of the step integrand."""
    jumps = sorted({float(abs(Fraction(a, qk) - center))
                    for a, qk in int_points(system)})
    inner = [x for x in jumps if 1.0 / N < x < 0.5]
    value, err = quad(lambda x: count_near(system, center, x) / x ** 2,
                      1.0 / N, 0.5, points=inner, limit=10 * (len(inner) + 10))
    return value


def test_stieltjes_matches_quadrature():
    rng = np.random.default_rng(29)
    done = 0
    while done < 50:
        Q = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        N = int(rng.integers(4, 513))
        s = enumerate_system(Q, k, mode)
        if s.size == 0:
            continue
        if rng.uniform() < 0.7:
            idx = int(rng.integers(0, s.size))
            center = Fraction(int(s.numerators[idx]), int(s.moduli[idx]))
        else:
            center = Fraction(int(rng.integers(0, 64)), int(rng.integers(1, 64)))
        exact = stieltjes_integral(s, center, N)
        approx = _quadrature_oracle(s, center, N)
        assert exact == pytest.approx(approx, rel=1e-6, abs=1e-9)
        done += 1


def test_counting_rhs_examples():
    single = make_singleton(1, 2, 2)  # modulus set {4}
    assert counting_rhs(single, 10, 1.0) == pytest.approx(24.0, rel=1e-15)

    full = enumerate_system(2, 2, "full")
    assert counting_rhs(full, 4, 1.0) == pytest.approx(18.0, rel=1e-15)
    assert counting_rhs(full, 4, 0.0) == 0.0


def test_counting_rhs_empty_system_is_zero():
    empty = enumerate_system(1, 2, "full")
    assert empty.size == 0
    assert counting_rhs(empty, 16, 1.0) == 0.0


def test_counting_rhs_matches_per_center_integrals():
    for Q, k, mode in [(2, 2, "full"), (2, 2, "dyadic"), (3, 3, "dyadic"), (4, 2, "full")]:
        s = enumerate_system(Q, k, mode)
        for N in (4, 64):
            want = 4.0 * sum(q ** k for q in s.distinct_bases()) + max(
                stieltjes_integral(s, Fraction(a, qk), N) for a, qk in int_points(s))
            assert counting_rhs(s, N, 1.0) == pytest.approx(want, rel=1e-12)


def test_counting_inequality_end_to_end():
    rng = np.random.default_rng(41)
    for Q in (1, 2, 3):
        for k in (2, 3):
            for mode in ("full", "dyadic"):
                s = enumerate_system(Q, k, mode)
                for N in (4, 16, 64):
                    rhs_unit = counting_rhs(s, N, 1.0)
                    vecs = []
                    for _ in range(100):
                        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                        vecs.append(CoefficientVector(int(rng.integers(-20, 21)), v))
                    for vec, lhs in zip(vecs, sigma_exact_batch(s, vecs)):
                        rhs = rhs_unit * vec.norm_sq
                        assert lhs <= rhs * (1 + 1e-9)
