from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sieve_lab import farey
from sieve_lab.errors import CapacityError
from sieve_lab.farey import (PowerFareySystem, count_near, counting_rhs, enumerate_system,
                             is_member, system_point)
from sieve_lab.sieve import CoefficientVector, sigma_exact_batch

from helpers import (brute_count_near, brute_enumerate, int_points, stieltjes_integral,
                     totient)


def make_singleton(a: int, q: int, k: int) -> PowerFareySystem:
    """A one-point system (used by the closed-form cross-checks)."""
    return PowerFareySystem(Q=q, k=k, mode="full",
                            numerators=np.array([a], dtype=np.int64),
                            moduli=np.array([q ** k], dtype=np.int64))


def test_enumerate_examples():
    s = enumerate_system(2, 2, "dyadic")
    assert s.size == 14
    assert np.sum(s.moduli == 9) == 6 and np.sum(s.moduli == 16) == 8

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
        assert farey.system_size(Q, k, mode) == s.size


@pytest.mark.parametrize("mode", ["full", "dyadic"])
def test_enumerate_matches_brute_force(mode):
    for Q in range(1, 5):
        for k in (2, 3):
            s = enumerate_system(Q, k, mode)
            assert int_points(s) == [(a, q ** k) for a, q in brute_enumerate(Q, k, mode)]


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_system(0, 2, "full")
    with pytest.raises(ValueError):
        enumerate_system(2, 1, "full")
    with pytest.raises(ValueError):
        enumerate_system(2, 2, "half")
    with pytest.raises(CapacityError):
        enumerate_system(1 << 16, 2, "full")


def test_point_budget_is_the_exact_size(monkeypatch):
    for Q, k, mode in [(6, 3, "full"), (4, 2, "dyadic")]:
        qs = range(1, Q + 1) if mode == "full" else range(Q + 1, 2 * Q + 1)
        size = sum(totient(q) * q ** (k - 1) for q in qs if q > 1)
        monkeypatch.setattr(farey, "POINT_BUDGET", size)
        assert enumerate_system(Q, k, mode).size == farey.budgeted_size(Q, k, mode) == size
        monkeypatch.setattr(farey, "POINT_BUDGET", size - 1)
        with pytest.raises(CapacityError):
            enumerate_system(Q, k, mode)
        with pytest.raises(CapacityError, match=f"above the budget of {size - 1}"):
            farey.budgeted_size(Q, k, mode)


@pytest.mark.parametrize("mode", ["full", "dyadic"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_system_point_is_the_enumerated_point(mode, k):
    # every index of systems from empty up to 32702 points (Q = 6, k = 4 dyadic);
    # q^k determines q, so the pairs compare through the moduli
    for Q in range(1, 7 if (k, mode) == (4, "dyadic") else 6):
        s = enumerate_system(Q, k, mode)
        got = [system_point(Q, k, mode, i) for i in range(s.size)]
        assert [(a, q ** k) for a, q in got] == int_points(s), (Q, k, mode)
        for idx in (-1, s.size):
            with pytest.raises(IndexError):
                system_point(Q, k, mode, idx)


def test_count_near_examples():
    s = enumerate_system(2, 2, "dyadic")
    assert count_near(2, 2, "dyadic", Fraction(1, 9), 0) == 1
    assert count_near(2, 2, "dyadic", Fraction(5, 16), 1) == s.size

    assert count_near(2, 2, "full", Fraction(1, 4), 0.5) == 2  # the boundary point counts


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
        assert count_near(Q, k, mode, center, 0) >= 1
        last = -1
        for x in sorted(rng.uniform(0, 1.2, size=8)):
            c = count_near(Q, k, mode, center, float(x))
            assert c >= last
            last = c
        assert count_near(Q, k, mode, center, 1) == s.size


# Corners of Q <= 12, k <= 4 in both modes, up to 33824 points: the Fraction
# oracle takes about 6 us a point, so each system stays under 0.2 s a query.
EDGE_SYSTEMS = [(1, 2, "full"), (2, 4, "full"), (12, 2, "full"), (12, 3, "full"),
                (12, 4, "full"), (1, 2, "dyadic"), (1, 4, "dyadic"), (12, 2, "dyadic"),
                (6, 3, "dyadic"), (4, 4, "dyadic")]


def test_count_near_matches_fraction_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        Q = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        s = enumerate_system(Q, k, mode)
        center = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 50)))
        x = Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 100)))
        assert count_near(Q, k, mode, center, x) == brute_count_near(int_points(s), center, x)

    tiny = Fraction(1, 10 ** 30)
    for Q, k, mode in EDGE_SYSTEMS:
        s = enumerate_system(Q, k, mode)
        pts = int_points(s)
        queries = [(Fraction(1, 3), 0), (Fraction(1, 3), 0.0),      # x = 0
                   (Fraction(1, 2), 1), (Fraction(2, 9), 1.0),      # x >= 1
                   (Fraction(-2, 7), Fraction(7, 2)),
                   (Fraction(-1, 5), Fraction(1, 4)),               # centers outside [0, 1]
                   (Fraction(6, 5), Fraction(3, 10)), (Fraction(3), Fraction(2))]
        if pts:
            a, qk = pts[int(rng.integers(len(pts)))]
            b, rk = pts[int(rng.integers(len(pts)))]
            member = Fraction(a, qk)
            other = Fraction(int(rng.integers(-20, 70)), int(rng.integers(1, 50)))
            for center in (member, other):
                # the radius is exactly the distance to the point b/r^k, which
                # counts at x (the <= boundary) and drops out just below it
                x = abs(Fraction(b, rk) - center)
                queries += [(center, x), (center, max(x - tiny, 0))]
            queries.append((member, 0))
        for center, x in queries:
            got = count_near(Q, k, mode, center, x)
            assert got == brute_count_near(pts, center, Fraction(x)), (Q, k, mode, center, x)


def test_is_member_matches_enumeration():
    for Q, k, mode in EDGE_SYSTEMS:
        s = enumerate_system(Q, k, mode)
        members = set(int_points(s))
        # every base of the system, one below the lowest and one above the top
        lowest = 2 if mode == "full" else Q + 1
        top = Q if mode == "full" else 2 * Q
        for r in range(lowest - 1, top + 2):
            for b in range(-1, r ** k + 1):
                assert is_member(Q, k, mode, b, r) == ((b, r ** k) in members), (Q, k, mode, b, r)


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
    value, err = quad(lambda x: count_near(system.Q, system.k, system.mode, center, x) / x ** 2,
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
    assert counting_rhs(single, 10) == pytest.approx(24.0, rel=1e-15)

    full = enumerate_system(2, 2, "full")
    assert counting_rhs(full, 4) == pytest.approx(18.0, rel=1e-15)


def test_counting_rhs_empty_system_is_zero():
    empty = enumerate_system(1, 2, "full")
    assert empty.size == 0
    assert counting_rhs(empty, 16) == 0.0


def test_pair_budget_is_the_exact_square(monkeypatch):
    s = enumerate_system(3, 2, "full")  # 8 points, 64 pairs
    monkeypatch.setattr(farey, "PAIR_BUDGET", s.size ** 2)
    assert counting_rhs(s, 16) > 0
    monkeypatch.setattr(farey, "PAIR_BUDGET", s.size ** 2 - 1)
    with pytest.raises(CapacityError, match="above the budget of 63"):
        counting_rhs(s, 16)


def test_counting_rhs_matches_per_center_integrals():
    for Q, k, mode in [(2, 2, "full"), (2, 2, "dyadic"), (3, 3, "dyadic"), (4, 2, "full")]:
        s = enumerate_system(Q, k, mode)
        for N in (4, 64):
            want = 4.0 * sum(set(s.moduli.tolist())) + max(
                stieltjes_integral(s, Fraction(a, qk), N) for a, qk in int_points(s))
            assert counting_rhs(s, N) == pytest.approx(want, rel=1e-12)


def test_counting_inequality_end_to_end():
    rng = np.random.default_rng(41)
    for Q in (1, 2, 3):
        for k in (2, 3):
            for mode in ("full", "dyadic"):
                s = enumerate_system(Q, k, mode)
                for N in (4, 16, 64):
                    rhs_unit = counting_rhs(s, N)
                    vecs = []
                    for _ in range(100):
                        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                        vecs.append(CoefficientVector(int(rng.integers(-20, 21)), v))
                    for vec, lhs in zip(vecs, sigma_exact_batch(s, vecs)):
                        rhs = rhs_unit * vec.norm_sq
                        assert lhs <= rhs * (1 + 1e-9)
