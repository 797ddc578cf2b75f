import math
from fractions import Fraction

import numpy as np
import pytest

from sieve_lab import expsums, kernels
from sieve_lab.arith import ApproxPair
from sieve_lab.errors import CapacityError
from sieve_lab.bounds import BoundParams, delta_exponent
from sieve_lab.expsums import (check_weyl_table, fourier_majorant, min_sum, min_sum_bound,
                               weyl_min_sum_bound, weyl_sum)
from sieve_lab.farey import count_near, enumerate_system, system_point
from sieve_lab.regression import sample_alphas, weyl_ratio_rows

from helpers import brute_count_near, brute_min_sum, int_points, valid_pairs


def test_weyl_sum_examples():
    assert weyl_sum([0], 5, 2)[0] == pytest.approx(5 + 0j, abs=1e-12)
    assert weyl_sum([Fraction(1, 2)], 4, 2)[0] == pytest.approx(0j, abs=1e-12)
    assert weyl_sum([Fraction(1, 4)], 2, 2)[0] == pytest.approx(1 + 1j, abs=1e-12)


def test_weyl_sum_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(60):
        Q = int(rng.integers(1, 80))
        k = int(rng.integers(2, 5))
        if rng.uniform() < 0.5:
            alpha = Fraction(int(rng.integers(0, 100)), int(rng.integers(1, 100)))
        else:
            alpha = float(rng.uniform(0, 2))
        assert abs(weyl_sum([alpha], Q, k)[0]) <= Q * (1 + 1e-12)


def test_weyl_sum_alpha_periodicity():
    # rational path: identical reduced numerator, so exactly equal
    a = weyl_sum([Fraction(3, 7)], 30, 2)[0]
    b = weyl_sum([Fraction(3, 7) + 1], 30, 2)[0]
    assert a == b
    # float path: reduced mod 1 first
    x = weyl_sum([0.3183098861837907], 20, 3)[0]
    y = weyl_sum([1.3183098861837907], 20, 3)[0]
    assert x == pytest.approx(y, abs=1e-10)


def test_weyl_sum_rational_vs_float_path():
    for num, den, k, Q in [(1, 7, 2, 16), (5, 13, 3, 9), (2, 9, 4, 5)]:
        exact = weyl_sum([Fraction(num, den)], Q, k)[0]
        floated = weyl_sum([num / den], Q, k)[0]
        assert exact == pytest.approx(floated, abs=1e-8)


def test_weyl_sum_capacity():
    with pytest.raises(CapacityError):
        weyl_sum([Fraction(1, (1 << 31) + 1)], 4, 2)
    with pytest.raises(CapacityError):
        weyl_sum([0.123], 5000, 4)  # (2Q)^4 tops 2^53


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_degrees_below_two_are_refused(k):
    # k = -1 used to give delta = 1/4 and sum e(alpha) per row; k = 0 and 1
    # divided by zero in delta_exponent
    message = f"degree k must be >= 2, got {k}"
    for call in (lambda: delta_exponent(k), lambda: BoundParams(4, 4, k),
                 lambda: weyl_sum([Fraction(1, 3), 0.5], 4, k),
                 lambda: weyl_min_sum_bound([Fraction(1, 3), 0.5], 4, k, 0.05),
                 lambda: check_weyl_table([Fraction(1, 3), 0.5], [2, k], [4], 0.05)):
        with pytest.raises(ValueError, match=message):
            call()


def test_weyl_bounds_reject_powers_above_the_float_range():
    # 256^200 = 2^1600; 256^128 = 2^1024 is the first power of 256 past the range
    for Q, k in [(256, 200), (256, 128)]:
        with pytest.raises(CapacityError, match="above the float range"):
            weyl_min_sum_bound([Fraction(1, 3)], Q, k, 0.05)
    assert weyl_min_sum_bound([Fraction(1, 3)], 256, 127, 0.0)[0] > 0
    # Q^(1+eps) = 4^1001 with Q^k = 16
    with pytest.raises(CapacityError, match=r"4\^1001.0 is above the float range"):
        weyl_min_sum_bound([Fraction(1, 3)], 4, 2, 1000.0)
    # Q^(1+eps) = 4^511.9 = 2^1023.8 fits; times (1/Q + s/Q^k)^delta the bound
    # is above the float range for alpha = 0 only.  The table check, which
    # sums nothing, cannot see it.
    alphas = [Fraction(1, 3), 0.5, 0]
    check_weyl_table(alphas, [2], [4], 510.9)
    assert np.isfinite(weyl_min_sum_bound(alphas[:2], 4, 2, 510.9)).all()
    with pytest.raises(CapacityError, match=r"^Weyl bound at Q = 4, k = 2, eps = 510.9 "
                                            r"is above the float range$"):
        weyl_min_sum_bound(alphas, 4, 2, 510.9)


def test_weyl_min_sum_bound_examples():
    assert weyl_min_sum_bound([0], 2, 2, 0.0)[0] == pytest.approx(
        2 * 2 ** 0.25, rel=1e-12)
    assert weyl_min_sum_bound([Fraction(1, 2)], 1, 2, 0.0)[0] == pytest.approx(
        2 ** 0.25, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0, 1))
        k = int(rng.integers(2, 5))
        assert weyl_min_sum_bound([alpha], 1, k, 0.0)[0] >= 1.0 - 1e-12


def test_min_sum_examples():
    assert min_sum([0, Fraction(1, 2), Fraction(1, 3)], [2, 2, 3], [3, 2, 1]).tolist() == \
        pytest.approx([9.0, 4.0, 5.5], rel=1e-15)
    with pytest.raises(ValueError):
        min_sum([0.5], [0.5], [2])


# alphas past the sampled ones: integers, negatives, exact zero distances on
# the float path, and the largest denominator the exact path takes
EDGE_ALPHAS = [0, 3, -2, Fraction(-3, 7), Fraction(-1000, 2 ** 31 - 1),
               Fraction(12345, 2 ** 31 - 1), Fraction(2 ** 31 - 2, 2 ** 31 - 1),
               0.0, 0.5, 0.25, -0.37, -math.pi, 1e-9]
MIN_SUM_XY = [(1.0, 1.0), (1.0, 250.5), (2.5, 7.3), (100.0, 3.0), (511.75, 480.5)]


def _oracle_alphas():
    return [a for seed in (0xC0FFEE, 1, 7) for _, a in sample_alphas(seed)] + EDGE_ALPHAS


def test_min_sum_equals_the_term_by_term_loop():
    # the same double, not an approximation: the vectorised pass must add the
    # terms in the loop's order
    for alpha in _oracle_alphas():
        for X, Y in MIN_SUM_XY:
            assert min_sum([alpha], [X], [Y])[0] == brute_min_sum(
                alpha, math.floor(X), X * Y), (alpha, X, Y)


def test_weyl_min_sum_bound_equals_the_term_by_term_loop():
    eps = 0.05
    for alpha in _oracle_alphas():
        for k in (2, 3, 4):
            delta = 1.0 / (2 * k * (k - 1))
            for Q in (1, 4, 64, 1024):
                qk = float(Q) ** k
                want = Q ** (1.0 + eps) * (1.0 / Q + brute_min_sum(alpha, Q, qk) / qk) ** delta
                assert weyl_min_sum_bound([alpha], Q, k, eps)[0] == want, (
                    alpha, k, Q)


def test_batches_equal_their_rows(monkeypatch):
    # row-blocked passes over mixed rational and float rows give each row the
    # double its batch of one gives, whatever the pass size and whatever else
    # is in the batch
    alphas = _oracle_alphas()[::7]
    rng = np.random.default_rng(9)
    xs = rng.uniform(1.0, 300.0, len(alphas)).tolist()
    ys = rng.uniform(1.0, 300.0, len(alphas)).tolist()
    for terms in (kernels.ROW_BLOCK_TERMS, 97, 1):
        monkeypatch.setattr(kernels, "ROW_BLOCK_TERMS", terms)
        assert min_sum(alphas, xs, ys).tolist() == [
            brute_min_sum(a, math.floor(X), X * Y) for a, X, Y in zip(alphas, xs, ys)]
        for k, Q in [(2, 1), (3, 64), (4, 200)]:
            sums = weyl_sum(alphas, Q, k).tolist()
            bounds = weyl_min_sum_bound(alphas, Q, k, 0.05)
            for a, s, bound in zip(alphas, sums, bounds):
                assert s == weyl_sum([a], Q, k)[0], (a, k, Q)
                assert bound == weyl_min_sum_bound([a], Q, k, 0.05)[0], (a, k, Q)


def test_check_weyl_table_raises_what_the_row_raises():
    # per case, whether the row's sum and its bound raise: the float-path width
    # binds only the float Weyl sum, and Q^k and Q^(1+eps) only the bound
    cases = [(Fraction(1, 2 ** 31), 2, 4, 0.05, "exact-path width", True, True),
             (0.123, 4, 5000, 0.05, "float-path width", True, False),
             (Fraction(1, 3), 200, 256, 0.05, "above the float range", False, True),
             (Fraction(1, 3), 2, expsums.TERM_BUDGET + 1, 0.05, "above the budget", True, True),
             (Fraction(1, 3), 2, 4, 1000.0, r"4\^1001.0 is above the float range", False, True)]
    for alpha, k, Q, eps, message, sum_raises, bound_raises in cases:
        with pytest.raises(CapacityError, match=message):
            check_weyl_table([alpha], [k], [Q], eps)
        if sum_raises:
            with pytest.raises(CapacityError, match=message):
                weyl_sum([alpha], Q, k)
        else:
            assert np.isfinite(weyl_sum([alpha], Q, k)).all()
        if bound_raises:
            with pytest.raises(CapacityError, match=message):
                weyl_min_sum_bound([alpha], Q, k, eps)
        else:
            assert np.isfinite(weyl_min_sum_bound([alpha], Q, k, eps)).all()
    # the eps = 1000 row's sum: e(q^2/3) for q = 1..4 is 3 e(1/3) + 1
    assert weyl_sum([Fraction(1, 3)], 4, 2)[0] == pytest.approx(-0.5 + 1.5 * 3 ** 0.5 * 1j)
    check_weyl_table([0.123], [4], [4000], 0.05)


def _no_sums(*args):
    raise AssertionError("a Weyl sum ran before the table was checked")


def test_weyl_table_checks_the_last_denominator_before_summing(monkeypatch):
    # every other alpha and (k, Q) fits, so only the last alpha's denominator
    # can stop the table, and it must do so before the first sum
    monkeypatch.setattr(kernels, "weyl_rational", _no_sums)
    monkeypatch.setattr(kernels, "weyl_float", _no_sums)
    alphas = sample_alphas(0xC0FFEE) + [("1/2^31", Fraction(1, 2 ** 31))]
    with pytest.raises(CapacityError, match="exact-path width"):
        weyl_ratio_rows(alphas, (4, 16, 64, 256), (2, 3, 4), 0.05)


# The documented kind order of check_weyl_table: Q, term budget and float
# range over every (k, Q), then denominators, then the float-path width.
@pytest.mark.parametrize("alphas, k_values, q_values, eps, message", [
    pytest.param([0.5, Fraction(1, 2 ** 31)], [3], [262144], 0.05, "exact-path width",
                 id="denominator-before-float-width"),
    pytest.param([Fraction(1, 2 ** 31)], [2, 200], [256], 0.05, "above the float range",
                 id="float-range-before-denominator"),
    pytest.param([0.5], [3, 2], [262144, expsums.TERM_BUDGET + 1], 0.05, "above the budget",
                 id="term-budget-before-float-width"),
    pytest.param([0.5], [3, 2], [262144, 4], 1000.0, "above the float range",
                 id="eps-power-before-float-width"),
    pytest.param([Fraction(1, 3), 0.5], [2, 3, 4], [2 ** 20], 0.05,
                 f"= {2 ** 63} exceeds the float-path width", id="first-float-width"),
])
def test_weyl_table_checks_by_kind(monkeypatch, alphas, k_values, q_values, eps, message):
    monkeypatch.setattr(kernels, "weyl_rational", _no_sums)
    monkeypatch.setattr(kernels, "weyl_float", _no_sums)
    with pytest.raises(CapacityError, match=message):
        check_weyl_table(alphas, k_values, q_values, eps)
    labelled = [(str(a), a) for a in alphas]
    with pytest.raises(CapacityError, match=message):
        weyl_ratio_rows(labelled, q_values, k_values, eps)


def test_min_sums_reject_wide_denominators():
    alpha = Fraction(1, 2 ** 31)
    with pytest.raises(CapacityError, match="exact-path width"):
        min_sum([alpha], [3], [3])
    with pytest.raises(CapacityError, match="exact-path width"):
        weyl_min_sum_bound([alpha], 4, 2, 0.0)


@pytest.mark.parametrize("alpha", [Fraction(3, 7), 0.3819660112501051])
def test_term_budget_boundary(monkeypatch, alpha):
    monkeypatch.setattr(expsums, "TERM_BUDGET", 8)
    weyl_sum([alpha], 8, 2)
    weyl_min_sum_bound([alpha], 8, 2, 0.05)
    min_sum([alpha], [8.5], [2.0])
    for call in (lambda: weyl_sum([alpha], 9, 2), lambda: weyl_min_sum_bound([alpha], 9, 2, 0.05),
                 lambda: min_sum([alpha], [9.0], [2.0])):
        with pytest.raises(CapacityError, match="9 terms, above the budget of 8"):
            call()


def test_min_sum_bound_examples():
    assert min_sum_bound(1, 1, ApproxPair(0, 1, 0.0)) == pytest.approx(
        3 * math.log(2), rel=1e-12)
    want = 100 * (1 / 3 + 1 / 10 + 3 / 100) * math.log(60)
    assert min_sum_bound(10, 10, ApproxPair(0, 3, 0.0)) == pytest.approx(want, rel=1e-12)
    want = 100 * (1 + 1 + 1 / 100) * math.log(200)
    assert min_sum_bound(100, 1, ApproxPair(0, 1, 0.0)) == pytest.approx(want, rel=1e-12)


def test_fourier_majorant_worked_example():
    # Q = 1 dyadic: the points 1/4 and 3/4
    res = fourier_majorant(1, 2, "dyadic", (1, 2), 1 / 16)
    assert count_near(1, 2, "dyadic", Fraction(1, 4), 1 / 16) == 1
    assert res.B == pytest.approx(2.0, rel=1e-12)
    # all five transform terms have unit phase here, so the value collapses to
    # the weights (pi^2/4) max(1 - |a|/2, 0) / 2 of a = 0, +-1: pi^2/8 + 2 pi^2/16 = pi^2/4
    assert res.majorant_value == pytest.approx(math.pi ** 2 / 4, rel=1e-12)
    assert res.majorant_value >= 1
    assert res.tail == pytest.approx(res.majorant_value - res.main_term, rel=1e-12)


def test_fourier_majorant_trivial_fallback():
    s = enumerate_system(2, 2, "dyadic")
    res = fourier_majorant(2, 2, "dyadic", (1, 3), 0.9)  # truncation below 1
    assert res.B < 1.0
    assert res.majorant_value == s.size
    assert count_near(2, 2, "dyadic", Fraction(1, 9), 0.9) <= s.size


def test_fourier_majorant_validation():
    with pytest.raises(ValueError):
        fourier_majorant(2, 2, "dyadic", (2, 4), 0.01)  # gcd(2,4) > 1: not a member
    with pytest.raises(ValueError):
        fourier_majorant(2, 2, "dyadic", (1, 3), 0.0)


def test_fourier_majorant_dominates_and_matches_count_near():
    rng = np.random.default_rng(71)
    done = 0
    while done < 100:
        Q = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        s = enumerate_system(Q, k, mode)
        if s.size == 0:
            continue
        idx = int(rng.integers(0, s.size))
        b, r = system_point(Q, k, mode, idx)
        assert (b, r ** k) == (int(s.numerators[idx]), int(s.moduli[idx]))
        top = int(s.moduli.max())
        x = float(10.0 ** rng.uniform(-3, -0.01) / (2.0 * top))
        res = fourier_majorant(Q, k, mode, (b, r), x)
        near = count_near(Q, k, mode, Fraction(b, r ** k), x)
        # the oracle counts at the exact radius x, count_near at x rounded up
        # onto the 2^-53 grid; no point distance falls in between here
        assert near == brute_count_near(int_points(s), Fraction(b, r ** k), Fraction(x))
        assert res.majorant_value >= near - 1e-9 * abs(res.majorant_value)
        done += 1


def test_pair_bounds_hold_for_any_valid_pair():
    rng = np.random.default_rng(73)
    for _ in range(40):
        alpha = float(rng.uniform(0, 1))
        Q = int(rng.integers(2, 40))
        rng.integers(2, 4)  # a degree, still drawn so the pairs stay the same
        pairs = valid_pairs(alpha, Q)
        assert pairs, "round-based pairs always include v = 1"
        for u, v, res in pairs:
            mb = min_sum_bound(Q, Q, ApproxPair(u, v, res))
            assert math.isfinite(mb) and mb > 0
