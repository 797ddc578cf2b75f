"""The finite system of reduced fractions a/q^k with power moduli, and exact counting.

The points of base q are the units a mod q^k, 0 < a < q^k, that is j*q + u
with u a unit mod q (_units), phi(q)*q^(k-1) of them; the points are sorted
by (q, a).  That one layout, through the Moebius sum over the squarefree
divisors d of q, gives everything that reads (Q, k, mode) alone and builds no
point: the system size and its POINT_BUDGET check (budgeted_size), the point
at an index (system_point), membership (is_member), the number of points near
a center (count_near) and, in sieve.toeplitz_kernel, the autocorrelation.
enumerate_system builds the points as int64 arrays for the hot kernels, whose
counting integral compares by exact integer cross-multiplication, so it is
exact up to one final float division per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Literal

import numpy as np

from . import kernels
from .errors import CapacityError

Mode = Literal["full", "dyadic"]

# Keeps every int64 kernel product a*b with a, b < modulus below 2**62.
MODULUS_CAP = 1 << 31
# Most points a system may have (budgeted_size): enumerate_system allocates
# two int64 arrays, 16 bytes per point, about 270 MB at the budget.
POINT_BUDGET = 1 << 24
# Most point pairs counting_rhs scans: kernels.pairwise_integral_max takes
# about 14-20 ns a pair on a 2-core VM, so about 20 s at the budget, which
# admits lemma1 at Q = 20, k = 3 (26766 points, 7.2e8 pairs, 14 s).
PAIR_BUDGET = 1 << 30


@dataclass(frozen=True)
class PowerFareySystem:
    """Points a/q^k as two int64 arrays: numerators[i] is the a and moduli[i]
    the q**k of point i.  enumerate_system fills them with every unit
    0 < a < q^k of each base of a (Q, k, mode) range, sorted by (q, a); the
    arrays are all the system holds.
    """

    numerators: np.ndarray
    moduli: np.ndarray

    @property
    def size(self) -> int:
        return int(self.numerators.shape[0])


def squarefree_divisors_with_mu(q: int) -> list[tuple[int, int]]:
    """(d, mu(d)) over the squarefree divisors of q."""
    primes = []
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    divs = [(1, 1)]
    for p in primes:
        divs += [(d * p, -mu) for d, mu in divs]
    return divs


def system_bases(Q: int, k: int, mode: Mode) -> range:
    """The bases q >= 2 of the system for (Q, k, mode), ascending.

    Rejects any modulus q**k >= 2**31 with CapacityError: beyond that the exact
    int64 phase arithmetic in the kernels would overflow.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if mode not in ("full", "dyadic"):
        raise ValueError(f"mode must be 'full' or 'dyadic', got {mode!r}")
    top = Q if mode == "full" else 2 * Q
    if top ** k >= MODULUS_CAP:
        raise CapacityError(
            f"modulus {top}^{k} = {top ** k} exceeds the supported width (< 2^31)")
    # q = 1 contributes no point: there is no a with 0 < a < 1
    return range(2 if mode == "full" else Q + 1, top + 1)


def _units(q: int) -> list[int]:
    """The units mod q in [1, q), ascending."""
    return [u for u in range(1, q) if math.gcd(u, q) == 1]


@cache  # system_point walks the same bases once per sample
def _base_size(q: int, k: int) -> int:
    """Number of units mod q**k, sum over squarefree d | q of mu(d) * q**k / d."""
    return sum(mu * (q ** k // d) for d, mu in squarefree_divisors_with_mu(q))


def system_size(Q: int, k: int, mode: Mode) -> int:
    """Number of points of the system, the units mod q**k summed over its
    bases, computed without building them."""
    return sum(_base_size(q, k) for q in system_bases(Q, k, mode))


def budgeted_size(Q: int, k: int, mode: Mode) -> int:
    """system_size, rejecting a system of more than POINT_BUDGET points with
    CapacityError."""
    size = system_size(Q, k, mode)
    if size > POINT_BUDGET:
        raise CapacityError(
            f"system has {size} points, above the budget of {POINT_BUDGET}")
    return size


def system_point(Q: int, k: int, mode: Mode, idx: int) -> tuple[int, int]:
    """The pair (a, q) of point idx of the system in (q, a) order, found from
    the per-base counts without building the points; IndexError outside
    0 <= idx < system_size."""
    if idx >= 0:
        for q in system_bases(Q, k, mode):
            count = _base_size(q, k)
            if idx < count:
                units = _units(q)
                j, i = divmod(idx, len(units))
                return j * q + units[i], q
            idx -= count
    raise IndexError("point index out of range")


def is_member(Q: int, k: int, mode: Mode, b: int, r: int) -> bool:
    """Whether the pair (numerator b, base r) is a point of the system."""
    return r in system_bases(Q, k, mode) and 0 < b < r ** k and math.gcd(b, r) == 1


def enumerate_system(Q: int, k: int, mode: Mode) -> PowerFareySystem:
    """Enumerate the system for (Q, k, mode), sorted by (q, a).

    Validates as system_bases does, and rejects before allocating any system
    of more than POINT_BUDGET points with CapacityError (budgeted_size).
    """
    size = budgeted_size(Q, k, mode)
    nums = np.empty(size, dtype=np.int64)
    mods = np.empty(size, dtype=np.int64)
    start = 0
    for q in system_bases(Q, k, mode):
        qk = q ** k
        units = np.array(_units(q), dtype=np.int64)
        offsets = np.arange(0, qk, q, dtype=np.int64)
        stop = start + offsets.shape[0] * units.shape[0]
        nums[start:stop] = (offsets[:, None] + units[None, :]).ravel()
        mods[start:stop] = qk
        start = stop
    return PowerFareySystem(nums, mods)


def _radius_as_fraction(x) -> Fraction:
    """Exact rational radius; floats are rounded up onto the 2**-53 grid so the
    count stays conservative and monotone."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not math.isfinite(x):
        raise ValueError(f"radius must be finite, got {x}")
    if x >= float(1 << 60):  # scaling by 2**53 would overflow; integer ceil is exact enough
        return Fraction(math.ceil(x))
    return Fraction(math.ceil(x * (1 << 53)), 1 << 53)


def count_near(Q: int, k: int, mode: Mode, center: Fraction, x) -> int:
    """Exact number of points of the system with |a/q^k - center| <= x.

    Per base q these are the units a mod q^k in [L, U] = [ceil(q^k (c - x)),
    floor(q^k (c + x))] clipped to [1, q^k - 1], counted as the sum over
    squarefree d | q of mu(d) * (floor(U/d) - floor((L-1)/d)); c - x and c + x
    are taken as integer numerators over one common denominator, so L and U
    are exact integer divisions and the count is exact.
    """
    if x < 0:
        raise ValueError("radius x must be >= 0")
    xr = _radius_as_fraction(x)
    den = math.lcm(center.denominator, xr.denominator)
    c_n = center.numerator * (den // center.denominator)
    x_n = xr.numerator * (den // xr.denominator)
    lo_n, hi_n = c_n - x_n, c_n + x_n
    count = 0
    for q in system_bases(Q, k, mode):
        qk = q ** k
        first = max(-((-qk * lo_n) // den), 1)
        last = min((qk * hi_n) // den, qk - 1)
        if first <= last:
            count += sum(mu * (last // d - (first - 1) // d)
                         for d, mu in squarefree_divisors_with_mu(q))
    return count


def check_pair_budget(size: int) -> None:
    """Reject a counting scan over more than PAIR_BUDGET point pairs (CapacityError)."""
    if size ** 2 > PAIR_BUDGET:
        raise CapacityError(f"counting scan has {size ** 2} point pairs, "
                            f"above the budget of {PAIR_BUDGET}")


def counting_rhs(system: PowerFareySystem, N: int) -> float:
    """Right side of the well-spaced counting inequality per unit |v|^2:
    4 * sum of moduli + max over centers of the counting integral.

    The modulus sum runs over the distinct q**k among the system's points;
    every base has a unit, so these are the q**k of its bases.
    An empty system gives 0.0: both terms vanish and the inequality is 0 <= 0.
    The maximum scans every pair of points: a system of more than
    PAIR_BUDGET pairs raises CapacityError before the scan.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if system.size == 0:
        return 0.0
    check_pair_budget(system.size)
    modulus_sum = 4.0 * float(sum(set(system.moduli.tolist())))
    integral_max = kernels.pairwise_integral_max(system.numerators, system.moduli, N)
    return modulus_sum + integral_max
