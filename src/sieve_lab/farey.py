"""The finite system of reduced fractions a/q^k with power moduli, and exact counting.

Numerators and moduli live in int64 arrays for the hot kernels; every counting
comparison (count_near, the closed-form counting integral) is done with exact
integer cross-multiplication, so counts and the integral are exact up to one
final float division per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Literal

import numpy as np

from . import kernels
from .errors import CapacityError

Mode = Literal["full", "dyadic"]

# Keeps every int64 kernel product a*b with a, b < modulus below 2**62.
MODULUS_CAP = 1 << 31
# Most points enumerate_system allocates: three int64 arrays, 24 bytes per
# point, about 400 MB at the budget.
POINT_BUDGET = 1 << 24
# Most point pairs counting_rhs scans: kernels.pairwise_integral_max takes
# about 14-20 ns a pair on a 2-core VM, so about 20 s at the budget, which
# admits lemma1 at Q = 20, k = 3 (26766 points, 7.2e8 pairs, 14 s).
PAIR_BUDGET = 1 << 30


@dataclass(frozen=True)
class PowerFareySystem:
    """All reduced fractions a/q^k with 0 < a < q^k, gcd(a, q) = 1 over a base range.

    mode "full" takes 1 <= q <= Q (q = 1 contributes nothing), mode "dyadic"
    takes Q < q <= 2Q.  Points are sorted by (q, a) and stored with
    multiplicity one per (a, q) pair.
    """

    Q: int
    k: int
    mode: str
    numerators: np.ndarray = field(repr=False)  # int64, the a of each point
    bases: np.ndarray = field(repr=False)       # int64, the q of each point
    moduli: np.ndarray = field(repr=False)      # int64, q**k of each point

    @property
    def size(self) -> int:
        return int(self.numerators.shape[0])

    def distinct_bases(self) -> list[int]:
        """Bases that contribute at least one point, ascending."""
        return np.unique(self.bases).tolist()

    def iter_int_points(self) -> Iterator[tuple[int, int]]:
        """(a, q^k) pairs as exact Python ints."""
        return zip(self.numerators.tolist(), self.moduli.tolist())

    def is_member(self, b: int, r: int) -> bool:
        """Whether the pair (numerator b, base r) is a point of the system."""
        lo = np.searchsorted(self.bases, r, side="left")
        hi = np.searchsorted(self.bases, r, side="right")
        if lo == hi:
            return False
        sub = self.numerators[lo:hi]
        pos = np.searchsorted(sub, b)
        return bool(pos < sub.shape[0] and sub[pos] == b)


def _totients(n: int) -> np.ndarray:
    """phi[q] for 0 <= q <= n by a sieve over the primes."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # untouched by any smaller prime, so p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


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


def system_size(Q: int, k: int, mode: Mode) -> int:
    """Number of points of the system, sum of phi(q) * q**(k-1) over its bases,
    computed without building them."""
    bases = system_bases(Q, k, mode)
    phi = _totients(bases.stop - 1).tolist()
    return sum(phi[q] * q ** (k - 1) for q in bases)


def enumerate_system(Q: int, k: int, mode: Mode) -> PowerFareySystem:
    """Enumerate the system for (Q, k, mode), sorted by (q, a).

    Validates as system_bases does, and rejects before allocating any system
    of more than POINT_BUDGET points with CapacityError.
    """
    size = system_size(Q, k, mode)
    if size > POINT_BUDGET:
        raise CapacityError(
            f"system has {size} points, above the budget of {POINT_BUDGET}")

    nums = np.empty(size, dtype=np.int64)
    bases = np.empty(size, dtype=np.int64)
    mods = np.empty(size, dtype=np.int64)
    start = 0
    for q in system_bases(Q, k, mode):
        qk = q ** k
        residues = np.array([r for r in range(1, q) if math.gcd(r, q) == 1],
                            dtype=np.int64)
        offsets = np.arange(0, qk, q, dtype=np.int64)
        stop = start + offsets.shape[0] * residues.shape[0]
        nums[start:stop] = (offsets[:, None] + residues[None, :]).ravel()
        bases[start:stop] = q
        mods[start:stop] = qk
        start = stop
    return PowerFareySystem(Q=Q, k=k, mode=mode, numerators=nums, bases=bases,
                            moduli=mods)


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


def count_near(system: PowerFareySystem, center: Fraction, x) -> int:
    """Exact number of points with |a/q^k - center| <= x.

    The comparison is |a*cd - cn*q^k| * xd <= xn * q^k * cd in arbitrary
    precision integers, where center = cn/cd and x = xn/xd.
    """
    if x < 0:
        raise ValueError("radius x must be >= 0")
    xr = _radius_as_fraction(x)
    xn, xd = xr.numerator, xr.denominator
    cn, cd = center.numerator, center.denominator
    count = 0
    for a, qk in system.iter_int_points():
        if abs(a * cd - cn * qk) * xd <= xn * qk * cd:
            count += 1
    return count


def stieltjes_integral(system: PowerFareySystem, center: Fraction, N: int) -> float:
    """The counting integral of count_near(x)/x^2 over [1/N, 1/2], in closed form.

    Equals sum over points with d <= 1/2 of (1/max(d, 1/N) - 2) where
    d = |a/q^k - center|; the branch tests are exact integer comparisons and
    only the final reciprocal is a float division.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    cn, cd = center.numerator, center.denominator
    total = 0.0
    for a, qk in system.iter_int_points():
        big = abs(a * cd - cn * qk)
        vol = qk * cd
        if 2 * big <= vol:
            if big * N <= vol:
                total += N - 2.0
            else:
                total += vol / big - 2.0
    return total


def counting_rhs(system: PowerFareySystem, N: int) -> float:
    """Right side of the well-spaced counting inequality per unit |v|^2:
    4 * sum of moduli + max over centers of the counting integral.

    The modulus sum runs over the distinct q**k of the system (one per base).
    An empty system gives 0.0: both terms vanish and the inequality is 0 <= 0.
    The maximum scans every pair of points: a system of more than
    PAIR_BUDGET pairs raises CapacityError before the scan.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if system.size == 0:
        return 0.0
    if system.size ** 2 > PAIR_BUDGET:
        raise CapacityError(f"counting scan has {system.size ** 2} point pairs, "
                            f"above the budget of {PAIR_BUDGET}")
    modulus_sum = 4.0 * float(sum(q ** system.k for q in system.distinct_bases()))
    integral_max = kernels.pairwise_integral_max(system.numerators, system.moduli, N)
    return modulus_sum + integral_max
