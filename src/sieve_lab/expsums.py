"""Weyl sums for monomial phases, min-sum bounds, and the Fourier majorant.

Rational phase coefficients are evaluated with exact modular arithmetic
(a * q^k mod denominator), so the phase never degrades no matter how large
q^k gets; float coefficients go through a split reduction that keeps the
mod-1 phase accurate to ~1e-13 at desk scale.

The minimum sums sum_v min(XY/v, 1/||v alpha||) behind min_sum and
weyl_min_sum_bound are one numpy pass over v: exact int64 residues v * num mod
den for rational alpha, np.remainder for floats, added left to right so the
result is the double a plain loop gives.  The exact paths (Weyl sums and
minimum sums) take rational denominators below 2^31 only and raise
CapacityError above.  Every Weyl and minimum sum raises CapacityError, before
allocating, when it has more than TERM_BUDGET = 2^22 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import kernels
from .arith import ApproxPair, float_power
from .bounds import delta_exponent
from .errors import CapacityError
from .farey import MODULUS_CAP, PowerFareySystem, _radius_as_fraction, system_bases

Coeff = Union[int, float, Fraction]

_FLOAT_POWER_CAP = 1 << 53  # q**k must stay exactly representable on the float path
# Most terms one Weyl sum (q in (Q, 2Q]) or minimum sum (v <= X) takes; its
# numpy temporaries need about 64 bytes a term, about 300 MB at the budget.
TERM_BUDGET = 1 << 22


@dataclass(frozen=True)
class MonomialPhase:
    """The phase q -> alpha * q**k of degree k >= 2."""

    alpha: Coeff
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"degree k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class MajorantResult:
    """Fourier-transform majorant of a near-point count.

    main_term is the a = 0 contribution (the smooth volume term), tail the
    rest; B is the shortest truncation length over the moduli,
    1/(2 * max_modulus * x).
    """

    majorant_value: float
    main_term: float
    tail: float
    B: float


def _reduced(alpha: int | Fraction) -> tuple[int, int]:
    """(numerator mod denominator, denominator) of a rational coefficient, for
    the exact int64 paths; raises CapacityError when the denominator is >= 2^31."""
    frac = Fraction(alpha)
    den = frac.denominator
    if den >= MODULUS_CAP:
        raise CapacityError(f"denominator {den} exceeds the exact-path width (< 2^31)")
    return frac.numerator % den, den


def _check_terms(count: int) -> None:
    if count > TERM_BUDGET:
        raise CapacityError(f"sum has {count} terms, above the budget of {TERM_BUDGET}")


def weyl_sum(phase: MonomialPhase, Q: int) -> complex:
    """sum_{Q < q <= 2Q} e(alpha * q**k), phase-reduced mod 1 before exponentiating;
    raises CapacityError above TERM_BUDGET terms."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    _check_terms(Q)
    alpha, k = phase.alpha, phase.k
    if isinstance(alpha, (int, Fraction)):
        num_red, den = _reduced(alpha)
        return complex(kernels.weyl_rational(num_red, den, k, Q, 2 * Q))
    if (2 * Q) ** k >= _FLOAT_POWER_CAP:
        raise CapacityError(
            f"(2Q)^k = {(2 * Q) ** k} exceeds the float-path width (< 2^53)")
    return complex(kernels.weyl_float(float(alpha) % 1.0, k, Q, 2 * Q))


def weyl_pair_bound(approx: ApproxPair, Q: int, k: int, eps: float) -> float:
    """Weyl-sum bound shape from an approximation pair:
    Q^(1+eps) * (1/v + 1/Q + v/Q^k)^delta, delta = 1/(2k(k-1)); raises
    CapacityError when Q^k is above the float range."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    delta = float(delta_exponent(k))
    v = approx.v
    return Q ** (1.0 + eps) * (1.0 / v + 1.0 / Q + v / float_power(Q, k)) ** delta


def _min_terms_sum(alpha: Coeff, count: int, xy: float) -> float:
    """sum_{1 <= v <= count} min(xy/v, 1/||v*alpha||) in one numpy pass; a
    vanishing ||v*alpha|| picks the xy/v branch.

    Rational alpha uses the exact int64 residues v*num mod den (den < 2^31, so
    v*num cannot overflow for count < 2^32); float alpha reduces v*alpha mod 1.
    The terms are added left to right (cumsum), so the result is the same
    double as a plain Python loop.  Raises CapacityError above TERM_BUDGET terms.
    """
    _check_terms(count)
    v = np.arange(1, count + 1)
    if isinstance(alpha, (int, Fraction)):
        num_red, den = _reduced(alpha)
        m = v * num_red % den
        scale, dist = den, np.minimum(m, den - m)
    else:
        r = np.remainder(v * float(alpha), 1.0)
        scale, dist = 1.0, np.minimum(r, 1.0 - r)
    with np.errstate(divide="ignore"):
        inv = scale / dist
    return float(np.cumsum(np.minimum(xy / v, inv))[-1])


def min_sum(alpha: Coeff, X: float, Y: float) -> float:
    """sum_{1 <= v <= X} min(X*Y/v, 1/||alpha*v||) with the convention that a
    vanishing ||alpha*v|| picks the X*Y/v branch."""
    if X < 1 or Y < 1:
        raise ValueError("X and Y must be >= 1")
    return _min_terms_sum(alpha, math.floor(X), float(X) * float(Y))


def min_sum_bound(X: float, Y: float, approx: ApproxPair) -> float:
    """Bound shape for min_sum: X*Y*(1/v + 1/Y + v/(X*Y)) * log(2*X*v), natural log."""
    if X < 1 or Y < 1:
        raise ValueError("X and Y must be >= 1")
    v = approx.v
    xy = float(X) * float(Y)
    return xy * (1.0 / v + 1.0 / Y + v / xy) * math.log(2.0 * X * v)


def weyl_min_sum_bound(phase: MonomialPhase, Q: int, eps: float) -> float:
    """Weyl-sum bound via the minimum sum:
    Q^(1+eps) * (1/Q + Q^-k * sum_{v<=Q} min(Q^k/v, 1/||v*alpha||))^delta;
    raises CapacityError when Q^k is above the float range."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    k = phase.k
    delta = float(delta_exponent(k))
    qk = float_power(Q, k)
    inner = _min_terms_sum(phase.alpha, Q, qk)
    return Q ** (1.0 + eps) * (1.0 / Q + inner / qk) ** delta


def fourier_majorant(system: PowerFareySystem, center_base: tuple[int, int],
                     x) -> MajorantResult:
    """Poisson-transformed majorant of the number of points within radius x of
    the member point b/r^k; it counts nothing itself (farey.count_near gives
    the exact count it dominates).

    Per modulus q^k the transform is sum_{|a| <= B_q} w(a/B_q) / B_q *
    e(a b q^k / r^k) with B_q = 1/(2 q^k x) and the weight
    w(s) = (pi^2/4) max(1 - |s|, 0), the Fourier transform of the Fejer-type
    kernel (sin(pi x) / (2x))^2, which majorises the indicator of [-1/2, 1/2].
    Each B_q is rounded one step toward zero so majorant_value >=
    count_near(system, b/r^k, x) holds exactly (up to the trig roundoff of the
    finite sum).  If the shortest truncation
    is < 1 the trivial majorant |points| is reported instead.
    """
    b, r = center_base
    if x <= 0:
        raise ValueError("x must be > 0")
    if not system.is_member(b, r):
        raise ValueError(f"({b}, {r}) is not a point of the system")
    rk = r ** system.k
    xr = _radius_as_fraction(x)
    xn, xd = xr.numerator, xr.denominator

    mods = np.array([q ** system.k for q in system_bases(system.Q, system.k, system.mode)],
                    dtype=np.int64)
    # the exact ratio 1/(2 q^k x) rounded strictly downward, so the transform's
    # covered radius is >= the counting radius
    bqs = np.array([math.nextafter(float(Fraction(xd, 2 * int(qk) * xn)), 0.0)
                    for qk in mods], dtype=np.float64)
    b_cap = float(bqs.min())
    if b_cap < 1.0:
        size = float(system.size)
        return MajorantResult(majorant_value=size, main_term=size, tail=0.0, B=b_cap)
    if b_cap >= float(MODULUS_CAP):
        raise CapacityError(
            f"truncation length {b_cap} exceeds the supported width (< 2^31)")
    value, main = kernels.majorant_sum(b % rk, rk, mods, bqs)
    return MajorantResult(majorant_value=float(value), main_term=float(main),
                          tail=float(value - main), B=b_cap)
