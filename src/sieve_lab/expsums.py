"""Weyl sums for monomial phases, min-sum bounds, and the Fourier majorant.

Rational phase coefficients are evaluated with exact modular arithmetic
(a * q^k mod denominator), so the phase never degrades no matter how large
q^k gets; float coefficients go through a split reduction that keeps the
mod-1 phase accurate to ~1e-13 at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import kernels
from .arith import ApproxPair
from .errors import CapacityError
from .farey import MODULUS_CAP, PowerFareySystem, _radius_as_fraction

Coeff = Union[int, float, Fraction]

_FLOAT_POWER_CAP = 1 << 53  # q**k must stay exactly representable on the float path


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
    """Exact near-point count and its Fourier-transform majorant.

    main_term is the a = 0 contribution (the smooth volume term), tail the
    rest; B is the shortest truncation length over the moduli,
    1/(2 * max_modulus * x).
    """

    exact_count: int
    majorant_value: float
    main_term: float
    tail: float
    B: float


def weyl_sum(phase: MonomialPhase, Q: int) -> complex:
    """sum_{Q < q <= 2Q} e(alpha * q**k), phase-reduced mod 1 before exponentiating."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    alpha, k = phase.alpha, phase.k
    if isinstance(alpha, (int, Fraction)):
        frac = Fraction(alpha)
        den = frac.denominator
        if den >= MODULUS_CAP:
            raise CapacityError(
                f"denominator {den} exceeds the exact-path width (< 2^31)")
        num_red = frac.numerator % den
        return complex(kernels.weyl_rational(num_red, den, k, Q, 2 * Q))
    if (2 * Q) ** k >= _FLOAT_POWER_CAP:
        raise CapacityError(
            f"(2Q)^k = {(2 * Q) ** k} exceeds the float-path width (< 2^53)")
    return complex(kernels.weyl_float(float(alpha) % 1.0, k, Q, 2 * Q))


def weyl_pair_bound(approx: ApproxPair, Q: int, k: int, eps: float) -> float:
    """Weyl-sum bound shape from an approximation pair:
    Q^(1+eps) * (1/v + 1/Q + v/Q^k)^delta, delta = 1/(2k(k-1))."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    delta = 1.0 / (2 * k * (k - 1))
    v = approx.v
    return Q ** (1.0 + eps) * (1.0 / v + 1.0 / Q + v / float(Q) ** k) ** delta


def _inv_circle_dist(alpha: Coeff, v: int) -> float:
    """1/||v*alpha||, or +inf when v*alpha is an integer (exact for rationals)."""
    if isinstance(alpha, (int, Fraction)):
        frac = Fraction(alpha)
        m = (v * frac.numerator) % frac.denominator
        if m == 0:
            return math.inf
        return frac.denominator / min(m, frac.denominator - m)
    prod = v * float(alpha)
    r = prod % 1.0
    d = min(r, 1.0 - r)
    if d == 0.0:
        return math.inf
    return 1.0 / d


def min_sum(alpha: Coeff, X: float, Y: float) -> float:
    """sum_{1 <= v <= X} min(X*Y/v, 1/||alpha*v||) with the convention that a
    vanishing ||alpha*v|| picks the X*Y/v branch."""
    if X < 1 or Y < 1:
        raise ValueError("X and Y must be >= 1")
    xy = float(X) * float(Y)
    total = 0.0
    for v in range(1, math.floor(X) + 1):
        total += min(xy / v, _inv_circle_dist(alpha, v))
    return total


def min_sum_bound(X: float, Y: float, approx: ApproxPair) -> float:
    """Bound shape for min_sum: X*Y*(1/v + 1/Y + v/(X*Y)) * log(2*X*v), natural log."""
    if X < 1 or Y < 1:
        raise ValueError("X and Y must be >= 1")
    v = approx.v
    xy = float(X) * float(Y)
    return xy * (1.0 / v + 1.0 / Y + v / xy) * math.log(2.0 * X * v)


def weyl_min_sum_bound(phase: MonomialPhase, Q: int, eps: float) -> float:
    """Weyl-sum bound via the minimum sum:
    Q^(1+eps) * (1/Q + Q^-k * sum_{v<=Q} min(Q^k/v, 1/||v*alpha||))^delta."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    k = phase.k
    delta = 1.0 / (2 * k * (k - 1))
    qk = float(Q) ** k
    inner = 0.0
    for v in range(1, Q + 1):
        inner += min(qk / v, _inv_circle_dist(phase.alpha, v))
    return Q ** (1.0 + eps) * (1.0 / Q + inner / qk) ** delta


def phi_kernel(x: float) -> float:
    """(sin(pi x) / (2x))^2, continuously extended to pi^2/4 at x = 0."""
    if x == 0.0:
        return kernels.PI_SQ_OVER_4
    s = math.sin(math.pi * x) / (2.0 * x)
    return s * s


def phi_hat(s: float) -> float:
    """Fourier transform of phi_kernel: (pi^2/4) * max(1 - |s|, 0)."""
    return kernels.PI_SQ_OVER_4 * max(1.0 - abs(s), 0.0)


def fourier_majorant(system: PowerFareySystem, center_base: tuple[int, int],
                     x) -> MajorantResult:
    """Exact near-point count around the member point b/r^k at radius x, with the
    Poisson-transformed majorant that dominates it.

    Per modulus q^k the transform is sum_{|a| <= B_q} phi_hat(a/B_q) / B_q *
    e(a b q^k / r^k) with B_q = 1/(2 q^k x); each B_q is rounded one step
    toward zero so majorant_value >= exact_count holds exactly (up to the trig
    roundoff of the finite sum).  If the shortest truncation is < 1 the trivial
    majorant |points| is reported instead.
    """
    b, r = center_base
    if x <= 0:
        raise ValueError("x must be > 0")
    if not system.is_member(b, r):
        raise ValueError(f"({b}, {r}) is not a point of the system")
    rk = r ** system.k
    xr = _radius_as_fraction(x)
    xn, xd = xr.numerator, xr.denominator

    # exact count per modulus: |a*r^k - b*q^k| <= x * q^k * r^k, exact integers
    count = 0
    for a, qk in system.iter_int_points():
        if abs(a * rk - b * qk) * xd <= xn * qk * rk:
            count += 1

    mods = np.unique(system.moduli)
    # the exact ratio 1/(2 q^k x) rounded strictly downward, so the transform's
    # covered radius is >= the counting radius
    bqs = np.array([math.nextafter(float(Fraction(xd, 2 * int(qk) * xn)), 0.0)
                    for qk in mods], dtype=np.float64)
    b_cap = float(bqs.min())
    if b_cap < 1.0:
        size = float(system.size)
        return MajorantResult(exact_count=count, majorant_value=size,
                              main_term=size, tail=0.0, B=b_cap)
    if b_cap >= float(MODULUS_CAP):
        raise CapacityError(
            f"truncation length {b_cap} exceeds the supported width (< 2^31)")
    value, main = kernels.majorant_sum(b % rk, rk, mods, bqs)
    return MajorantResult(exact_count=count, majorant_value=float(value),
                          main_term=float(main), tail=float(value - main),
                          B=b_cap)
