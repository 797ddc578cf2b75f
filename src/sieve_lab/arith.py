"""Exact rational arithmetic and Dirichlet approximation.

Rationals are plain fractions.Fraction values (always stored reduced, positive
denominator), so every counting comparison downstream can be done in exact
integer arithmetic.  Reals are double precision throughout.  Dirichlet
approximation works on the exact integer ratio of its argument (int, float or
Fraction), with no Fraction built per step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import CapacityError

Real = Union[int, float, Fraction]


def float_power(base: int, exp: float) -> float:
    """float(base) ** exp; raises CapacityError in place of the OverflowError
    when the power is above the float range (about 1.8e308)."""
    try:
        return float(base) ** exp
    except OverflowError:
        raise CapacityError(f"{base}^{exp} is above the float range") from None


class ApproxPair(NamedTuple):
    """Coprime pair (u, v) with small |v*alpha - u|, plus that residual."""

    u: int
    v: int
    residual: float


def _continued_fraction_convergents(num: int, den: int):
    """Yield the convergents u/v of num/den (den > 0) as (u, v) pairs, v increasing."""
    u_prev, v_prev = 1, 0
    u_prev2, v_prev2 = 0, 1
    while den:
        step, rem = divmod(num, den)
        u = step * u_prev + u_prev2
        v = step * v_prev + v_prev2
        yield u, v
        u_prev2, v_prev2 = u_prev, v_prev
        u_prev, v_prev = u, v
        num, den = den, rem


def dirichlet_approx(alpha: Real, bound: int) -> ApproxPair:
    """Best coprime pair (u, v) with 1 <= v <= bound and |v*alpha - u| <= 1/bound.

    Computed from the continued-fraction convergents of alpha = num/den, its
    exact integer ratio (the binary value when alpha is a float), so the cost
    is O(log bound) integer steps.  The convergents are ranked by
    |v*num - u*den|, which is den times |v*alpha - u|.  Among valid pairs the
    residual is minimal, ties broken toward smaller v; such a pair always
    exists.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    num, den = alpha.as_integer_ratio()
    best: tuple[int, int] | None = None  # the first convergent has v = 1 <= bound
    best_res: int | None = None
    for u, v in _continued_fraction_convergents(num, den):
        if v > bound:
            break
        res = abs(v * num - u * den)
        if best_res is None or res < best_res:
            best, best_res = (u, v), res
        if res == 0:
            break
    u, v = best
    return ApproxPair(u=u, v=v, residual=float(abs(alpha * v - u)))
