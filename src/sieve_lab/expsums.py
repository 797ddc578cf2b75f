"""Weyl sums for monomial phases, min-sum bounds, and the Fourier majorant.

Rational phase coefficients are evaluated with exact modular arithmetic
(a * q^k mod denominator), so the phase never degrades no matter how large
q^k gets; float coefficients go through a split reduction that keeps the
mod-1 phase accurate to ~1e-13 at desk scale.

Each sum has a batch form over many coefficients: weyl_sums,
weyl_min_sum_bounds and min_sums compute one value per row in 2-D numpy
passes of at most kernels.ROW_BLOCK_TERMS terms, and weyl_sum,
weyl_min_sum_bound and min_sum are their batches of one, so a row's value is
the same double in either form.  The minimum sums sum_v min(XY/v,
1/||v alpha||) use exact int64 residues v * num mod den for rational alpha and
np.remainder for floats, added left to right along each row, so each is the
double a plain loop gives.

The exact paths (Weyl sums and minimum sums) take rational denominators below
2^31 only and raise CapacityError above.  Every Weyl and minimum sum raises
CapacityError, before allocating, when it has more than TERM_BUDGET = 2^22
terms.  A batch checks all its rows before its first pass, and
check_weyl_row runs the checks of one Weyl-table row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import kernels
from .arith import ApproxPair, float_power
from .bounds import delta_exponent
from .errors import CapacityError
from .farey import (MODULUS_CAP, Mode, _radius_as_fraction, is_member, system_bases,
                    system_size)

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


def _is_exact(alpha: Coeff) -> bool:
    return isinstance(alpha, (int, Fraction))


def _check_q(Q: int) -> None:
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")


def _check_weyl_sum(alpha: Coeff, k: int, Q: int) -> None:
    """What weyl_sum raises for (alpha, k, Q), before any term is summed."""
    _check_q(Q)
    _check_terms(Q)
    if _is_exact(alpha):
        _reduced(alpha)
    elif (2 * Q) ** k >= _FLOAT_POWER_CAP:
        raise CapacityError(
            f"(2Q)^k = {(2 * Q) ** k} exceeds the float-path width (< 2^53)")


def _check_min_terms(alpha: Coeff, count: int) -> None:
    """What a minimum sum of count terms raises for alpha."""
    _check_terms(count)
    if _is_exact(alpha):
        _reduced(alpha)


def check_weyl_row(phase: MonomialPhase, Q: int, eps: float) -> None:
    """Raise what weyl_sum(phase, Q) and then weyl_min_sum_bound(phase, Q, eps)
    raise, without summing a term: the term budget, the denominator width, the
    float-path width and the float range of Q^k and Q^(1+eps).

    weyl_sums and weyl_min_sum_bounds sum one (k, Q) for all coefficients at
    once, so a table checks every row with this first, in row order: its
    first error is then the one a row-by-row table meets first."""
    _check_weyl_sum(phase.alpha, phase.k, Q)
    float_power(Q, phase.k)
    float_power(Q, 1.0 + eps)


def _split(alphas: Sequence[Coeff]):
    """(indices, reduced numerators, denominators) of the rational
    coefficients and (indices, float values) of the others."""
    exact = [i for i, a in enumerate(alphas) if _is_exact(a)]
    floats = [i for i, a in enumerate(alphas) if not _is_exact(a)]
    reduced = np.array([_reduced(alphas[i]) for i in exact], dtype=np.int64).reshape(-1, 2)
    values = np.array([float(alphas[i]) for i in floats], dtype=np.float64)
    return exact, reduced[:, 0], reduced[:, 1], floats, values


def weyl_sums(alphas: Sequence[Coeff], k: int, Q: int) -> np.ndarray:
    """weyl_sum of every coefficient at degree k, as a complex array: the
    rational ones through kernels.weyl_rational_batch, the float ones (reduced
    mod 1) through kernels.weyl_float_batch."""
    for alpha in alphas:
        _check_weyl_sum(alpha, k, Q)
    exact, nums, dens, floats, values = _split(alphas)
    out = np.empty(len(alphas), dtype=np.complex128)
    out[exact] = kernels.weyl_rational_batch(nums, dens, k, Q, 2 * Q)
    out[floats] = kernels.weyl_float_batch([a % 1.0 for a in values.tolist()], k, Q, 2 * Q)
    return out


def weyl_sum(phase: MonomialPhase, Q: int) -> complex:
    """sum_{Q < q <= 2Q} e(alpha * q**k), phase-reduced mod 1 before exponentiating;
    raises CapacityError above TERM_BUDGET terms."""
    return complex(weyl_sums([phase.alpha], phase.k, Q)[0])


def weyl_pair_bound(approx: ApproxPair, Q: int, k: int, eps: float) -> float:
    """Weyl-sum bound shape from an approximation pair:
    Q^(1+eps) * (1/v + 1/Q + v/Q^k)^delta, delta = 1/(2k(k-1)); raises
    CapacityError when Q^(1+eps) or Q^k is above the float range."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    delta = float(delta_exponent(k))
    v = approx.v
    return float_power(Q, 1.0 + eps) * (1.0 / v + 1.0 / Q + v / float_power(Q, k)) ** delta


def _min_terms_sum(alphas: Sequence[Coeff], counts: Sequence[int],
                   xys: Sequence[float]) -> np.ndarray:
    """Per row j, sum_{1 <= v <= counts[j]} min(xys[j]/v, 1/||v*alphas[j]||),
    as a float array; a vanishing ||v*alpha|| picks the xy/v branch.  The
    caller checks each row first (_check_min_terms).

    Rational alpha uses the exact int64 residues v*num mod den (den < 2^31, so
    v*num cannot overflow for count < 2^32); float alpha reduces v*alpha mod 1.
    The rows of each kind go through passes of kernels.row_blocks, padded to
    the longest row of the pass; each row's terms are added left to right
    (cumsum along the row, read at counts[j] - 1), so each result is the same
    double as a plain Python loop.
    """
    exact, nums, dens, floats, values = _split(alphas)
    counts = np.asarray(counts, dtype=np.int64)
    xys = np.asarray(xys, dtype=np.float64)
    out = np.empty(len(alphas), dtype=np.float64)
    for rows, is_exact in ((np.array(exact, dtype=np.intp), True),
                           (np.array(floats, dtype=np.intp), False)):
        for block in kernels.row_blocks(rows.shape[0], int(counts[rows].max(initial=1))):
            idx = rows[block]
            v = np.arange(1, int(counts[idx].max()) + 1)
            if is_exact:
                den = dens[block, None]
                m = v * nums[block, None] % den
                scale, dist = den, np.minimum(m, den - m)
            else:
                r = np.remainder(v * values[block, None], 1.0)
                scale, dist = 1.0, np.minimum(r, 1.0 - r)
            with np.errstate(divide="ignore"):
                inv = scale / dist
            sums = np.cumsum(np.minimum(xys[idx, None] / v, inv), axis=1)
            out[idx] = sums[np.arange(idx.shape[0]), counts[idx] - 1]
    return out


def min_sums(alphas: Sequence[Coeff], xs: Sequence[float],
             ys: Sequence[float]) -> np.ndarray:
    """min_sum of every row (alphas[j], xs[j], ys[j]), as a float array, each
    row checked in order before the first pass."""
    for alpha, X, Y in zip(alphas, xs, ys):
        if X < 1 or Y < 1:
            raise ValueError("X and Y must be >= 1")
        _check_min_terms(alpha, math.floor(X))
    return _min_terms_sum(alphas, [math.floor(X) for X in xs],
                          [float(X) * float(Y) for X, Y in zip(xs, ys)])


def min_sum(alpha: Coeff, X: float, Y: float) -> float:
    """sum_{1 <= v <= X} min(X*Y/v, 1/||alpha*v||) with the convention that a
    vanishing ||alpha*v|| picks the X*Y/v branch."""
    return float(min_sums([alpha], [X], [Y])[0])


def min_sum_bound(X: float, Y: float, approx: ApproxPair) -> float:
    """Bound shape for min_sum: X*Y*(1/v + 1/Y + v/(X*Y)) * log(2*X*v), natural log."""
    if X < 1 or Y < 1:
        raise ValueError("X and Y must be >= 1")
    v = approx.v
    xy = float(X) * float(Y)
    return xy * (1.0 / v + 1.0 / Y + v / xy) * math.log(2.0 * X * v)


def weyl_min_sum_bounds(alphas: Sequence[Coeff], k: int, Q: int, eps: float) -> list[float]:
    """weyl_min_sum_bound of every coefficient at degree k, the minimum sums
    in passes over all coefficients at once."""
    _check_q(Q)
    delta = float(delta_exponent(k))
    qk = float_power(Q, k)
    scale = float_power(Q, 1.0 + eps)
    for alpha in alphas:
        _check_min_terms(alpha, Q)
    inner = _min_terms_sum(alphas, [Q] * len(alphas), [qk] * len(alphas))
    return [scale * (1.0 / Q + s / qk) ** delta for s in inner.tolist()]


def weyl_min_sum_bound(phase: MonomialPhase, Q: int, eps: float) -> float:
    """Weyl-sum bound via the minimum sum:
    Q^(1+eps) * (1/Q + Q^-k * sum_{v<=Q} min(Q^k/v, 1/||v*alpha||))^delta;
    raises CapacityError when Q^k or Q^(1+eps) is above the float range."""
    return weyl_min_sum_bounds([phase.alpha], phase.k, Q, eps)[0]


def fourier_majorant(Q: int, k: int, mode: Mode, center_base: tuple[int, int],
                     x) -> MajorantResult:
    """Poisson-transformed majorant of the number of points of the system
    (Q, k, mode) within radius x of the member point b/r^k; it counts nothing
    itself (farey.count_near gives the exact count it dominates).

    Per modulus q^k the transform is sum_{|a| <= B_q} w(a/B_q) / B_q *
    e(a b q^k / r^k) with B_q = 1/(2 q^k x) and the weight
    w(s) = (pi^2/4) max(1 - |s|, 0), the Fourier transform of the Fejer-type
    kernel (sin(pi x) / (2x))^2, which majorises the indicator of [-1/2, 1/2].
    Each B_q is rounded one step toward zero so majorant_value >=
    count_near(Q, k, mode, b/r^k, x) holds exactly (up to the trig roundoff of
    the finite sum).  If the shortest truncation is < 1 the trivial majorant
    |points| is reported instead.
    """
    b, r = center_base
    if x <= 0:
        raise ValueError("x must be > 0")
    if not is_member(Q, k, mode, b, r):
        raise ValueError(f"({b}, {r}) is not a point of the system")
    rk = r ** k
    xr = _radius_as_fraction(x)
    xn, xd = xr.numerator, xr.denominator

    mods = np.array([q ** k for q in system_bases(Q, k, mode)], dtype=np.int64)
    # the exact ratio 1/(2 q^k x) rounded strictly downward, so the transform's
    # covered radius is >= the counting radius
    # (int / int is correctly rounded, so this is float(Fraction(xd, 2 qk xn)))
    bqs = np.array([math.nextafter(xd / (2 * qk * xn), 0.0) for qk in mods.tolist()],
                   dtype=np.float64)
    b_cap = float(bqs.min())
    if b_cap < 1.0:
        size = float(system_size(Q, k, mode))
        return MajorantResult(majorant_value=size, main_term=size, tail=0.0, B=b_cap)
    if b_cap >= float(MODULUS_CAP):
        raise CapacityError(
            f"truncation length {b_cap} exceeds the supported width (< 2^31)")
    value, main = kernels.majorant_sum(b % rk, rk, mods, bqs)
    return MajorantResult(majorant_value=float(value), main_term=float(main),
                          tail=float(value - main), B=b_cap)
