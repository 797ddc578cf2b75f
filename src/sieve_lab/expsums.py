"""Weyl sums for monomial phases, min-sum bounds, and the Fourier majorant.

Rational phase coefficients are evaluated with exact modular arithmetic
(a * q^k mod denominator), so the phase never degrades no matter how large
q^k gets; float coefficients go through a split reduction that keeps the
mod-1 phase accurate to ~1e-13 at desk scale.

Each sum has one function, over many coefficients at once: weyl_sum,
weyl_min_sum_bound and min_sum compute one value per coefficient in 2-D numpy
passes of at most kernels.ROW_BLOCK_TERMS terms, and a row's value is the same
double whatever else is in the batch.  The minimum sums sum_v min(XY/v,
1/||v alpha||) use exact int64 residues v * num mod den for rational alpha and
np.remainder for floats, added left to right along each row, so each is the
double a plain loop gives.  The Weyl sums and bounds take degrees k >= 2
only (bounds.check_degree).

The exact paths (Weyl sums and minimum sums) take rational denominators below
2^31 only; _split alone raises CapacityError above.  Every Weyl and minimum sum
raises CapacityError, before allocating, when it has more than TERM_BUDGET =
2^22 terms.  A batch checks all its rows before its first pass, and
check_weyl_table checks a whole Weyl table once per (k, Q) before any sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import kernels
from .arith import ApproxPair, float_power
from .bounds import check_degree, delta_exponent
from .errors import CapacityError
from .farey import (MODULUS_CAP, Mode, _radius_as_fraction, is_member, system_bases,
                    system_size)

Coeff = Union[int, float, Fraction]

_FLOAT_POWER_CAP = 1 << 53  # q**k must stay exactly representable on the float path
# Most terms one Weyl sum (q in (Q, 2Q]) or minimum sum (v <= X) takes; its
# numpy temporaries need about 64 bytes a term, about 300 MB at the budget.
TERM_BUDGET = 1 << 22


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


def _check_cell(k: int, Q: int) -> None:
    """k >= 2, Q >= 1, and the Q terms of a Weyl sum and of its minimum sum in
    budget."""
    check_degree(k)
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    _check_terms(Q)


def _check_float_width(k: int, Q: int) -> None:
    if (2 * Q) ** k >= _FLOAT_POWER_CAP:
        raise CapacityError(
            f"(2Q)^k = {(2 * Q) ** k} exceeds the float-path width (< 2^53)")


def check_weyl_table(alphas: Sequence[Coeff], k_values: Sequence[int],
                     q_values: Sequence[int], eps: float) -> None:
    """Raise what weyl_sum and weyl_min_sum_bound raise on the table's cells,
    without summing.  By kind, each over every (k, Q) k-major: first the
    degree, Q, the term budget and the float range of Q^k and Q^(1+eps); then
    the denominators (one _split); then, with a float alpha, the float-path
    width.  A bound above the float range it cannot foresee, since the bound
    needs the minimum sums: weyl_min_sum_bound raises that one."""
    cells = [(k, Q) for k in k_values for Q in q_values]
    for k, Q in cells:
        _check_cell(k, Q)
        float_power(Q, k)
        float_power(Q, 1.0 + eps)
    if _split(alphas)[3]:
        for k, Q in cells:
            _check_float_width(k, Q)


def _split(alphas: Sequence[Coeff]):
    """(indices, reduced numerators, denominators) of the rational
    coefficients and (indices, float values) of the others."""
    exact = [i for i, a in enumerate(alphas) if _is_exact(a)]
    floats = [i for i, a in enumerate(alphas) if not _is_exact(a)]
    reduced = np.array([_reduced(alphas[i]) for i in exact], dtype=np.int64).reshape(-1, 2)
    values = np.array([float(alphas[i]) for i in floats], dtype=np.float64)
    return exact, reduced[:, 0], reduced[:, 1], floats, values


def weyl_sum(alphas: Sequence[Coeff], Q: int, k: int) -> np.ndarray:
    """Per coefficient alpha, sum_{Q < q <= 2Q} e(alpha * q**k), phase-reduced
    mod 1 before exponentiating, as a complex array: the rational ones through
    kernels.weyl_rational, the float ones through kernels.weyl_float.  Raises
    CapacityError above TERM_BUDGET terms."""
    _check_cell(k, Q)
    exact, nums, dens, floats, values = _split(alphas)
    if floats:
        _check_float_width(k, Q)
    out = np.empty(len(alphas), dtype=np.complex128)
    out[exact] = kernels.weyl_rational(nums, dens, k, Q, 2 * Q)
    out[floats] = kernels.weyl_float([a % 1.0 for a in values.tolist()], k, Q, 2 * Q)
    return out


def _min_terms_sum(alphas: Sequence[Coeff], counts: Sequence[int],
                   xys: Sequence[float]) -> np.ndarray:
    """Per row j, sum_{1 <= v <= counts[j]} min(xys[j]/v, 1/||v*alphas[j]||),
    as a float array; a vanishing ||v*alpha|| picks the xy/v branch.  The
    caller checks each row's term count first, and _split the denominators.

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


def min_sum(alphas: Sequence[Coeff], xs: Sequence[float],
            ys: Sequence[float]) -> np.ndarray:
    """Per row j, sum_{1 <= v <= X} min(X*Y/v, 1/||alpha*v||) with (alpha, X,
    Y) = (alphas[j], xs[j], ys[j]), as a float array; a vanishing
    ||alpha*v|| picks the X*Y/v branch.  Each row is checked in order before
    the first pass."""
    for X, Y in zip(xs, ys):
        if X < 1 or Y < 1:
            raise ValueError("X and Y must be >= 1")
        _check_terms(math.floor(X))
    return _min_terms_sum(alphas, [math.floor(X) for X in xs],
                          [float(X) * float(Y) for X, Y in zip(xs, ys)])


def min_sum_bound(X: float, Y: float, approx: ApproxPair) -> float:
    """Bound shape for min_sum: X*Y*(1/v + 1/Y + v/(X*Y)) * log(2*X*v), natural log."""
    if X < 1 or Y < 1:
        raise ValueError("X and Y must be >= 1")
    v = approx.v
    xy = float(X) * float(Y)
    return xy * (1.0 / v + 1.0 / Y + v / xy) * math.log(2.0 * X * v)


def weyl_min_sum_bound(alphas: Sequence[Coeff], Q: int, k: int, eps: float) -> list[float]:
    """Per coefficient alpha, the Weyl-sum bound via the minimum sum:
    Q^(1+eps) * (1/Q + Q^-k * sum_{v<=Q} min(Q^k/v, 1/||v*alpha||))^delta,
    the minimum sums in passes over all coefficients at once; raises
    CapacityError when Q^k, Q^(1+eps) or a bound is above the float range."""
    _check_cell(k, Q)
    delta = float(delta_exponent(k))
    qk = float_power(Q, k)
    scale = float_power(Q, 1.0 + eps)
    inner = _min_terms_sum(alphas, [Q] * len(alphas), [qk] * len(alphas))
    bounds = [scale * (1.0 / Q + s / qk) ** delta for s in inner.tolist()]
    if not all(map(math.isfinite, bounds)):
        raise CapacityError(f"Weyl bound at Q = {Q}, k = {k}, eps = {eps} "
                            f"is above the float range")
    return bounds


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
    |points| is reported instead; one of 2^31 or more raises CapacityError: it keeps
    n = floor(B_q) < 2^62, so kernels.majorant_sum's 2n+1 and ((2n+1) mod 2r^k) * s0 < 2^63.
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
