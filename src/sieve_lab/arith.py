"""Exact rational arithmetic, Dirichlet approximation and the seeded stream.

Rationals are plain fractions.Fraction values (always stored reduced, positive
denominator), so every counting comparison downstream can be done in exact
integer arithmetic.  Reals are double precision throughout.  Dirichlet
approximation works on the exact integer ratio of its argument (int, float or
Fraction), with no Fraction built per step.

Every random draw of the package comes from one keyed, counter-based
splitmix64 stream (Steele, Lea and Flood 2014), in plain numpy uint64
arithmetic, which wraps mod 2^64: numpy.random, whose import loads OpenSSL's
libcrypto (about 6 MB of peak RSS), is never imported.  A draw is fixed by the
seed (a command's --seed), a key of nonnegative ints and a word index, so no
draw depends on the order of the others.  The key's first part names the draw
site: 0 the Weyl coefficients (regression.sample_alphas), 1 the min-sum
samples, 2 lemma1's coefficient vectors and 3 majorant's centres; the Lanczos
start (sieve.start_vector) takes the empty key.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .errors import CapacityError

Real = Union[int, float, Fraction]

# The seed of every draw when a command takes no --seed or is given none.
DEFAULT_SEED = 0xC0FFEE
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_LOW32 = np.uint64(0xFFFFFFFF)


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


def _words(state: int, index: np.ndarray) -> np.ndarray:
    """splitmix64's outputs mix(state + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    for the word indices i in the uint64 array `index`."""
    z = (index + np.uint64(1)) * _GOLDEN
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _keyed_state(seed: int, key: tuple[int, ...]) -> int:
    """The state of the stream of (seed, key): the seed for the empty key;
    otherwise, for each key part p in turn, word p of the stream so far."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed!r}")
    state = seed
    for part in key:
        state = int(_words(state, np.array([part], dtype=np.uint64))[0])
    return state


def splitmix64(seed: int, key: tuple[int, ...], first: int, count: int) -> np.ndarray:
    """Words first .. first + count - 1 of the stream of (seed, key), as uint64."""
    return _words(_keyed_state(seed, key), np.arange(first, first + count, dtype=np.uint64))


def uniforms(seed: int, key: tuple[int, ...], first: int, count: int) -> np.ndarray:
    """count doubles in (0, 1], ((z >> 11) + 1) 2^-53 of the words z from `first`."""
    return ((splitmix64(seed, key, first, count) >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53


def gaussian_pairs(seed: int, key: tuple[int, ...], first: int,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs first .. first + count - 1 of independent standard Gaussians, as
    (cosine halves, sine halves): pair i applies Box-Muller (1958) to the
    uniforms u, v of words 2i and 2i + 1, sqrt(-2 ln u) (cos 2 pi v, sin 2 pi v)."""
    u = uniforms(seed, key, 2 * first, 2 * count)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    return radius * np.cos(angle), radius * np.sin(angle)


def integers(seed: int, key: tuple[int, ...], bound, count: int) -> np.ndarray:
    """count exact uniform int64 draws, entry i in [0, b_i), where `bound` is
    one int or count ints b_i, each in [1, 2^32].

    Lemire's multiply-and-reject (ACM TOMACS 29, 2019) on 32-bit candidates x:
    with m = x b_i, x is rejected when m mod 2^32 < (2^32 - b_i) mod b_i, and
    otherwise gives m >> 32.  Entry i takes its candidates from the low, then
    the high half of word i, then of word i + count, i + 2 count, and so on,
    so it reads word i alone unless its first two candidates are rejected,
    which has probability below 2^-16 for b_i <= 2^24.
    """
    b = np.broadcast_to(np.asarray(bound, dtype=np.int64), (count,))
    if count and not (b.min() >= 1 and b.max() <= 1 << 32):
        raise ValueError(f"bound must lie in [1, 2^32], got {bound!r}")
    b = b.astype(np.uint64)
    threshold = (np.uint64(1 << 32) - b) % b
    state = _keyed_state(seed, key)
    out = np.empty(count, dtype=np.int64)
    todo = np.arange(count, dtype=np.uint64)
    candidate = 0
    while todo.size:
        z = _words(state, todo + np.uint64(candidate // 2 * count))
        m = ((z >> np.uint64(32 * (candidate % 2))) & _LOW32) * b[todo]
        keep = (m & _LOW32) >= threshold[todo]
        out[todo[keep]] = m[keep] >> np.uint64(32)
        todo = todo[~keep]
        candidate += 1
    return out
