"""Hot numeric kernels in numpy: quadratic forms, autocorrelation, Weyl phase
sums, the majorant transform sum and the pairwise counting integral.

Each kernel has one form.  The quadratic form and the Weyl sums are batched:
quadform, the one entry of the sieve quadratic form, evaluates a (B, N) array
of coefficient vectors by one FFT of the folded rows per modulus, and
weyl_rational and weyl_float one Weyl sum per phase coefficient over a shared
range of q.  A 1-D vector, or a scalar coefficient, is a batch of one that
returns its float or complex.

All integer phase arithmetic stays inside int64: callers keep every modulus
< 2**31 (see farey.MODULUS_CAP), so products of two reduced residues stay below
2**62, and the majorant's ((2n+1) mod 2r^k) * s0 below 2**63 (see _sin_pi).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError

_SPLIT_BITS = 26
_SPLIT = 1 << _SPLIT_BITS  # high/low split of a float phase for exact mod-1 reduction
PI_SQ_OVER_4 = math.pi * math.pi / 4.0
# Element budget of one dense numpy block: autocorr's phase blocks, and
# quadform's FFT steps of rows x q^k, which also caps the modulus it takes.
BLOCK_ELEMENTS = 1 << 21
# Most terms one row-blocked pass takes (row_blocks).  The Weyl tables are
# hundreds to thousands of short rows, one per phase coefficient; passes of
# this size (128 KB per int64 or float temporary, 256 KB per complex one) keep
# the weyl command's peak memory near a child's that sums nothing.  On a
# 2-core VM the `weyl --Q 64,256,1024 --k 2,3 --samples 2000` child peaked at
# 32.0 MB with them, 36.3 MB with 2^16-term passes and 59.3 MB with one pass
# per batch.
ROW_BLOCK_TERMS = 1 << 14
# The one kernel implementation; printed in run manifests.
ACTIVE_LANE = "numpy"


def quadform(nums, mods, m_offs, vs):
    """Per row b of vs (shape (B, N)), the quadratic form
    sum_j |sum_i vs[b, i] e(a_j * (M+1+i) / qk_j)|^2, as an array of B; a 1-D
    vs is a batch of one and gives its float.

    The shift M (m_offs, one per row or one for all) cannot change the value:
    it multiplies each inner sum by e(a_j (M+1) / qk_j), of modulus 1.  So the
    rows are summed from n = 0, and m_offs is not read.  The phase of n
    depends only on n mod q^k, so per modulus each row folds into
    width = min(q^k, N) residue sums w_r = sum_{n = r mod q^k} v_n, and
    sum_n v_n e(a n / q^k) = sum_r w_r e(a r / q^k), which over all a at once
    is the length-q^k DFT of w read at the indices (-a) mod q^k.  The FFTs
    run in steps of rows with rows x q^k <= BLOCK_ELEMENTS, so memory is at
    most BLOCK_ELEMENTS for the transform and for its values at the points,
    plus B x width for the folded rows.  The transform length is q^k, not
    width: a modulus above BLOCK_ELEMENTS raises CapacityError before anything
    is allocated.  lemma1 never meets that: under farey.PAIR_BUDGET its
    largest modulus is 2**16, at Q = 2, k = 16.  A batch of no rows gives an
    empty array; vs of other than one or two dimensions, or with N < 1,
    raises ValueError.
    """
    moduli = sorted(set(mods.tolist()))
    if moduli and moduli[-1] > BLOCK_ELEMENTS:
        raise CapacityError(f"modulus {moduli[-1]} is above the quadratic form's "
                            f"transform budget of {BLOCK_ELEMENTS}")
    vs = np.asarray(vs, dtype=np.complex128)
    if vs.ndim not in (1, 2) or vs.shape[-1] < 1:
        raise ValueError(f"vs must be a 1-D or (B, N) array with N >= 1, got shape {vs.shape}")
    single = vs.ndim == 1
    vs = np.atleast_2d(vs)
    nb, n = vs.shape
    totals = np.zeros(nb)
    for qk in moduli:
        at = -nums[mods == qk] % qk
        width = min(qk, n)
        full = n - n % width
        w = vs[:, :full].reshape(nb, full // width, width).sum(axis=1)
        w[:, :n - full] += vs[:, full:]
        step = BLOCK_ELEMENTS // qk
        for start in range(0, nb, step):
            # np.fft by attribute, loaded on first use: a command that never
            # calls quadform loads no numpy.fft
            s = np.fft.fft(w[start:start + step], qk, axis=1)[:, at]
            totals[start:start + step] += np.sum(s.real * s.real + s.imag * s.imag, axis=1)
    return float(totals[0]) if single else totals


def autocorr(nums, mods, n_len):
    """c[t] = sum_j e(a_j * t / qk_j) for t = 0..n_len-1, from exact residues."""
    out = np.zeros(n_len, dtype=np.complex128)
    ts = np.arange(n_len, dtype=np.int64)
    # np.int64 moduli, so 2j * np.pi / qk divides in numpy
    for qk in map(np.int64, sorted(set(mods.tolist()))):
        sel = nums[mods == qk]
        tmod = ts % qk
        block = max(1, BLOCK_ELEMENTS // max(1, n_len))
        for start in range(0, sel.shape[0], block):
            rows = sel[start:start + block]
            ph = (rows[:, None] * tmod[None, :]) % qk
            out += np.exp((2j * np.pi / qk) * ph).sum(axis=0)
    return out


def row_blocks(n_rows, width):
    """Slices of consecutive rows, ROW_BLOCK_TERMS // width of them (at least
    one) per slice, covering range(n_rows)."""
    step = max(1, ROW_BLOCK_TERMS // max(1, width))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def weyl_rational(num_reds, dens, k, q_lo, q_hi):
    """Per row j, sum_{q_lo < q <= q_hi} e(num_reds[j] * q**k / dens[j]) via
    exact modular residues, as a complex array, in passes of row_blocks; a
    scalar num_red and den are a batch of one and give its complex."""
    single = np.ndim(dens) == 0
    num_reds = np.atleast_1d(np.asarray(num_reds, dtype=np.int64))
    dens = np.atleast_1d(np.asarray(dens, dtype=np.int64))
    qs = np.arange(q_lo + 1, q_hi + 1, dtype=np.int64)
    # each row's scale is the Python complex 2j*pi/den: numpy's complex
    # division rounds differently
    scales = np.array([2j * np.pi / den for den in dens.tolist()], dtype=np.complex128)
    out = np.empty(dens.shape[0], dtype=np.complex128)
    for rows in row_blocks(dens.shape[0], qs.shape[0]):
        den = dens[rows, None]
        p = qs % den
        pw = np.ones_like(p)
        for _ in range(k):
            pw = (pw * p) % den
        r = (num_reds[rows, None] * pw) % den
        out[rows] = np.sum(np.exp(scales[rows, None] * r), axis=1)
    return complex(out[0]) if single else out


def weyl_float(alpha_fracs, k, q_lo, q_hi):
    """Per row j, sum_{q_lo < q <= q_hi} e(alpha_fracs[j] * q**k) with the phase
    split into an exact 2**-26 grid part plus a small float remainder, so the
    mod-1 reduction never loses the phase; a complex array, in passes of
    row_blocks, or for a scalar alpha_frac a batch of one that gives its
    complex."""
    single = np.ndim(alpha_fracs) == 0
    alpha_fracs = np.atleast_1d(np.asarray(alpha_fracs, dtype=np.float64)).tolist()
    qs = np.arange(q_lo + 1, q_hi + 1, dtype=np.int64)
    p = np.ones_like(qs)
    for _ in range(k):
        p = p * qs
    p_grid, p_float = p % _SPLIT, p.astype(np.float64)
    ms = [int(a * _SPLIT) for a in alpha_fracs]
    grid = np.array(ms, dtype=np.int64)
    rest = np.array([a - m / _SPLIT for a, m in zip(alpha_fracs, ms)], dtype=np.float64)
    out = np.empty(len(ms), dtype=np.complex128)
    for rows in row_blocks(len(ms), qs.shape[0]):
        hi = ((grid[rows, None] * p_grid) % _SPLIT).astype(np.float64) / _SPLIT
        ph = (hi + rest[rows, None] * p_float) % 1.0
        out[rows] = np.sum(np.exp(2j * np.pi * ph), axis=1)
    return complex(out[0]) if single else out


def _sin_pi(j, s, rk):
    """sin(pi*j*s/rk) from the exact int64 residue (j mod 2rk)*s mod 2rk, folded into [0, pi/2]."""
    m = j % (2 * rk) * s % (2 * rk)
    r = m % rk
    return np.where(m < rk, 1.0, -1.0) * np.sin(np.pi * (np.minimum(r, rk - r) / rk))


def majorant_sum(b_red, rk, mods, bqs):
    """Poisson-transformed majorant sum over the given moduli; returns (value, a0_term).

    bqs[j] is the truncation length for modulus mods[j], 1/(2*qk*x) rounded down
    by the caller.  Terms a in 1..n = floor(B_q), weight (pi^2/4) * (1 - a/B_q)
    times cos(2*pi*a*s0/rk), s0 = b*qk mod rk, sum by the Dirichlet and Fejer
    kernels, with S(j) = sin(pi*j*s0/rk), to ((1 - (n+1)/B_q) (S(2n+1)/S(1) - 1)
    + ((S(n+1)/S(1))^2 - (n+1))/B_q) / 2, or n - n(n+1)/(2 B_q) if s0 = 0: one
    pass over the moduli whatever B_q, adding them left to right.  The sines'
    int64 residues need ((2n+1) mod 2rk) * s0 < 2**63, which rk < 2**31 gives.
    """
    s0 = (b_red * (mods % rk)) % rk
    s = np.where(s0 == 0, 1, s0)  # any nonzero residue: s0 = 0 takes the plain weight sum
    n, n_int = np.floor(bqs), bqs.astype(np.int64)
    s1 = _sin_pi(1, s, rk)
    dirichlet = _sin_pi(2 * n_int + 1, s, rk) / s1
    fejer = (_sin_pi(n_int + 1, s, rk) / s1) ** 2
    tail = np.where(s0 == 0, n - n * (n + 1) / (2 * bqs),
                    ((1 - (n + 1) / bqs) * (dirichlet - 1) + (fejer - (n + 1)) / bqs) / 2)
    terms = PI_SQ_OVER_4 / bqs
    return float(np.cumsum(terms * (1 + 2 * tail))[-1]), float(np.cumsum(terms)[-1])


def pairwise_integral_max(nums, mods, n_len):
    """max over centers (b, rk) in the system of
    sum_{points with d <= 1/2} (1/max(d, 1/N) - 2), d = |a*rk - b*qk|/(qk*rk).

    All comparisons are exact in int64; the single float division per term is
    the only rounding.
    """
    best = 0.0
    for j in range(nums.shape[0]):
        big = np.abs(nums * mods[j] - nums[j] * mods)
        vol = mods * mods[j]
        near = big <= vol // 2
        inner = big <= vol // n_len
        terms = np.where(inner, float(n_len) - 2.0, vol / np.maximum(big, 1) - 2.0)
        acc = float(np.sum(np.where(near, terms, 0.0)))
        if acc > best:
            best = acc
    return best
