"""Hot numeric kernels, each in two lanes: a numba @njit loop and a pure-numpy path.

The lane is picked once at import time: numba is used when it imports cleanly
unless the environment variable SIEVE_LAB_NO_NUMBA is set to a truthy value
(1/true/yes/on).  The numpy lane is always available; the *_numba twins exist
only when numba does, so tests and benchmarks can compare lanes side by side.
The batched quadratic form quadform_batch has no loop twin: it is numpy-only,
and the numpy lane's single-vector quadform is its batch of one.

All integer phase arithmetic stays inside int64: callers guarantee that every
modulus is < 2**31 (see farey.MODULUS_CAP), so products of two reduced
residues never exceed 2**62.
"""

from __future__ import annotations

import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
_SPLIT_BITS = 26
_SPLIT = 1 << _SPLIT_BITS  # high/low split of a float phase for exact mod-1 reduction
PI_SQ_OVER_4 = math.pi * math.pi / 4.0
# Element budget of one dense numpy block: phase matrices, their products and
# the coefficient batches the lemma1 command evaluates at once.
BLOCK_ELEMENTS = 1 << 21


def numba_disabled_by_env() -> bool:
    return os.environ.get("SIEVE_LAB_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not numba_disabled_by_env()


# ---------------------------------------------------------------------------
# loop cores (numba lane; also plain-Python runnable, which the tests exploit)
# ---------------------------------------------------------------------------

def _quadform_core(nums, mods, m_off, v):
    """sum_j |sum_i v[i] e(a_j * (m_off+1+i) / qk_j)|^2 with exact residues."""
    total = 0.0
    n = v.shape[0]
    for j in range(nums.shape[0]):
        a = nums[j]
        qk = mods[j]
        r = (a * ((m_off + 1) % qk)) % qk
        sre = 0.0
        sim = 0.0
        for i in range(n):
            ang = TWO_PI * (r / qk)
            c = math.cos(ang)
            s = math.sin(ang)
            sre += v[i].real * c - v[i].imag * s
            sim += v[i].real * s + v[i].imag * c
            r += a
            if r >= qk:
                r -= qk
        total += sre * sre + sim * sim
    return total


def _autocorr_core(nums, mods, out):
    """out[t] += sum_j e(a_j * t / qk_j) for t = 0..len(out)-1."""
    n = out.shape[0]
    for j in range(nums.shape[0]):
        a = nums[j]
        qk = mods[j]
        r = 0
        for t in range(n):
            ang = TWO_PI * (r / qk)
            out[t] += complex(math.cos(ang), math.sin(ang))
            r += a
            if r >= qk:
                r -= qk


def _weyl_rational_core(num_red, den, k, q_lo, q_hi):
    """sum_{q_lo < q <= q_hi} e(num_red * q**k / den) via exact modular residues."""
    sre = 0.0
    sim = 0.0
    for q in range(q_lo + 1, q_hi + 1):
        p = q % den
        pw = 1
        for _ in range(k):
            pw = (pw * p) % den
        r = (num_red * pw) % den
        ang = TWO_PI * (r / den)
        sre += math.cos(ang)
        sim += math.sin(ang)
    return complex(sre, sim)


def _weyl_float_core(alpha_frac, k, q_lo, q_hi):
    """sum e(alpha_frac * q**k) with the phase split into an exact 2**-26 grid part
    plus a small float remainder, so the mod-1 reduction never loses the phase."""
    m = int(alpha_frac * _SPLIT)
    lo_part = alpha_frac - m / _SPLIT
    sre = 0.0
    sim = 0.0
    for q in range(q_lo + 1, q_hi + 1):
        p = 1
        for _ in range(k):
            p *= q
        hi = ((m * (p % _SPLIT)) % _SPLIT) / _SPLIT
        ph = (hi + lo_part * p) % 1.0
        ang = TWO_PI * ph
        sre += math.cos(ang)
        sim += math.sin(ang)
    return complex(sre, sim)


def _majorant_core(b_red, rk, mods, bqs):
    """Poisson-transformed majorant sum over the given moduli; returns (value, a0_term).

    bqs[j] is the truncation length for modulus mods[j] (1/(2*qk*x), rounded
    down by the caller so the transform provably dominates the exact count).
    The a-sum uses the exact residue of a*b*qk mod rk and the triangular
    weight (pi^2/4) * max(1 - |a|/B_q, 0).
    """
    total = 0.0
    main = 0.0
    for j in range(mods.shape[0]):
        qk = mods[j]
        bq = bqs[j]
        s0 = (b_red * (qk % rk)) % rk
        n_a = int(bq)
        inv_b = 1.0 / bq
        acc = 1.0  # a = 0 term carries weight 1
        r = 0
        for a in range(1, n_a + 1):
            r += s0
            if r >= rk:
                r -= rk
            w = 1.0 - a * inv_b
            if w < 0.0:
                w = 0.0
            acc += 2.0 * w * math.cos(TWO_PI * (r / rk))
        total += PI_SQ_OVER_4 * inv_b * acc
        main += PI_SQ_OVER_4 * inv_b
    return total, main


def _pairwise_integral_core(nums, mods, n_len):
    """max over centers (b, rk) in the system of
    sum_{points with d <= 1/2} (1/max(d, 1/N) - 2), d = |a*rk - b*qk|/(qk*rk).

    All comparisons are exact in int64; the single float division per term is
    the only rounding.
    """
    best = 0.0
    npts = nums.shape[0]
    for j in range(npts):
        b = nums[j]
        rk = mods[j]
        acc = 0.0
        for i in range(npts):
            big = nums[i] * rk - b * mods[i]
            if big < 0:
                big = -big
            vol = mods[i] * rk
            if big <= vol // 2:
                if big <= vol // n_len:
                    acc += n_len - 2.0
                else:
                    acc += vol / big - 2.0
        if acc > best:
            best = acc
    return best


# ---------------------------------------------------------------------------
# numpy lane
# ---------------------------------------------------------------------------

def quadform_batch(nums, mods, m_offs, vs):
    """Per row b of vs (shape (B, N)) with offset m_offs[b], the quadratic form
    sum_j |sum_i vs[b, i] e(a_j * (m_offs[b]+1+i) / qk_j)|^2, as an array of B.

    The phase of n depends only on n mod q^k, so per modulus each row folds
    into its residue sums w_r = sum_{n = r mod q^k} v_n and
    sum_n v_n e(a n / q^k) = sum_r w_r e(a r / q^k).  When q^k exceeds the
    span of the batch (N plus the spread of the offsets) the rows are instead
    placed at their offsets in the covered interval, one column per n.  Either
    way one phase matrix, built from the exact integer residues a*r mod q^k,
    serves the whole batch through one matrix product per block of points.
    Memory per block is at most BLOCK_ELEMENTS for the phase matrix and for
    the product, plus B x min(q^k, span) for the folded or placed rows.
    """
    vs = np.asarray(vs, dtype=np.complex128)
    m_offs = np.asarray(m_offs, dtype=np.int64)
    nb, n = vs.shape
    totals = np.zeros(nb)
    lo = int(m_offs.min())
    span = n + int(m_offs.max()) - lo
    placed = None
    for qk in np.unique(mods).tolist():
        sel = nums[mods == qk]
        if qk <= span:
            full = n - n % qk
            w = vs[:, :full].reshape(nb, full // qk, qk).sum(axis=1)
            w[:, :n - full] += vs[:, full:]
            # w[b, i mod qk] sums v_n for n = m_b+1+i: rotate by (m_b+1) mod qk
            shift = (m_offs + 1) % qk
            w = np.take_along_axis(w, (np.arange(qk) - shift[:, None]) % qk, axis=1)
            cols = np.arange(qk, dtype=np.int64)
        else:
            if placed is None:
                placed = np.zeros((nb, span), dtype=np.complex128)
                for m in np.unique(m_offs).tolist():
                    same = m_offs == m
                    placed[same, m - lo:m - lo + n] = vs[same]
            w = placed
            cols = np.arange(lo + 1, lo + span + 1, dtype=np.int64) % qk
        block = max(1, BLOCK_ELEMENTS // max(cols.shape[0], nb))
        for start in range(0, sel.shape[0], block):
            rows = sel[start:start + block]
            e = np.exp((2j * np.pi / qk) * ((rows[:, None] * cols[None, :]) % qk))
            s = w @ e.T
            totals += np.sum(s.real * s.real + s.imag * s.imag, axis=1)
    return totals


def quadform_numpy(nums, mods, m_off, v):
    """One vector v with offset m_off through quadform_batch, as a float."""
    return float(quadform_batch(nums, mods, [m_off], np.asarray(v)[None])[0])


def autocorr_numpy(nums, mods, n_len):
    out = np.zeros(n_len, dtype=np.complex128)
    ts = np.arange(n_len, dtype=np.int64)
    for qk in np.unique(mods):
        sel = nums[mods == qk]
        tmod = ts % qk
        block = max(1, BLOCK_ELEMENTS // max(1, n_len))
        for start in range(0, sel.shape[0], block):
            rows = sel[start:start + block]
            ph = (rows[:, None] * tmod[None, :]) % qk
            out += np.exp((2j * np.pi / qk) * ph).sum(axis=0)
    return out


def weyl_rational_numpy(num_red, den, k, q_lo, q_hi):
    qs = np.arange(q_lo + 1, q_hi + 1, dtype=np.int64)
    p = qs % den
    pw = np.ones_like(qs)
    for _ in range(k):
        pw = (pw * p) % den
    r = (num_red * pw) % den
    return complex(np.sum(np.exp((2j * np.pi / den) * r)))


def weyl_float_numpy(alpha_frac, k, q_lo, q_hi):
    qs = np.arange(q_lo + 1, q_hi + 1, dtype=np.int64)
    m = int(alpha_frac * _SPLIT)
    lo_part = alpha_frac - m / _SPLIT
    p = np.ones_like(qs)
    for _ in range(k):
        p = p * qs
    hi = ((m * (p % _SPLIT)) % _SPLIT).astype(np.float64) / _SPLIT
    ph = (hi + lo_part * p.astype(np.float64)) % 1.0
    return complex(np.sum(np.exp(2j * np.pi * ph)))


def majorant_numpy(b_red, rk, mods, bqs):
    total = 0.0
    main = 0.0
    for qk, bq in zip(mods.tolist(), bqs.tolist()):
        s0 = (b_red * (qk % rk)) % rk
        n_a = int(bq)
        a = np.arange(1, n_a + 1, dtype=np.int64)
        r = (a * s0) % rk
        w = np.maximum(1.0 - a * (1.0 / bq), 0.0)
        acc = 1.0 + 2.0 * float(np.sum(w * np.cos(TWO_PI * (r / rk))))
        total += PI_SQ_OVER_4 / bq * acc
        main += PI_SQ_OVER_4 / bq
    return total, main


def pairwise_integral_max_numpy(nums, mods, n_len):
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


# ---------------------------------------------------------------------------
# lane selection
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    _njit = numba.njit(cache=True, nogil=True)
    quadform_numba = _njit(_quadform_core)
    autocorr_numba = _njit(_autocorr_core)
    weyl_rational_numba = _njit(_weyl_rational_core)
    weyl_float_numba = _njit(_weyl_float_core)
    majorant_numba = _njit(_majorant_core)
    pairwise_integral_max_numba = _njit(_pairwise_integral_core)


def autocorr_loop(nums, mods, n_len):
    out = np.zeros(n_len, dtype=np.complex128)
    autocorr_numba(nums, mods, out)
    return out


if USE_NUMBA:
    quadform = quadform_numba
    autocorr = autocorr_loop
    weyl_rational = weyl_rational_numba
    weyl_float = weyl_float_numba
    majorant_sum = majorant_numba
    pairwise_integral_max = pairwise_integral_max_numba
else:
    quadform = quadform_numpy
    autocorr = autocorr_numpy
    weyl_rational = weyl_rational_numpy
    weyl_float = weyl_float_numpy
    majorant_sum = majorant_numpy
    pairwise_integral_max = pairwise_integral_max_numpy

ACTIVE_LANE = "numba" if USE_NUMBA else "numpy"
