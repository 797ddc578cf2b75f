"""Hot numeric kernels in numpy: quadratic forms, autocorrelation, Weyl phase
sums, the majorant transform sum and the pairwise counting integral.

The quadratic form is batched: quadform_batch evaluates many coefficient
vectors in one pass, and quadform is its batch of one.

All integer phase arithmetic stays inside int64: callers guarantee that every
modulus is < 2**31 (see farey.MODULUS_CAP), so products of two reduced
residues never exceed 2**62.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
_SPLIT_BITS = 26
_SPLIT = 1 << _SPLIT_BITS  # high/low split of a float phase for exact mod-1 reduction
PI_SQ_OVER_4 = math.pi * math.pi / 4.0
# Element budget of one dense numpy block: phase matrices, their products, the
# majorant's a-ranges and the coefficient batches the lemma1 command evaluates
# at once.
BLOCK_ELEMENTS = 1 << 21
# The one kernel implementation; printed in run manifests.
ACTIVE_LANE = "numpy"


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


def quadform(nums, mods, m_off, v):
    """One vector v with offset m_off through quadform_batch, as a float."""
    return float(quadform_batch(nums, mods, [m_off], np.asarray(v)[None])[0])


def autocorr(nums, mods, n_len):
    """c[t] = sum_j e(a_j * t / qk_j) for t = 0..n_len-1, from exact residues."""
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


def weyl_rational(num_red, den, k, q_lo, q_hi):
    """sum_{q_lo < q <= q_hi} e(num_red * q**k / den) via exact modular residues."""
    qs = np.arange(q_lo + 1, q_hi + 1, dtype=np.int64)
    p = qs % den
    pw = np.ones_like(qs)
    for _ in range(k):
        pw = (pw * p) % den
    r = (num_red * pw) % den
    return complex(np.sum(np.exp((2j * np.pi / den) * r)))


def weyl_float(alpha_frac, k, q_lo, q_hi):
    """sum_{q_lo < q <= q_hi} e(alpha_frac * q**k) with the phase split into an
    exact 2**-26 grid part plus a small float remainder, so the mod-1
    reduction never loses the phase."""
    qs = np.arange(q_lo + 1, q_hi + 1, dtype=np.int64)
    m = int(alpha_frac * _SPLIT)
    lo_part = alpha_frac - m / _SPLIT
    p = np.ones_like(qs)
    for _ in range(k):
        p = p * qs
    hi = ((m * (p % _SPLIT)) % _SPLIT).astype(np.float64) / _SPLIT
    ph = (hi + lo_part * p.astype(np.float64)) % 1.0
    return complex(np.sum(np.exp(2j * np.pi * ph)))


def majorant_sum(b_red, rk, mods, bqs):
    """Poisson-transformed majorant sum over the given moduli; returns (value, a0_term).

    bqs[j] is the truncation length for modulus mods[j] (1/(2*qk*x), rounded
    down by the caller so the transform provably dominates the exact count).
    The a-sum uses the exact residue of a*b*qk mod rk and the triangular
    weight (pi^2/4) * max(1 - |a|/B_q, 0), summed in blocks of at most
    BLOCK_ELEMENTS terms.
    """
    total = 0.0
    main = 0.0
    for qk, bq in zip(mods.tolist(), bqs.tolist()):
        s0 = (b_red * (qk % rk)) % rk
        n_a = int(bq)
        tail = 0.0
        for start in range(1, n_a + 1, BLOCK_ELEMENTS):
            a = np.arange(start, min(start + BLOCK_ELEMENTS, n_a + 1), dtype=np.int64)
            r = (a * s0) % rk
            w = np.maximum(1.0 - a * (1.0 / bq), 0.0)
            tail += float(np.sum(w * np.cos(TWO_PI * (r / rk))))
        acc = 1.0 + 2.0 * tail
        total += PI_SQ_OVER_4 / bq * acc
        main += PI_SQ_OVER_4 / bq
    return total, main


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
