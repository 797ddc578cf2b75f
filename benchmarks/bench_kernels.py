#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy twins.

Run: python benchmarks/bench_kernels.py [--Q 8] [--k 3] [--N 2048] [--repeats 5]

The numba lane is warmed once before timing so JIT compilation is excluded.
If numba is unavailable only the numpy lane is timed.  The numpy-only batched
quadratic form is timed on BATCH vectors and reported per vector, next to the
single-vector quadform line.
"""

import argparse
import math
import time

import numpy as np

from sieve_lab import kernels
from sieve_lab.farey import enumerate_system

BATCH = 100


def best_of(func, repeats, *args):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench(name, numpy_func, numba_func, args, repeats):
    t_np, r_np = best_of(numpy_func, repeats, *args)
    if numba_func is None:
        print(f"{name:<24} numpy {t_np * 1e3:9.3f} ms   (numba unavailable)")
        return
    numba_func(*args)  # warm the JIT
    t_nb, r_nb = best_of(numba_func, repeats, *args)
    close = np.allclose(np.asarray(r_np), np.asarray(r_nb), rtol=1e-9, atol=1e-9)
    print(f"{name:<24} numpy {t_np * 1e3:9.3f} ms   numba {t_nb * 1e3:9.3f} ms   "
          f"speedup {t_np / max(t_nb, 1e-12):6.2f}x   agree={close}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--Q", type=int, default=8)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--N", type=int, default=2048)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    have = kernels.HAVE_NUMBA
    system = enumerate_system(args.Q, args.k, "dyadic")
    print(f"system: Q={args.Q} k={args.k} dyadic, {system.size} points, N={args.N}")
    print(f"active lane: {kernels.ACTIVE_LANE}\n")

    rng = np.random.default_rng(1)
    v = rng.standard_normal(args.N) + 1j * rng.standard_normal(args.N)

    bench("quadform", kernels.quadform_numpy,
          kernels.quadform_numba if have else None,
          (system.numerators, system.moduli, 0, v), args.repeats)

    offsets = rng.integers(-64, 65, BATCH)
    vs = rng.standard_normal((BATCH, args.N)) + 1j * rng.standard_normal((BATCH, args.N))
    t_batch, _ = best_of(kernels.quadform_batch, args.repeats,
                         system.numerators, system.moduli, offsets, vs)
    print(f"{f'quadform_batch B={BATCH}':<24} numpy {t_batch / BATCH * 1e3:9.3f} ms   "
          "per vector (numpy only)")

    bench("autocorr", kernels.autocorr_numpy,
          kernels.autocorr_loop if have else None,
          (system.numerators, system.moduli, args.N), args.repeats)

    bench("weyl_rational", kernels.weyl_rational_numpy,
          kernels.weyl_rational_numba if have else None,
          (355, 113, args.k, 4096, 8192), args.repeats)

    bench("weyl_float", kernels.weyl_float_numpy,
          kernels.weyl_float_numba if have else None,
          (math.pi % 1.0, 2, 4096, 8192), args.repeats)

    rk = int(system.moduli.max())
    mods = np.unique(system.moduli)
    bqs = np.full(mods.shape[0], 4000.0)
    bench("majorant_sum", kernels.majorant_numpy,
          kernels.majorant_numba if have else None,
          (rk - 3, rk, mods, bqs), args.repeats)

    bench("pairwise_integral_max", kernels.pairwise_integral_max_numpy,
          kernels.pairwise_integral_max_numba if have else None,
          (system.numerators, system.moduli, args.N), args.repeats)


if __name__ == "__main__":
    main()
