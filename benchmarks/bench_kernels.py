#!/usr/bin/env python3
"""Time the numpy kernels, best of --repeats runs each.

Run: python benchmarks/bench_kernels.py [--Q 8] [--k 3] [--N 2048] [--repeats 5]

The batched quadratic form is timed on BATCH vectors and reported per vector,
next to the single-vector quadform line.
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
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--Q", type=int, default=8)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--N", type=int, default=2048)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    system = enumerate_system(args.Q, args.k, "dyadic")
    print(f"system: Q={args.Q} k={args.k} dyadic, {system.size} points, N={args.N}\n")

    rng = np.random.default_rng(1)
    v = rng.standard_normal(args.N) + 1j * rng.standard_normal(args.N)
    offsets = rng.integers(-64, 65, BATCH)
    vs = rng.standard_normal((BATCH, args.N)) + 1j * rng.standard_normal((BATCH, args.N))
    rk = int(system.moduli.max())
    mods = np.unique(system.moduli)
    bqs = np.full(mods.shape[0], 4000.0)
    pts = (system.numerators, system.moduli)
    cases = [
        ("quadform", kernels.quadform, (*pts, 0, v), 1),
        (f"quadform_batch B={BATCH}", kernels.quadform_batch, (*pts, offsets, vs), BATCH),
        ("autocorr", kernels.autocorr, (*pts, args.N), 1),
        ("weyl_rational", kernels.weyl_rational, (355, 113, args.k, 4096, 8192), 1),
        ("weyl_float", kernels.weyl_float, (math.pi % 1.0, 2, 4096, 8192), 1),
        ("majorant_sum", kernels.majorant_sum, (rk - 3, rk, mods, bqs), 1),
        ("pairwise_integral_max", kernels.pairwise_integral_max, (*pts, args.N), 1),
    ]
    for name, func, fargs, per in cases:
        t = best_of(func, args.repeats, *fargs) / per
        print(f"{name:<24} {t * 1e3:9.3f} ms" + ("   per vector" if per > 1 else ""))


if __name__ == "__main__":
    main()
