"""Fixed-seed measured-ratio protocols and the regeneration of frozen guards.

The measured ratios (Weyl sum / bound, min-sum / bound, constant / bound) carry
the shapes' implicit constants, so no test asserts them <= 1.  Instead the
grid maxima are computed once on the fixed seed, frozen into frozen.py, and
guarded against regression ever after.  Regenerate with:

    python -m sieve_lab.regression
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .arith import dirichlet_approx
from .bounds import BoundParams, evaluate_bounds
from .expsums import (MonomialPhase, check_weyl_row, min_sum_bound, min_sums,
                      weyl_min_sum_bounds, weyl_sums)
# min_sum, weyl_min_sum_bound and weyl_sum are unused here (the tables call
# their batch forms) but stay importable from regression, where
# perfbench/tracing.py wraps them.
from .expsums import min_sum, weyl_min_sum_bound, weyl_sum  # noqa: F401
from .sieve import measure_constant

FROZEN_SEED = 0xC0FFEE

WEYL_Q_VALUES = (4, 16, 64, 256)
WEYL_K_VALUES = (2, 3, 4)
WEYL_EPS = 0.05
MIN_SUM_LIMIT = 512.0
MIN_SUM_SAMPLES = 200

GRID_Q = (1, 2, 3, 4)
GRID_K = (2, 3)
GRID_N = (4, 16, 64, 256)
GRID_MODES = ("full", "dyadic")
GRID_EPS = 0.05
GRID_REL_TOL = 1e-8
DELTA_SHAPES = ("kappa", "loglog", "delta")

Alpha = Union[Fraction, float]

_NONSQUARES = tuple(d for d in range(2, 60) if math.isqrt(d) ** 2 != d)


def sample_alphas(seed: int = FROZEN_SEED) -> list[tuple[str, Alpha]]:
    """Labelled phase coefficients: 100 random reduced rationals (kept exact)
    and 100 quadratic irrationals (p + s*sqrt(d))/r evaluated as floats."""
    rng = np.random.default_rng(seed)
    out: list[tuple[str, Alpha]] = []
    for _ in range(100):
        den = int(rng.integers(2, 513))
        num = int(rng.integers(1, den))
        fr = Fraction(num, den)
        out.append((f"{fr.numerator}/{fr.denominator}", fr))
    for _ in range(100):
        d = int(rng.choice(_NONSQUARES))
        p = int(rng.integers(0, 10))
        s = int(rng.integers(1, 6))
        r = int(rng.integers(2, 30))
        out.append((f"({p}+{s}*sqrt({d}))/{r}", (p + s * math.sqrt(d)) / r))
    return out


def weyl_ratio_rows(alphas: Sequence[tuple[str, Alpha]],
                    q_values: Sequence[int] = WEYL_Q_VALUES,
                    k_values: Sequence[int] = WEYL_K_VALUES,
                    eps: float = WEYL_EPS) -> list[dict]:
    """The `weyl` command's "weyl" table: one record per (alpha, k, Q) under
    the cli.WEYL_COLUMNS names, |S| against weyl_min_sum_bound.  Every row is
    checked first, alpha-major; then each (k, Q) is summed for all alphas at
    once."""
    for _, alpha in alphas:
        for k in k_values:
            phase = MonomialPhase(alpha, k)
            for Q in q_values:
                check_weyl_row(phase, Q)
    coeffs = [alpha for _, alpha in alphas]
    tables = {(k, Q): (weyl_sums(coeffs, k, Q).tolist(),
                       weyl_min_sum_bounds(coeffs, k, Q, eps))
              for k in k_values for Q in q_values}
    rows = []
    for i, (label, _) in enumerate(alphas):
        for k in k_values:
            for Q in q_values:
                sums, bounds = tables[k, Q]
                s, bound = sums[i], bounds[i]
                rows.append({"table": "weyl", "alpha": label, "Q": Q, "k": k,
                             "sq_re": s.real, "sq_im": s.imag, "sq_abs": abs(s),
                             "bound": bound, "ratio": abs(s) / bound})
    return rows


def min_sum_ratio_rows(alphas: Sequence[tuple[str, Alpha]],
                       seed: int = FROZEN_SEED,
                       n_samples: int = MIN_SUM_SAMPLES) -> list[dict]:
    """The `weyl` command's "min_sum" table: one record per seeded (alpha, X,
    Y) sample under the cli.WEYL_COLUMNS names, min_sum against min_sum_bound.
    Every (X, Y) is drawn first, then the minimum sums run for all samples at
    once."""
    rng = np.random.default_rng([seed, 1])
    drawn = [alphas[i % len(alphas)] for i in range(n_samples)]
    xs, ys = [], []
    for _ in drawn:
        xs.append(float(rng.uniform(1.0, MIN_SUM_LIMIT)))
        ys.append(float(rng.uniform(1.0, MIN_SUM_LIMIT)))
    values = min_sums([alpha for _, alpha in drawn], xs, ys).tolist()
    rows = []
    for (label, alpha), X, Y, value in zip(drawn, xs, ys, values):
        approx = dirichlet_approx(alpha, math.floor(X))
        bound = min_sum_bound(X, Y, approx)
        rows.append({"table": "min_sum", "alpha": label, "X": X, "Y": Y,
                     "u": approx.u, "v": approx.v, "residual": approx.residual,
                     "min_sum": value, "bound": bound, "ratio": value / bound})
    return rows


def delta_ratio_maxima() -> dict[str, dict[str, float]]:
    """Per-k maxima of measured/bound over the standard grid, for the three
    nontrivial shapes."""
    maxima: dict[str, dict[str, float]] = {
        str(k): {name: 0.0 for name in DELTA_SHAPES} for k in GRID_K}
    for k in GRID_K:
        for mode in GRID_MODES:
            for Q in GRID_Q:
                for N in GRID_N:
                    measured = measure_constant(Q, N, k, mode, GRID_REL_TOL).value
                    values = evaluate_bounds(BoundParams(Q, N, k, GRID_EPS))
                    for name in DELTA_SHAPES:
                        ratio = measured / values[name]
                        if ratio > maxima[str(k)][name]:
                            maxima[str(k)][name] = ratio
    return maxima


def compute_frozen() -> dict:
    alphas = sample_alphas()
    weyl_rows = weyl_ratio_rows(alphas)
    ms_rows = min_sum_ratio_rows(alphas)
    return {
        "seed": FROZEN_SEED,
        "weyl_bound_max": max(r["ratio"] for r in weyl_rows),
        "min_sum_bound_max": max(r["ratio"] for r in ms_rows),
        "delta_ratio_max": delta_ratio_maxima(),
    }


def write_frozen() -> dict:
    data = compute_frozen()
    lines = [
        '"""Frozen regression maxima; regenerate with `python -m sieve_lab.regression`."""',
        "",
        "FROZEN_RATIOS = {",
        f"    \"seed\": {data['seed']},",
        f"    \"weyl_bound_max\": {data['weyl_bound_max']!r},",
        f"    \"min_sum_bound_max\": {data['min_sum_bound_max']!r},",
        "    \"delta_ratio_max\": {",
    ]
    for k, shapes in data["delta_ratio_max"].items():
        inner = ", ".join(f"\"{name}\": {value!r}" for name, value in shapes.items())
        lines.append(f"        \"{k}\": {{{inner}}},")
    lines += ["    },", "}", ""]
    Path(__file__).with_name("frozen.py").write_text("\n".join(lines), encoding="utf-8")
    return data


if __name__ == "__main__":
    frozen = write_frozen()
    print(f"weyl_bound_max     = {frozen['weyl_bound_max']!r}")
    print(f"min_sum_bound_max  = {frozen['min_sum_bound_max']!r}")
    for k, shapes in frozen["delta_ratio_max"].items():
        for name, value in shapes.items():
            print(f"delta_ratio_max[{k}][{name}] = {value!r}")
