"""Fixed-seed measured-ratio protocols and the regeneration of frozen guards.

The measured ratios (Weyl sum / bound, min-sum / bound, constant / bound) carry
the shapes' implicit constants, so no test asserts them <= 1.  Instead their
maxima are computed once, frozen into frozen.py, and guarded against
regression ever after.  The maxima are the commands' own: the `ratio` column
of the `weyl` command's two tables ("weyl" and "min_sum"), and the
ratio_kappa, ratio_loglog and ratio_delta columns of the `constant` command in
both modes, every command at its cli.COMMANDS defaults (seed
arith.DEFAULT_SEED).  Regeneration reads no config file.  Regenerate with:

    python -m sieve_lab.regression
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .arith import DEFAULT_SEED, dirichlet_approx, integers, uniforms
from .expsums import check_weyl_table, min_sum, min_sum_bound, weyl_min_sum_bound, weyl_sum

MIN_SUM_LIMIT = 512.0
DELTA_SHAPES = ("kappa", "loglog", "delta")

Alpha = Union[Fraction, float]

_NONSQUARES = tuple(d for d in range(2, 60) if math.isqrt(d) ** 2 != d)


def sample_alphas(seed: int) -> list[tuple[str, Alpha]]:
    """Labelled phase coefficients: 100 random reduced rationals num/den,
    2 <= den <= 512 and 1 <= num < den (kept exact), and 100 quadratic
    irrationals (p + s*sqrt(d))/r evaluated as floats.  Each field is one
    arith.integers draw of 100, under the key (0, field)."""
    def draw(field: int, bound) -> list[int]:
        return integers(seed, (0, field), bound, 100).tolist()

    dens = [2 + i for i in draw(0, 511)]
    nums = [1 + i for i in draw(1, [den - 1 for den in dens])]
    out: list[tuple[str, Alpha]] = []
    for num, den in zip(nums, dens):
        fr = Fraction(num, den)
        out.append((f"{fr.numerator}/{fr.denominator}", fr))
    for i, p, s, r in zip(draw(2, len(_NONSQUARES)), draw(3, 10), draw(4, 5), draw(5, 28)):
        d, s, r = _NONSQUARES[i], 1 + s, 2 + r
        out.append((f"({p}+{s}*sqrt({d}))/{r}", (p + s * math.sqrt(d)) / r))
    return out


def weyl_ratio_rows(alphas: Sequence[tuple[str, Alpha]],
                    q_values: Sequence[int], k_values: Sequence[int],
                    eps: float) -> list[dict]:
    """The `weyl` command's "weyl" table: one record per (alpha, k, Q) under
    the cli.WEYL_COLUMNS names, |S| against weyl_min_sum_bound.  The whole
    table is checked first (expsums.check_weyl_table); then each (k, Q) is
    summed for all alphas at once."""
    coeffs = [alpha for _, alpha in alphas]
    check_weyl_table(coeffs, k_values, q_values, eps)
    tables = {(k, Q): (weyl_sum(coeffs, Q, k).tolist(),
                       weyl_min_sum_bound(coeffs, Q, k, eps))
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
                       seed: int, n_samples: int) -> list[dict]:
    """The `weyl` command's "min_sum" table: one record per seeded (alpha, X,
    Y) sample under the cli.WEYL_COLUMNS names, min_sum against min_sum_bound.
    Sample i takes X and Y in [1, MIN_SUM_LIMIT) from the uniforms 2i and
    2i + 1 under the key (1,); then the minimum sums run for all samples at
    once."""
    drawn = [alphas[i % len(alphas)] for i in range(n_samples)]
    u = MIN_SUM_LIMIT - (MIN_SUM_LIMIT - 1.0) * uniforms(seed, (1,), 0, 2 * n_samples)
    xs, ys = u[0::2].tolist(), u[1::2].tolist()
    values = min_sum([alpha for _, alpha in drawn], xs, ys).tolist()
    rows = []
    for (label, alpha), X, Y, value in zip(drawn, xs, ys, values):
        approx = dirichlet_approx(alpha, math.floor(X))
        bound = min_sum_bound(X, Y, approx)
        rows.append({"table": "min_sum", "alpha": label, "X": X, "Y": Y,
                     "u": approx.u, "v": approx.v, "residual": approx.residual,
                     "min_sum": value, "bound": bound, "ratio": value / bound})
    return rows


def compute_frozen() -> dict:
    """The frozen maxima: `weyl` run once and `constant` once per mode, each at
    its COMMANDS defaults; raises if a run exits nonzero or has a failing row."""
    # cli imports this module for the weyl command's tables, so it is imported
    # here, at call time, not at the top.
    from . import cli

    def records(command: str, **overrides) -> list[dict]:
        run, _, defaults = cli.COMMANDS[command]
        rows, _, code, _ = run(cli.convert_config(command, {**defaults, **overrides}))
        failed = [r for r in rows if r.get("status", "ok") != "ok"]
        if code or failed:
            raise RuntimeError(f"{command} {overrides} exited {code} with "
                               f"{len(failed)} failing rows")
        return rows

    weyl_rows = records("weyl")
    delta: dict[str, dict[str, float]] = {}
    for row in records("constant", mode="full") + records("constant", mode="dyadic"):
        maxima = delta.setdefault(str(row["k"]), dict.fromkeys(DELTA_SHAPES, 0.0))
        for name in DELTA_SHAPES:
            maxima[name] = max(maxima[name], row[f"ratio_{name}"])
    return {
        "seed": DEFAULT_SEED,
        "weyl_bound_max": max(r["ratio"] for r in weyl_rows if r["table"] == "weyl"),
        "min_sum_bound_max": max(r["ratio"] for r in weyl_rows if r["table"] == "min_sum"),
        "delta_ratio_max": delta,
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
