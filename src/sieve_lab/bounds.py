"""The six bound shapes, crossover winner maps, and log-log exponent fitting.

Shape names used throughout (CSV columns, reports):

  ls_a        N + Q^(2k)
  ls_b        Q*N + Q^(k+1)
  conjecture  (N + Q^(k+1)) * (N*Q)^eps
  kappa       Q^(k+1) + (N*Q^(1-1/kappa) + N^(1-1/kappa)*Q^(1+k/kappa)) * N^eps,
              kappa = 2^(k-1)
  loglog      (Q^(k+1) + N + N^(1/2+eps)*Q^k) * (log log 10NQ)^(k+1)
  delta       (N*Q)^eps * (Q^(k+1) + Q^(1-delta)*N + Q^(1+k*delta)*N^(1-delta)),
              delta = 1/(2k(k-1))

Two normalizations: "literal" evaluates the complete formulas (natural log);
"shapes" compares the dominant power term of each shape with eps = 0 and the
loglog factor dropped, which is the exponent-level comparison the crossover
claims are about.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

OVERFLOW_FLAG = 1e300

SHAPE_NAMES = ("ls_a", "ls_b", "conjecture", "kappa", "loglog", "delta")


@dataclass(frozen=True)
class BoundParams:
    """One grid point (Q, N, k, eps) with the derived exponents."""

    Q: float
    N: int
    k: int
    eps: float = 0.05

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")

    @property
    def delta_exact(self) -> Fraction:
        return Fraction(1, 2 * self.k * (self.k - 1))

    @property
    def delta(self) -> float:
        return float(self.delta_exact)

    @property
    def kappa(self) -> int:
        return 2 ** (self.k - 1)


def _flag_overflow(value: float, name: str) -> float:
    if value > OVERFLOW_FLAG or math.isinf(value):
        warnings.warn(f"bound {name} overflowed the flag threshold at {value!r}",
                      RuntimeWarning, stacklevel=3)
    return value


def _terms(name: str, p: BoundParams) -> tuple[float, ...]:
    """The eps-free power terms of a shape (loglog factor excluded)."""
    Q, N, k = float(p.Q), float(p.N), p.k
    if name == "ls_a":
        return (N, Q ** (2 * k))
    if name == "ls_b":
        return (Q * N, Q ** (k + 1))
    if name == "conjecture":
        return (N, Q ** (k + 1))
    if name == "kappa":
        kap = p.kappa
        return (Q ** (k + 1), N * Q ** (1 - 1 / kap), N ** (1 - 1 / kap) * Q ** (1 + k / kap))
    if name == "loglog":
        return (Q ** (k + 1), N, math.sqrt(N) * Q ** k)
    if name == "delta":
        d = p.delta
        return (Q ** (k + 1), Q ** (1 - d) * N, Q ** (1 + k * d) * N ** (1 - d))
    raise ValueError(f"unknown shape {name!r}")


def bound_standard_ls(p: BoundParams) -> tuple[float, float]:
    """The two standard large sieve shapes (N + Q^2k, QN + Q^(k+1))."""
    a = _flag_overflow(sum(_terms("ls_a", p)), "ls_a")
    b = _flag_overflow(sum(_terms("ls_b", p)), "ls_b")
    return a, b


def bound_conjecture(p: BoundParams) -> float:
    return _flag_overflow((p.N + float(p.Q) ** (p.k + 1)) * (p.N * p.Q) ** p.eps,
                          "conjecture")


def bound_kappa(p: BoundParams) -> float:
    Q, N, k, kap = float(p.Q), float(p.N), p.k, p.kappa
    value = Q ** (k + 1) + (N * Q ** (1 - 1 / kap)
                            + N ** (1 - 1 / kap) * Q ** (1 + k / kap)) * N ** p.eps
    return _flag_overflow(value, "kappa")


def bound_loglog(p: BoundParams) -> float:
    Q, N, k = float(p.Q), float(p.N), p.k
    if N * Q < 1:
        raise ValueError("N*Q must be >= 1")
    value = (Q ** (k + 1) + N + N ** (0.5 + p.eps) * Q ** k) \
        * math.log(math.log(10.0 * N * Q)) ** (k + 1)
    return _flag_overflow(value, "loglog")


def bound_delta(p: BoundParams) -> float:
    Q, N, k, d = float(p.Q), float(p.N), p.k, p.delta
    value = (N * Q) ** p.eps * (Q ** (k + 1) + Q ** (1 - d) * N
                                + Q ** (1 + k * d) * N ** (1 - d))
    return _flag_overflow(value, "delta")


def shape_value(name: str, p: BoundParams, normalization: str = "literal") -> float:
    """Evaluate one shape; "shapes" takes the dominant eps-free power term."""
    if normalization == "shapes":
        return max(_terms(name, BoundParams(p.Q, p.N, p.k, 0.0)))
    if normalization != "literal":
        raise ValueError(f"unknown normalization {normalization!r}")
    if name == "ls_a":
        return bound_standard_ls(p)[0]
    if name == "ls_b":
        return bound_standard_ls(p)[1]
    if name == "conjecture":
        return bound_conjecture(p)
    if name == "kappa":
        return bound_kappa(p)
    if name == "loglog":
        return bound_loglog(p)
    if name == "delta":
        return bound_delta(p)
    raise ValueError(f"unknown shape {name!r}")


def evaluate_bounds(p: BoundParams) -> dict[str, float]:
    """All literal shape values keyed by name."""
    ls_a, ls_b = bound_standard_ls(p)
    return {
        "ls_a": ls_a,
        "ls_b": ls_b,
        "conjecture": bound_conjecture(p),
        "kappa": bound_kappa(p),
        "loglog": bound_loglog(p),
        "delta": bound_delta(p),
    }


@dataclass(frozen=True)
class CrossoverRow:
    Q: float
    N: int
    values: dict[str, float]
    winner: str
    delta_beats_loglog: bool
    in_analytic_region: bool


@dataclass(frozen=True)
class ColumnFlip:
    Q: float
    flip_index: int       # first N-grid index where delta stops beating loglog
    boundary_index: int   # first N-grid index past the analytic boundary
    deviation: int


@dataclass(frozen=True)
class CrossoverReport:
    k: int
    normalization: str
    boundary_exponent: float   # 2k - 2 + 2*delta
    rows: list[CrossoverRow]
    columns: list[ColumnFlip]
    consistent: bool
    max_deviation: int
    claim_applies: bool        # the analytic region claim is only made for k >= 3


def crossover_analysis(k: int, grid: Sequence[tuple[float, int]],
                       normalization: str = "shapes",
                       eps: float = 0.05) -> CrossoverReport:
    """Winner map over the (Q, N) grid plus the consistency check of the
    delta-vs-loglog flip against the analytic boundary N = Q^(2k-2+2delta).

    For k >= 3 the flip must sit within one grid cell of the boundary in every
    Q-column; for k = 2 no winning region is asserted and the report only
    records what happened.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not grid:
        raise ValueError("grid must be nonempty")
    exponent = 2 * k - 2 + 2 * float(Fraction(1, 2 * k * (k - 1)))

    rows: list[CrossoverRow] = []
    by_q: dict[float, list[CrossoverRow]] = {}
    for Q, N in grid:
        p = BoundParams(Q, N, k, eps)
        values = {name: shape_value(name, p, normalization) for name in SHAPE_NAMES}
        winner = min(SHAPE_NAMES, key=lambda name: (values[name], SHAPE_NAMES.index(name)))
        beats = values["delta"] < values["loglog"]
        analytic = N <= Q ** exponent
        row = CrossoverRow(Q=Q, N=N, values=values, winner=winner,
                           delta_beats_loglog=beats, in_analytic_region=analytic)
        rows.append(row)
        by_q.setdefault(Q, []).append(row)

    columns: list[ColumnFlip] = []
    max_dev = 0
    for Q, col in by_q.items():
        col = sorted(col, key=lambda r: r.N)
        flip = next((i for i, r in enumerate(col) if not r.delta_beats_loglog), len(col))
        boundary = next((i for i, r in enumerate(col) if not r.in_analytic_region), len(col))
        dev = abs(flip - boundary)
        max_dev = max(max_dev, dev)
        columns.append(ColumnFlip(Q=Q, flip_index=flip, boundary_index=boundary,
                                  deviation=dev))

    claim_applies = k >= 3
    consistent = (max_dev <= 1) if claim_applies else True
    return CrossoverReport(k=k, normalization=normalization,
                           boundary_exponent=exponent, rows=rows, columns=columns,
                           consistent=consistent, max_deviation=max_dev,
                           claim_applies=claim_applies)


class FitResult(NamedTuple):
    slope: float
    intercept: float
    max_abs_residual: float


def fit_exponent(samples: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fit of log y against log x; returns slope, intercept, and
    the largest absolute log-space residual."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    xs = np.array([s[0] for s in samples], dtype=np.float64)
    ys = np.array([s[1] for s in samples], dtype=np.float64)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("samples must be strictly positive")
    lx, ly = np.log(xs), np.log(ys)
    if np.unique(lx).shape[0] < 2:
        raise ValueError("need at least 2 distinct x values")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return FitResult(float(slope), float(intercept), resid)
