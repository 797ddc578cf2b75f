"""The six bound shapes, crossover winner maps, and log-log exponent fitting.

SHAPES is the one table of the shapes, keyed by the names used throughout
(CSV columns, reports); SHAPE_NAMES is its key order.  Each entry holds the
shape's eps-free power terms and its literal value:

  ls_a        N + Q^(2k)
  ls_b        Q*N + Q^(k+1)
  conjecture  (N + Q^(k+1)) * (N*Q)^eps
  kappa       Q^(k+1) + (N*Q^(1-1/kappa) + N^(1-1/kappa)*Q^(1+k/kappa)) * N^eps,
              kappa = 2^(k-1)
  loglog      (Q^(k+1) + N + N^(1/2+eps)*Q^k) * (log log 10NQ)^(k+1)
  delta       (N*Q)^eps * (Q^(k+1) + Q^(1-delta)*N + Q^(1+k*delta)*N^(1-delta)),
              delta = 1/(2k(k-1))

shape_value is the single entry point; evaluate_bounds maps it over the table,
one shape at a time.
Two normalizations: "literal" evaluates the complete formulas (natural log)
and warns on a value above OVERFLOW_FLAG (a power above the float range raises
CapacityError); "shapes" takes the largest eps-free power term, with the
loglog factor dropped (so loglog's third term is N^(1/2)*Q^k), which is the
exponent-level comparison the crossover claims are about.

delta_exponent is the one definition of the paper's delta, the exponent that
Wooley's efficient congruencing supplies; BoundParams, crossover_analysis and
the two Weyl bound shapes in expsums all read it.  It refuses a degree k < 2
through check_degree, which BoundParams, crossover_analysis, the Weyl sums
and their table check share.

crossover_analysis is the one home of the crossover grid rule (N log-spaced
over [Q^k, Q^(2k)], rounded to distinct integers): it builds the grid from
the Q values and the point count, and returns the `crossover` command's
records together with the verdict.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .arith import float_power
from .errors import CapacityError

OVERFLOW_FLAG = 1e300


def check_degree(k: int) -> None:
    """Raise ValueError unless the degree k of the moduli q^k is >= 2."""
    if k < 2:
        raise ValueError(f"degree k must be >= 2, got {k}")


def delta_exponent(k: int) -> Fraction:
    """The paper's exponent delta = 1/(2k(k-1)) for the moduli q^k, k >= 2."""
    check_degree(k)
    return Fraction(1, 2 * k * (k - 1))


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
        check_degree(self.k)
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")

    @property
    def delta_exact(self) -> Fraction:
        return delta_exponent(self.k)

    @property
    def delta(self) -> float:
        return float(self.delta_exact)

    @property
    def kappa(self) -> int:
        return 2 ** (self.k - 1)


# name -> (terms, literal).  terms(Q, N, p) are the shape's eps-free power
# terms, the loglog factor excluded; literal(t, Q, N, p) is its complete value
# given those terms t; Q = float(p.Q) and N = float(p.N).  Each literal keeps
# its float evaluation order, so the bound columns of the records stay the
# same doubles from version to version.
SHAPES = {
    "ls_a": (lambda Q, N, p: (N, Q ** (2 * p.k)),
             lambda t, Q, N, p: t[0] + t[1]),
    "ls_b": (lambda Q, N, p: (Q * N, Q ** (p.k + 1)),
             lambda t, Q, N, p: t[0] + t[1]),
    # (N*Q)^eps on p's own fields: for a numpy float64 p.Q, float(p.Q) ** eps
    # rounds differently
    "conjecture": (lambda Q, N, p: (N, Q ** (p.k + 1)),
                   lambda t, Q, N, p: (p.N + t[1]) * (p.N * p.Q) ** p.eps),
    "kappa": (lambda Q, N, p: (Q ** (p.k + 1), N * Q ** (1 - 1 / p.kappa),
                               N ** (1 - 1 / p.kappa) * Q ** (1 + p.k / p.kappa)),
              lambda t, Q, N, p: t[0] + (t[1] + t[2]) * N ** p.eps),
    # the literal's third term is N^(1/2+eps)*Q^k, not the eps-free t[2]
    "loglog": (lambda Q, N, p: (Q ** (p.k + 1), N, math.sqrt(N) * Q ** p.k),
               lambda t, Q, N, p: (t[0] + t[1] + N ** (0.5 + p.eps) * Q ** p.k)
               * math.log(math.log(10.0 * N * Q)) ** (p.k + 1)),
    "delta": (lambda Q, N, p: (Q ** (p.k + 1), Q ** (1 - p.delta) * N,
                               Q ** (1 + p.k * p.delta) * N ** (1 - p.delta)),
              lambda t, Q, N, p: (N * Q) ** p.eps * (t[0] + t[1] + t[2])),
}
SHAPE_NAMES = tuple(SHAPES)


def shape_value(name: str, p: BoundParams, normalization: str = "literal") -> float:
    """Evaluate one shape: "literal" gives its complete value and warns above
    OVERFLOW_FLAG; "shapes" gives its largest eps-free power term.  A power
    above the float range raises CapacityError."""
    if normalization not in ("literal", "shapes"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if name not in SHAPES:
        raise ValueError(f"unknown shape {name!r}")
    terms, literal = SHAPES[name]
    Q, N = float(p.Q), float(p.N)
    t = terms(Q, N, p)
    if normalization == "shapes":
        return max(t)
    try:
        value = literal(t, Q, N, p)
    except OverflowError:
        raise CapacityError(f"bound {name} at Q = {p.Q}, N = {p.N}, k = {p.k}, "
                            f"eps = {p.eps} is above the float range") from None
    if value > OVERFLOW_FLAG or math.isinf(value):
        warnings.warn(f"bound {name} overflowed the flag threshold at {value!r}",
                      RuntimeWarning, stacklevel=2)
    return value


def evaluate_bounds(p: BoundParams) -> dict[str, float]:
    """All literal shape values keyed by name, in SHAPE_NAMES order.  Each
    shape is evaluated on its own: when some are above the float range, the
    CapacityError of the first is raised, its `values` holding the shapes
    that fit."""
    values, errors = {}, []
    for name in SHAPE_NAMES:
        try:
            values[name] = shape_value(name, p)
        except CapacityError as exc:
            errors.append(exc)
    if errors:
        errors[0].values = values
        raise errors[0]
    return values


@dataclass(frozen=True)
class CrossoverReport:
    rows: list[dict]           # the "grid" records, then one "column" record per Q
    boundary_exponent: float   # 2k - 2 + 2*delta
    consistent: bool
    max_deviation: int
    claim_applies: bool        # the analytic region claim is only made for k >= 3


def crossover_analysis(k: int, q_values: Sequence[int], points: int,
                       normalization: str = "shapes",
                       eps: float = 0.05) -> CrossoverReport:
    """Winner map over the (Q, N) grid plus the consistency check of the
    delta-vs-loglog flip against the analytic boundary N = Q^(2k-2+2delta).

    Each Q-column is `points` log-spaced N over [Q^k, Q^(2k)], rounded to
    distinct integers (CapacityError above the float range).  The rows are
    the `crossover` command's records under the cli.CROSSOVER_COLUMNS names.
    For k >= 3 the flip must sit within one grid cell of the boundary in every
    Q-column; for k = 2 no winning region is asserted and the report only
    records what happened.
    """
    check_degree(k)
    if not q_values:
        raise ValueError("q_values must be nonempty")
    exponent = 2 * k - 2 + 2 * float(delta_exponent(k))
    head = {"k": k, "normalization": normalization, "boundary_exponent": exponent}

    grid: list[dict] = []
    columns: list[dict] = []
    for q in q_values:
        Q = float(q)
        ns = np.geomspace(float_power(q, k), float_power(q, 2 * k), points)
        column = []
        for N in sorted({max(1, int(round(n))) for n in ns}):
            p = BoundParams(Q, N, k, eps)
            values = {name: shape_value(name, p, normalization) for name in SHAPE_NAMES}
            winner = min(SHAPE_NAMES, key=lambda name: (values[name], SHAPE_NAMES.index(name)))
            column.append({"table": "grid", **head, "Q": Q, "N": N, **values,
                           "winner": winner,
                           "delta_beats_loglog": values["delta"] < values["loglog"],
                           "in_analytic_region": N <= Q ** exponent})
        grid += column
        # the first N-grid index where delta stops beating loglog, and the
        # first past the analytic boundary
        flip, boundary = (next((i for i, r in enumerate(column) if not r[key]), len(column))
                          for key in ("delta_beats_loglog", "in_analytic_region"))
        columns.append({"table": "column", **head, "Q": Q, "flip_index": flip,
                        "boundary_index": boundary, "deviation": abs(flip - boundary)})

    max_dev = max(col["deviation"] for col in columns)
    claim_applies = k >= 3
    consistent = (max_dev <= 1) if claim_applies else True
    return CrossoverReport(rows=grid + [{**col, "consistent": consistent} for col in columns],
                           boundary_exponent=exponent, consistent=consistent,
                           max_deviation=max_dev, claim_applies=claim_applies)


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
    if len(set(lx.tolist())) < 2:
        raise ValueError("need at least 2 distinct x values")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return FitResult(float(slope), float(intercept), resid)
