import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from sieve_lab import bounds
from sieve_lab.bounds import (BoundParams, SHAPE_NAMES, crossover_analysis,
                              evaluate_bounds, fit_exponent, shape_value)
from sieve_lab.errors import CapacityError

from helpers import reference_shapes


def test_params_derived_values():
    p = BoundParams(4, 64, 3, 0.05)
    assert p.delta_exact == Fraction(1, 12)
    assert p.delta == pytest.approx(1 / 12)
    assert p.kappa == 4
    with pytest.raises(ValueError):
        BoundParams(0.5, 4, 2)
    with pytest.raises(ValueError):
        BoundParams(2, 4, 1)


def test_standard_ls_examples():
    for (Q, N, k), want in [((1, 1, 2), (2.0, 2.0)), ((2, 16, 2), (32.0, 40.0)),
                            ((3, 81, 2), (162.0, 270.0))]:
        p = BoundParams(Q, N, k)
        assert (shape_value("ls_a", p), shape_value("ls_b", p)) == want


def test_conjecture_examples():
    assert shape_value("conjecture", BoundParams(1, 1, 2, 0.3)) == pytest.approx(2.0)
    assert shape_value("conjecture", BoundParams(2, 16, 2, 0.0)) == pytest.approx(24.0)
    assert shape_value("conjecture", BoundParams(4, 64, 2, 0.05)) == pytest.approx(
        128 * 256 ** 0.05, rel=1e-12)


def test_kappa_examples():
    assert shape_value("kappa", BoundParams(1, 1, 2, 0.0)) == pytest.approx(3.0)
    assert shape_value("kappa", BoundParams(2, 16, 2, 0.0)) == pytest.approx(
        8 + 16 * math.sqrt(2) + 16, rel=1e-12)
    want = 16 + 16 * 2 ** 0.75 + 16 ** 0.75 * 2 ** 1.75
    assert shape_value("kappa", BoundParams(2, 16, 3, 0.0)) == pytest.approx(want, rel=1e-12)


def test_loglog_examples():
    assert shape_value("loglog", BoundParams(1, 1, 2, 0.0)) == pytest.approx(
        3 * math.log(math.log(10)) ** 3, rel=1e-12)
    want = (8 + 16 + 4 * 4) * math.log(math.log(320)) ** 3
    assert shape_value("loglog", BoundParams(2, 16, 2, 0.0)) == pytest.approx(want, rel=1e-12)
    # monotone in N at fixed Q, k
    vals = [shape_value("loglog", BoundParams(3, n, 2, 0.0)) for n in (4, 8, 64, 512)]
    assert vals == sorted(vals)


def test_delta_examples():
    assert shape_value("delta", BoundParams(1, 1, 2, 0.0)) == pytest.approx(3.0)
    want = 8 + 2 ** 0.75 * 16 + 2 ** 1.5 * 16 ** 0.75
    assert shape_value("delta", BoundParams(2, 16, 2, 0.0)) == pytest.approx(want, rel=1e-12)
    want = 64 + 4 ** 0.75 * 256 + 4 ** 1.5 * 256 ** 0.75
    assert shape_value("delta", BoundParams(4, 256, 2, 0.0)) == pytest.approx(want, rel=1e-12)


def test_delta_bound_monotone_in_n_and_q():
    for k in (2, 3):
        for q in (2, 5, 9):
            vals = [shape_value("delta", BoundParams(q, n, k, 0.0)) for n in (4, 9, 33, 190)]
            assert vals == sorted(vals)
        for n in (4, 64):
            vals = [shape_value("delta", BoundParams(q, n, k, 0.0)) for q in (1, 3, 7, 20)]
            assert vals == sorted(vals)


def test_shapes_normalization_takes_dominant_term():
    p = BoundParams(4, 300, 3, 0.25)
    assert shape_value("delta", p, "shapes") == pytest.approx(
        max(4 ** 4, 4 ** (11 / 12) * 300, 4 ** 1.25 * 300 ** (11 / 12)), rel=1e-12)
    assert shape_value("loglog", p, "shapes") == pytest.approx(
        max(4 ** 4, 300, math.sqrt(300) * 64), rel=1e-12)
    # literal keeps the eps and loglog factors
    assert shape_value("loglog", p, "literal") == pytest.approx(
        (4 ** 4 + 300 + 300 ** 0.75 * 64) * math.log(math.log(12000)) ** 4, rel=1e-12)
    with pytest.raises(ValueError):
        shape_value("delta", p, "none-such")
    with pytest.raises(ValueError):
        shape_value("none-such", p)


def test_evaluate_bounds_keys():
    values, error = evaluate_bounds(BoundParams(2, 16, 2, 0.05))
    assert tuple(values) == SHAPE_NAMES and error is None
    assert all(v > 0 for v in values.values())


def test_literal_values_near_the_float_range_are_finite():
    # between 1e300 and the float range every value is an ordinary double:
    # no warning, no error
    p = BoundParams(2, 10 ** 301, 2, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in SHAPE_NAMES:
            value = shape_value(name, p)
            assert math.isfinite(value) and value > 1e300, name
        assert shape_value("ls_a", p, "shapes") == 1e301
        values, error = evaluate_bounds(p)
    assert tuple(values) == SHAPE_NAMES and error is None


@pytest.mark.parametrize("p, names, normalization", [
    # (N*Q)^eps fits, the product (N + Q^4) * (N*Q)^eps does not
    pytest.param(BoundParams(8, 4096, 3, 68.0), ("conjecture", "delta"), "literal",
                 id="product"),
    # the term Q*N = 10^309
    pytest.param(BoundParams(10.0, 10 ** 308, 3), ("ls_b",), "shapes", id="term"),
    # Q itself is past the float range
    pytest.param(BoundParams(10 ** 400, 4, 2), SHAPE_NAMES, "literal", id="Q-literal"),
    pytest.param(BoundParams(10 ** 400, 4, 2), SHAPE_NAMES, "shapes", id="Q-shapes"),
])
def test_values_above_the_float_range_raise(p, names, normalization):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in names:
            with pytest.raises(CapacityError, match=f"bound {name} at .* above the float range"):
                shape_value(name, p, normalization)


def test_literal_powers_above_the_float_range_raise():
    p = BoundParams(4, 4, 2, 400.0)  # (N*Q)^eps = 2^1600; N^eps = 2^800 still fits
    for name in ("conjecture", "delta"):
        with pytest.raises(CapacityError, match=f"bound {name} at .* above the float range"):
            shape_value(name, p)
    assert shape_value("kappa", p) > 0 and shape_value("ls_a", p) == 260.0
    # evaluate_bounds returns the shapes that fit and the first shape's error
    values, error = evaluate_bounds(p)
    assert tuple(values) == ("ls_a", "ls_b", "kappa", "loglog")
    assert values["ls_a"] == 260.0
    assert values["kappa"] == shape_value("kappa", p)
    assert isinstance(error, CapacityError) and str(error).startswith("bound conjecture at")


def test_crossover_q_above_the_float_range_raises():
    # Q^k is taken before float(Q), so a Q past the float range is a
    # CapacityError, not a raw OverflowError
    with pytest.raises(CapacityError, match=r"\^3 is above the float range"):
        crossover_analysis(3, [10 ** 400], 3)


SHAPE_GUARD_N = (1, 2, 3, 7, 16, 100, 999, 4096, 12345, 10 ** 6, 3 ** 20, 10 ** 12)


def test_shape_values_are_the_reference_doubles():
    # == on purpose: the table must keep each literal's float evaluation order,
    # and a regrouped sum moves the last bit, which approx cannot see
    for k in range(2, 6):
        for eps in (0.0, 0.05, 0.3):
            for Q in [*range(1, 65), *map(float, range(1, 65))]:
                for N in SHAPE_GUARD_N:
                    p = BoundParams(Q, N, k, eps)
                    ref = reference_shapes(p)
                    assert tuple(ref) == SHAPE_NAMES
                    values, error = evaluate_bounds(p)
                    assert error is None
                    for name, (literal, terms) in ref.items():
                        assert values[name] == literal, (name, Q, N, k, eps)
                        assert shape_value(name, p, "shapes") == max(terms), (name, Q, N, k)


def test_shape_tables_in_docs_follow_shape_names():
    table = re.findall(r"^  ([a-z_]+) {2,}\S", bounds.__doc__, flags=re.M)
    assert tuple(table) == SHAPE_NAMES
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- \*\*Bound shapes\*\*.*?(?=^- |^#)", readme, flags=re.M | re.S)
    assert bullet, "README has no Bound shapes bullet"
    spots = [re.search(rf"`{name}[` ]", bullet.group(0)) for name in SHAPE_NAMES]
    assert all(spots), [n for n, s in zip(SHAPE_NAMES, spots) if not s]
    starts = [s.start() for s in spots]
    assert starts == sorted(starts), dict(zip(SHAPE_NAMES, starts))


def _grid_rows(report):
    return [r for r in report.rows if r["table"] == "grid"]


def test_crossover_k3_flip_sits_on_analytic_boundary():
    report = crossover_analysis(3, range(4, 33), 13)
    assert report.claim_applies
    assert report.consistent
    assert report.max_deviation <= 1
    assert report.boundary_exponent == pytest.approx(25 / 6, rel=1e-15)
    # lower edge: the delta shape wins at N = Q^3 for large Q
    low_edge = [r for r in _grid_rows(report) if r["Q"] == 32.0 and r["N"] == 32 ** 3]
    assert low_edge and low_edge[0]["delta_beats_loglog"]


def test_crossover_k2_makes_no_claim():
    report = crossover_analysis(2, range(4, 17), 13)
    assert not report.claim_applies
    assert report.consistent  # vacuously: nothing asserted
    assert not any(r["delta_beats_loglog"] for r in _grid_rows(report))


def test_crossover_winner_map_ignores_eps_in_shapes_mode():
    low = crossover_analysis(3, [4, 8], 13, "shapes", eps=0.05)
    high = crossover_analysis(3, [4, 8], 13, "shapes", eps=0.7)
    assert [r["winner"] for r in _grid_rows(low)] == [r["winner"] for r in _grid_rows(high)]
    assert [r["delta_beats_loglog"] for r in _grid_rows(low)] == \
        [r["delta_beats_loglog"] for r in _grid_rows(high)]


def test_crossover_winner_stable_under_refinement():
    coarse = crossover_analysis(3, [8], 7)
    fine = crossover_analysis(3, [8], 13)
    fine_winner = {(r["Q"], r["N"]): r["winner"] for r in _grid_rows(fine)}
    for row in _grid_rows(coarse):
        if (row["Q"], row["N"]) in fine_winner:
            assert fine_winner[(row["Q"], row["N"])] == row["winner"]


def test_crossover_rejects_empty_grid():
    with pytest.raises(ValueError):
        crossover_analysis(3, [], 13)


@pytest.mark.parametrize("points", [2, 7, 13])
@pytest.mark.parametrize("k", [2, 3])
def test_crossover_grid_rule(k, points):
    q_values = [1, 4, 32]
    rows = crossover_analysis(k, q_values, points).rows
    tables = [r["table"] for r in rows]
    # every grid record, then exactly one column record per Q, in Q order
    n_grid = tables.count("grid")
    assert tables == ["grid"] * n_grid + ["column"] * len(q_values)
    assert [r["Q"] for r in rows[n_grid:]] == [float(Q) for Q in q_values]
    for Q in q_values:
        ns = [r["N"] for r in rows[:n_grid] if r["Q"] == float(Q)]
        assert all(a < b for a, b in zip(ns, ns[1:])), (Q, ns)
        assert ns[0] == round(Q ** k) and ns[-1] == round(Q ** (2 * k)), (Q, ns)
        assert len(ns) <= points


def test_fit_exponent_exact_powers():
    xs = [1.0, 2.0, 4.0, 8.0]
    fit = fit_exponent([(x, x ** 2) for x in xs])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.max_abs_residual < 1e-9

    fit = fit_exponent([(x, 5 * x ** 1.5) for x in xs])
    assert fit.slope == pytest.approx(1.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(5), abs=1e-9)


def test_fit_exponent_validation():
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_exponent([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError):
        fit_exponent([(2.0, 1.0), (2.0, 3.0)])
