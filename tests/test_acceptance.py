"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py
-v -s` to see them live).  The measured-ratio criteria compare against the
frozen values in sieve_lab.frozen, regenerated only by
`python -m sieve_lab.regression`.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from sieve_lab import cli, kernels, regression
from sieve_lab.bounds import crossover_analysis, fit_exponent
from sieve_lab.expsums import fourier_majorant
from sieve_lab.farey import count_near, counting_rhs, enumerate_system, system_point
from sieve_lab.frozen import FROZEN_RATIOS
from sieve_lab.sieve import CoefficientVector, dense_lambda_max, power_iteration, toeplitz_kernel

from helpers import quadform_of, stieltjes_integral
from test_farey import _quadrature_oracle

SEED = 0xC0FFEE
GRID_Q = (1, 2, 3, 4)
GRID_K = (2, 3)
GRID_N = (4, 16, 64, 256)
GRID_MODES = ("full", "dyadic")
VECTORS = 100
REL = 1e-9


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def _cell_keys():
    return [(k, mode, Q, N) for k in GRID_K for mode in GRID_MODES
            for Q in GRID_Q for N in GRID_N]


def _cell_vectors(k: int, mode: str, Q: int, N: int):
    """The fixed-seed coefficient batch of a grid cell (offset, values) pairs."""
    rng = np.random.default_rng([SEED, k, Q, N, 0 if mode == "full" else 1])
    out = []
    for _ in range(VECTORS):
        m_off = int(rng.integers(-64, 65))
        out.append((m_off, rng.standard_normal(N) + 1j * rng.standard_normal(N)))
    return out


@pytest.fixture(scope="module")
def grid():
    """Closed-form kernel and eigensolver result for every grid cell."""
    cells = {}
    for k, mode, Q, N in _cell_keys():
        kern = toeplitz_kernel(Q, N, k, mode)
        cells[(k, mode, Q, N)] = (kern, power_iteration(kern, 1e-8))
    return cells


_sigma_cache: dict = {}
_crit1_elapsed: list = []


def _ensure_sigma_cache():
    """Criterion-1 pass over every cell and vector; timed once, reused by the
    quadratic-form criterion."""
    if _sigma_cache:
        return
    start = time.perf_counter()
    violations = 0
    max_ratio = 0.0
    for k, mode, Q, N in _cell_keys():
        system = enumerate_system(Q, k, mode)
        rhs_unit = counting_rhs(system, N)
        vecs = [CoefficientVector(m_off, values)
                for m_off, values in _cell_vectors(k, mode, Q, N)]
        stats = []
        for vec, lhs in zip(vecs, quadform_of(system, vecs).tolist()):
            stats.append((lhs, vec.norm_sq))
            if system.size == 0:
                continue
            rhs = rhs_unit * vec.norm_sq
            max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs * (1 + REL):
                violations += 1
        _sigma_cache[(k, mode, Q, N)] = stats
    _crit1_elapsed.append(time.perf_counter() - start)
    _sigma_cache["violations"] = violations
    _sigma_cache["max_ratio"] = max_ratio


def test_criterion_01_counting_inequality_exact():
    _ensure_sigma_cache()
    elapsed = _crit1_elapsed[0]
    ok = _sigma_cache["violations"] == 0 and elapsed <= 120.0
    _report("criterion 1: counting inequality LHS <= RHS on all cells", ok,
            f"max LHS/RHS {_sigma_cache['max_ratio']:.6f}, "
            f"violations {_sigma_cache['violations']}, elapsed {elapsed:.1f}s")


def test_criterion_02_classical_bound_constant_one(grid):
    worst = ("", 0.0)
    violations = 0
    for (k, mode, Q, N), (_, res) in grid.items():
        top = Q if mode == "full" else 2 * Q
        bound = N + float(top) ** (2 * k)
        ratio = res.value / bound
        if ratio > worst[1]:
            worst = (f"(Q={Q},N={N},k={k},{mode})", ratio)
        if res.value > bound:
            violations += 1
    _report("criterion 2: sharp-form classical bound, constant 1", violations == 0,
            f"worst measured/bound {worst[1]:.6f} at {worst[0]}; "
            "full vs N+Q^2k, dyadic vs N+(2Q)^2k")


def test_criterion_03_eigensolver_oracles(grid):
    rng = np.random.default_rng([SEED, 3])
    worst_lam = worst_kernel = worst_mult = 0.0
    for (k, mode, Q, N), (kern, res) in grid.items():
        if N > 64:
            continue
        dense_val = dense_lambda_max(kern)
        if dense_val > 0:
            worst_lam = max(worst_lam, abs(res.value - dense_val) / dense_val)
        system = enumerate_system(Q, k, mode)
        brute = kernels.autocorr(system.numerators, system.moduli, N)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(kern.c - brute))))
        dense_mat = kern.dense()
        for _ in range(20):
            v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            ref = dense_mat @ v
            scale = max(float(np.linalg.norm(ref)), 1e-30)
            worst_mult = max(worst_mult,
                             float(np.linalg.norm(kern.matvec(v) - ref)) / scale)
    ok = worst_lam <= 1e-6 and worst_kernel <= 1e-10 and worst_mult <= 1e-10
    _report("criterion 3: eigensolver/kernel/multiply oracle equivalence", ok,
            f"lambda rel {worst_lam:.2e}, kernel abs {worst_kernel:.2e}, "
            f"multiply rel {worst_mult:.2e}")


def test_criterion_04_quadratic_form_consistency(grid):
    _ensure_sigma_cache()
    worst = 0.0
    for key in _cell_keys():
        k, mode, Q, N = key
        kern, _ = grid[key]
        for (m_off, values), (sigma, _) in zip(_cell_vectors(*key),
                                               _sigma_cache[key]):
            quad = float(np.real(np.vdot(values, kern.matvec(values))))
            scale = max(abs(sigma), abs(quad), 1e-12)
            worst = max(worst, abs(sigma - quad) / scale)
    _report("criterion 4: sigma equals kernel quadratic form", worst <= 1e-8,
            f"worst relative gap {worst:.2e}")


def test_criterion_05_majorant_dominates_exact_count():
    rng = np.random.default_rng([SEED, 5])
    bad = 0
    done = 0
    while done < 200:
        Q = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        system = enumerate_system(Q, k, mode)
        if system.size == 0:
            continue
        idx = int(rng.integers(0, system.size))
        b, r = system_point(Q, k, mode, idx)
        assert (b, r ** k) == (int(system.numerators[idx]), int(system.moduli[idx]))
        top = int(system.moduli.max())
        x = float(10.0 ** rng.uniform(-3, -0.01) / (2.0 * top))
        res = fourier_majorant(Q, k, mode, (b, r), x)
        near = count_near(Q, k, mode, Fraction(b, r ** k), x)
        if res.B < 1.0:
            continue
        if not res.majorant_value >= near - REL * abs(res.majorant_value):
            bad += 1
        done += 1
    _report("criterion 5: transform majorant >= exact count (count_near)",
            bad == 0, f"200 samples, violations {bad}")


def test_criterion_06_counting_integral_closed_form():
    rng = np.random.default_rng([SEED, 6])
    worst = 0.0
    done = 0
    while done < 50:
        Q = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        mode = ["full", "dyadic"][int(rng.integers(0, 2))]
        N = int(rng.integers(4, 513))
        system = enumerate_system(Q, k, mode)
        if system.size == 0:
            continue
        if rng.uniform() < 0.7:
            idx = int(rng.integers(0, system.size))
            center = Fraction(int(system.numerators[idx]), int(system.moduli[idx]))
        else:
            center = Fraction(int(rng.integers(0, 64)), int(rng.integers(1, 64)))
        exact = stieltjes_integral(system, center, N)
        approx = _quadrature_oracle(system, center, N)
        if approx != 0 or exact != 0:
            worst = max(worst, abs(exact - approx) / max(abs(approx), 1e-12))
        done += 1
    _report("criterion 6: closed-form counting integral vs adaptive quadrature",
            worst <= 1e-6, f"50 instances, worst rel gap {worst:.2e}")


def test_criterion_07_frozen_ratio_regressions():
    slack = 1 + 1e-9
    now = regression.compute_frozen()
    weyl_max, ms_max = now["weyl_bound_max"], now["min_sum_bound_max"]
    ok = (weyl_max <= FROZEN_RATIOS["weyl_bound_max"] * slack
          and ms_max <= FROZEN_RATIOS["min_sum_bound_max"] * slack)
    detail = [f"weyl {weyl_max:.6f} (frozen {FROZEN_RATIOS['weyl_bound_max']:.6f})",
              f"min_sum {ms_max:.6f} (frozen {FROZEN_RATIOS['min_sum_bound_max']:.6f})"]
    for k, shapes in now["delta_ratio_max"].items():
        for name, value in shapes.items():
            frozen = FROZEN_RATIOS["delta_ratio_max"][k][name]
            ok = ok and value <= frozen * slack
            detail.append(f"k={k} {name} {value:.6f} (frozen {frozen:.6f})")
    _report("criterion 7: measured-ratio regression guards", ok, "; ".join(detail))


def test_criterion_08_crossover_boundary():
    report = crossover_analysis(3, range(4, 33), 13, "shapes")
    ok = report.claim_applies and report.consistent and report.max_deviation <= 1

    report2 = crossover_analysis(2, range(4, 17), 13, "shapes")
    wins2 = sum(1 for r in report2.rows if r["table"] == "grid" and r["delta_beats_loglog"])
    ok = ok and not report2.claim_applies
    _report("criterion 8: crossover flip matches N = Q^(2k-2+2delta) for k=3", ok,
            f"max deviation {report.max_deviation} cells; k=2 claims nothing "
            f"(delta strictly won {wins2} grid points)")


def test_criterion_09_exponent_fit():
    rng = np.random.default_rng([SEED, 9])
    worst = 0.0
    for _ in range(20):
        s = float(rng.uniform(-3, 3))
        c = float(10.0 ** rng.uniform(-2, 2))
        xs = [2.0 ** j for j in range(6)]
        fit = fit_exponent([(x, c * x ** s) for x in xs])
        worst = max(worst, abs(fit.slope - s))
    ok = worst <= 1e-9

    samples = []
    for Q in range(2, 9):
        N = Q * Q
        samples.append((float(Q), power_iteration(toeplitz_kernel(Q, N, 2)).value))
    slope = fit_exponent(samples).slope
    ok = ok and 2.0 <= slope <= 4.0
    _report("criterion 9: exponent fit sanity", ok,
            f"synthetic recovery {worst:.2e}; measured slope along N=Q^2: "
            f"{slope:.4f} in [2, 4]")


def test_criterion_10_byte_identical_outputs(tmp_path):
    suites = [
        ["constant", "--Q", "1..3", "--N", "4,16,64", "--k", "2,3", "--mode", "dyadic"],
        ["constant", "--Q", "1..3", "--N", "4,16,64", "--k", "2,3", "--mode", "full",
         "--format", "json"],
        ["lemma1", "--Q", "1..2", "--N", "4,16", "--k", "2", "--mode", "dyadic",
         "--vectors", "25"],
        ["weyl", "--Q", "4,16", "--k", "2,3", "--samples", "50"],
        ["majorant", "--Q", "1..3", "--k", "2,3", "--mode", "dyadic"],
        ["crossover", "--Q", "4..32", "--k", "3"],
        ["fit", "--Q", "2..8", "--k", "2"],
    ]
    ok = True
    for i, args in enumerate(suites):
        out1 = tmp_path / f"run1_{i}"
        out2 = tmp_path / f"run2_{i}"
        code1 = cli.main(args + ["--out", str(out1)])
        code2 = cli.main(args + ["--out", str(out2)])
        same = out1.read_bytes() == out2.read_bytes() and code1 == code2
        ok = ok and same and code1 == 0
    _report("criterion 10: byte-identical outputs across reruns", ok,
            f"{len(suites)} commands, csv and json")
