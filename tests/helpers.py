"""Independent oracles shared by the test modules.

Everything here recomputes results by the most direct route available (double
loops, round-based scans, Fraction arithmetic) so the package's optimized
paths are checked against genuinely separate code.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

from sieve_lab import kernels
from sieve_lab.errors import EigensolverError
from sieve_lab.sieve import (INVARIANT_TOL, ITERATION_CAP_BASE, RESTART_LENGTH, ParitySector,
                             PowerResult, start_vector)

TWO_PI = 2.0 * math.pi
# Runs the command in argv, then prints its exit code and the peak RSS that
# os.wait4 reports for it (KiB on Linux).
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def cli_peak_rss(args, env, timeout: float = 60.0) -> tuple[int, float]:
    """Run `python -m sieve_lab.cli` with args as the child of a small
    `python -c` launcher: (its exit code, its peak RSS in MB).

    The launcher, not the test process, spawns the CLI because at exec Linux
    folds the peak RSS of the spawning process into the new program's
    ru_maxrss: on a Linux 6.x VM, a trivial child of a process that had
    touched 300 MB read 327 MB through os.wait4, and 14 MB when started from
    the launcher."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "sieve_lab.cli",
         *args], env=env, capture_output=True, text=True, timeout=timeout, check=True)
    code, kib = proc.stdout.split()
    return int(code), int(kib) / 1024


def whole_text_records(records: list[dict], columns: list[str], schema: str, command: str,
                       fmt: str) -> str:
    """The whole output text of cli.write_records, built in memory the way the
    writer once built it before writing: the CSV in one io.StringIO, the JSON
    by json.dumps with indent 2 plus a newline."""
    rows = [{"schema": schema, "command": command, **{col: rec.get(col) for col in columns}}
            for rec in records]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema", "command", *columns])
    for row in rows:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row.values()])
    return buf.getvalue()


def brute_dirichlet(alpha: float, bound: int) -> tuple[int, int, float]:
    """Scan all 1 <= v <= bound with u = round(v*alpha); minimal residual wins,
    ties toward smaller v."""
    best = None
    for v in range(1, bound + 1):
        u = round(v * alpha)
        res = abs(v * alpha - u)
        if best is None or res < best[2]:
            g = math.gcd(u, v)
            best = (u // g, v // g, res)
    return best


def fraction_convergents(alpha):
    """Yield the continued-fraction convergents (u, v) of alpha, v
    nondecreasing, each with its exact Fraction residual |v*alpha - u|, up to
    the first zero residual."""
    exact = Fraction(alpha)
    num, den = exact.numerator, exact.denominator
    u_prev, v_prev, u_prev2, v_prev2 = 1, 0, 0, 1
    while den:
        step, rem = divmod(num, den)
        u, v = step * u_prev + u_prev2, step * v_prev + v_prev2
        res = abs(v * exact - u)
        yield u, v, res
        if res == 0:
            return
        u_prev2, v_prev2, u_prev, v_prev = u_prev, v_prev, u, v
        num, den = den, rem


def fraction_dirichlet_approx(alpha, bound: int, convergents=None) -> tuple[int, int, float]:
    """dirichlet_approx's (u, v, residual) in Fraction arithmetic: among the
    convergents with v <= bound the smallest exact residual wins (ties toward
    smaller v).  `convergents`, a list of fraction_convergents(alpha) holding
    every one with v <= bound, lets a scan over many bounds build them once."""
    best = None
    for u, v, res in fraction_convergents(alpha) if convergents is None else convergents:
        if v > bound:
            break
        if best is None or res < best[2]:
            best = (u, v, res)
    u, v, _ = best
    return u, v, float(abs(alpha * v - u))


def valid_pairs(alpha: float, bound: int) -> list[tuple[int, int, float]]:
    """All coprime pairs (u, v), v <= bound, with |v*alpha - u| <= 1/v."""
    out = []
    for v in range(1, bound + 1):
        u = round(v * alpha)
        res = abs(v * alpha - u)
        if res <= 1.0 / v and math.gcd(u, v) == 1:
            out.append((u, v, res))
    return out


def brute_enumerate(Q: int, k: int, mode: str) -> list[tuple[int, int]]:
    """Double loop with a gcd filter; returns (a, q) pairs sorted by (q, a)."""
    qs = range(1, Q + 1) if mode == "full" else range(Q + 1, 2 * Q + 1)
    pts = []
    for q in qs:
        qk = q ** k
        for a in range(1, qk):
            if math.gcd(a, q) == 1:
                pts.append((a, q))
    return pts


def brute_count_near(points: list[tuple[int, int]], center: Fraction,
                     x: Fraction) -> int:
    """Count via Fraction distance comparisons."""
    return sum(1 for a, qk in points if abs(Fraction(a, qk) - center) <= x)


def brute_sigma(points: list[tuple[int, int]], m_off: int,
                values: np.ndarray) -> float:
    """Direct double loop over points and indices with cmath exponentials."""
    total = 0.0
    n = len(values)
    for a, qk in points:
        s = 0.0 + 0.0j
        for j in range(n):
            s += values[j] * cmath.exp(2j * cmath.pi * a * (m_off + 1 + j) / qk)
        total += abs(s) ** 2
    return total


def brute_weyl_rational(num: int, den: int, k: int, q_lo: int, q_hi: int) -> complex:
    """sum_{q_lo < q <= q_hi} e(num * q^k / den) with the residue num * q^k mod den
    taken in Python ints."""
    return sum(cmath.exp(2j * cmath.pi * ((num * pow(q, k, den)) % den) / den)
               for q in range(q_lo + 1, q_hi + 1))


def brute_majorant(b: int, rk: int, mods, bqs) -> tuple[float, float]:
    """(sum over moduli q^k of sum_{|a| <= B_q} phi_hat(a/B_q)/B_q * cos(2 pi a b q^k / r^k),
    sum of phi_hat(0)/B_q), with phi_hat(s) = (pi^2/4) max(1 - |s|, 0) and the
    residue a*b*q^k mod r^k in Python ints."""
    weight = math.pi ** 2 / 4
    value = main = 0.0
    for qk, bq in zip(mods, bqs):
        top = math.floor(bq)
        for a in range(-top, top + 1):
            r = (a * b * qk) % rk
            value += weight * max(1.0 - abs(a) / bq, 0.0) / bq * math.cos(2 * math.pi * r / rk)
        main += weight / bq
    return value, main


def per_term_majorant(b: int, rk: int, mods, bqs) -> tuple[float, float]:
    """kernels.majorant_sum's value and main term, summed term by term: per
    modulus one weight max(1 - a/B_q, 0) and one cosine of the residue
    a*b*q^k mod r^k for every a in 1..floor(B_q), in numpy blocks of
    kernels.BLOCK_ELEMENTS terms; the same cosine doubles as the kernel."""
    total = main = 0.0
    for qk, bq in zip(mods, bqs):
        s0 = (b * (qk % rk)) % rk
        tail = 0.0
        for start in range(1, int(bq) + 1, kernels.BLOCK_ELEMENTS):
            a = np.arange(start, min(start + kernels.BLOCK_ELEMENTS, int(bq) + 1),
                          dtype=np.int64)
            w = np.maximum(1.0 - a * (1.0 / bq), 0.0)
            tail += float(np.sum(w * np.cos(TWO_PI * (((a * s0) % rk) / rk))))
        total += kernels.PI_SQ_OVER_4 / bq * (1.0 + 2.0 * tail)
        main += kernels.PI_SQ_OVER_4 / bq
    return total, main


def class_majorant(b_red, rk, mods, bqs):
    """The residue-class majorant sum that kernels.majorant_sum's closed form
    replaced; returns (value, a0_term).

    bqs[j] is the truncation length for modulus mods[j] (1/(2*qk*x), rounded
    down by the caller so the transform provably dominates the exact count).
    Term a in 1..n = floor(B_q) has the weight (pi^2/4) * (1 - a/B_q) and the
    cosine of the exact residue a*s0 mod rk, s0 = b*qk mod rk, which depends
    only on a mod P, P = rk / gcd(s0, rk).  So each class j in 1..min(P, n)
    of c_j = (n - j) // P + 1 terms takes one cosine and the weight sum
    c_j - c_j*(j + P*(c_j - 1)/2) / B_q: min(P, n) <= rk cosines per modulus,
    in blocks of at most BLOCK_ELEMENTS classes.  j*s0 < 2**62 as j <= P <= rk.
    """
    total = main = 0.0
    for qk, bq in zip(mods.tolist(), bqs.tolist()):
        s0 = (b_red * (qk % rk)) % rk
        period = rk // math.gcd(s0, rk)
        n_a = int(bq)
        tail = 0.0
        for start in range(1, min(period, n_a) + 1, kernels.BLOCK_ELEMENTS):
            j = np.arange(start, min(start + kernels.BLOCK_ELEMENTS, period + 1, n_a + 1),
                          dtype=np.int64)
            cnt = ((n_a - j) // period + 1).astype(np.float64)
            w = cnt - cnt * (j + period * (cnt - 1.0) / 2.0) / bq
            tail += float(np.sum(w * np.cos(TWO_PI * (((j * s0) % rk) / rk))))
        acc = 1.0 + 2.0 * tail
        total += kernels.PI_SQ_OVER_4 / bq * acc
        main += kernels.PI_SQ_OVER_4 / bq
    return total, main


def brute_min_sum(alpha, count: int, xy: float) -> float:
    """sum_{1 <= v <= count} min(xy/v, 1/||v*alpha||), term by term in a Python
    loop added left to right; ||v*alpha|| from exact integer residues for
    rational alpha, from (v*alpha) % 1.0 for floats; a zero distance picks xy/v."""
    exact = isinstance(alpha, (int, Fraction))
    if exact:
        frac = Fraction(alpha)
        num, den = frac.numerator, frac.denominator
    total = 0.0
    for v in range(1, count + 1):
        if exact:
            m = (v * num) % den
            inv = math.inf if m == 0 else den / min(m, den - m)
        else:
            r = (v * float(alpha)) % 1.0
            d = min(r, 1.0 - r)
            inv = math.inf if d == 0.0 else 1.0 / d
        total += min(xy / v, inv)
    return total


def reference_shapes(p) -> dict[str, tuple[float, tuple[float, ...]]]:
    """name -> (literal value, eps-free power terms) of the six bound shapes,
    each literal one expression with its own float evaluation order, for
    bitwise comparison with the shape table in sieve_lab.bounds."""
    Q, N, k = float(p.Q), float(p.N), p.k
    kap, d = 2 ** (k - 1), 1.0 / (2 * k * (k - 1))
    return {
        "ls_a": (N + Q ** (2 * k), (N, Q ** (2 * k))),
        "ls_b": (Q * N + Q ** (k + 1), (Q * N, Q ** (k + 1))),
        "conjecture": ((p.N + Q ** (k + 1)) * (p.N * p.Q) ** p.eps, (N, Q ** (k + 1))),
        "kappa": (Q ** (k + 1) + (N * Q ** (1 - 1 / kap)
                                  + N ** (1 - 1 / kap) * Q ** (1 + k / kap)) * N ** p.eps,
                  (Q ** (k + 1), N * Q ** (1 - 1 / kap),
                   N ** (1 - 1 / kap) * Q ** (1 + k / kap))),
        "loglog": ((Q ** (k + 1) + N + N ** (0.5 + p.eps) * Q ** k)
                   * math.log(math.log(10.0 * N * Q)) ** (k + 1),
                   (Q ** (k + 1), N, math.sqrt(N) * Q ** k)),
        "delta": ((N * Q) ** p.eps * (Q ** (k + 1) + Q ** (1 - d) * N
                                      + Q ** (1 + k * d) * N ** (1 - d)),
                  (Q ** (k + 1), Q ** (1 - d) * N, Q ** (1 + k * d) * N ** (1 - d))),
    }


def rayleigh_quotient(kernel, values) -> float:
    """v*Tv / |v|^2 through the materialized matrix kernel.dense()."""
    v = np.asarray(values, dtype=np.complex128)
    return float(np.real(np.vdot(v, kernel.dense() @ v)) / np.real(np.vdot(v, v)))


def int_points(system) -> list[tuple[int, int]]:
    """(a, q^k) pairs of a PowerFareySystem as Python ints."""
    return list(zip(system.numerators.tolist(), system.moduli.tolist()))


def stieltjes_integral(system, center: Fraction, N: int) -> float:
    """The counting integral of count_near(x)/x^2 over [1/N, 1/2], in closed form.

    Equals sum over points with d <= 1/2 of (1/max(d, 1/N) - 2) where
    d = |a/q^k - center|; the branch tests are exact integer comparisons and
    only the final reciprocal is a float division.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    cn, cd = center.numerator, center.denominator
    total = 0.0
    for a, qk in int_points(system):
        big = abs(a * cd - cn * qk)
        vol = qk * cd
        if 2 * big <= vol:
            if big * N <= vol:
                total += N - 2.0
            else:
                total += vol / big - 2.0
    return total


def totient(n: int) -> int:
    """Euler totient by trial-division factorization (independent of the package)."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


_MASK64 = (1 << 64) - 1


def _splitmix64_word(state: int, i: int) -> int:
    """Output i + 1 of splitmix64 from `state` (Steele, Lea and Flood 2014),
    in Python ints reduced mod 2^64."""
    z = (state + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def keyed_state(seed: int, key) -> int:
    """The state of the keyed stream: `seed`, then for each key part p in
    turn, word p of the stream so far."""
    state = seed
    for part in key:
        state = _splitmix64_word(state, part)
    return state


def keyed_words(seed: int, key, first: int, count: int) -> list[int]:
    """Words first .. first + count - 1 of the stream of (seed, key)."""
    state = keyed_state(seed, key)
    return [_splitmix64_word(state, i) for i in range(first, first + count)]


def keyed_uniforms(seed: int, key, first: int, count: int) -> list[float]:
    """((z >> 11) + 1) / 2^53 of the words z from `first`."""
    return [((z >> 11) + 1) / 2 ** 53 for z in keyed_words(seed, key, first, count)]


def keyed_gaussian_pairs(seed: int, key, first: int, count: int) -> list[tuple[float, float]]:
    """Box-Muller pairs first .. first + count - 1, pair i from the uniforms
    u, v of words 2i and 2i + 1, by math.log, math.cos and math.sin."""
    u = keyed_uniforms(seed, key, 2 * first, 2 * count)
    return [(math.sqrt(-2.0 * math.log(u[2 * i])) * math.cos(TWO_PI * u[2 * i + 1]),
             math.sqrt(-2.0 * math.log(u[2 * i])) * math.sin(TWO_PI * u[2 * i + 1]))
            for i in range(count)]


def keyed_integers(seed: int, key, bounds) -> tuple[list[int], int]:
    """Lemire's multiply-and-reject one entry at a time: entry i of len(bounds)
    tries the low, then the high 32-bit half of word i, then of word i + count,
    i + 2 count, ...; a candidate x is rejected when (x b) mod 2^32 is below
    (2^32 - b) mod b, and otherwise gives (x b) >> 32.  Returns the entries
    and the number of rejected candidates."""
    state, count = keyed_state(seed, key), len(bounds)
    out, rejected = [], 0
    for i, b in enumerate(bounds):
        threshold = ((1 << 32) - b) % b
        candidate = 0
        while True:
            z = _splitmix64_word(state, candidate // 2 * count + i)
            m = ((z >> (32 * (candidate % 2))) & 0xFFFFFFFF) * b
            if (m & 0xFFFFFFFF) >= threshold:
                out.append(m >> 32)
                break
            rejected += 1
            candidate += 1
    return out, rejected


def sector_lift(sector, n: int, u) -> np.ndarray:
    """The length-n vector (u_lo / sqrt(2), middle, sign * reversed(u_lo) / sqrt(2))
    whose coordinates in the parity sector `sector` of an n x n kernel are u:
    u_lo is u's first n // 2 entries, and the middle entry, for odd n, is u's
    last entry in the symmetric sector and 0 in the antisymmetric one."""
    h = n // 2
    u = np.asarray(u)
    half = u[:h] / math.sqrt(2.0)
    middle = u[h:] if n % 2 and sector.sign > 0 else np.zeros(n % 2, dtype=u.dtype)
    return np.concatenate([half, middle, sector.sign * half[::-1]])


def sector_starts(kernel) -> list:
    """(sector, start) for each parity sector that sieve.power_iteration
    solves, start being the projection of sieve.start_vector(N), its
    default-seed splitmix64 Gaussian draw; a sector whose trace is at most
    INVARIANT_TOL N c(0) is null and left out."""
    x = start_vector(kernel.N)
    sectors = (ParitySector(kernel, 1), ParitySector(kernel, -1))
    return [(s, s.project(x)) for s in sectors if s.trace > INVARIANT_TOL * s.bound]


def lanczos_every_step(op, start, rel_tol: float = 1e-8):
    """Independent reference for sieve.sector_top: restarted Lanczos on any
    operator with `N` and `matvec`, with full two-pass reorthogonalisation and
    the convergence test (a dense eigh of the tridiagonal matrix) after every
    step, from the same start, restart and certificate: (PowerResult, number
    of Lanczos cycles run)."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    n = op.N
    m = min(RESTART_LENGTH, n)
    cap = 10 * n + ITERATION_CAP_BASE
    x = start / np.linalg.norm(start)
    V = np.empty((m, n))
    alpha = np.zeros(m)
    beta = np.zeros(m)
    tx = op.matvec(x)
    matvecs = 1
    cycles = 0
    while True:
        value = float(np.vdot(x, tx))
        if value <= 0.0:
            return PowerResult(0.0, 0.0, matvecs), cycles  # numerically null operator
        residual = float(np.linalg.norm(tx - value * x)) / value
        if residual < rel_tol:
            return PowerResult(value, residual, matvecs), cycles
        if matvecs >= cap:
            raise EigensolverError(
                f"Lanczos did not converge in {cap} matvecs "
                f"(last value {value!r}, residual {residual!r})",
                last_value=value, last_residual=residual, iterations=matvecs)
        cycles += 1
        V[0] = x
        w = tx
        for j in range(m):
            if j > 0:
                w = op.matvec(V[j])
                matvecs += 1
            alpha[j] = 0.0
            for _ in range(2):  # full reorthogonalisation, two passes
                h = V[:j + 1] @ w
                w = w - h @ V[:j + 1]
                alpha[j] += h[j]
            beta[j] = float(np.linalg.norm(w))
            theta, Y = np.linalg.eigh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
                                      + np.diag(beta[:j], -1))
            y = Y[:, -1]
            if (beta[j] * abs(y[j]) < rel_tol * theta[-1]
                    or beta[j] <= INVARIANT_TOL * theta[-1]
                    or j == m - 1 or matvecs >= cap - 1):
                break
            V[j + 1] = w / beta[j]
        x = y @ V[:j + 1]
        x /= np.linalg.norm(x)
        tx = op.matvec(x)
        matvecs += 1
