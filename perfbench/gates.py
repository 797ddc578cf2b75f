"""Correctness gates on the CSV a `sieve_lab.cli` invocation prints.

Each gate checks one invocation independently of the code under test: the
constants against stored references (dense `eigvalsh` oracle where N <= 1024),
system sizes against sum(phi(q) * q^(k-1)), Weyl sums and minimum sums against
exact integer phase arithmetic, and the frozen-seed maxima against
`frozen.py`.  A gate returns the number of rows, the number of rows that
failed in the way `reference.json` records as known, and a list of problems.
Any problem makes the benchmark run incorrect; known failures only count
towards the error rate.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import runpy
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_JSON = Path(__file__).with_name("reference.json")
FROZEN_PY = Path(__file__).resolve().parent.parent / "src" / "sieve_lab" / "frozen.py"

CONSTANT_REL_TOL = 1e-6
FROZEN_REL_TOL = 1e-9
# The package reduces float phases to ~1e-13 per term; the exact oracle is
# compared per row with this absolute slack per summed term.
WEYL_TERM_TOL = 1e-9
MIN_SUM_REL_TOL = 1e-9

# CLI defaults the frozen maxima were computed with (regression.py).
FROZEN_SEED = 0xC0FFEE
WEYL_DEFAULTS = {"Q": "4,16,64,256", "k": "2,3,4", "samples": 200}
ALPHAS_PER_SEED = 200


@dataclass
class GateResult:
    rows: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def int_values(text) -> list[int]:
    """Expand the CLI's range syntax ("1..4", "2,8") into sorted distinct ints."""
    values: set[int] = set()
    for part in str(text).split(","):
        if ".." in part:
            lo, hi = part.split("..", 1)
            values.update(range(int(lo), int(hi) + 1))
        else:
            values.add(int(part))
    return sorted(values)


def _totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def system_size(Q: int, k: int, mode: str) -> int:
    """|F|: reduced fractions a/q^k, 0 < a < q^k, over the mode's base range."""
    bases = range(2, Q + 1) if mode == "full" else range(Q + 1, 2 * Q + 1)
    return sum(_totient(q) * q ** (k - 1) for q in bases)


def load_reference() -> dict:
    """Reference constants and known failures, keyed by cell_key."""
    return json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))


def cell_key(Q, N, k, mode) -> str:
    return f"{Q},{N},{k},{mode}"


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(opts: dict, text: str, exit_code: int) -> GateResult:
    """Dispatch on the invocation's command."""
    return _GATES[opts["command"]](opts, _rows(text), exit_code)


def check_constant(opts: dict, rows: list[dict], exit_code: int) -> GateResult:
    res = GateResult(rows=len(rows))
    mode = opts.get("mode", "full")
    cells = {(Q, N, k) for k in int_values(opts["k"]) for Q in int_values(opts["Q"])
             for N in int_values(opts["N"])}
    seen = {(int(r["Q"]), int(r["N"]), int(r["k"])) for r in rows}
    if seen != cells or len(rows) != len(cells):
        res.problems.append(f"constant: expected cells {sorted(cells)}, got {sorted(seen)}")
    reference = load_reference()
    known = {f["cell"]: f["status"] for f in reference["known_failures"]}
    for r in rows:
        key = cell_key(r["Q"], r["N"], r["k"], r["mode"])
        ref = reference["constant"].get(key)
        if r["status"] != "ok":
            if known.get(key) == r["status"]:
                res.failed += 1
            else:
                res.problems.append(f"constant {key}: unexpected status {r['status']}: {r['detail']}")
            continue
        if ref is None:
            res.problems.append(f"constant {key}: no reference value")
            continue
        if int(r["size"]) != system_size(int(r["Q"]), int(r["k"]), mode):
            res.problems.append(f"constant {key}: size {r['size']} is wrong")
        rel = abs(float(r["measured"]) - ref["value"]) / max(abs(ref["value"]), 1.0)
        if rel > CONSTANT_REL_TOL:
            res.problems.append(f"constant {key}: measured {r['measured']} vs reference "
                                f"{ref['value']!r} ({ref['source']}), rel err {rel:.3g}")
    want_code = 5 if any(r["status"] == "eigensolver-error" for r in rows) else 0
    if exit_code != want_code:
        res.problems.append(f"constant: exit code {exit_code}, expected {want_code}")
    return res


def check_lemma1(opts: dict, rows: list[dict], exit_code: int) -> GateResult:
    res = GateResult(rows=len(rows))
    mode = opts.get("mode", "full")
    cells = [(Q, N, k) for k in int_values(opts["k"]) for Q in int_values(opts["Q"])
             for N in int_values(opts["N"])]
    if len(rows) != len(cells):
        res.problems.append(f"lemma1: {len(rows)} rows for {len(cells)} cells")
    for r in rows:
        cell = f"{r['Q']},{r['N']},{r['k']},{mode}"
        if r["status"] != "ok" or r["violations"] != "0":
            res.problems.append(f"lemma1 {cell}: status {r['status']}, "
                                f"violations {r['violations']}")
        if int(r["size"]) != system_size(int(r["Q"]), int(r["k"]), mode):
            res.problems.append(f"lemma1 {cell}: size {r['size']} is wrong")
        if not 0.0 <= float(r["max_ratio"]) <= 1.0:
            res.problems.append(f"lemma1 {cell}: max_ratio {r['max_ratio']} outside [0, 1]")
    if exit_code != 0:
        res.problems.append(f"lemma1: exit code {exit_code}")
    return res


def check_majorant(opts: dict, rows: list[dict], exit_code: int) -> GateResult:
    res = GateResult(rows=len(rows))
    mode = opts.get("mode", "full")
    samples = int(opts["samples"])
    want_rows = 0
    for k in int_values(opts["k"]):
        for Q in int_values(opts["Q"]):
            size = system_size(Q, k, mode)
            want_rows += samples if size else 1
            cell = [r for r in rows if int(r["Q"]) == Q and int(r["k"]) == k]
            if any(int(r["size"]) != size for r in cell):
                res.problems.append(f"majorant Q={Q} k={k}: size is not {size}")
    if len(rows) != want_rows:
        res.problems.append(f"majorant: {len(rows)} rows, expected {want_rows}")
    for r in rows:
        if r["status"] != "ok" or (r["ok"] and (r["ok"] != "true"
                                                 or r["exact_count"] != r["count_near"])):
            res.problems.append(f"majorant Q={r['Q']} k={r['k']} b={r['b']} r={r['r']}: "
                                f"ok={r['ok']} status={r['status']}")
    if exit_code != 0:
        res.problems.append(f"majorant: exit code {exit_code}")
    return res


def _alpha_ratio(label: str) -> tuple[int, int]:
    """The exact binary value (n, d) of the sample's alpha, rebuilt from its label
    with the same float expression regression.sample_alphas uses."""
    if label.startswith("("):
        inner, r = label[1:].split(")/")
        p, rest = inner.split("+")
        s, d = rest[:-1].split("*sqrt(")
        return ((int(p) + int(s) * math.sqrt(int(d))) / int(r)).as_integer_ratio()
    num, den = label.split("/")
    return int(num), int(den)


def _weyl_oracle(n: int, d: int, k: int, Q: int) -> complex:
    total = 0j
    for q in range(Q + 1, 2 * Q + 1):
        total += cmath.exp(2j * math.pi * ((n * pow(q, k, d)) % d / d))
    return total


def _min_sum_oracle(n: int, d: int, X: float, Y: float) -> float:
    xy = X * Y
    total = 0.0
    for v in range(1, math.floor(X) + 1):
        m = (v * n) % d
        inv = math.inf if m == 0 else d / min(m, d - m)
        total += min(xy / v, inv)
    return total


def check_weyl(opts: dict, rows: list[dict], exit_code: int) -> GateResult:
    res = GateResult(rows=len(rows))
    weyl = [r for r in rows if r["table"] == "weyl"]
    mins = [r for r in rows if r["table"] == "min_sum"]
    q_values, k_values = int_values(opts["Q"]), int_values(opts["k"])
    if len(weyl) != ALPHAS_PER_SEED * len(q_values) * len(k_values):
        res.problems.append(f"weyl: {len(weyl)} weyl rows")
    if len(mins) != int(opts["samples"]):
        res.problems.append(f"weyl: {len(mins)} min_sum rows")
    for r in weyl:
        n, d = _alpha_ratio(r["alpha"])
        Q, k = int(r["Q"]), int(r["k"])
        s = _weyl_oracle(n, d, k, Q)
        err = max(abs(float(r["sq_re"]) - s.real), abs(float(r["sq_im"]) - s.imag))
        ratio = float(r["sq_abs"]) / float(r["bound"])
        if err > WEYL_TERM_TOL * Q or abs(float(r["ratio"]) - ratio) > 1e-12 * ratio:
            res.problems.append(f"weyl alpha={r['alpha']} Q={Q} k={k}: sum off by {err:.3g}")
    for r in mins:
        n, d = _alpha_ratio(r["alpha"])
        X, Y, u, v = float(r["X"]), float(r["Y"]), int(r["u"]), int(r["v"])
        top = math.floor(X)
        # Dirichlet pair: 1 <= v <= floor(X), coprime, |v*alpha - u| <= 1/floor(X)
        if not (1 <= v <= top and math.gcd(u, v) == 1 and abs(v * n - u * d) * top <= d):
            res.problems.append(f"min_sum alpha={r['alpha']} X={X}: bad pair ({u}, {v})")
        value = _min_sum_oracle(n, d, X, Y)
        if abs(float(r["min_sum"]) - value) > MIN_SUM_REL_TOL * value:
            res.problems.append(f"min_sum alpha={r['alpha']} X={X}: {r['min_sum']} vs {value!r}")
    if int(opts["seed"]) == FROZEN_SEED and all(
            str(opts.get(key, val)) == str(val) for key, val in WEYL_DEFAULTS.items()):
        frozen = _frozen_ratios()
        for table, key in (("weyl", "weyl_bound_max"), ("min_sum", "min_sum_bound_max")):
            got = max(float(r["ratio"]) for r in rows if r["table"] == table)
            if abs(got - frozen[key]) > FROZEN_REL_TOL * frozen[key]:
                res.problems.append(f"weyl: {table} max ratio {got!r} != frozen {frozen[key]!r}")
    if exit_code != 0:
        res.problems.append(f"weyl: exit code {exit_code}")
    return res


def _frozen_ratios() -> dict:
    """FROZEN_RATIOS from the checkout's frozen.py, read without importing the package."""
    return runpy.run_path(str(FROZEN_PY))["FROZEN_RATIOS"]


_GATES = {
    "constant": check_constant,
    "lemma1": check_lemma1,
    "majorant": check_majorant,
    "weyl": check_weyl,
}
