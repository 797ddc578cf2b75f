"""Command-line driver: run verifications and scans, emit CSV/JSON records.

Exit codes: 0 success, 2 invalid config, 3 verification failure (an inequality
that must hold exactly failed, or a crossover inconsistency), 4 capacity
overflow, 5 eigensolver non-convergence.  When several kinds of row failures
occur in one scan the most severe code wins (3, then 4, then 5).

Config precedence: command-line flags override the --config file, which
overrides the file named by SIEVE_LAB_CONFIG, which overrides per-command
defaults.  Config files are flat key=value lines with '#' comments.
SIEVE_LAB_THREADS sets the worker-pool width (default: logical cores); rows
are always emitted in deterministic sorted order regardless of it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import kernels, regression
from .bounds import (BoundParams, SHAPE_NAMES, ScanRecord, crossover_analysis,
                     fit_exponent)
from .errors import (EXIT_CAPACITY, EXIT_EIGENSOLVER, EXIT_INVALID_CONFIG,
                     EXIT_OK, EXIT_VERIFICATION, CapacityError, EigensolverError)
from .expsums import fourier_majorant
from .farey import count_near, counting_rhs, enumerate_system
# sigma_exact is unused here but stays importable from cli, where
# perfbench/tracing.py wraps it.
from .sieve import (CoefficientVector, dense_lambda_max, power_iteration,  # noqa: F401
                    sigma_exact, sigma_exact_batch, toeplitz_kernel)

SCHEMA = "sieve-lab-1"
DEFAULT_SEED = 0xC0FFEE
ORACLE_N_CAP = 512
REL_SLACK = 1e-9

COMMANDS = ("constant", "lemma1", "weyl", "majorant", "crossover", "fit")

_COMMON_DEFAULTS = {
    "mode": "full", "eps": 0.05, "rel_tol": 1e-8, "seed": DEFAULT_SEED,
    "oracle": False, "normalization": "shapes", "format": "csv", "out": "-",
    "theta": 2.0, "points": 13, "vectors": 100, "samples": 8,
}

_COMMAND_DEFAULTS = {
    "constant": {"Q": "1..4", "N": "4,16,64,256", "k": "2,3"},
    "lemma1": {"Q": "1..4", "N": "4,16,64,256", "k": "2,3"},
    "weyl": {"Q": "4,16,64,256", "N": "1", "k": "2,3,4", "samples": 200},
    "majorant": {"Q": "1..4", "N": "1", "k": "2,3"},
    "crossover": {"Q": "4..32", "N": "1", "k": "3"},
    "fit": {"Q": "2..8", "N": "1", "k": "2"},
}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    q_values: tuple[int, ...]
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    mode: str
    eps: float
    rel_tol: float
    seed: int
    oracle: bool
    normalization: str
    fmt: str
    out: str
    theta: float
    points: int
    vectors: int
    samples: int
    threads: int


def parse_int_values(text: str, name: str) -> tuple[int, ...]:
    """Parse "a..b", "a", or comma lists of either into sorted distinct ints."""
    values: set[int] = set()
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                lo_s, hi_s = part.split("..", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ConfigError(f"--{name}: empty range {part!r}")
                values.update(range(lo, hi + 1))
            else:
                values.add(int(part))
        except ValueError as exc:
            raise ConfigError(f"--{name}: cannot parse {part!r}") from exc
    if not values:
        raise ConfigError(f"--{name}: no values given")
    return tuple(sorted(values))


def load_config_file(path: str) -> dict[str, str]:
    known = {"Q", "N", "k", "mode", "eps", "rel_tol", "seed", "oracle",
             "normalization", "format", "out", "theta", "points", "vectors",
             "samples"}
    data: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "rel_tol" or key in known:
            data[key] = value.strip()
        else:
            raise ConfigError(f"unknown config key {key.strip()!r}")
    return data


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in {"1", "true", "yes", "on"}


def resolve_threads() -> int:
    raw = os.environ.get("SIEVE_LAB_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigError(f"SIEVE_LAB_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ConfigError("SIEVE_LAB_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def build_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = dict(_COMMON_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS[args.command])
    env_cfg = os.environ.get("SIEVE_LAB_CONFIG", "").strip()
    if env_cfg:
        merged.update(load_config_file(env_cfg))
    if args.config:
        merged.update(load_config_file(args.config))
    for key in ("Q", "N", "k", "mode", "eps", "rel_tol", "seed", "oracle",
                "normalization", "format", "out", "theta", "points", "vectors",
                "samples"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    try:
        cfg = RunConfig(
            command=args.command,
            q_values=parse_int_values(merged["Q"], "Q"),
            n_values=parse_int_values(merged["N"], "N"),
            k_values=parse_int_values(merged["k"], "k"),
            mode=str(merged["mode"]),
            eps=float(merged["eps"]),
            rel_tol=float(merged["rel_tol"]),
            seed=int(merged["seed"]),
            oracle=_as_bool(merged["oracle"]),
            normalization=str(merged["normalization"]),
            fmt=str(merged["format"]),
            out=str(merged["out"]),
            theta=float(merged["theta"]),
            points=int(merged["points"]),
            vectors=int(merged["vectors"]),
            samples=int(merged["samples"]),
            threads=resolve_threads(),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc

    if cfg.mode not in ("full", "dyadic"):
        raise ConfigError(f"mode must be full or dyadic, got {cfg.mode!r}")
    if cfg.normalization not in ("shapes", "literal"):
        raise ConfigError(f"normalization must be shapes or literal, got {cfg.normalization!r}")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.fmt!r}")
    if cfg.eps <= 0:
        raise ConfigError("eps must be > 0")
    if cfg.rel_tol <= 0:
        raise ConfigError("rel-tol must be > 0")
    if min(cfg.q_values) < 1:
        raise ConfigError("Q values must be >= 1")
    if min(cfg.k_values) < 2:
        raise ConfigError("k values must be >= 2")
    if min(cfg.n_values) < 1:
        raise ConfigError("N values must be >= 1")
    if cfg.command == "lemma1" and min(cfg.n_values) < 2:
        raise ConfigError("lemma1 requires N >= 2")
    if cfg.points < 2:
        raise ConfigError("points must be >= 2")
    if cfg.vectors < 1 or cfg.samples < 1:
        raise ConfigError("vectors and samples must be >= 1")
    if cfg.theta <= 0:
        raise ConfigError("theta must be > 0")
    return cfg


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records(records: list[dict], columns: list[str], cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_cell(rec.get(col)) for col in columns])
        text = buf.getvalue()
    else:
        text = json.dumps([{col: rec.get(col) for col in columns} for rec in records],
                          indent=2) + "\n"
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text, encoding="utf-8", newline="")


def map_cells(func, cells, threads: int) -> list:
    if threads <= 1 or len(cells) <= 1:
        return [func(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, cells))


def _aggregate_exit(statuses) -> int:
    statuses = set(statuses)
    if "verification-failure" in statuses:
        return EXIT_VERIFICATION
    if "capacity-error" in statuses:
        return EXIT_CAPACITY
    if "eigensolver-error" in statuses:
        return EXIT_EIGENSOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

CONSTANT_COLUMNS = (
    ["schema", "command", "Q", "N", "k", "mode", "eps", "rel_tol", "seed",
     "delta", "kappa", "size", "measured", "residual", "iterations"]
    + [f"bound_{name}" for name in SHAPE_NAMES]
    + [f"ratio_{name}" for name in SHAPE_NAMES]
    + ["oracle_lambda", "oracle_rel_err", "oracle_kernel_abs_err", "status", "detail"]
)


def cmd_constant(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    cells = [(k, Q, N) for k in cfg.k_values for Q in cfg.q_values for N in cfg.n_values]

    def run(cell):
        k, Q, N = cell
        row = {"schema": SCHEMA, "command": "constant", "Q": Q, "N": N, "k": k,
               "mode": cfg.mode, "eps": cfg.eps, "rel_tol": cfg.rel_tol,
               "seed": cfg.seed, "status": "ok", "detail": ""}
        try:
            params = BoundParams(Q, N, k, cfg.eps)
            row["delta"] = params.delta
            row["kappa"] = params.kappa
            system = enumerate_system(Q, k, cfg.mode)
            kern = toeplitz_kernel(system, N)
            res = power_iteration(kern, cfg.rel_tol)
            record = ScanRecord.build(params, cfg.mode, res.value, res.residual,
                                      system.size)
            row.update({"size": system.size, "measured": res.value,
                        "residual": res.residual, "iterations": res.iterations})
            for name in SHAPE_NAMES:
                row[f"bound_{name}"] = record.bounds[name]
                row[f"ratio_{name}"] = record.ratios[name]
            if cfg.oracle and N <= ORACLE_N_CAP:
                dense = dense_lambda_max(kern)
                rel = abs(res.value - dense) / max(abs(dense), 1e-300)
                brute = toeplitz_kernel(system, N, method="brute_force")
                kernel_err = float(np.max(np.abs(kern.c - brute.c)))
                row.update({"oracle_lambda": dense, "oracle_rel_err": rel,
                            "oracle_kernel_abs_err": kernel_err})
                if rel > 1e-6 or kernel_err > 1e-10:
                    row["status"] = "verification-failure"
                    row["detail"] = "oracle mismatch"
        except CapacityError as exc:
            row["status"], row["detail"] = "capacity-error", str(exc)
        except EigensolverError as exc:
            row["status"], row["detail"] = "eigensolver-error", str(exc)
        return row

    rows = map_cells(run, cells, cfg.threads)
    code = _aggregate_exit(r["status"] for r in rows)
    return rows, CONSTANT_COLUMNS, code, []


LEMMA1_COLUMNS = ["schema", "command", "Q", "N", "k", "mode", "seed", "size",
                  "vectors", "max_ratio", "violations", "status", "detail"]


def cmd_lemma1(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    mode_idx = 0 if cfg.mode == "full" else 1
    cells = [(k, Q, N) for k in cfg.k_values for Q in cfg.q_values for N in cfg.n_values]

    def run(cell):
        k, Q, N = cell
        row = {"schema": SCHEMA, "command": "lemma1", "Q": Q, "N": N, "k": k,
               "mode": cfg.mode, "seed": cfg.seed, "vectors": cfg.vectors,
               "violations": 0, "status": "ok", "detail": ""}
        try:
            system = enumerate_system(Q, k, cfg.mode)
            row["size"] = system.size
            if system.size == 0:
                row["max_ratio"] = 0.0
                row["detail"] = "empty system: 0 <= 0"
                return row
            rhs_unit = counting_rhs(system, N, 1.0)
            rng = np.random.default_rng([cfg.seed, k, Q, N, mode_idx])
            max_ratio = 0.0
            violations = 0
            chunk = max(1, kernels.BLOCK_ELEMENTS // N)
            for start in range(0, cfg.vectors, chunk):
                vecs = []
                for _ in range(min(chunk, cfg.vectors - start)):
                    m_off = int(rng.integers(-64, 65))
                    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                    vecs.append(CoefficientVector(m_off, v))
                for vec, lhs in zip(vecs, sigma_exact_batch(system, vecs).tolist()):
                    rhs = rhs_unit * vec.norm_sq
                    max_ratio = max(max_ratio, lhs / rhs)
                    if lhs > rhs * (1.0 + REL_SLACK):
                        violations += 1
            row["max_ratio"] = max_ratio
            row["violations"] = violations
            if violations:
                row["status"] = "verification-failure"
                row["detail"] = "LHS exceeded RHS"
        except CapacityError as exc:
            row["status"], row["detail"] = "capacity-error", str(exc)
        return row

    rows = map_cells(run, cells, cfg.threads)
    ratios = [r["max_ratio"] for r in rows if isinstance(r.get("max_ratio"), float)]
    summary = [f"max LHS/RHS observed: {max(ratios)!r}" if ratios else "no cells"]
    code = _aggregate_exit(r["status"] for r in rows)
    return rows, LEMMA1_COLUMNS, code, summary


WEYL_COLUMNS = ["schema", "command", "table", "alpha", "Q", "k", "X", "Y", "u",
                "v", "residual", "sq_re", "sq_im", "sq_abs", "bound", "min_sum",
                "ratio"]


def cmd_weyl(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    alphas = regression.sample_alphas(cfg.seed)
    rows: list[dict] = []
    for wr in regression.weyl_ratio_rows(alphas, cfg.q_values, cfg.k_values, cfg.eps):
        rows.append({"schema": SCHEMA, "command": "weyl", "table": "weyl",
                     "alpha": wr.alpha_label, "Q": wr.Q, "k": wr.k,
                     "sq_re": wr.sq_re, "sq_im": wr.sq_im, "sq_abs": wr.abs_sum,
                     "bound": wr.bound, "ratio": wr.ratio})
    for mr in regression.min_sum_ratio_rows(alphas, cfg.seed, n_samples=cfg.samples):
        rows.append({"schema": SCHEMA, "command": "weyl", "table": "min_sum",
                     "alpha": mr.alpha_label, "X": mr.X, "Y": mr.Y, "u": mr.u,
                     "v": mr.v, "residual": mr.residual, "min_sum": mr.value,
                     "bound": mr.bound, "ratio": mr.ratio})
    weyl_max = max((r["ratio"] for r in rows if r["table"] == "weyl"), default=0.0)
    ms_max = max((r["ratio"] for r in rows if r["table"] == "min_sum"), default=0.0)
    summary = [f"max |S|/bound: {weyl_max!r}", f"max min_sum/bound: {ms_max!r}"]
    return rows, WEYL_COLUMNS, EXIT_OK, summary


MAJORANT_COLUMNS = ["schema", "command", "Q", "k", "mode", "b", "r", "x", "B",
                    "size", "exact_count", "count_near", "majorant",
                    "main_term", "tail", "ok", "status", "detail"]


def cmd_majorant(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    mode_idx = 0 if cfg.mode == "full" else 1
    rows: list[dict] = []
    for k in cfg.k_values:
        for Q in cfg.q_values:
            base = {"schema": SCHEMA, "command": "majorant", "Q": Q, "k": k,
                    "mode": cfg.mode}
            try:
                system = enumerate_system(Q, k, cfg.mode)
            except CapacityError as exc:
                rows.append({**base, "status": "capacity-error", "detail": str(exc)})
                continue
            if system.size == 0:
                rows.append({**base, "size": 0, "status": "ok",
                             "detail": "empty system: no centers"})
                continue
            top = int(system.moduli.max())
            rng = np.random.default_rng([cfg.seed, 3, k, Q, mode_idx])
            for _ in range(cfg.samples):
                idx = int(rng.integers(0, system.size))
                b = int(system.numerators[idx])
                r = int(system.bases[idx])
                x = float(10.0 ** rng.uniform(-3, 0) / (2.0 * top))
                row = {**base, "b": b, "r": r, "x": x, "size": system.size,
                       "status": "ok", "detail": ""}
                try:
                    res = fourier_majorant(system, (b, r), x)
                    near = count_near(system, Fraction(b, r ** k), x)
                    ok = (res.majorant_value >= res.exact_count
                          - REL_SLACK * abs(res.majorant_value)
                          and res.exact_count == near)
                    row.update({"B": res.B, "exact_count": res.exact_count,
                                "count_near": near, "majorant": res.majorant_value,
                                "main_term": res.main_term, "tail": res.tail,
                                "ok": ok})
                    if not ok:
                        row["status"] = "verification-failure"
                        row["detail"] = "majorant below count"
                except CapacityError as exc:
                    row["status"], row["detail"] = "capacity-error", str(exc)
                rows.append(row)
    code = _aggregate_exit(r["status"] for r in rows)
    bad = sum(1 for r in rows if r.get("ok") is False)
    summary = [f"majorant samples: {sum(1 for r in rows if 'ok' in r)}, violations: {bad}"]
    return rows, MAJORANT_COLUMNS, code, summary


CROSSOVER_COLUMNS = (["schema", "command", "table", "k", "normalization", "Q", "N"]
                     + list(SHAPE_NAMES)
                     + ["winner", "delta_beats_loglog", "in_analytic_region",
                        "flip_index", "boundary_index", "deviation",
                        "boundary_exponent", "consistent"])


def cmd_crossover(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    rows: list[dict] = []
    summary: list[str] = []
    failed = False
    for k in cfg.k_values:
        grid = []
        for Q in cfg.q_values:
            ns = np.geomspace(float(Q) ** k, float(Q) ** (2 * k), cfg.points)
            n_ints = sorted({max(1, int(round(n))) for n in ns})
            grid.extend((float(Q), n) for n in n_ints)
        report = crossover_analysis(k, grid, cfg.normalization, cfg.eps)
        for row in report.rows:
            rows.append({
                "schema": SCHEMA, "command": "crossover", "table": "grid",
                "k": k, "normalization": cfg.normalization, "Q": row.Q,
                "N": row.N, **{name: row.values[name] for name in SHAPE_NAMES},
                "winner": row.winner,
                "delta_beats_loglog": row.delta_beats_loglog,
                "in_analytic_region": row.in_analytic_region,
                "boundary_exponent": report.boundary_exponent,
            })
        for col in report.columns:
            rows.append({
                "schema": SCHEMA, "command": "crossover", "table": "column",
                "k": k, "normalization": cfg.normalization, "Q": col.Q,
                "flip_index": col.flip_index, "boundary_index": col.boundary_index,
                "deviation": col.deviation,
                "boundary_exponent": report.boundary_exponent,
                "consistent": report.consistent,
            })
        if report.claim_applies:
            verdict = "consistent" if report.consistent else "INCONSISTENT"
            summary.append(f"k={k}: {verdict} with analytic boundary "
                           f"N = Q^{report.boundary_exponent:.6g} "
                           f"(max deviation {report.max_deviation} cells)")
            failed = failed or not report.consistent
        else:
            wins = sum(1 for r in report.rows if r.delta_beats_loglog)
            summary.append(f"k={k}: no claimed region; delta strictly won on "
                           f"{wins}/{len(report.rows)} grid points")
    return rows, CROSSOVER_COLUMNS, EXIT_VERIFICATION if failed else EXIT_OK, summary


FIT_COLUMNS = ["schema", "command", "table", "k", "theta", "mode", "Q", "N",
               "measured", "residual", "slope", "intercept", "max_residual",
               "status", "detail"]


def cmd_fit(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    rows: list[dict] = []
    summary: list[str] = []
    statuses: list[str] = []
    for k in cfg.k_values:
        samples: list[tuple[float, float]] = []
        for Q in cfg.q_values:
            N = max(1, int(round(float(Q) ** cfg.theta)))
            row = {"schema": SCHEMA, "command": "fit", "table": "sample", "k": k,
                   "theta": cfg.theta, "mode": cfg.mode, "Q": Q, "N": N,
                   "status": "ok", "detail": ""}
            try:
                system = enumerate_system(Q, k, cfg.mode)
                kern = toeplitz_kernel(system, N)
                res = power_iteration(kern, cfg.rel_tol)
                row.update({"measured": res.value, "residual": res.residual})
                if res.value > 0:
                    samples.append((float(Q), res.value))
            except CapacityError as exc:
                row["status"], row["detail"] = "capacity-error", str(exc)
            except EigensolverError as exc:
                row["status"], row["detail"] = "eigensolver-error", str(exc)
            statuses.append(row["status"])
            rows.append(row)
        fit_row = {"schema": SCHEMA, "command": "fit", "table": "fit", "k": k,
                   "theta": cfg.theta, "mode": cfg.mode, "status": "ok",
                   "detail": ""}
        if len(samples) >= 2:
            fit = fit_exponent(samples)
            fit_row.update({"slope": fit.slope, "intercept": fit.intercept,
                            "max_residual": fit.max_abs_residual})
            summary.append(f"k={k} theta={cfg.theta}: slope {fit.slope!r}, "
                           f"max log-residual {fit.max_abs_residual!r}")
        else:
            fit_row["status"] = "capacity-error"
            fit_row["detail"] = "fewer than 2 successful samples"
            summary.append(f"k={k}: not enough samples to fit")
        statuses.append(fit_row["status"])
        rows.append(fit_row)
    return rows, FIT_COLUMNS, _aggregate_exit(statuses), summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "constant": cmd_constant,
    "lemma1": cmd_lemma1,
    "weyl": cmd_weyl,
    "majorant": cmd_majorant,
    "crossover": cmd_crossover,
    "fit": cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sieve-lab",
        description="Measure optimal large-sieve constants for power-moduli "
                    "fraction systems and compare them against bound shapes.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "constant": "scan measured constants and all bound shapes over a grid",
        "lemma1": "verify the exact counting inequality on random coefficient batches",
        "weyl": "tabulate Weyl-sum and min-sum bound ratios over the sample set",
        "majorant": "check the transform majorant against exact near-point counts",
        "crossover": "map the winning bound shape and check the crossover boundary",
        "fit": "fit the growth exponent of the measured constant along N = Q^theta",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--Q", help="base range, e.g. 1..4 or 2,3,8")
        sp.add_argument("--N", help="length range, e.g. 4,16,64,256")
        sp.add_argument("--k", help="power range, e.g. 2..3")
        sp.add_argument("--mode", choices=("full", "dyadic"))
        sp.add_argument("--eps", type=float)
        sp.add_argument("--rel-tol", dest="rel_tol", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--oracle", action="store_const", const=True,
                        help="enable brute-force/dense cross-checks")
        sp.add_argument("--normalization", choices=("shapes", "literal"))
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--out", help="output path, '-' for stdout")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--theta", type=float, help="path exponent for fit")
        sp.add_argument("--points", type=int, help="grid points per column")
        sp.add_argument("--vectors", type=int, help="random vectors per cell")
        sp.add_argument("--samples", type=int, help="samples per cell/table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"sieve-lab: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    try:
        records, columns, code, summary = _DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        print(f"sieve-lab: invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except CapacityError as exc:
        print(f"sieve-lab: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EigensolverError as exc:
        print(f"sieve-lab: eigensolver error: {exc}", file=sys.stderr)
        return EXIT_EIGENSOLVER
    write_records(records, list(columns), cfg)
    for line in summary:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
