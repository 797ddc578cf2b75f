"""Command-line driver: run verifications and scans, emit CSV/JSON records.

Exit codes: 0 success, 2 invalid config, 3 verification failure (an inequality
that must hold exactly failed, or a crossover inconsistency), 4 capacity
overflow, 5 eigensolver non-convergence.  A cell that raises CapacityError or
EigensolverError becomes a row whose status is the error's `status`
(`_guarded`); when several kinds of row failures occur in one scan the most
severe code wins (3, then 4, then 5).  A CapacityError outside a cell (weyl,
crossover, a fit length N = Q^theta above the float range) ends the run with
exit 4 and no records.  Commands return their records and column lists
without `schema` and `command`; write_records puts those two columns first and
fills them with SCHEMA and the command name.

COMMANDS is the one table from each command to its function, its help line
and the options it reads with their defaults.  Each command takes only those
options, plus --format, --out and --config; any other flag is a usage error
(exit 2).  Two caps are checked before anything runs, each with exit 2: a k
above K_CAP, and a run size above RUN_CAP, the product of the value counts of
the Q, N and k ranges the command reads and of the vectors, samples and points
options it reads; a range "a..b" of more values is refused before it is built.
A seed outside [0, 2^64), and an --out that is neither '-' nor a file in
an existing directory, are invalid too (exit 2).
Config precedence: command-line flags override the --config file, which
overrides the file named by SIEVE_LAB_CONFIG, which overrides the command's
defaults.  Config files are flat key=value lines with '#' comments.  One
config file serves every command: it may set any option some command reads,
and each command ignores the keys it does not read; a key no command reads
is invalid.  Rows are emitted in deterministic sorted order.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, kernels, regression
from .arith import DEFAULT_SEED, float_power, gaussian_pairs, integers, uniforms
from .bounds import BoundParams, SHAPE_NAMES, crossover_analysis, fit_exponent
from .errors import (EXIT_CAPACITY, EXIT_EIGENSOLVER, EXIT_INVALID_CONFIG,
                     EXIT_OK, EXIT_VERIFICATION, CapacityError, EigensolverError)
from .expsums import fourier_majorant
from .farey import (budgeted_size, check_pair_budget, count_near, counting_rhs,
                    enumerate_system, system_bases, system_point, system_size)
# sigma_exact is unused here but stays importable from cli, where
# perfbench/tracing.py wraps it.
from .sieve import (dense_lambda_max, measure_constant, power_iteration,  # noqa: F401
                    sigma_exact, toeplitz_kernel)

SCHEMA = "sieve-lab-1"
ORACLE_N_CAP = 512
# Largest k any command takes: above it Q^k is past the float range for every
# Q >= 2, and exact powers such as 2^(k-1) or q^k would grow without bound.
K_CAP = 1024
# Largest run size, the product of the value counts of the ranges (Q, N, k) and
# count options (vectors, samples, points) a command reads; it bounds each range.
RUN_CAP = 1 << 14
REL_SLACK = 1e-9
# Coefficient entries lemma1 draws and evaluates at a time: a chunk is
# max(1, DRAW_ELEMENTS // N) vectors, so the draw's temporaries (under 64
# bytes an entry) and the chunk stay under 1 MB; only one vector longer than
# DRAW_ELEMENTS is drawn in sub-blocks.
DRAW_ELEMENTS = 1 << 14

_OUTPUT_DEFAULTS = {"format": "csv", "out": "-"}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


class RunConfig(SimpleNamespace):
    """One run: its command, the output settings format and out, and the
    parsed options that command reads, each under its _OPTIONS key.  An option
    the command does not read is not an attribute."""


def parse_int_values(text: str, name: str) -> tuple[int, ...]:
    """Parse "a..b", "a", or comma lists of either into sorted distinct ints;
    a range of more than RUN_CAP values is invalid."""
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
                if hi - lo >= RUN_CAP:
                    raise ConfigError(f"--{name}: range {part!r} has more than "
                                      f"{RUN_CAP} values")
                values.update(range(lo, hi + 1))
            else:
                values.add(int(part))
        except ValueError as exc:
            raise ConfigError(f"--{name}: cannot parse {part!r}") from exc
    if not values:
        raise ConfigError(f"--{name}: no values given")
    return tuple(sorted(values))


def load_config_file(path: str) -> dict[str, str]:
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
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        data[key] = value.strip()
    return data


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    word = str(value).strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a boolean: {value!r}")
    return word in ("1", "true", "yes", "on")


def _range(name: str):
    return lambda text: parse_int_values(text, name)


# Every option some command reads, under its RunConfig attribute name: its
# argparse keywords, whose "choices" are also checked on config-file values,
# and how a flag or config-file value converts.
_OPTIONS = {
    "Q": ({"help": "base range, e.g. 1..4 or 2,3,8"}, _range("Q")),
    "N": ({"help": "length range, e.g. 4,16,64,256"}, _range("N")),
    "k": ({"help": "power range, e.g. 2..3"}, _range("k")),
    "mode": ({"choices": ("full", "dyadic")}, str),
    "eps": ({"type": float}, float),
    "rel_tol": ({"type": float}, float),
    "seed": ({"type": int}, int),
    "oracle": ({"action": "store_const", "const": True,
                "help": "enable brute-force/dense cross-checks"}, _as_bool),
    "normalization": ({"choices": ("shapes", "literal")}, str),
    "format": ({"choices": ("csv", "json")}, str),
    "out": ({"help": "output path, '-' for stdout"}, str),
    "theta": ({"type": float, "help": "path exponent for fit"}, float),
    "points": ({"type": int, "help": "grid points per column"}, int),
    "vectors": ({"type": int, "help": "random vectors per cell"}, int),
    "samples": ({"type": int, "help": "samples per cell/table"}, int),
}


def convert_config(command: str, values: dict) -> RunConfig:
    """The RunConfig of `command` holding each option value, as flag or
    config-file text or as a default, converted by its _OPTIONS converter."""
    try:
        return RunConfig(command=command,
                         **{key: _OPTIONS[key][1](value) for key, value in values.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """The command's options: its defaults, overridden by the SIEVE_LAB_CONFIG
    file, then the --config file, then the flags.  A config file may set any
    option some command reads; keys this command does not read are ignored."""
    merged: dict = {**COMMANDS[args.command].defaults, **_OUTPUT_DEFAULTS}
    for path in (os.environ.get("SIEVE_LAB_CONFIG", "").strip(), args.config):
        if path:
            merged.update({key: value for key, value in load_config_file(path).items()
                           if key in merged})
    for key in merged:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag

    cfg = convert_config(args.command, merged)
    for key in merged:
        choices = _OPTIONS[key][0].get("choices")
        if choices and getattr(cfg, key) not in choices:
            raise ConfigError(f"{key} must be {' or '.join(choices)}, "
                              f"got {getattr(cfg, key)!r}")
    if "eps" in merged and not (math.isfinite(cfg.eps) and cfg.eps > 0):
        raise ConfigError(f"eps must be finite and > 0, got {cfg.eps!r}")
    if "rel_tol" in merged and not 0 < cfg.rel_tol < 1:
        raise ConfigError(f"rel-tol must be in (0, 1), got {cfg.rel_tol!r}")
    if min(cfg.Q) < 1:
        raise ConfigError("Q values must be >= 1")
    if min(cfg.k) < 2:
        raise ConfigError("k values must be >= 2")
    if "N" in merged and min(cfg.N) < 1:
        raise ConfigError("N values must be >= 1")
    if cfg.command == "lemma1" and min(cfg.N) < 2:
        raise ConfigError("lemma1 requires N >= 2")
    if "points" in merged and cfg.points < 2:
        raise ConfigError("points must be >= 2")
    if ("vectors" in merged and cfg.vectors < 1) or ("samples" in merged and cfg.samples < 1):
        raise ConfigError("vectors and samples must be >= 1")
    if "seed" in merged and not 0 <= cfg.seed < 1 << 64:
        raise ConfigError(f"seed must be >= 0 and < 2^64, got {cfg.seed!r}")
    if "theta" in merged and not (math.isfinite(cfg.theta) and cfg.theta > 0):
        raise ConfigError(f"theta must be finite and > 0, got {cfg.theta!r}")
    if cfg.out != "-" and (Path(cfg.out).is_dir() or not Path(cfg.out).parent.is_dir()):
        raise ConfigError(f"out must be '-' or a file in an existing directory, "
                          f"got {cfg.out!r}")
    if max(cfg.k) > K_CAP:
        raise ConfigError(f"k values must be <= {K_CAP}")
    counts = [len(getattr(cfg, key)) for key in ("Q", "N", "k") if key in merged]
    counts += [getattr(cfg, key) for key in ("vectors", "samples", "points") if key in merged]
    size = math.prod(counts)
    if size > RUN_CAP:
        raise ConfigError(f"run size {size} (the product of the Q, N and k value "
                          f"counts and the count options) is above {RUN_CAP}")
    return cfg


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_records(records: list[dict], columns: list[str], cfg: RunConfig) -> None:
    """Write the records under a schema and a command column, filled with SCHEMA
    and cfg.command, then `columns`; a value a record lacks is empty (JSON null).

    Each record goes out as it is formatted, to the sys.stdout of the moment
    or to the --out file, which is opened and closed here: CSV one row at a
    time through csv.writer, JSON through json.dump with indent 2 and a final
    newline.  No copy of the whole output is built."""
    with (nullcontext(sys.stdout) if cfg.out == "-"
          else open(cfg.out, "w", encoding="utf-8", newline="")) as stream:
        if cfg.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["schema", "command", *columns])
            for rec in records:
                writer.writerow([SCHEMA, cfg.command, *(str(v).lower() if isinstance(v, bool)
                                                        else v for v in map(rec.get, columns))])
        else:
            json.dump([{"schema": SCHEMA, "command": cfg.command,
                        **{col: rec.get(col) for col in columns}} for rec in records],
                      stream, indent=2)
            stream.write("\n")


def map_cells(func, cells, threads: int) -> list:
    # Cells run serially, one after another; perfbench's tracer passes `threads`.
    return [func(cell) for cell in cells]


@contextmanager
def _guarded(row: dict):
    """Run the with-body, which fills `row`, as one cell: the row starts with
    status "ok", and a CapacityError or EigensolverError the body raises
    becomes the row's status and detail instead of ending the scan."""
    row.update(status="ok", detail="")
    try:
        yield row
    except (CapacityError, EigensolverError) as exc:
        row.update(status=exc.status, detail=str(exc))


# Failing row statuses, most severe first, and their exit codes.
_FAILURE_EXITS = {"verification-failure": EXIT_VERIFICATION,
                  CapacityError.status: EXIT_CAPACITY,
                  EigensolverError.status: EXIT_EIGENSOLVER}


def _aggregate_exit(rows: list[dict]) -> int:
    """The exit code of the most severe failing status among the rows."""
    statuses = {row["status"] for row in rows}
    return next((code for status, code in _FAILURE_EXITS.items() if status in statuses),
                EXIT_OK)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

CONSTANT_COLUMNS = (
    ["Q", "N", "k", "mode", "eps", "rel_tol", "seed", "delta", "kappa", "size",
     "measured", "residual", "iterations"]
    + [f"bound_{name}" for name in SHAPE_NAMES]
    + [f"ratio_{name}" for name in SHAPE_NAMES]
    + ["oracle_lambda", "oracle_rel_err", "oracle_kernel_abs_err", "status", "detail"]
)


def cmd_constant(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    cells = [(k, Q, N) for k in cfg.k for Q in cfg.Q for N in cfg.N]

    def run(cell):
        k, Q, N = cell
        with _guarded({"Q": Q, "N": N, "k": k, "mode": cfg.mode, "eps": cfg.eps,
                      "rel_tol": cfg.rel_tol, "seed": cfg.seed}) as row:
            params = BoundParams(Q, N, k, cfg.eps)
            row["delta"] = params.delta
            row["kappa"] = params.kappa
            kern = toeplitz_kernel(Q, N, k, cfg.mode)
            res = power_iteration(kern, cfg.rel_tol, seed=cfg.seed)
            row.update({"size": system_size(Q, k, cfg.mode), "measured": res.value,
                        "residual": res.residual, "iterations": res.iterations})
            # bounds.evaluate_bounds, where perfbench/tracing.py wraps it
            values, error = bounds.evaluate_bounds(params)
            for name, value in values.items():
                row[f"bound_{name}"] = value
                row[f"ratio_{name}"] = res.value / value
            if error is not None:
                raise error
            if cfg.oracle and N <= ORACLE_N_CAP:
                system = enumerate_system(Q, k, cfg.mode)
                brute = kernels.autocorr(system.numerators, system.moduli, N)
                kernel_err = float(np.max(np.abs(kern.c - brute)))
                dense = dense_lambda_max(kern)
                rel = abs(res.value - dense) / max(abs(dense), 1e-300)
                row.update({"oracle_lambda": dense, "oracle_rel_err": rel,
                            "oracle_kernel_abs_err": kernel_err})
                if rel > 1e-6 or kernel_err > 1e-10:
                    row.update(status="verification-failure", detail="oracle mismatch")
        return row

    rows = map_cells(run, cells, 1)
    return rows, CONSTANT_COLUMNS, _aggregate_exit(rows), []


LEMMA1_COLUMNS = ["Q", "N", "k", "mode", "seed", "size", "vectors", "max_ratio",
                  "violations", "status", "detail"]


def cmd_lemma1(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    mode_idx = 0 if cfg.mode == "full" else 1
    cells = [(k, Q, N) for k in cfg.k for Q in cfg.Q for N in cfg.N]

    def run(cell):
        k, Q, N = cell
        with _guarded({"Q": Q, "N": N, "k": k, "mode": cfg.mode, "seed": cfg.seed,
                      "vectors": cfg.vectors, "violations": 0}) as row:
            row["size"] = budgeted_size(Q, k, cfg.mode)
            if row["size"] == 0:
                row.update(max_ratio=0.0, detail="empty system: 0 <= 0")
                return row
            check_pair_budget(row["size"])  # before the points are built
            system = enumerate_system(Q, k, cfg.mode)
            rhs_unit = counting_rhs(system, N)
            key = (2, k, Q, N, mode_idx)
            max_ratio = 0.0
            violations = 0
            chunk = max(1, DRAW_ELEMENTS // N)
            for start in range(0, cfg.vectors, chunk):
                nb = min(chunk, cfg.vectors - start)
                vs = np.empty((nb, N), dtype=np.complex128)
                # entry n of vector j is Gaussian pair j N + n of the cell's key
                flat = vs.reshape(-1)
                for lo in range(0, nb * N, DRAW_ELEMENTS):
                    hi = min(lo + DRAW_ELEMENTS, nb * N)
                    flat.real[lo:hi], flat.imag[lo:hi] = gaussian_pairs(
                        cfg.seed, key, start * N + lo, hi - lo)
                lhs = kernels.quadform(system.numerators, system.moduli, 0, vs)
                rhs = rhs_unit * np.sum(vs.real ** 2 + vs.imag ** 2, axis=1)
                max_ratio = max(max_ratio, float(np.max(lhs / rhs)))
                violations += int(np.count_nonzero(lhs > rhs * (1.0 + REL_SLACK)))
            row.update(max_ratio=max_ratio, violations=violations)
            if violations:
                row.update(status="verification-failure", detail="LHS exceeded RHS")
        return row

    rows = map_cells(run, cells, 1)
    ratios = [r["max_ratio"] for r in rows if isinstance(r.get("max_ratio"), float)]
    summary = [f"max LHS/RHS observed: {max(ratios)!r}" if ratios else "no cells"]
    return rows, LEMMA1_COLUMNS, _aggregate_exit(rows), summary


WEYL_COLUMNS = ["table", "alpha", "Q", "k", "X", "Y", "u", "v", "residual", "sq_re",
                "sq_im", "sq_abs", "bound", "min_sum", "ratio"]


def cmd_weyl(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    alphas = regression.sample_alphas(cfg.seed)
    weyl_rows = regression.weyl_ratio_rows(alphas, cfg.Q, cfg.k, cfg.eps)
    ms_rows = regression.min_sum_ratio_rows(alphas, cfg.seed, n_samples=cfg.samples)
    weyl_max = max((r["ratio"] for r in weyl_rows), default=0.0)
    ms_max = max((r["ratio"] for r in ms_rows), default=0.0)
    summary = [f"max |S|/bound: {weyl_max!r}", f"max min_sum/bound: {ms_max!r}"]
    return weyl_rows + ms_rows, WEYL_COLUMNS, EXIT_OK, summary


MAJORANT_COLUMNS = ["Q", "k", "mode", "b", "r", "x", "B", "size", "exact_count",
                    "count_near", "majorant", "main_term", "tail", "ok", "status",
                    "detail"]


def cmd_majorant(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    mode_idx = 0 if cfg.mode == "full" else 1
    rows: list[dict] = []
    for k in cfg.k:
        for Q in cfg.Q:
            base = {"Q": Q, "k": k, "mode": cfg.mode}
            with _guarded(dict(base)) as head:
                size = budgeted_size(Q, k, cfg.mode)
                if size == 0:
                    head.update(size=0, detail="empty system: no centers")
            if head["status"] != "ok" or size == 0:
                rows.append(head)
                continue
            top = system_bases(Q, k, cfg.mode)[-1] ** k
            key = (3, k, Q, mode_idx)
            points = integers(cfg.seed, (*key, 0), size, cfg.samples).tolist()
            us = uniforms(cfg.seed, (*key, 1), 0, cfg.samples).tolist()
            for idx, u in zip(points, us):
                b, r = system_point(Q, k, cfg.mode, idx)
                x = 10.0 ** (-3.0 * u) / (2.0 * top)
                with _guarded({**base, "b": b, "r": r, "x": x, "size": size}) as row:
                    res = fourier_majorant(Q, k, cfg.mode, (b, r), x)
                    near = count_near(Q, k, cfg.mode, Fraction(b, r ** k), x)
                    ok = res.majorant_value >= near - REL_SLACK * abs(res.majorant_value)
                    row.update({"B": res.B, "exact_count": near,
                                "count_near": near, "majorant": res.majorant_value,
                                "main_term": res.main_term, "tail": res.tail,
                                "ok": ok})
                    if not ok:
                        row.update(status="verification-failure", detail="majorant below count")
                rows.append(row)
    bad = sum(1 for r in rows if r.get("ok") is False)
    summary = [f"majorant samples: {sum(1 for r in rows if 'ok' in r)}, violations: {bad}"]
    return rows, MAJORANT_COLUMNS, _aggregate_exit(rows), summary


CROSSOVER_COLUMNS = (["table", "k", "normalization", "Q", "N"]
                     + list(SHAPE_NAMES)
                     + ["winner", "delta_beats_loglog", "in_analytic_region",
                        "flip_index", "boundary_index", "deviation",
                        "boundary_exponent", "consistent"])


def cmd_crossover(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    rows: list[dict] = []
    summary: list[str] = []
    failed = False
    for k in cfg.k:
        report = crossover_analysis(k, cfg.Q, cfg.points, cfg.normalization, cfg.eps)
        rows += report.rows
        if report.claim_applies:
            verdict = "consistent" if report.consistent else "INCONSISTENT"
            summary.append(f"k={k}: {verdict} with analytic boundary "
                           f"N = Q^{report.boundary_exponent:.6g} "
                           f"(max deviation {report.max_deviation} cells)")
            failed = failed or not report.consistent
        else:
            wins = [r["delta_beats_loglog"] for r in report.rows if r["table"] == "grid"]
            summary.append(f"k={k}: no claimed region; delta strictly won on "
                           f"{sum(wins)}/{len(wins)} grid points")
    return rows, CROSSOVER_COLUMNS, EXIT_VERIFICATION if failed else EXIT_OK, summary


FIT_COLUMNS = ["table", "k", "theta", "mode", "Q", "N", "measured", "residual",
               "slope", "intercept", "max_residual", "status", "detail"]


def cmd_fit(cfg: RunConfig) -> tuple[list[dict], list[str], int, list[str]]:
    rows: list[dict] = []
    summary: list[str] = []
    for k in cfg.k:
        base = {"k": k, "theta": cfg.theta, "mode": cfg.mode}
        samples: list[tuple[float, float]] = []
        for Q in cfg.Q:
            N = max(1, int(round(float_power(Q, cfg.theta))))
            with _guarded({"table": "sample", **base, "Q": Q, "N": N}) as row:
                res = measure_constant(Q, N, k, cfg.mode, cfg.rel_tol)
                row.update(measured=res.value, residual=res.residual)
                if res.value > 0:
                    samples.append((float(Q), res.value))
            rows.append(row)
        with _guarded({"table": "fit", **base}) as fit_row:
            if len(samples) < 2:
                summary.append(f"k={k}: not enough samples to fit")
                raise CapacityError("fewer than 2 successful samples")
            fit = fit_exponent(samples)
            fit_row.update(slope=fit.slope, intercept=fit.intercept,
                           max_residual=fit.max_abs_residual)
            summary.append(f"k={k} theta={cfg.theta}: slope {fit.slope!r}, "
                           f"max log-residual {fit.max_abs_residual!r}")
        rows.append(fit_row)
    return rows, FIT_COLUMNS, _aggregate_exit(rows), summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    run: Callable[[RunConfig], tuple[list[dict], list[str], int, list[str]]]
    help: str
    defaults: dict  # the options the command reads, with their defaults


# Every command also takes --format, --out and --config.
COMMANDS = {
    "constant": Command(
        cmd_constant, "scan measured constants and all bound shapes over a grid",
        {"Q": "1..4", "N": "4,16,64,256", "k": "2,3", "mode": "full", "eps": 0.05,
         "rel_tol": 1e-8, "seed": DEFAULT_SEED, "oracle": False}),
    "lemma1": Command(
        cmd_lemma1, "verify the exact counting inequality on random coefficient batches",
        {"Q": "1..4", "N": "4,16,64,256", "k": "2,3", "mode": "full",
         "seed": DEFAULT_SEED, "vectors": 100}),
    "weyl": Command(
        cmd_weyl, "tabulate Weyl-sum and min-sum bound ratios over the sample set",
        {"Q": "4,16,64,256", "k": "2,3,4", "eps": 0.05, "seed": DEFAULT_SEED,
         "samples": 200}),
    "majorant": Command(
        cmd_majorant, "check the transform majorant against exact near-point counts",
        {"Q": "1..4", "k": "2,3", "mode": "full", "seed": DEFAULT_SEED, "samples": 8}),
    "crossover": Command(
        cmd_crossover, "map the winning bound shape and check the crossover boundary",
        {"Q": "4..32", "k": "3", "eps": 0.05, "normalization": "shapes", "points": 13}),
    "fit": Command(
        cmd_fit, "fit the growth exponent of the measured constant along N = Q^theta",
        {"Q": "2..8", "k": "2", "mode": "full", "rel_tol": 1e-8, "theta": 2.0}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sieve-lab",
        description="Measure optimal large-sieve constants for power-moduli "
                    "fraction systems and compare them against bound shapes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for key in [*command.defaults, *_OUTPUT_DEFAULTS]:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **_OPTIONS[key][0])
        sp.add_argument("--config", help="flat key=value config file")
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
        records, columns, code, summary = COMMANDS[cfg.command].run(cfg)
    except CapacityError as exc:
        print(f"sieve-lab: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    write_records(records, columns, cfg)
    for line in summary:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
