#!/usr/bin/env python3
"""Layered benchmark for sieve-lab.

Run from the repository root:

    python3 perfbench/run.py --workload constant_grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

--trace 0 runs the workload as a user does, as `python -m sieve_lab.cli ...`
child processes, repeated until --seconds have passed, and reports the
end-to-end metrics (medians over repeats).  --trace 1 calls
`sieve_lab.cli.main(argv)` in-process with span-recording wrappers installed
(tracing.py) and reports per-layer self times and work counts, the tracing
overhead, a single-threaded baseline of the same workload and the kernel
timings at the sizes of benchmarks/bench_kernels.py.  Every CLI output is
checked by gates.py, and the CSV bytes of every repeat must be identical.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import gates  # noqa: E402
import tracing  # noqa: E402

# Each workload is the list of CLI invocations a user runs to get its table;
# an invocation without a "seed" gets the benchmark's --seed.
WORKLOADS: dict[str, list[dict]] = {
    # A few large-N cells: nearly all time is FFT matvecs in power_iteration.
    "constant_large": [
        {"command": "constant", "Q": "8,16", "N": "8192", "k": "3"},
        {"command": "constant", "Q": "8", "N": "4096", "k": "4"},
    ],
    # Many tiny cells through the same solver: high iteration counts,
    # degenerate spectra, per-cell and pool overhead, two known failures.
    "constant_grid": [
        {"command": "constant", "Q": "1..8", "N": "4,16,64,256", "k": "2..4"},
    ],
    # The exact counting path: sigma_exact and pairwise_integral_max, no eigensolve.
    "lemma1_verify": [
        {"command": "lemma1", "Q": "1..5", "N": "256,1024", "k": "2,3", "mode": "full"},
        {"command": "lemma1", "Q": "1..2", "N": "256,1024", "k": "2,3", "mode": "dyadic"},
    ],
    # Exponential sums: the frozen-seed table, a larger seeded table, majorants.
    "expsum_tables": [
        {"command": "weyl", "seed": gates.FROZEN_SEED, **gates.WEYL_DEFAULTS},
        {"command": "weyl", "Q": "64,256,1024", "k": "2,3", "samples": 2000},
        {"command": "majorant", "Q": "2..12", "k": "2,3", "samples": 24},
    ],
}

MIN_SESSIONS = 2      # at least two timed repeats, so determinism is checked
SETUP_SAMPLES = 11
PROBE_BUDGET_S = 0.5  # time each probe kernel until this much is spent (max 5 runs)
MB = 1024.0           # ru_maxrss is in KiB on Linux

END_TO_END = (("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))
PROBE_KERNELS = ("quadform", "autocorr", "weyl_rational", "weyl_float",
                 "majorant_sum", "pairwise_integral_max")


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for layer in tracing.LAYERS:
        specs += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    specs += [
        ("sieve.power_iteration.iterations", "count", "lower"),
        ("sieve.power_iteration.iterations_max", "count", "lower"),
        ("sieve.power_iteration.matvecs", "count", "lower"),
        ("sieve.power_iteration.fft_bytes", "B_computed", "lower"),
        ("sieve.power_iteration.failures", "count", "lower"),
        ("farey.enumerate_system.points", "count", "lower"),
        ("kernels.pairwise_integral_max.pairs", "count", "lower"),
        ("sieve.sigma_exact.terms", "count", "lower"),
        ("expsums.weyl_sum.terms", "count", "lower"),
        ("cli.map_cells.parallel_efficiency", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("cli.threads1.wall_s", "s", "lower"),
        ("cli.threads_default.wall_s", "s", "lower"),
    ]
    specs += [(f"kernels.probe.{name}_s", "s", "lower") for name in PROBE_KERNELS]
    return specs


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

def invocation(call: dict, seed: int) -> tuple[dict, list[str]]:
    """The call's options with the seed filled in, and its CLI argv."""
    opts = {"seed": seed, **call}
    argv = [opts["command"]]
    for key, value in opts.items():
        if key != "command":
            argv += [f"--{key}", str(value)]
    return opts, argv


def child_env(threads: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SIEVE_LAB_CONFIG", None)  # workloads are fully given on the command line
    if threads is not None:
        env["SIEVE_LAB_THREADS"] = threads
    return env


@dataclass
class Child:
    out: bytes
    err: bytes
    code: int
    wall_s: float
    maxrss_mb: float


def run_child(cmd: list[str], env: dict) -> Child:
    """Run one process to completion; its own peak RSS comes from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
    finally:
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(out, err[0], proc.returncode, time.perf_counter() - start,
                 usage.ru_maxrss / MB)


@dataclass
class Session:
    wall_s: float
    peak_rss_mb: float
    outputs: list[tuple[bytes, int]]  # (CSV bytes, exit code) per invocation


def run_session(argvs: list[list[str]], env: dict) -> Session:
    start = time.perf_counter()
    children = [run_child([sys.executable, "-m", "sieve_lab.cli", *argv], env)
                for argv in argvs]
    wall = time.perf_counter() - start
    for child in children:
        if child.code not in (0, 5):
            sys.stderr.write(child.err.decode(errors="replace"))
    return Session(wall, max(c.maxrss_mb for c in children),
                   [(c.out, c.code) for c in children])


def run_in_process(argvs: list[list[str]], main) -> tuple[float, list[tuple[bytes, int]]]:
    """Call main(argv) for each invocation, capturing what it prints."""
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outputs.append((out.getvalue().encode(), code))
    return time.perf_counter() - start, outputs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]


def verify(opts_list: list[dict], runs: list[list[tuple[bytes, int]]]) -> Verdict:
    """Gate the first run's outputs; every other run must repeat them byte for byte."""
    verdict = Verdict(0, 0, [])
    for i, opts in enumerate(opts_list):
        text, code = runs[0][i]
        res = gates.check(opts, text.decode(), code)
        verdict.attempted += res.rows
        verdict.failed += res.failed
        verdict.problems += res.problems
        digests = {hashlib.sha256(run[i][0]).hexdigest() for run in runs}
        codes = {run[i][1] for run in runs}
        if len(digests) > 1 or len(codes) > 1:
            verdict.problems.append(
                f"determinism: {opts['command']} output differs between repeats "
                f"({len(digests)} distinct CSVs, exit codes {sorted(codes)})")
    return verdict


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing sieve_lab; one untimed warm-up
    import first compiles the bytecode."""
    cmd = [sys.executable, "-c", "import sieve_lab"]
    env = child_env()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        child = run_child(cmd, env)
        if child.code != 0:
            raise SystemExit(f"import sieve_lab failed:\n{child.err.decode(errors='replace')}")
        if i:
            samples.append(child.wall_s)
    return samples


def manifest(workload: str, seed: int, seconds: int, trace: int) -> dict:
    lane = run_child([sys.executable, "-c",
                      "import sieve_lab; print(sieve_lab.kernels.ACTIVE_LANE)"], child_env())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = rev.stdout.strip() or None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    thread_vars = ("SIEVE_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": sys.argv, "commit": commit,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "sieve_lab_threads": int(os.environ.get("SIEVE_LAB_THREADS") or os.cpu_count() or 1),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "active_lane": lane.out.decode().strip(),
        "machine": platform.machine(), "cpu": _cpu_model(), "mem_total": _mem_total(),
    }


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _mem_total() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                return line.split(":", 1)[1].strip()
    return None


def run_untraced(calls: list[dict], seed: int, seconds: int) -> tuple[dict, Verdict, list[str]]:
    opts_list, argvs = zip(*(invocation(c, seed) for c in calls))
    setup = measure_setup()
    env = child_env()
    sessions: list[Session] = []
    start = time.perf_counter()
    while len(sessions) < MIN_SESSIONS or time.perf_counter() - start < seconds:
        sessions.append(run_session(list(argvs), env))
    verdict = verify(list(opts_list), [s.outputs for s in sessions])
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in sessions),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in sessions),
    }
    n = len(sessions)
    notes = [
        f"wall_s      {metrics['wall_s']:.4f} s   median of {n} sessions "
        f"(min {min(s.wall_s for s in sessions):.4f}, max {max(s.wall_s for s in sessions):.4f})",
        f"setup_s     {metrics['setup_s']:.4f} s   median of {len(setup)} fresh imports",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB   median over {n} sessions of the "
        f"largest child",
    ]
    return metrics, verdict, notes


def probe_kernels() -> dict[str, float]:
    """Each active-lane kernel at the sizes of benchmarks/bench_kernels.py."""
    import numpy as np
    from sieve_lab import kernels
    from sieve_lab.farey import enumerate_system

    system = enumerate_system(8, 3, "dyadic")
    n_len = 2048
    v = np.random.default_rng(1).standard_normal(n_len) * (1 + 1j)
    rk = int(system.moduli.max())
    mods = np.unique(system.moduli)
    cases = {
        "quadform": (system.numerators, system.moduli, 0, v),
        "autocorr": (system.numerators, system.moduli, n_len),
        "weyl_rational": (355, 113, 3, 4096, 8192),
        "weyl_float": (math.pi % 1.0, 2, 4096, 8192),
        "majorant_sum": (rk - 3, rk, mods, np.full(mods.shape[0], 4000.0)),
        "pairwise_integral_max": (system.numerators, system.moduli, n_len),
    }
    out = {}
    for name in PROBE_KERNELS:
        func, args, samples = getattr(kernels, name), cases[name], []
        while len(samples) < 5 and sum(samples) < PROBE_BUDGET_S:
            start = time.perf_counter()
            func(*args)
            samples.append(time.perf_counter() - start)
        out[f"kernels.probe.{name}_s"] = statistics.median(samples)
    return out


def run_traced(calls: list[dict], seed: int, seconds: int) -> tuple[dict, Verdict, list[str]]:
    sys.path.insert(0, str(SRC))
    os.environ.pop("SIEVE_LAB_CONFIG", None)
    from sieve_lab import cli

    opts_list, argvs = zip(*(invocation(c, seed) for c in calls))
    argvs = list(argvs)
    plain_walls, traced_walls, tracers, runs = [], [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        wall, outputs = run_in_process(argvs, cli.main)
        plain_walls.append(wall)
        runs.append(outputs)
        with tracing.Tracer() as tracer:
            wall, outputs = run_in_process(argvs, tracer.main)
        traced_walls.append(wall)
        tracers.append(tracer)
        runs.append(outputs)
    baselines = {}
    for name, threads in (("cli.threads1.wall_s", "1"), ("cli.threads_default.wall_s", None)):
        session = run_session(argvs, child_env(threads))
        baselines[name] = session.wall_s
        runs.append(session.outputs)
    verdict = verify(list(opts_list), runs)

    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = tracers[0].calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = statistics.median(t.self_s.get(layer, 0.0) for t in tracers)
    for name, unit, _ in per_layer_specs():
        if unit in ("count", "B_computed") and name not in metrics:
            metrics[name] = tracers[0].counts.get(name, 0)
    for t in tracers[1:]:
        if dict(t.counts) != dict(tracers[0].counts) or dict(t.calls) != dict(tracers[0].calls):
            verdict.problems.append("determinism: work counts differ between traced passes")
    metrics["cli.map_cells.parallel_efficiency"] = statistics.median(
        t.parallel_efficiency for t in tracers)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    metrics.update(baselines)
    metrics.update(probe_kernels())

    wall = metrics["trace.wall_s"]
    notes = [f"traced passes: {len(tracers)}; traced wall {wall:.4f} s, "
             f"overhead {metrics['trace.overhead_s']:+.4f} s",
             f"threads: 1 -> {baselines['cli.threads1.wall_s']:.4f} s, default "
             f"({os.environ.get('SIEVE_LAB_THREADS') or os.cpu_count()}) -> "
             f"{baselines['cli.threads_default.wall_s']:.4f} s (untraced child processes)",
             "layer                              calls      self_s   share of traced wall"]
    for layer in sorted(tracing.LAYERS, key=lambda name: -metrics[f"{name}.self_s"]):
        if metrics[f"{layer}.calls"]:
            self_s = metrics[f"{layer}.self_s"]
            notes.append(f"{layer:<32} {metrics[f'{layer}.calls']:>8} {self_s:11.4f}   "
                         f"{self_s / wall:6.1%}")
    return metrics, verdict, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    calls = WORKLOADS[workload]
    runner = run_traced if trace else run_untraced
    info = manifest(workload, seed, seconds, trace)
    values, verdict, notes = runner(calls, seed, seconds)
    specs = per_layer_specs() if trace else END_TO_END
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    rate = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    lines = [f"workload {workload} seed {seed} trace {trace}",
             "manifest " + json.dumps(info, sort_keys=True), *notes,
             f"error_rate  {rate:.6f}     {verdict.failed} failed of {verdict.attempted} rows "
             f"per session (known failures: {len(gates.load_reference()['known_failures'])})"]
    lines += [f"PROBLEM: {p}" for p in verdict.problems]
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sieve_lab" / "cli.py").is_file():
        print(f"run.py: no sieve_lab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    if args.workload == "all" and not args.trace:
        print(f"{'workload':<16} {'wall_s [s]':>11} {'setup_s [s]':>12} "
              f"{'peak_rss_mb [MB]':>17} {'error_rate':>11}  failed/attempted")
        for name, r in results.items():
            m = r["metrics"]
            print(f"{name:<16} {m['wall_s']['value']:11.4f} {m['setup_s']['value']:12.4f} "
                  f"{m['peak_rss_mb']['value']:17.1f} {r['failed'] / r['attempted']:11.6f}  "
                  f"{r['failed']}/{r['attempted']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
