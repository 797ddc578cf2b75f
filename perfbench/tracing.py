"""Span recording around the public functions the CLI and `regression` call.

`Tracer` patches each function at the name it is looked up through (for
example `sieve_lab.cli.power_iteration`, `sieve_lab.regression.weyl_sum`,
`sieve_lab.kernels.quadform`) with a wrapper that times the call, and undoes
every patch on exit.  Nothing under `src/` is changed.  A span's self time is
its duration minus the durations of the spans it directly encloses on the
same thread; pool threads start with an empty stack, so self times are summed
over threads.  Work counts are computed from the arguments and results of the
calls they describe, so they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

# (layer name, module the name is looked up in, attribute)
SPANS = (
    ("cli.map_cells", "sieve_lab.cli", "map_cells"),
    ("cli.write_records", "sieve_lab.cli", "write_records"),
    ("farey.enumerate_system", "sieve_lab.cli", "enumerate_system"),
    ("farey.counting_rhs", "sieve_lab.cli", "counting_rhs"),
    ("farey.count_near", "sieve_lab.cli", "count_near"),
    ("sieve.toeplitz_kernel", "sieve_lab.cli", "toeplitz_kernel"),
    ("sieve.power_iteration", "sieve_lab.cli", "power_iteration"),
    ("sieve.sigma_exact", "sieve_lab.cli", "sigma_exact"),
    ("expsums.fourier_majorant", "sieve_lab.cli", "fourier_majorant"),
    ("regression.weyl_ratio_rows", "sieve_lab.regression", "weyl_ratio_rows"),
    ("regression.min_sum_ratio_rows", "sieve_lab.regression", "min_sum_ratio_rows"),
    ("expsums.weyl_sum", "sieve_lab.regression", "weyl_sum"),
    ("expsums.weyl_min_sum_bound", "sieve_lab.regression", "weyl_min_sum_bound"),
    ("expsums.min_sum", "sieve_lab.regression", "min_sum"),
    ("arith.dirichlet_approx", "sieve_lab.regression", "dirichlet_approx"),
    ("bounds.evaluate_bounds", "sieve_lab.bounds", "evaluate_bounds"),
    ("kernels.pairwise_integral_max", "sieve_lab.kernels", "pairwise_integral_max"),
    ("kernels.quadform", "sieve_lab.kernels", "quadform"),
    ("kernels.majorant_sum", "sieve_lab.kernels", "majorant_sum"),
    ("kernels.weyl_rational", "sieve_lab.kernels", "weyl_rational"),
    ("kernels.weyl_float", "sieve_lab.kernels", "weyl_float"),
)
MAIN_SPAN = "cli.main"
LAYERS = (MAIN_SPAN, "cli.cell") + tuple(name for name, _, _ in SPANS)

COMPLEX_BYTES = 16


def _power_counts(args, kwargs, result, error):
    """Iterations, block matvecs and computed FFT bytes of one power_iteration.

    Each iteration applies T to an (N, b) block by one forward and one inverse
    FFT of length 2N per column; each transform reads and writes 2N complex
    values.  The byte count is computed from these sizes, not measured.
    """
    from sieve_lab import sieve

    kernel = args[0]
    block = kwargs.get("block", args[2] if len(args) > 2 else sieve.BLOCK_SIZE)
    width = min(max(1, block), kernel.N)
    iterations = result.iterations if error is None else getattr(error, "iterations", 0)
    matvecs = iterations * width
    return {
        "iterations": iterations,
        "iterations_max": iterations,
        "matvecs": matvecs,
        "fft_bytes": matvecs * 2 * 2 * (2 * kernel.N) * COMPLEX_BYTES,
        "failures": int(error is not None),
    }


COUNTERS = {
    "sieve.power_iteration": _power_counts,
    "farey.enumerate_system": lambda a, kw, r, e: {"points": r.size if e is None else 0},
    "kernels.pairwise_integral_max": lambda a, kw, r, e: {"pairs": len(a[0]) ** 2},
    "sieve.sigma_exact": lambda a, kw, r, e: {"terms": a[0].size * a[1].N},
    "expsums.weyl_sum": lambda a, kw, r, e: {"terms": a[1]},
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of time intervals."""
    total, reach = 0.0, float("-inf")
    for begin, end in sorted(intervals):
        if end > reach:
            total += end - max(begin, reach)
            reach = end
    return total


class Tracer:
    """Context manager that records spans while its patches are installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.pool_busy_s = 0.0
        self.pool_capacity_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time spent in directly enclosed spans
            stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                counts = counter(args, kwargs, result, error) if counter else {}
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[0]
                    for key, value in counts.items():
                        full = f"{name}.{key}"  # "*_max" counts keep the maximum, others sum
                        self.counts[full] = (max(self.counts[full], value) if key.endswith("_max")
                                             else self.counts[full] + value)

        return traced

    def _map_cells(self, original):
        """map_cells whose cells are `cli.cell` spans.

        Pool threads run the cells, so the part of the pool's wall time that
        some cell covers is taken off map_cells' self time here; what is left
        is the pool's own overhead and idle time.  Busy cell time over
        (pool width x wall time) is the pool's parallel efficiency.
        """

        def traced_map_cells(func, cells, threads):
            intervals = []
            cell = self.wrap("cli.cell", func)

            def timed(item):
                start = time.perf_counter()
                try:
                    return cell(item)
                finally:
                    intervals.append((start, time.perf_counter()))

            start = time.perf_counter()
            out = original(timed, cells, threads)
            wall = time.perf_counter() - start
            pooled = threads > 1 and len(cells) > 1
            if pooled:  # serial cells are children on this thread already
                self._stack()[-1][0] += _covered(intervals)
            with self._lock:
                self.pool_busy_s += sum(end - begin for begin, end in intervals)
                self.pool_capacity_s += (min(threads, len(cells)) if pooled else 1) * wall
            return out

        return self.wrap("cli.map_cells", traced_map_cells)

    # -- patching ---------------------------------------------------------
    def __enter__(self):
        for name, module_name, attr in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            traced = (self._map_cells(original) if name == "cli.map_cells"
                      else self.wrap(name, original))
            setattr(module, attr, traced)
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        return False

    def main(self, argv: list[str]) -> int:
        """Run `sieve_lab.cli.main(argv)` as the outermost span."""
        from sieve_lab import cli

        return self.wrap(MAIN_SPAN, cli.main)(argv)

    @property
    def parallel_efficiency(self) -> float:
        """Sum of cell busy time over (pool width x pool wall time)."""
        return self.pool_busy_s / self.pool_capacity_s if self.pool_capacity_s else 0.0
