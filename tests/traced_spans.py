"""The spans each benchmark workload must call, and the check of a traced run.

A span that wraps a name no command calls reads 0 calls on working code; each
span in WANTED_SPANS wraps a function its workload's commands call
(test_tooling.py checks that against the commands).  Check a traced run with

    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 > traced.txt
    python3 tests/traced_spans.py traced.txt

which prints "every checked span was called" and exits 0, or prints each span
with 0 calls and each workload with no result line and exits 1.
"""

import json
import sys

# The parity split happens inside sieve.power_iteration, so the constant
# workloads must still call it and sieve.toeplitz_kernel.  The frozen maxima
# are the weyl command's tables, so expsum_tables must still build them
# through the two regression row functions.  lemma1 builds its points and
# scans their pairs for the counting side before it evaluates the form.
WANTED_SPANS = {
    "constant_large": ["sieve.power_iteration", "sieve.toeplitz_kernel"],
    "constant_grid": ["sieve.power_iteration", "sieve.toeplitz_kernel"],
    "expsum_tables": ["regression.weyl_ratio_rows", "regression.min_sum_ratio_rows",
                      "expsums.weyl_sum", "expsums.weyl_min_sum_bound",
                      "expsums.min_sum", "expsums.fourier_majorant",
                      "kernels.majorant_sum", "kernels.weyl_rational",
                      "kernels.weyl_float"],
    "lemma1_verify": ["kernels.quadform", "farey.enumerate_system",
                      "farey.counting_rhs", "kernels.pairwise_integral_max"],
}


def problems(lines) -> list[str]:
    """Each wanted span with 0 calls in the traced run's output lines, and
    each workload with no result line."""
    want = dict(WANTED_SPANS)
    workload, found = None, []
    for line in lines:
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("{"):
            metrics = json.loads(line)["metrics"]
            found += [f"{workload}: {span} has 0 calls"
                      for span in want.pop(workload, [])
                      if not metrics[f"{span}.calls"]["value"]]
    return found + [f"{name}: no result line" for name in want]


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as out:
        found = problems(out)
    print("\n".join(found) or "every checked span was called")
    sys.exit(1 if found else 0)
