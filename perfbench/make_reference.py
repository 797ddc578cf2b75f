#!/usr/bin/env python3
"""Regenerate the `constant` references in reference.json.

Run from the repository root: python3 perfbench/make_reference.py

For N <= 1024 a cell's reference is the largest eigenvalue, by
numpy.linalg.eigvalsh, of the dense Toeplitz matrix built from a brute-force
autocorrelation c(t) = sum over points of cos(2 pi a t / q^k), with the phase
reduced exactly in integers.  This shares no code with the package's
closed-form kernel or its power iteration.  For larger N it is the value the
package's power iteration gave when the entry was first written, with its
residual; existing entries of that kind are kept, so that a later solver
change is checked against the old value and not against itself.
`known_failures` is written by hand and kept as it is.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import run
from gates import REFERENCE_JSON, cell_key, int_values

DENSE_N_CAP = 1024


def dense_oracle(Q: int, N: int, k: int, mode: str) -> float:
    bases = range(2, Q + 1) if mode == "full" else range(Q + 1, 2 * Q + 1)
    t = np.arange(N, dtype=np.int64)
    c = np.zeros(N)
    for q in bases:
        qk = q ** k
        a = np.array([a for a in range(1, qk) if math.gcd(a, q) == 1], dtype=np.int64)
        c += np.cos(2.0 * np.pi * ((a[:, None] * t[None, :]) % qk) / qk).sum(axis=0)
    idx = np.arange(N)
    return float(np.linalg.eigvalsh(c[np.abs(idx[:, None] - idx[None, :])])[-1])


def constant_cells() -> list[tuple[int, int, int, str]]:
    cells = set()
    for calls in run.WORKLOADS.values():
        for call in calls:
            if call["command"] == "constant":
                cells.update((Q, N, k, call.get("mode", "full"))
                             for k in int_values(call["k"]) for Q in int_values(call["Q"])
                             for N in int_values(call["N"]))
    return sorted(cells)


def main() -> None:
    old = (json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))
           if REFERENCE_JSON.exists() else {"known_failures": []})
    table = {}
    for Q, N, k, mode in constant_cells():
        key = cell_key(Q, N, k, mode)
        if N <= DENSE_N_CAP:
            table[key] = {"value": dense_oracle(Q, N, k, mode), "source": "dense eigvalsh"}
        elif key in old.get("constant", {}):
            table[key] = old["constant"][key]
        else:
            sys.path.insert(0, str(run.SRC))
            from sieve_lab.sieve import measure_constant

            res = measure_constant(Q, N, k, mode)
            table[key] = {"value": res.value, "residual": res.residual,
                          "iterations": res.iterations, "source": "power iteration"}
    out = {"constant": table, "known_failures": old["known_failures"]}
    REFERENCE_JSON.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} references to {REFERENCE_JSON}")


if __name__ == "__main__":
    main()
