"""The names the benchmark's traced run (perfbench/run.py --trace 1) reaches
into the package by.  The tracer patches functions by module and attribute,
and the kernel probe calls the kernels directly on an enumerated system's
arrays, so a rename in the package breaks the traced run; these tests read
perfbench/ without importing or changing it."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np

from sieve_lab import kernels
from sieve_lab.farey import enumerate_system

TRACING_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans():
    """The SPANS table of tracing.py, read from its source."""
    tree = ast.parse(TRACING_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS table in tracing.py")


def test_every_traced_name_resolves():
    spans = _spans()
    assert spans
    for layer, module_name, attr in spans:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (layer, module_name, attr)


def test_probe_scalar_kernels_return_complex():
    # the calls perfbench/run.py's probe_kernels makes
    got = [kernels.weyl_rational(355, 113, 3, 4096, 8192),
           kernels.weyl_float(math.pi % 1.0, 2, 4096, 8192)]
    for value in got:
        assert type(value) is complex and abs(value) <= 4096


def test_probe_system_has_the_fields_it_reads():
    # probe_kernels passes .numerators and .moduli to the kernels, and the
    # tracer counts an enumerate_system span's points by .size
    system = enumerate_system(8, 3, "dyadic")
    assert system.numerators.dtype == system.moduli.dtype == np.int64
    assert system.size == system.numerators.shape[0] == system.moduli.shape[0] > 0
