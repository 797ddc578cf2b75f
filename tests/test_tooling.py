"""The names the benchmark's traced run (perfbench/run.py --trace 1) reaches
into the package by.  The tracer patches functions by module and attribute,
and the kernel probe calls the kernels directly on an enumerated system's
arrays, so a rename in the package breaks the traced run; these tests read
perfbench/ without importing or changing it, and check that the traced names
are the ones the commands call, including every span CI's traced-spans step
requires (traced_spans.WANTED_SPANS).  The last test keeps heavy and
random-number modules out of every command, and numpy.fft out of the commands
that take no FFT."""

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sieve_lab import cli, kernels
from sieve_lab.farey import enumerate_system
from traced_spans import WANTED_SPANS

TRACING_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SRC = Path(kernels.__file__).resolve().parents[1]
# Modules no command may import.  scipy and numpy.ma count in every
# benchmark child's setup_s and wall_s (scipy.linalg alone takes about
# 0.33 s).  numpy.random's import goes through secrets and hmac to _hashlib,
# which loads OpenSSL's libcrypto (about 6 MB of every child's peak RSS); every
# draw comes from arith's splitmix64 stream instead.
HEAVY_MODULES = ("scipy", "numpy.ma", "numpy.random", "_hashlib")
# Loaded only by the commands that take an FFT (constant, fit and lemma1):
# numpy.fft costs about 0.5 MB of every other child's peak RSS.
FFT_MODULE = "numpy.fft"
FFT_FREE_COMMANDS = ("weyl", "majorant", "crossover")
# Runs the command in argv, then prints as the last line its exit code and
# the heavy modules and FFT modules loaded at exit.
_CHILD = f"""
import sys
from sieve_lab import cli
code = cli.main(sys.argv[1:])
print((code, sorted(m for m in sys.modules
                    if any(m == h or m.startswith(h + ".")
                           for h in {(*HEAVY_MODULES, FFT_MODULE)!r}))))
"""


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


def test_commands_call_the_traced_names(monkeypatch, tmp_path):
    # a span that wraps a name no command calls reads 0 in the traced run
    calls = {}

    def counting(layer, func):
        def wrapper(*args, **kwargs):
            calls.setdefault(layer, []).append(args)
            return func(*args, **kwargs)
        return wrapper

    for layer, module_name, attr in _spans():
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting(layer, getattr(module, attr)))
    # the commands of each workload, at small sizes
    workloads = {"constant_large": ["constant --Q 2 --N 4 --k 2"],
                 "constant_grid": ["constant --Q 2 --N 4 --k 2"],
                 "lemma1_verify": ["lemma1 --Q 2 --N 4 --k 2 --vectors 2"],
                 "expsum_tables": ["weyl --Q 4 --k 2 --samples 2",
                                   "majorant --Q 2 --k 2 --samples 2"]}
    called = {}
    for args in sorted({a for commands in workloads.values() for a in commands}):
        calls.clear()
        assert cli.main([*args.split(), "--out", str(tmp_path / "out")]) == 0, args
        called[args] = dict(calls)
        # tracing.COUNTERS reads a sigma_exact span's terms as args[1].N,
        # which a plain coefficient array does not have
        assert "sieve.sigma_exact" not in calls, args
    assert set(WANTED_SPANS) == set(workloads)
    for workload, spans in WANTED_SPANS.items():
        for span in spans:
            assert any(called[a].get(span) for a in workloads[workload]), (workload, span)
    # tracing.COUNTERS reads a weyl_sum span's terms from args[1]
    weyl_calls = called["weyl --Q 4 --k 2 --samples 2"]["expsums.weyl_sum"]
    assert [args[1] for args in weyl_calls] == [4]
    assert type(weyl_calls[0][1]) is int


def test_probe_quadform_is_a_batch_of_one():
    # the call perfbench/run.py's probe_kernels makes: scalar offset, 1-D vector
    system = enumerate_system(8, 3, "dyadic")
    v = np.random.default_rng(1).standard_normal(2048) * (1 + 1j)
    one = kernels.quadform(system.numerators, system.moduli, 0, v)
    rows = kernels.quadform(system.numerators, system.moduli, np.zeros(1, dtype=np.int64),
                            v[None])
    assert type(one) is float and one == rows[0]


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


@pytest.mark.parametrize("args", [
    "constant --Q 2 --N 4 --k 2",
    "lemma1 --Q 2 --N 4 --k 2 --vectors 2",
    "weyl --Q 4 --k 2 --samples 2",
    "majorant --Q 2 --k 2 --samples 2",
    "constant --oracle --Q 2 --N 4 --k 2",
    "fit --Q 2..4 --k 2",
    "crossover --Q 4..6 --k 3 --points 4",
])
def test_commands_import_no_heavy_module(tmp_path, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args.split(), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    if args.split()[0] not in FFT_FREE_COMMANDS:
        loaded = [m for m in loaded if m != FFT_MODULE and not m.startswith(FFT_MODULE + ".")]
    assert (code, loaded) == (0, []), (args, proc.stdout)
