"""The frozen guards: the committed frozen.py against the code's maxima, and
the regeneration entry point `python -m sieve_lab.regression`."""

import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sieve_lab import cli
from sieve_lab.errors import EigensolverError
from sieve_lab.frozen import FROZEN_RATIOS
from sieve_lab.regression import compute_frozen

SRC = Path(__file__).resolve().parent.parent / "src"
REL = 1e-9


@pytest.fixture(scope="module")
def frozen_now():
    return compute_frozen()


def test_committed_frozen_values_are_current(frozen_now):
    # criterion 07 bounds the maxima from above only; a guard left too high by
    # a change that lowered them would pass there
    assert frozen_now["seed"] == FROZEN_RATIOS["seed"]
    pairs = [(frozen_now[key], FROZEN_RATIOS[key])
             for key in ("weyl_bound_max", "min_sum_bound_max")]
    assert frozen_now["delta_ratio_max"].keys() == FROZEN_RATIOS["delta_ratio_max"].keys()
    for k, shapes in frozen_now["delta_ratio_max"].items():
        assert shapes.keys() == FROZEN_RATIOS["delta_ratio_max"][k].keys()
        pairs += [(value, FROZEN_RATIOS["delta_ratio_max"][k][name])
                  for name, value in shapes.items()]
    for now, frozen in pairs:
        assert now == pytest.approx(frozen, rel=REL)


def test_regeneration_writes_the_default_maxima_and_reads_no_config(tmp_path, frozen_now):
    # the entry point rewrites the frozen.py beside it, so it runs in a copy
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cfg = tmp_path / "env.cfg"
    cfg.write_text("Q=2\nseed=1\n", encoding="utf-8")
    committed = (SRC / "sieve_lab" / "frozen.py").read_bytes()
    env = dict(os.environ, SIEVE_LAB_CONFIG=str(cfg))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sieve_lab.regression"], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = runpy.run_path(str(copy / "sieve_lab" / "frozen.py"))["FROZEN_RATIOS"]
    assert written == frozen_now
    assert (SRC / "sieve_lab" / "frozen.py").read_bytes() == committed


def test_a_failing_cell_stops_the_regeneration(monkeypatch):
    # the constant command turns a cell that does not converge into an
    # eigensolver-error row; a maximum over such rows must not be frozen
    def no_convergence(kern, rel_tol, *, seed):
        raise EigensolverError("no convergence", 0.0, 1.0, 0)

    monkeypatch.setattr(cli, "power_iteration", no_convergence)
    with pytest.raises(RuntimeError, match="constant .* exited 5 with 32 failing rows"):
        compute_frozen()
