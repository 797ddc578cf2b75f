import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from sieve_lab import cli, kernels
from sieve_lab.farey import counting_rhs, enumerate_system
from sieve_lab.sieve import CoefficientVector, sigma_exact, sigma_exact_batch
from sieve_lab.errors import EXIT_CAPACITY, EXIT_EIGENSOLVER, EXIT_INVALID_CONFIG, EXIT_OK


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_constant_header_and_determinism(tmp_path):
    args = ["constant", "--Q", "1..2", "--N", "4,16", "--k", "2", "--mode", "dyadic"]
    code1, a = run_cli(args, tmp_path, "a.csv")
    code2, b = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == EXIT_OK
    assert a == b
    header = a.decode().splitlines()[0]
    assert header.startswith("schema,command,Q,N,k,mode,eps,rel_tol,seed,delta,kappa,"
                             "size,measured,residual,iterations,bound_ls_a")
    assert a.decode().count("\r") == 0


def test_constant_json_mirror(tmp_path):
    args = ["constant", "--Q", "2", "--N", "4", "--k", "2", "--format", "json"]
    code, raw = run_cli(args, tmp_path, "a.json")
    assert code == EXIT_OK
    data = json.loads(raw)
    assert len(data) == 1
    rec = data[0]
    assert rec["Q"] == 2 and rec["N"] == 4 and rec["status"] == "ok"
    assert rec["measured"] > 0 and rec["bound_ls_a"] == 20.0


def test_constant_oracle_columns(tmp_path):
    args = ["constant", "--Q", "1..2", "--N", "4,16", "--k", "2", "--mode",
            "dyadic", "--oracle", "--format", "json"]
    code, raw = run_cli(args, tmp_path, "a.json")
    assert code == EXIT_OK
    for rec in json.loads(raw):
        assert rec["oracle_rel_err"] <= 1e-6
        assert rec["oracle_kernel_abs_err"] <= 1e-10


def test_invalid_configs(tmp_path, capsys):
    assert cli.main(["constant", "--Q", "4..2", "--out", "-"]) == EXIT_INVALID_CONFIG
    assert cli.main(["constant", "--mode", "full", "--eps", "-1"]) == EXIT_INVALID_CONFIG
    assert cli.main(["lemma1", "--N", "1"]) == EXIT_INVALID_CONFIG
    assert cli.main(["constant", "--Q", ""]) == EXIT_INVALID_CONFIG
    capsys.readouterr()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_capacity_exit_code(tmp_path):
    code, raw = run_cli(["constant", "--Q", "70000", "--N", "4", "--k", "2"],
                        tmp_path, "a.csv")
    assert code == EXIT_CAPACITY
    assert b"capacity-error" in raw


def test_eigensolver_exit_code(tmp_path):
    start = time.perf_counter()
    code, raw = run_cli(["constant", "--Q", "2", "--N", "16", "--k", "2",
                         "--rel-tol", "1e-300"], tmp_path, "a.csv")
    assert code == EXIT_EIGENSOLVER
    assert b"eigensolver-error" in raw
    assert time.perf_counter() - start < 5.0


def test_config_file_and_cli_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("Q = 3\nN = 4\nk = 2  # comment\nmode = dyadic\n")
    code, raw = run_cli(["constant", "--config", str(cfg)], tmp_path, "a.csv")
    assert code == EXIT_OK
    assert b"sieve-lab-1,constant,3,4,2,dyadic" in raw

    # explicit flag beats the file
    code, raw = run_cli(["constant", "--config", str(cfg), "--Q", "2"], tmp_path, "b.csv")
    assert b"sieve-lab-1,constant,2,4,2,dyadic" in raw

    # SIEVE_LAB_CONFIG provides defaults below --config
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("Q = 4\nN = 4\nk = 2\n")
    monkeypatch.setenv("SIEVE_LAB_CONFIG", str(env_cfg))
    code, raw = run_cli(["constant"], tmp_path, "c.csv")
    assert b"sieve-lab-1,constant,4,4,2,full" in raw
    code, raw = run_cli(["constant", "--config", str(cfg)], tmp_path, "d.csv")
    assert b"sieve-lab-1,constant,3,4,2,dyadic" in raw


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert cli.main(["constant", "--config", str(cfg)]) == EXIT_INVALID_CONFIG
    cfg.write_text("just a line\n")
    assert cli.main(["constant", "--config", str(cfg)]) == EXIT_INVALID_CONFIG


def test_lemma1_runs_clean(tmp_path, capsys):
    args = ["lemma1", "--Q", "1..2", "--N", "4,16", "--k", "2,3",
            "--mode", "dyadic", "--vectors", "20"]
    code, raw = run_cli(args, tmp_path, "a.csv")
    assert code == EXIT_OK
    assert b"violations" in raw and b"verification-failure" not in raw


@pytest.mark.parametrize("block", [None, 448])
def test_lemma1_matches_per_vector_reference(tmp_path, monkeypatch, block):
    """The batched lemma1 cells see the same draws, in order and in chunks of
    at most max(1, BLOCK_ELEMENTS // N) vectors, and give the same max_ratio
    and violations as a loop of single sigma_exact calls; block 448 splits
    the N=64 cells into chunks of 7 vectors."""
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", block)
    seen = {}

    def recording(system, vecs):
        key = (system.k, system.Q, vecs[0].N)
        assert len(vecs) <= max(1, kernels.BLOCK_ELEMENTS // vecs[0].N)
        seen.setdefault(key, []).extend(vecs)
        return sigma_exact_batch(system, vecs)

    monkeypatch.setattr(cli, "sigma_exact_batch", recording)
    seed, vectors = 5, 25
    for mode_idx, mode in enumerate(("full", "dyadic")):
        seen.clear()
        args = ["lemma1", "--Q", "1..3", "--N", "16,64", "--k", "2,3", "--mode", mode,
                "--vectors", str(vectors), "--seed", str(seed), "--format", "json"]
        code, raw = run_cli(args, tmp_path, f"{mode}.json")
        assert code == EXIT_OK
        rows = json.loads(raw)
        assert len(rows) == 12
        for row in rows:
            k, Q, N = row["k"], row["Q"], row["N"]
            system = enumerate_system(Q, k, mode)
            if system.size == 0:
                assert row["max_ratio"] == 0.0 and row["violations"] == 0
                continue
            rhs_unit = counting_rhs(system, N, 1.0)
            rng = np.random.default_rng([seed, k, Q, N, mode_idx])
            batched = seen[(k, Q, N)]
            assert len(batched) == vectors
            max_ratio, violations = 0.0, 0
            for got in batched:
                m_off = int(rng.integers(-64, 65))
                v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                assert got.M == m_off and np.array_equal(got.values, v)
                vec = CoefficientVector(m_off, v)
                lhs = sigma_exact(system, vec)
                rhs = rhs_unit * vec.norm_sq
                max_ratio = max(max_ratio, lhs / rhs)
                violations += lhs > rhs * (1.0 + cli.REL_SLACK)
            assert row["max_ratio"] == pytest.approx(max_ratio, rel=1e-12)
            assert row["violations"] == violations


def test_weyl_rows_and_determinism(tmp_path):
    args = ["weyl", "--Q", "4,16", "--k", "2", "--samples", "10"]
    code1, a = run_cli(args, tmp_path, "a.csv")
    code2, b = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == EXIT_OK and a == b
    lines = a.decode().splitlines()
    weyl_rows = [l for l in lines if ",weyl,weyl," in l]
    ms_rows = [l for l in lines if ",weyl,min_sum," in l]
    assert len(weyl_rows) == 200 * 2 and len(ms_rows) == 10


def test_majorant_clean_and_deterministic(tmp_path):
    args = ["majorant", "--Q", "1..3", "--k", "2,3", "--mode", "dyadic",
            "--samples", "5"]
    code1, a = run_cli(args, tmp_path, "a.csv")
    code2, b = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == EXIT_OK and a == b
    assert b"false" not in a.split(b"\n", 1)[1]


def test_crossover_consistent_in_shapes_mode(tmp_path, capsys):
    args = ["crossover", "--Q", "4..16", "--k", "3", "--points", "13"]
    code, raw = run_cli(args, tmp_path, "a.csv")
    assert code == EXIT_OK
    assert b",column," in raw


def test_fit_emits_slope(tmp_path):
    args = ["fit", "--Q", "2..6", "--k", "2", "--theta", "2.0", "--format", "json"]
    code, raw = run_cli(args, tmp_path, "a.json")
    assert code == EXIT_OK
    fit_rows = [r for r in json.loads(raw) if r["table"] == "fit"]
    assert len(fit_rows) == 1
    assert 2.0 <= fit_rows[0]["slope"] <= 4.0


def test_thread_pool_keeps_output_deterministic(tmp_path, monkeypatch):
    args = ["constant", "--Q", "1..3", "--N", "4,16", "--k", "2,3", "--mode", "dyadic"]
    code, serial = run_cli(args, tmp_path, "serial.csv")
    assert code == EXIT_OK
    monkeypatch.setenv("SIEVE_LAB_THREADS", "4")
    code, pooled = run_cli(args, tmp_path, "pooled.csv")
    assert code == EXIT_OK
    assert serial == pooled
    monkeypatch.setenv("SIEVE_LAB_THREADS", "zero")
    assert cli.main(args + ["--out", str(tmp_path / "x.csv")]) == EXIT_INVALID_CONFIG


def test_entry_point_subprocess(tmp_path):
    env = dict(os.environ)
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "sieve_lab.cli", "constant", "--Q", "2", "--N", "4",
         "--k", "2", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.read_text().startswith("schema,")


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it would add to every CLI
    # start-up time and resident memory
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sieve_lab; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
