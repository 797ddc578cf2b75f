import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sieve_lab import cli, expsums, farey, kernels, sieve
from sieve_lab.bounds import SHAPE_NAMES
from sieve_lab.farey import counting_rhs, enumerate_system
from sieve_lab.sieve import sigma_exact
from sieve_lab.errors import (EXIT_CAPACITY, EXIT_EIGENSOLVER, EXIT_INVALID_CONFIG, EXIT_OK,
                              EXIT_VERIFICATION, CapacityError, EigensolverError)

from helpers import cli_peak_rss, keyed_gaussian_pairs, totient, whole_text_records


# the directory that holds the sieve_lab package under test
SRC = Path(cli.__file__).resolve().parents[1]


def child_env():
    """os.environ with SRC first on PYTHONPATH, so a child interpreter imports
    the same package however pytest was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


# A small run of each command, and the columns its records carry after schema
# and command.
SMALL_RUNS = {
    "constant": ("constant --Q 1..2 --N 4,16 --k 2 --mode dyadic", cli.CONSTANT_COLUMNS),
    "lemma1": ("lemma1 --Q 1..2 --N 4 --k 2 --vectors 3", cli.LEMMA1_COLUMNS),
    "weyl": ("weyl --Q 4 --k 2 --samples 3", cli.WEYL_COLUMNS),
    "majorant": ("majorant --Q 2 --k 2 --samples 3", cli.MAJORANT_COLUMNS),
    "crossover": ("crossover --Q 4..5 --k 3 --points 3", cli.CROSSOVER_COLUMNS),
    "fit": ("fit --Q 2..3 --theta 1", cli.FIT_COLUMNS),
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_header_and_determinism(command, tmp_path):
    args, columns = SMALL_RUNS[command]
    code1, a = run_cli(args.split(), tmp_path, "a.csv")
    code2, b = run_cli(args.split(), tmp_path, "b.csv")
    assert code1 == code2 == EXIT_OK
    assert a == b
    header = a.decode().splitlines()[0].split(",")
    assert header == ["schema", "command", *columns]
    assert len(set(header)) == len(header)
    if command == "constant":
        assert ",".join(header).startswith(
            "schema,command,Q,N,k,mode,eps,rel_tol,seed,delta,kappa,"
            "size,measured,residual,iterations,bound_ls_a")
    assert a.decode().count("\r") == 0


def test_write_records_spells_each_cell(capsys):
    rec = {"none": None, "yes": True, "no": False, "int": 7, "tenth": 0.1,
           "tiny": 1e-300, "text": "s,t"}
    columns = [*rec, "missing"]
    for fmt in ("csv", "json"):
        cfg = cli.RunConfig(command="demo", format=fmt, out="-")
        cli.write_records([rec], columns, cfg)
        text = capsys.readouterr().out
        if fmt == "csv":
            assert text == ("schema,command,none,yes,no,int,tenth,tiny,text,missing\n"
                            'sieve-lab-1,demo,,true,false,7,0.1,1e-300,"s,t",\n')
        else:
            (obj,) = json.loads(text)
            assert list(obj) == ["schema", "command", *columns]
            assert obj == {"schema": cli.SCHEMA, "command": "demo", **rec, "missing": None}


def test_write_records_streams_the_whole_text_bytes(capsys, monkeypatch, tmp_path):
    records = [{"yes": True, "x": 0.1, "n": 3, "text": "a,b"},
               {"yes": False, "x": 1e-300, "n": None},
               {"x": 2.5e10, "text": 'say "hi"'}]
    columns = ["yes", "x", "n", "text", "missing"]
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    for fmt in ("csv", "json"):
        expected = whole_text_records(records, columns, cli.SCHEMA, "demo", fmt)
        cli.write_records(records, columns, cli.RunConfig(command="demo", format=fmt, out="-"))
        assert capsys.readouterr().out == expected
        out = tmp_path / f"a.{fmt}"
        cli.write_records(records, columns, cli.RunConfig(command="demo", format=fmt,
                                                          out=str(out)))
        assert out.read_bytes() == expected.encode("utf-8")
        assert opened[-1].closed
    assert len(opened) == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weyl_stdout_equals_its_out_file(fmt, tmp_path):
    # the child runs in development mode, where a file left open warns
    args = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "sieve_lab.cli",
            "weyl", "--Q", "4", "--k", "2", "--samples", "3", "--format", fmt]
    out = tmp_path / "a.out"
    shown = subprocess.run(args, env=child_env(), capture_output=True, timeout=60, check=True)
    written = subprocess.run([*args, "--out", str(out)], env=child_env(), capture_output=True,
                             timeout=60, check=True)
    assert shown.stdout.startswith(b"schema,command," if fmt == "csv" else b"[\n")
    assert out.read_bytes() == shown.stdout
    assert written.stdout == b""
    assert b"ResourceWarning" not in shown.stderr + written.stderr


def test_constant_records_do_not_depend_on_the_blas_thread_count():
    # from N = 2^16 up, BLAS dots split their sums across threads; at
    # (4, 65536, 2) they moved `measured` in its last digits
    args = [sys.executable, "-m", "sieve_lab.cli", "constant", "--seed", "1", "--Q", "4",
            "--N", "65536", "--k", "2"]
    outputs = [subprocess.run(args, env={**child_env(), "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, timeout=120, check=True).stdout
               for threads in ("1", "2")]
    assert outputs[0].count(b"\n") == 2
    assert outputs[0] == outputs[1]


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


def test_constant_seed_picks_the_lanczos_start(tmp_path):
    # two seeds start Lanczos from different vectors: other residuals, the
    # same constants to rel_tol
    args = ["constant", "--Q", "2..4", "--N", "16,64,256", "--k", "2,3", "--format", "json"]
    runs = []
    for seed in (1, 2):
        code, raw = run_cli(args + ["--seed", str(seed)], tmp_path, f"{seed}.json")
        assert code == EXIT_OK
        runs.append(json.loads(raw))
    assert len(runs[0]) == len(runs[1]) == 18
    for one, two in zip(*runs):
        assert one["residual"] != two["residual"], (one, two)
        assert one["measured"] == pytest.approx(two["measured"], rel=one["rel_tol"])


def test_constant_passes_seed_to_power_iteration_by_keyword(tmp_path, monkeypatch):
    # perfbench/tracing.py reads a third positional argument as a block width
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return sieve.power_iteration(*args, **kwargs)

    monkeypatch.setattr(cli, "power_iteration", recording)
    code, _ = run_cli(["constant", "--Q", "2", "--N", "4,16", "--k", "2", "--seed", "9"],
                      tmp_path)
    assert code == EXIT_OK
    assert [(len(args), kwargs) for args, kwargs in calls] == [(2, {"seed": 9})] * 2


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


# Every run_limited caller of a capacity check asserts the child took under
# 5 s; the timeout sits a little above that, so a cap that stops failing fast
# fails its test with TimeoutExpired instead of hanging it.  It also bounds
# the one full run, the majorant at the point budget.
CHILD_TIMEOUT_S = 10


def run_limited(args, tmp_path, out=None):
    """The CLI in a child process under a 2 GiB address-space limit, which turns
    any attempt to allocate the points or the eigensolve of a huge system into
    a MemoryError: (exit code, output text or else stderr, seconds taken).  The
    output goes to `out`, by default tmp_path/a.csv."""
    out = tmp_path / "a.csv" if out is None else out
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sieve_lab.cli", *args, "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    elapsed = time.perf_counter() - start
    return proc.returncode, out.read_text() if out.is_file() else proc.stderr, elapsed


def test_point_budget_exit_code(tmp_path):
    # every modulus q^4 <= 10^8 passes the 2^31 cap, but the system has about
    # 1.2e9 points (29 GB of int64), which lemma1 would have to build
    code, text, elapsed = run_limited(["lemma1", "--Q", "100", "--N", "16", "--k", "4"],
                                      tmp_path)
    assert code == EXIT_CAPACITY, text
    assert elapsed < 5.0
    assert "capacity-error" in text
    assert "above the budget" in text


def test_cli_peak_rss_reads_the_child_alone(tmp_path):
    # the test process touches 300 MB first: a child it spawned itself would
    # read at least that much through os.wait4
    touched = np.ones(300 << 20, dtype=np.uint8)
    code, peak_mb = cli_peak_rss(["crossover", "--Q", "4..6", "--k", "3", "--points", "4",
                                  "--out", str(tmp_path / "a.csv")], child_env())
    del touched
    assert code == EXIT_OK
    assert peak_mb < 128


def test_constant_peak_is_near_a_child_without_eigensolve(tmp_path):
    # crossover imports the same modules and solves nothing; the Lanczos start
    # draws no numpy.random, whose import alone loads OpenSSL's libcrypto
    # (about 6 MB).  On a 2-core VM the gap read 9.7 MB with a numpy.random
    # start and 3.2 MB without; comparing two children keeps the test free
    # of the machine's baseline
    code, constant_mb = cli_peak_rss(["constant", "--Q", "8,16", "--N", "8192", "--k", "3",
                                      "--out", str(tmp_path / "a.csv")], child_env())
    assert code == EXIT_OK
    code, crossover_mb = cli_peak_rss(["crossover", "--Q", "4..6", "--k", "3", "--points", "4",
                                       "--out", str(tmp_path / "b.csv")], child_env())
    assert code == EXIT_OK
    assert constant_mb - crossover_mb < 5.0, (constant_mb, crossover_mb)


def test_lemma1_peak_is_near_a_child_without_quadform(tmp_path):
    # lemma1 evaluates one draw-sized chunk at a time, by one FFT per modulus:
    # on a 2-core VM this cell peaked 3.2 MB above the crossover child, and
    # about 150 MB above it when all 100 vectors went through phase matrices
    code, lemma1_mb = cli_peak_rss(["lemma1", "--Q", "16", "--N", "4096", "--k", "3",
                                    "--out", str(tmp_path / "a.csv")], child_env())
    assert code == EXIT_OK
    code, crossover_mb = cli_peak_rss(["crossover", "--Q", "4..6", "--k", "3", "--points", "4",
                                       "--out", str(tmp_path / "b.csv")], child_env())
    assert code == EXIT_OK
    assert lemma1_mb - crossover_mb < 5.0, (lemma1_mb, crossover_mb)


def test_weyl_peak_is_near_a_child_without_sums(tmp_path):
    # the Weyl tables run in passes of kernels.ROW_BLOCK_TERMS terms and the
    # records are written as they are formatted: on a 2-core VM the gap read
    # about 6.1 MB with 2^16-term passes and a whole-text copy of the output,
    # and about 2.0 MB without
    code, weyl_mb = cli_peak_rss(["weyl", "--Q", "64,256,1024", "--k", "2,3", "--samples",
                                  "2000", "--out", str(tmp_path / "a.csv")], child_env())
    assert code == EXIT_OK
    code, crossover_mb = cli_peak_rss(["crossover", "--Q", "4..6", "--k", "3", "--points", "4",
                                       "--out", str(tmp_path / "b.csv")], child_env())
    assert code == EXIT_OK
    assert weyl_mb - crossover_mb < 3.5, (weyl_mb, crossover_mb)


def test_majorant_builds_no_point(tmp_path):
    # 16.1 million points, just under the point budget: building them took
    # about 390 MB, while the centres need only the per-base counts
    code, peak_mb = cli_peak_rss(["majorant", "--Q", "430", "--k", "2", "--samples", "2",
                                  "--out", str(tmp_path / "a.csv")], child_env())
    assert code == EXIT_OK
    assert peak_mb < 256
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 3

    # one base more is above the budget, counted without building a point
    code, text, elapsed = run_limited(["majorant", "--Q", "440", "--k", "2"], tmp_path)
    assert code == EXIT_CAPACITY, text
    assert elapsed < 5.0
    assert "above the budget" in text


def test_majorant_at_the_point_budget_in_time_and_memory(tmp_path):
    # up to 1.2e8 transform terms a sample; in closed form, three sines per
    # modulus whatever the term count, the run takes about 0.35 s on a 2-core
    # VM, against 3.0 to 3.7 s with one cosine per residue class (at most
    # r^k <= 430^2 per modulus) and 9.7 to 10.5 s with one cosine per term
    code, text, elapsed = run_limited(["majorant", "--Q", "430", "--k", "2", "--samples", "42"],
                                tmp_path)
    assert code == EXIT_OK, text
    assert elapsed < 2.0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 42
    assert all(row["ok"] == "true" and row["status"] == "ok" for row in rows)


def test_constant_needs_no_points(tmp_path):
    # the same system as above: the closed-form kernel reads only its 99 bases
    code, text, elapsed = run_limited(["constant", "--Q", "100", "--N", "16", "--k", "4"],
                                      tmp_path)
    assert code == EXIT_OK, text
    assert elapsed < 5.0
    header, row = text.splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["status"] == "ok"
    assert int(rec["size"]) == sum(totient(q) * q ** 3 for q in range(2, 101))


def test_eigensolve_budget_exit_code(tmp_path):
    # two points, but N = 10^8 would need a 6.4 GB Lanczos basis
    code, text, elapsed = run_limited(["constant", "--Q", "2", "--N", "100000000",
                                       "--k", "2", "--format", "json"], tmp_path)
    assert code == EXIT_CAPACITY, text
    assert elapsed < 5.0
    (rec,) = json.loads(text)
    assert rec["status"] == "capacity-error"
    assert "above the budget of 2147483648" in rec["detail"]


def test_weyl_term_budget_exit_code(tmp_path):
    # Q = 4e7 terms would need a 610 MiB complex array for the first Weyl sum
    code, text, elapsed = run_limited(["weyl", "--Q", "40000000", "--k", "2",
                                       "--samples", "1"], tmp_path)
    assert code == EXIT_CAPACITY, text
    assert elapsed < 5.0
    assert "capacity error" in text
    assert "above the budget of 4194304" in text


def test_constant_oracle_over_point_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(farey, "POINT_BUDGET", 1)  # the system has 2 points
    code, raw = run_cli(["constant", "--oracle", "--Q", "2", "--N", "4", "--k", "2",
                         "--format", "json"], tmp_path, "a.json")
    assert code == EXIT_CAPACITY
    (rec,) = json.loads(raw)
    assert rec["status"] == "capacity-error"
    assert "above the budget of 1" in rec["detail"]
    assert rec["size"] == 2 and rec["measured"] > 0 and rec["iterations"] >= 0
    assert rec["bound_ls_a"] == 20.0 and rec["ratio_ls_a"] == rec["measured"] / 20.0
    assert rec["oracle_kernel_abs_err"] is None


def test_eigensolver_exit_code(tmp_path):
    start = time.perf_counter()
    code, raw = run_cli(["constant", "--Q", "2", "--N", "16", "--k", "2",
                         "--rel-tol", "1e-300"], tmp_path, "a.csv")
    assert code == EXIT_EIGENSOLVER
    assert b"eigensolver-error" in raw
    assert time.perf_counter() - start < 5.0


def test_error_status_is_the_row_status(tmp_path):
    code, raw = run_cli(["constant", "--Q", "2,70000", "--N", "16", "--k", "2",
                         "--rel-tol", "1e-300"], tmp_path, "a.csv")
    statuses = [rec["status"] for rec in csv.DictReader(io.StringIO(raw.decode()))]
    assert statuses == [EigensolverError.status, CapacityError.status]
    assert statuses == ["eigensolver-error", "capacity-error"]


def test_capacity_outranks_eigensolver(tmp_path):
    code, raw = run_cli(["constant", "--Q", "2,70000", "--N", "16", "--k", "2",
                         "--rel-tol", "1e-300", "--format", "json"], tmp_path, "a.json")
    assert code == EXIT_CAPACITY
    assert [r["status"] for r in json.loads(raw)] == ["eigensolver-error", "capacity-error"]


def test_verification_failure_outranks_capacity(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "dense_lambda_max", lambda kern: 0.0)
    code, raw = run_cli(["constant", "--oracle", "--Q", "2,70000", "--N", "4", "--k", "2",
                         "--format", "json"], tmp_path, "a.json")
    assert code == EXIT_VERIFICATION
    rows = json.loads(raw)
    assert [(r["status"], r["detail"]) for r in rows][0] == ("verification-failure",
                                                             "oracle mismatch")
    assert rows[1]["status"] == "capacity-error"


def strict_json(raw: bytes):
    """json.loads refusing Infinity and NaN, which RFC 8259 JSON does not allow."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(raw, parse_constant=refuse)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, code", [
    ("crossover --Q 100000 --k 40 --points 3", EXIT_CAPACITY),  # 10^400
    ("crossover --Q 10 --k 160 --points 3", EXIT_CAPACITY),     # 10^320
    ("crossover --Q 10 --k 154 --points 3", EXIT_CAPACITY),     # ls_b = Q*N = 10^309
    ("crossover --Q 10 --k 153 --points 3", EXIT_OK),           # Q*N = 10^307 still fits
    ("weyl --Q 256 --k 200 --samples 1", EXIT_CAPACITY),        # 256^200 = 2^1600
    ("fit --Q 10 --theta 400", EXIT_CAPACITY),                  # N = 10^400
    ("weyl --Q 4 --k 2 --samples 1 --eps 1000", EXIT_CAPACITY),  # Q^(1+eps) = 4^1001
    ("crossover --normalization literal --eps 300", EXIT_CAPACITY),  # (N*Q)^eps
    # (N + Q^4) * (N*Q)^eps in conjecture and delta: the product, not a power
    ("constant --Q 8 --N 4096 --k 3 --eps 68", EXIT_CAPACITY),
    # Q^(1+eps) fits, the bound Q^(1+eps) * (...)^delta does not
    ("weyl --Q 4 --k 2 --eps 510.9 --samples 2", EXIT_CAPACITY),
    pytest.param(f"crossover --Q {10 ** 50} --k 3 --points 3", EXIT_CAPACITY,
                 id="crossover --Q 10^50 --k 3 --points 3-4"),  # ls_b = Q*N = 10^350
    pytest.param(f"crossover --Q {10 ** 400} --k 3", EXIT_CAPACITY,
                 id="crossover --Q 10^400 --k 3-4"),  # Q itself
])
def test_float_range_exit_code(args, code, tmp_path, capsys):
    got, raw = run_cli([*args.split(), "--format", "json"], tmp_path)
    assert got == code
    records = strict_json(raw) if raw else []
    err = capsys.readouterr().err
    if code == EXIT_CAPACITY:
        # constant keeps its cell as a capacity-error row; the other commands
        # end with no records
        details = [r["detail"] for r in records if r["status"] == "capacity-error"]
        assert details if args.startswith("constant") else raw == b""
        assert "above the float range" in err + "".join(details)
    else:
        assert records and "capacity error" not in err


def test_constant_bound_above_the_float_range_is_a_row(tmp_path):
    # (N*Q)^eps = 16^400 in the conjecture and delta bounds
    code, raw = run_cli("constant --Q 4 --N 4 --k 2 --eps 400 --format json".split(),
                        tmp_path)
    assert code == EXIT_CAPACITY
    (rec,) = json.loads(raw)
    assert rec["status"] == "capacity-error"
    assert rec["measured"] == pytest.approx(20.0, rel=1e-14)
    assert "above the float range" in rec["detail"]
    # the first shape that overflows names the error; the others still fit
    assert rec["detail"].startswith("bound conjecture at Q = 4, N = 4, k = 2, eps = 400.0 ")
    assert rec["bound_ls_a"] == 260.0 and rec["ratio_ls_a"] == rec["measured"] / 260
    for name in SHAPE_NAMES:
        empty = name in ("conjecture", "delta")
        assert (rec[f"bound_{name}"] is None) == empty, name
        assert (rec[f"ratio_{name}"] is None) == empty, name


def test_weyl_checks_every_row_before_summing(tmp_path, capsys, monkeypatch):
    # the 100 rational alphas come first and fit; the first float alpha needs
    # (2Q)^3 = 2^57 on the float path.  A row-by-row table met that only after
    # the rational rows' sums; the checks now run before any sum.
    def no_sums(*args):
        raise AssertionError("a Weyl sum ran before the rows were checked")

    monkeypatch.setattr(kernels, "weyl_rational", no_sums)
    monkeypatch.setattr(kernels, "weyl_float", no_sums)
    code, raw = run_cli("weyl --Q 262144 --k 3 --samples 1".split(), tmp_path)
    assert code == EXIT_CAPACITY and raw == b""
    err = capsys.readouterr().err
    assert "capacity error" in err and "exceeds the float-path width" in err


@pytest.mark.parametrize("args", [
    "constant --rel-tol nan",                    # ran every cell to the product cap
    "constant --Q 2 --N 16 --k 2 --rel-tol inf",  # certified a wrong value
    "constant --eps nan",                        # NaN bounds with status ok
    "weyl --eps nan",
    "crossover --eps nan",
    "fit --theta nan",                           # ValueError traceback
    "fit --theta inf",
])
def test_non_finite_float_options_exit_2(args, tmp_path):
    code, text, elapsed = run_limited(args.split(), tmp_path)
    assert code == EXIT_INVALID_CONFIG and "invalid config" in text
    assert elapsed < 5


@pytest.mark.parametrize("args, out, message", [
    ("lemma1 --seed -1", "a.csv", "seed must be >= 0"),     # ValueError in the draw
    ("lemma1 --seed 18446744073709551616", "a.csv", "seed must be >= 0 and < 2^64"),
    ("majorant --seed -1", "a.csv", "seed must be >= 0"),
    ("weyl --seed -1", "a.csv", "seed must be >= 0"),
    ("constant --seed -1", "a.csv", "seed must be >= 0"),   # echoed the bad seed
    ("constant", "missing/a.csv", "out must be"),          # failed after the run
    ("constant", ".", "out must be"),                      # a directory
])
def test_bad_seed_or_out_exits_2_before_running(args, out, message, tmp_path):
    code, text, elapsed = run_limited(args.split(), tmp_path, tmp_path / out)
    assert code == EXIT_INVALID_CONFIG, text
    assert "invalid config" in text and message in text and "Traceback" not in text
    assert elapsed < 5.0
    assert not any(tmp_path.iterdir())


def test_range_cap_exit_code(tmp_path):
    # a billion-value range would be built as a set of 10^9 ints
    code, text, elapsed = run_limited(["constant", "--Q", "1..1000000000", "--N", "4",
                                       "--k", "2"], tmp_path)
    assert code == EXIT_INVALID_CONFIG, text
    assert elapsed < 5.0
    assert f"more than {cli.RUN_CAP} values" in text


def test_range_cap_boundary():
    # a range of more than RUN_CAP values could never pass the run-size cap
    assert cli.parse_int_values(f"1..{cli.RUN_CAP}", "Q") == tuple(range(1, cli.RUN_CAP + 1))
    with pytest.raises(cli.ConfigError, match=f"more than {cli.RUN_CAP} values"):
        cli.parse_int_values(f"0..{cli.RUN_CAP}", "Q")


def config_of(argv):
    return cli.build_config(cli.build_parser().parse_args(argv))


RUN_SIZE_MESSAGE = f"is above {cli.RUN_CAP}"
RUN_CAP_CASES = [
    # 4.3e9 cells, but each range alone is already longer than the cap
    ("constant --Q 1..65536 --N 1..65536 --k 2", f"has more than {cli.RUN_CAP} values"),
    ("constant --Q 1..200 --N 1..200 --k 2", RUN_SIZE_MESSAGE),  # 40000 cells
    ("crossover --Q 4 --k 3 --points 1000000000", RUN_SIZE_MESSAGE),
    ("weyl --Q 4 --k 2 --samples 100000000", RUN_SIZE_MESSAGE),
    ("majorant --Q 2 --k 2 --samples 100000000", RUN_SIZE_MESSAGE),
    ("lemma1 --Q 2 --N 4 --k 2 --vectors 1000000000", RUN_SIZE_MESSAGE),
]


@pytest.mark.parametrize("args, message", [pytest.param(*case, id=case[0])
                                           for case in RUN_CAP_CASES])
def test_run_cap_exit_code(args, message, tmp_path):
    code, text, elapsed = run_limited(args.split(), tmp_path)
    assert code == EXIT_INVALID_CONFIG, text
    assert elapsed < 5.0
    assert message in text


def test_run_cap_boundary():
    # the largest run the benchmark makes: 3 * 2 * 2000 = 12000
    assert config_of(["weyl", "--Q", "64,256,1024", "--k", "2,3", "--samples", "2000"])
    base = ["lemma1", "--Q", "2", "--N", "4,16", "--k", "2"]
    assert config_of(base + ["--vectors", str(cli.RUN_CAP // 2)]).vectors == cli.RUN_CAP // 2
    with pytest.raises(cli.ConfigError, match=f"run size {cli.RUN_CAP + 2} "):
        config_of(base + ["--vectors", str(cli.RUN_CAP // 2 + 1)])


@pytest.mark.parametrize("args", [
    "constant --Q 2 --N 4 --k 10000000000",   # 2^(k-1) and q^k as exact ints
    "weyl --Q 1 --k 100000000 --samples 1",   # weyl_rational loops k times
])
def test_k_cap_exit_code(args, tmp_path):
    code, text, elapsed = run_limited(args.split(), tmp_path)
    assert code == EXIT_INVALID_CONFIG, text
    assert elapsed < 5.0
    assert f"k values must be <= {cli.K_CAP}" in text


def test_k_cap_boundary():
    assert cli.K_CAP == 1024
    assert config_of(["constant", "--k", "2,1024"]).k == (2, 1024)
    with pytest.raises(cli.ConfigError, match="k values must be <= 1024"):
        config_of(["constant", "--k", "2,1025"])


def test_lemma1_refuses_the_pair_budget_before_building_points(tmp_path):
    # 15,244,946 points (244 MB of int64), far above the pair budget: the
    # refusal needs only the size counted from the bases
    out = tmp_path / "a.json"
    code, peak_mb = cli_peak_rss(["lemma1", "--Q", "100", "--N", "4", "--k", "3",
                                  "--format", "json", "--out", str(out)], child_env())
    assert code == EXIT_CAPACITY
    assert peak_mb < 128
    (rec,) = json.loads(out.read_text())
    assert rec["status"] == "capacity-error" and rec["size"] == 15244946
    assert rec["detail"] == (f"counting scan has {15244946 ** 2} point pairs, "
                             f"above the budget of {farey.PAIR_BUDGET}")


def test_pair_budget_exit_code(tmp_path):
    # 394856 points: the quadratic counting scan would take about an hour
    code, text, elapsed = run_limited(["lemma1", "--Q", "40", "--N", "4", "--k", "3",
                                       "--format", "json"], tmp_path)
    assert code == EXIT_CAPACITY, text
    assert elapsed < 5.0
    (rec,) = json.loads(text)
    assert rec["status"] == "capacity-error" and rec["size"] == 394856
    assert "point pairs, above the budget" in rec["detail"]


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
    # a typo in a switch is invalid, not False, which would drop the oracle
    cfg.write_text("oracle = ture\n")
    assert cli.main(["constant", "--config", str(cfg)]) == EXIT_INVALID_CONFIG


def test_config_boolean_words(tmp_path):
    # exactly these words, in any case; any other is invalid
    cfg = tmp_path / "lab.cfg"
    args = cli.build_parser().parse_args(["constant", "--config", str(cfg)])
    for word, oracle in [("1", True), ("TRUE", True), (" yes ", True), ("On", True),
                         ("0", False), ("false", False), ("NO", False), ("off", False)]:
        cfg.write_text(f"oracle = {word}\n")
        assert cli.build_config(args).oracle is oracle, word
    for typo in ("ture", "2", "y", ""):
        cfg.write_text(f"oracle = {typo}\n")
        with pytest.raises(cli.ConfigError, match="not a boolean"):
            cli.build_config(args)


# The options each command reads besides --format, --out and --config, and a
# valid value for every option (None for a switch).
OWN_FLAGS = {
    "constant": "Q N k mode eps rel-tol seed oracle",
    "lemma1": "Q N k mode seed vectors",
    "weyl": "Q k eps seed samples",
    "majorant": "Q k mode seed samples",
    "crossover": "Q k eps normalization points",
    "fit": "Q k mode rel-tol theta",
}
FLAG_VALUES = {"Q": "2", "N": "4", "k": "2", "mode": "dyadic", "eps": "0.1",
               "rel-tol": "1e-7", "seed": "3", "oracle": None, "normalization": "literal",
               "theta": "1.5", "points": "5", "vectors": "3", "samples": "3"}


def flag_argv(flag):
    value = FLAG_VALUES[flag]
    return [f"--{flag}"] + ([] if value is None else [value])


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_each_command_takes_only_its_own_flags(command, tmp_path, capsys):
    own = OWN_FLAGS[command].split()
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("")
    args = cli.build_parser().parse_args(
        [command, *(arg for flag in own for arg in flag_argv(flag)),
         "--format", "json", "--out", "x.json", "--config", str(cfg_file)])
    cfg = cli.build_config(args)
    assert set(vars(cfg)) == ({"command", "format", "out"}
                              | {flag.replace("-", "_") for flag in own})
    assert cfg.Q == (2,) and cfg.format == "json" and cfg.out == "x.json"
    for flag in sorted(set(FLAG_VALUES) - set(own)):
        with pytest.raises(SystemExit) as info:
            cli.main([command, *flag_argv(flag)])
        assert info.value.code == 2, flag
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_config_keys_of_other_commands_are_ignored(tmp_path, monkeypatch):
    args = ["constant", "--Q", "2", "--N", "4", "--k", "2"]
    code, plain = run_cli(args, tmp_path, "a.csv")
    assert code == EXIT_OK
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("vectors = 5\ntheta = 3\npoints = 1\n")
    monkeypatch.setenv("SIEVE_LAB_CONFIG", str(env_cfg))
    code, with_env = run_cli(args, tmp_path, "b.csv")
    assert code == EXIT_OK and with_env == plain
    # the command that reads points still validates it
    assert cli.main(["crossover"]) == EXIT_INVALID_CONFIG


def test_readme_synopsis_lists_each_commands_flags(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    synopsis = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
                for line in block.splitlines() if line.startswith("sieve-lab ")}
    assert sorted(synopsis) == sorted(cli.COMMANDS)
    for command, flags in synopsis.items():
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        accepted = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert flags == accepted, command


def _readme_int(text):
    base, _, exp = text.partition("^")
    return int(base) ** int(exp or 1)


def test_readme_exit_codes_list_each_cap():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nExit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    parts = re.split(r"^- `(\d)`", block, flags=re.M)
    assert parts[0] == "" and parts[1::2] == ["0", "2", "3", "4", "5"]
    bullets = dict(zip(parts[1::2], parts[2::2]))
    caps = {"2": [(cli, "K_CAP"), (cli, "RUN_CAP")],
            "4": [(farey, "MODULUS_CAP"), (farey, "POINT_BUDGET"), (farey, "PAIR_BUDGET"),
                  (sieve, "EIGEN_BUDGET_BYTES"), (expsums, "TERM_BUDGET")]}
    for code, names in caps.items():
        subs = bullets[code].split("\n  - ")[1:]
        seen = set()
        for module, name in names:
            qualified = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            hits = [(i, m) for i, sub in enumerate(subs)
                    for m in re.finditer(rf"`{re.escape(qualified)} = ([0-9^]+)`", sub)]
            assert len(hits) == 1, (code, qualified)
            (i, match), = hits
            assert _readme_int(match.group(1)) == getattr(module, name), qualified
            assert i not in seen, (code, qualified)  # one sub-bullet per cap
            seen.add(i)
    assert f"{sys.float_info.max:.2g}" == "1.8e+308"
    assert [sub for sub in bullets["4"].split("\n  - ")
            if "float range (about `1.8e308`)" in sub], "no float-range sub-bullet"


def test_lemma1_runs_clean(tmp_path, capsys):
    args = ["lemma1", "--Q", "1..2", "--N", "4,16", "--k", "2,3",
            "--mode", "dyadic", "--vectors", "20"]
    code, raw = run_cli(args, tmp_path, "a.csv")
    assert code == EXIT_OK
    assert b"violations" in raw and b"verification-failure" not in raw


@pytest.mark.parametrize("block, draw", [
    pytest.param(None, None, id="None"),
    pytest.param(448, None, id="448"),
    pytest.param(448, 40, id="448-draw40"),
])
def test_lemma1_matches_per_vector_reference(tmp_path, monkeypatch, block, draw):
    """The lemma1 cells hand kernels.quadform the stream's draws, in order
    and in chunks of at most max(1, DRAW_ELEMENTS // N) vectors, and give the
    same max_ratio and violations as a loop of single sigma_exact calls on
    vectors from the Python-int stream: entry n of vector j is Gaussian pair
    j N + n under the key (2, k, Q, N, mode).  Block 448 splits quadform's
    FFTs of a 25-vector chunk into steps of 448 // q^k rows; draw 40 makes
    chunks of 2 vectors at N=16 and of 1 at N=64, whose vectors are drawn in
    sub-blocks of 40 entries, so a wrong word offset between sub-blocks
    changes the draws."""
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", block)
    if draw is not None:
        monkeypatch.setattr(cli, "DRAW_ELEMENTS", draw)
    quadform = kernels.quadform
    calls = []

    def recording(nums, mods, m_offs, vs):
        assert vs.shape[0] <= max(1, cli.DRAW_ELEMENTS // vs.shape[1])
        calls.append((nums, mods, vs.copy()))
        return quadform(nums, mods, m_offs, vs)

    seed, vectors = 5, 25
    for mode_idx, mode in enumerate(("full", "dyadic")):
        calls.clear()
        args = ["lemma1", "--Q", "1..3", "--N", "16,64", "--k", "2,3", "--mode", mode,
                "--vectors", str(vectors), "--seed", str(seed), "--format", "json"]
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "quadform", recording)
            code, raw = run_cli(args, tmp_path, f"{mode}.json")
        assert code == EXIT_OK
        # each cell's draws, keyed by its system's points and N
        seen = {}
        for nums, mods, vs in calls:
            key = (nums.tobytes(), mods.tobytes(), vs.shape[1])
            seen.setdefault(key, []).extend(vs)
        rows = json.loads(raw)
        assert len(rows) == 12
        for row in rows:
            k, Q, N = row["k"], row["Q"], row["N"]
            system = enumerate_system(Q, k, mode)
            if system.size == 0:
                assert row["max_ratio"] == 0.0 and row["violations"] == 0
                continue
            rhs_unit = counting_rhs(system, N)
            pairs = keyed_gaussian_pairs(seed, (2, k, Q, N, mode_idx), 0, vectors * N)
            batched = seen.pop((system.numerators.tobytes(), system.moduli.tobytes(), N))
            assert len(batched) == vectors
            max_ratio, violations = 0.0, 0
            for j, got_v in enumerate(batched):
                v = np.array([complex(*pair) for pair in pairs[j * N:(j + 1) * N]])
                np.testing.assert_allclose(got_v, v, rtol=1e-14, atol=0)
                lhs = sigma_exact(system, v)
                rhs = rhs_unit * float(np.sum(v.real ** 2 + v.imag ** 2))
                max_ratio = max(max_ratio, lhs / rhs)
                violations += lhs > rhs * (1.0 + cli.REL_SLACK)
            assert row["max_ratio"] == pytest.approx(max_ratio, rel=1e-12)
            assert row["violations"] == violations
        assert not seen


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


def test_entry_point_subprocess(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "sieve_lab.cli", "constant", "--Q", "2", "--N", "4",
         "--k", "2", "--out", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert out.read_text().startswith("schema,")


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it would add to every CLI
    # start-up time and resident memory
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sieve_lab; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
