import ast
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import run_json

import legdet
from legdet import charsums, harness
from legdet.cli import main as cli_main
from legdet.exactla import det_exact
from legdet.harness import (
    CHECK_IDS,
    CheckResult,
    PrimeWork,
    RunConfig,
    _check_product,
    applicable_primes,
    code_version,
    default_d_list,
    default_pmax,
    primes_between,
    revalidate,
    run,
    run_check,
)
from legdet.matrices import squares_matrix, squares_star_matrix
from legdet.ntcore import PrimeCtx


def test_primes_between():
    assert primes_between(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert applicable_primes("theorem-a", 30) == [5, 13, 17, 29]
    assert applicable_primes("conjecture-a", 30) == [3, 7, 11, 19, 23]
    assert applicable_primes("carlitz", 12) == [3, 5, 7, 11]
    mod1, mod3, odd = [5, 13], [3, 7, 11], [3, 5, 7, 11, 13]
    registry = {
        "theorem-a": (200, mod1),
        "corollary-a": (200, mod1),
        "conjecture-a": (200, mod3),
        "lemma-sign": (2000, mod1),
        "eigen": (200, mod1),
        "product": (200, mod1),
        "jacobsthal": (2000, mod1),
        "row-identity": (2000, mod1),
        "carlitz": (47, odd),
        "chapman": (200, odd),
        "chapman-star": (200, odd),
        "sun-zero": (200, mod1),
        "sun-qr": (200, mod1),
    }
    assert tuple(registry) == CHECK_IDS
    for check_id, (pmax, primes) in registry.items():
        assert default_pmax(check_id) == pmax, check_id
        assert applicable_primes(check_id, 13) == primes, check_id


def test_default_d_list_deterministic():
    d1 = default_d_list(13)
    d2 = default_d_list(13)
    assert d1 == d2
    for base in (1, 2, 3, 5, 12):
        assert base in d1
    assert all(0 <= d < 13 for d in d1)


def test_theorem_a_full_sweep_p13():
    results = run_check("theorem-a", 13, {"full_sweep": True})
    assert len(results) == 13
    assert all(r.status == "pass" for r in results)
    by_d = {r.params["d"]: r for r in results}
    assert by_d[2].witness["S"] == "0"        # (2/13) = -1 forces S = 0
    assert by_d[1].witness["S"] == "-27"
    assert by_d[1].witness["a"] == "-3"
    assert by_d[1].witness["root"] == "3"
    assert by_d[0].witness["S"] == "0"


def test_theorem_a_stream_small():
    code, results = run_json(checks=("theorem-a",), pmax=17, d_list=[1, 2])
    assert code == 0
    assert [(r["p"], r["params"]["d"]) for r in results] == [
        (5, 1), (5, 2), (13, 1), (13, 2), (17, 1), (17, 2)]
    assert all(r["status"] == "pass" for r in results)
    # S(1,p)/a and its square root, as the d = 1 row records them
    roots = {}
    for r in results[::2]:
        w = r["witness"]
        quotient, rem = divmod(int(w["eps"]) * int(w["S"]), int(w["a"]))
        assert rem == 0
        roots[r["p"]] = (quotient, int(w["root"]))
    assert roots == {5: (1, 1), 13: (9, 3), 17: (441, 21)}


def test_corollary_stream():
    code, results = run_json(checks=("corollary-a",), pmax=17)
    assert code == 0
    assert [r["p"] for r in results] == [5, 13, 17]
    assert all(r["status"] == "pass" for r in results)
    assert results[2]["witness"]["Sstar"] == "-441"
    assert results[2]["witness"]["root"] == "21"


def test_conjecture_stream():
    code, results = run_json(checks=("conjecture-a",), pmax=11)
    assert code == 0
    assert [r["p"] for r in results] == [3, 7, 11]
    assert all(r["status"] == "pass" for r in results)
    assert results[0]["witness"]["S"] == "-1"


def test_background_stream_small():
    code, results = run_json(checks=("carlitz", "chapman", "chapman-star"), pmax=7)
    ids = [(r["check_id"], r["p"]) for r in results]
    assert ("carlitz", 5) in ids and ("chapman-star", 7) in ids
    # the Chapman closed forms genuinely fail at p = 3
    failures = {(r["check_id"], r["p"]) for r in results if r["status"] == "fail"}
    assert failures == {("chapman", 3), ("chapman-star", 3)}
    assert code == 1


def test_every_check_runs_on_a_small_prime():
    for check_id in CHECK_IDS:
        p = applicable_primes(check_id, 50)[0]
        results = run_check(check_id, p, {})
        assert results, check_id
        for r in results:
            assert r.check_id == check_id
            assert r.status in ("pass", "fail", "skipped")


def test_revalidate_pass_witnesses():
    sample = []
    sample += run_check("theorem-a", 13, {"d_list": [0, 1, 2, 4]})
    sample += run_check("corollary-a", 13, {})
    sample += run_check("conjecture-a", 7, {})
    sample += run_check("lemma-sign", 13, {})
    sample += run_check("eigen", 13, {})
    sample += run_check("product", 13, {})
    sample += run_check("jacobsthal", 13, {})
    sample += run_check("row-identity", 13, {})
    sample += run_check("carlitz", 7, {})
    sample += run_check("chapman", 13, {})
    sample += run_check("chapman-star", 11, {})
    sample += run_check("sun-zero", 13, {"d_list": [2]})
    sample += run_check("sun-qr", 13, {"d_list": [1, 3]})
    assert all(r.status == "pass" for r in sample)
    for r in sample:
        assert revalidate(r), r


def test_revalidate_catches_tampering():
    # one witness field per check, set to a value its re-validator must reject
    tampered = {
        "theorem-a": ("root", "4"),
        "corollary-a": ("root", "20"),
        "conjecture-a": ("root", "3"),
        "lemma-sign": ("mismatches", "1"),
        "eigen": ("vandermonde", "0"),
        "product": ("prod", "0"),
        "jacobsthal": ("sum", "1"),
        "row-identity": ("a", "1"),
        "carlitz": ("coeffs", "[0]"),
        "chapman": ("h", "2"),
        "chapman-star": ("uh", "0"),
        "sun-zero": ("S", "1"),
        "sun-qr": ("S", "11"),      # -11 = 2, a non-residue mod 13
    }
    assert tuple(tampered) == CHECK_IDS
    for check_id, (field, value) in tampered.items():
        p = 13 if 13 in applicable_primes(check_id, 13) else 7
        r = run_check(check_id, p, {"d_list": [1, 2]})[0]
        assert r.status == "pass" and revalidate(r), check_id
        assert field in r.witness and r.witness[field] != value, check_id
        bad = CheckResult(r.check_id, r.p, r.params, r.status, dict(r.witness, **{field: value}))
        assert not revalidate(bad), check_id


def test_run_exit_codes_and_text_output():
    out = io.StringIO()
    config = RunConfig(checks=("corollary-a",), pmax=17, fmt="text")
    assert run(config, out) == 0
    text = out.getvalue()
    assert "PASS  corollary-a" in text
    assert "failed: 0" in text
    # chapman at p = 3 is an honest failure, so the exit code is nonzero
    out = io.StringIO()
    assert run(RunConfig(checks=("chapman",), pmax=3, fmt="text"), out) == 1
    assert "FAIL" in out.getvalue()


def test_run_json_format():
    out = io.StringIO()
    run(RunConfig(checks=("jacobsthal",), pmax=20, fmt="json"), out)
    lines = [l for l in out.getvalue().splitlines() if not l.startswith("#")]
    records = [json.loads(l) for l in lines]
    assert [r["p"] for r in records] == [5, 13, 17]
    assert list(records[0]) == ["check_id", "p", "params", "status", "witness"]


def test_run_csv_format():
    out = io.StringIO()
    run(RunConfig(checks=("jacobsthal",), pmax=20, fmt="csv"), out)
    lines = [l for l in out.getvalue().splitlines() if l and not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["check_id", "p", "params", "status", "witness"]
    assert rows[1][0] == "jacobsthal" and rows[1][3] == "pass"
    assert json.loads(rows[1][4])["sum"] == "-1"


def test_cache_warm_run_is_identical_and_append_only(tmp_path):
    cache = tmp_path / "results.jsonl"
    config = RunConfig(
        checks=("corollary-a", "jacobsthal"), pmax=17, fmt="json", cache_path=str(cache)
    )
    out1 = io.StringIO()
    assert run(config, out1) == 0
    size_after_first = cache.stat().st_size
    lines_after_first = cache.read_text().count("\n")
    out2 = io.StringIO()
    assert run(config, out2) == 0
    assert out1.getvalue() == out2.getvalue()
    assert cache.stat().st_size == size_after_first  # warm run appends nothing
    assert cache.read_text().count("\n") == lines_after_first
    for line in cache.read_text().splitlines():
        rec = json.loads(line)
        assert rec["version"] == code_version()


def test_cache_distinguishes_parameters(tmp_path):
    cache = tmp_path / "results.jsonl"
    c1 = RunConfig(checks=("theorem-a",), pmax=5, fmt="json",
                   cache_path=str(cache), d_list=[1])
    c2 = RunConfig(checks=("theorem-a",), pmax=5, fmt="json",
                   cache_path=str(cache), d_list=[2])
    out1, out2 = io.StringIO(), io.StringIO()
    run(c1, out1)
    run(c2, out2)
    assert out1.getvalue() != out2.getvalue()
    assert cache.read_text().count("\n") == 2


def test_cache_covers_empty_result_tasks(tmp_path):
    # d=1 is a residue, so sun-zero yields no results; the task must still cache
    cache = tmp_path / "results.jsonl"
    config = RunConfig(checks=("sun-zero",), pmax=5, fmt="json",
                       cache_path=str(cache), d_list=[1])
    out = io.StringIO()
    run(config, out)
    assert cache.read_text().count("\n") == 1
    from legdet.harness import ResultCache

    warm = ResultCache(cache)
    key = [k for k in warm._records][0]
    assert warm.get(key) == []


DET_CHECKS = ("theorem-a", "corollary-a", "conjecture-a", "product", "sun-zero", "sun-qr")


def test_parallel_matches_serial():
    serial, parallel = io.StringIO(), io.StringIO()
    d_list = [1, 2, 3, 5, -1, 7, 10]
    run(RunConfig(checks=DET_CHECKS, pmax=61, fmt="json", jobs=1, d_list=d_list), serial)
    run(RunConfig(checks=DET_CHECKS, pmax=61, fmt="json", jobs=2, d_list=d_list), parallel)
    assert serial.getvalue() == parallel.getvalue()
    assert "sun-zero" in serial.getvalue() and "sun-qr" in serial.getvalue()


def test_run_starts_no_more_workers_than_primes(monkeypatch):
    forks = _counting(monkeypatch, os, "fork")
    serial, forked = io.StringIO(), io.StringIO()
    config = RunConfig(checks=("jacobsthal", "corollary-a"), pmax=13, fmt="json")
    run(config, serial)
    config.jobs = 64
    run(config, forked)                        # two primes: 5 and 13
    assert len(forks) == 2
    config.pmax = 5
    run(config, io.StringIO())                 # one prime: no worker at all
    assert len(forks) == 2
    assert forked.getvalue() == serial.getvalue()


def test_forked_csv_matches_serial(tmp_path):
    # real buffered files: a worker that flushed the inherited buffer on its
    # way out would write the CSV header a second time
    paths = {jobs: tmp_path / f"jobs{jobs}.csv" for jobs in (1, 2)}
    for jobs, path in paths.items():
        with path.open("w") as out:
            run(RunConfig(checks=("corollary-a", "jacobsthal"), pmax=61, fmt="csv",
                          jobs=jobs), out)
    assert paths[1].read_bytes() == paths[2].read_bytes()
    assert paths[1].read_text().count("check_id,p,params") == 1


def _eigen_crt_off_by_one_at_211(monkeypatch):
    orig = charsums.eigen_product
    monkeypatch.setattr(charsums, "eigen_product",
                        lambda ctx: orig(ctx) + (ctx.p == 211))


def test_forked_job_error_is_raised_after_every_worker_is_reaped(monkeypatch):
    _eigen_crt_off_by_one_at_211(monkeypatch)
    config = RunConfig(checks=("conjecture-a",), pmax=211, fmt="json", jobs=2)
    with pytest.raises(ArithmeticError, match=r"^S\(1,211\)"):
        run(config, io.StringIO())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dies_at_13(check_id, p, opts=None):
    if p == 13:
        os._exit(3)
    return run_check(check_id, p, opts)


def test_worker_that_dies_raises_child_process_error(monkeypatch):
    monkeypatch.setattr(harness, "run_check", _dies_at_13)
    assert threading.active_count() == 1        # so only a forked worker exits
    with pytest.raises(ChildProcessError, match="during the job of p = 13$"):
        run(RunConfig(checks=("jacobsthal",), pmax=29, jobs=2), io.StringIO())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_exits_2_on_a_forked_job_error(monkeypatch, capsys):
    _eigen_crt_off_by_one_at_211(monkeypatch)
    assert cli_main(["verify", "--what", "conjecture-a", "--pmax", "211",
                     "--jobs", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "S(1,211)" in captured.err


def test_cli_exits_2_when_a_worker_dies(monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_check", _dies_at_13)
    assert threading.active_count() == 1        # so only a forked worker exits
    assert cli_main(["verify", "--what", "jacobsthal", "--pmax", "29",
                     "--jobs", "2", "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith("during the job of p = 13")
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_without_fork_runs_serially(monkeypatch):
    config = RunConfig(checks=("jacobsthal", "corollary-a"), pmax=61, fmt="json")
    serial = io.StringIO()
    run(config, serial)
    monkeypatch.delattr(os, "fork")
    config.jobs = 2
    unforked = io.StringIO()
    run(config, unforked)
    assert unforked.getvalue() == serial.getvalue()


def test_run_beside_another_thread_runs_serially(monkeypatch):
    forks = _counting(monkeypatch, os, "fork")
    config = RunConfig(checks=("jacobsthal", "corollary-a"), pmax=61, fmt="json")
    serial, threaded = io.StringIO(), io.StringIO()
    run(config, serial)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        config.jobs = 2
        run(config, threaded)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []
    assert threaded.getvalue() == serial.getvalue()


def test_cli_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        assert cli_main(["verify", "--what", "jacobsthal", "--pmax", "5",
                         "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err and captured.out == ""


def test_cli_rejects_precision_bits_below_53(capsys):
    # at 53 bits: chapman fails only at p = 3 (exit 1), the others pass
    for args, code_at_53 in ((["verify", "--what", "chapman", "--pmax", "13"], 1),
                             (["verify", "--what", "eigen", "--pmax", "101"], 0),
                             (["eigen", "--p", "13"], 0)):
        for bits in ("0", "4", "32", "52"):
            assert cli_main(args + ["--precision-bits", bits]) == 2, (args, bits)
            captured = capsys.readouterr()
            assert "--precision-bits" in captured.err and captured.out == ""
        assert cli_main(args + ["--precision-bits", "53"]) == code_at_53, args
        capsys.readouterr()


def test_run_rejects_precision_bits_below_53():
    # at 0 bits class_number cannot run; at 32 bits eigen's float residuals miss
    # their tolerance, which would read as failures of the identity
    for checks, pmax, bits in ((("chapman",), 13, 0), (("eigen",), 101, 32)):
        out = io.StringIO()
        with pytest.raises(ValueError, match=f"^precision_bits must be at least 53, not {bits}$"):
            run(RunConfig(checks=checks, pmax=pmax, precision_bits=bits), out)
        assert out.getvalue() == ""
    assert run(RunConfig(checks=("eigen",), pmax=13, precision_bits=53), io.StringIO()) == 0


def test_cache_skips_a_torn_last_line(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "corollary-a,jacobsthal", "--pmax", "17",
            "--format", "json"]
    assert cli_main(args) == 0
    uncached = capsys.readouterr().out
    assert cli_main(args + ["--cache", str(cache)]) == 0
    capsys.readouterr()
    first, second = cache.read_text().splitlines()[:2]
    cache.write_text(first + "\n" + second[: len(second) // 2])    # an interrupted write
    for _ in range(2):
        assert cli_main(args + ["--cache", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.out == uncached
    # the first re-run warned, and replaced the fragment with a whole line
    for line in cache.read_text().splitlines():
        json.loads(line)
    cache.write_text(first[:10] + "\n" + second + "\n")    # not the last line
    assert cli_main(args + ["--cache", str(cache)]) == 2


def test_torn_last_line_warns_on_stderr(tmp_path, capsys):
    from legdet.harness import ResultCache

    cache = tmp_path / "c.jsonl"
    cache.write_text('{"version": "x", "task"')
    ResultCache(cache)
    assert "torn last line" in capsys.readouterr().err


def test_interrupted_run_keeps_finished_primes(tmp_path, monkeypatch):
    from legdet import harness

    cache = tmp_path / "c.jsonl"
    config = RunConfig(checks=("corollary-a", "jacobsthal"), pmax=29, fmt="json",
                       cache_path=str(cache))

    def interrupted(check_id, p, opts=None):
        if p == 13:
            raise KeyboardInterrupt
        return run_check(check_id, p, opts)

    monkeypatch.setattr(harness, "run_check", interrupted)
    try:
        run(config, io.StringIO())
    except KeyboardInterrupt:
        pass
    monkeypatch.undo()
    # primes run largest first, each written as it finishes
    done = [json.loads(line)["task"].split("|")[:2] for line in cache.read_text().splitlines()]
    assert sorted(done) == sorted([c, str(p)] for c in config.checks for p in (17, 29))
    resumed, fresh = io.StringIO(), io.StringIO()
    assert run(config, resumed) == 0
    assert cache.read_text().count("\n") == 8
    run(RunConfig(checks=config.checks, pmax=29, fmt="json"), fresh)
    assert resumed.getvalue() == fresh.getvalue()


def test_cli_import_leaves_numpy_and_mpmath_unloaded():
    code = ("import sys, legdet.cli; "
            "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(legdet.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_exact_eigen_verify_leaves_numpy_unloaded():
    code = ("import sys; from legdet.charsums import eigen_verify; "
            "from legdet.ntcore import PrimeCtx; "
            "report = eigen_verify(PrimeCtx.for_prime(13)); "
            "print(report.mode, report.ok, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(legdet.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["exact", "True", "False"]


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the record."""
    calls = []
    orig = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_second_route_for_s1_is_eigen_crt_at_every_n(monkeypatch):
    assert not hasattr(harness, "det_exact") and not hasattr(harness, "BAREISS_NMAX")
    eigen = _counting(monkeypatch, charsums, "eigen_product")
    for count, p in enumerate((199, 211), 1):       # n = 99 and n = 105
        work = PrimeWork(p)
        assert work.det(1) == charsums.det_squares(work.ctx, 1)
        assert len(eigen) == count
        work.det(1)
        [result] = _check_product(work, {})
        assert result.status == "pass"
        assert len(eigen) == count                  # product reused it


def test_class_data_is_computed_once_per_prime(monkeypatch):
    from legdet import quadfield

    calls = _counting(monkeypatch, quadfield, "class_data")
    work = PrimeWork(13)
    for check_id in ("chapman", "chapman-star"):
        [result] = harness.CHECKS[check_id].worker(work, {})
        assert result.status == "pass"
    assert calls == [(13, 128)]


def test_s1_routes_that_disagree_raise(monkeypatch):
    orig = charsums.eigen_product
    monkeypatch.setattr(charsums, "eigen_product", lambda ctx: orig(ctx) + 1)
    with pytest.raises(ArithmeticError):
        PrimeWork(211).det(1)


def test_public_and_traced_names_resolve():
    # perfbench/tracer.py looks each traced function up by name; read, not import
    for name in legdet.__all__:
        assert hasattr(legdet, name), name
    tracer = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    traced = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED_FUNCTIONS")
    assert traced
    for mod_name, names in traced.items():
        mod = importlib.import_module(f"legdet.{mod_name}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod_name}.{name}"


def test_cli_det(capsys):
    assert cli_main(["det", "--matrix", "s", "--p", "13"]) == 0
    assert capsys.readouterr().out.strip() == "-27"
    assert cli_main(["det", "--matrix", "sstar", "--p", "13"]) == 0
    assert capsys.readouterr().out.strip() == "-9"
    assert cli_main(["det", "--matrix", "sstar", "--p", "17"]) == 0
    assert capsys.readouterr().out.strip() == "-441"
    for p in (7, 29, 43, 61):
        ctx = PrimeCtx.for_prime(p)
        for args, matrix in ((["s", "--d", "3"], squares_matrix(ctx, 3)),
                             (["sstar"], squares_star_matrix(ctx))):
            assert cli_main(["det", "--p", str(p), "--matrix", *args]) == 0
            assert capsys.readouterr().out.strip() == str(det_exact(matrix)), (p, args)
    assert cli_main(["det", "--matrix", "chapman", "--p", "13"]) == 0
    assert capsys.readouterr().out.strip() == "96*x - 32"
    assert cli_main(["det", "--matrix", "s", "--p", "13", "--d", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert cli_main(["det", "--matrix", "evil", "--p", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_eigen(capsys):
    assert cli_main(["eigen", "--p", "13", "--exact"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(rows) == 6
    assert rows[5]["lambda_exact"] == [-1]
    assert all(row["residual"] == 0 for row in rows)


def test_cli_verify(capsys):
    code = cli_main(
        ["verify", "--what", "jacobsthal,corollary-a", "--pmax", "17",
         "--format", "json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if not l.startswith("#")) == 6


def test_cli_verify_rejects_unknown_check(capsys):
    assert cli_main(["verify", "--what", "nope"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_cli_reports_contract_violations(capsys):
    assert cli_main(["eigen", "--p", "7"]) == 2        # needs p = 1 (mod 4)
    assert "error:" in capsys.readouterr().err
    assert cli_main(["det", "--matrix", "s", "--p", "15"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_with_cache(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    args = ["verify", "--what", "jacobsthal", "--pmax", "17",
            "--format", "json", "--cache", cache]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    assert capsys.readouterr().out == first
