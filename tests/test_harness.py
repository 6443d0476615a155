import csv
import functools
import io
import re
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from conftest import oracle_eigen_identity, run_json

import legdet
from legdet import charsums, exactla, harness
from legdet.cli import main as cli_main
from legdet.exactla import det_affine, det_exact, det_mod
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
from legdet.matrices import (carlitz_matrix, chapman_matrix, squares_matrix,
                             squares_star_matrix)
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
    results = run_check("theorem-a", 13, {"d_list": "all"})
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
        d_symbols = harness.CHECKS[check_id].d_symbols
        for r in results:
            assert r.check_id == check_id
            assert r.status in ("pass", "fail", "skipped")
            # what a cache load requires of a witness
            assert type(r.witness) is dict, check_id
            assert all(type(k) is str and type(v) is str for k, v in r.witness.items())
            if d_symbols is None:
                assert r.params is None, check_id
            else:
                assert list(r.params) == ["d"], check_id
                assert PrimeCtx.for_prime(p).legendre(r.params["d"]) in d_symbols


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


def test_revalidate_chapman_rejects_forged_expected():
    # coeffs and expected agree with each other but not with the closed form
    for check_id in ("chapman", "chapman-star"):
        for p in (7, 13):
            [r] = run_check(check_id, p)
            assert r.status == "pass" and revalidate(r), (check_id, p)
            forged = dict(r.witness, coeffs="[5]", expected="[5]")
            bad = CheckResult(r.check_id, r.p, r.params, r.status, forged)
            assert not revalidate(bad), (check_id, p)


def test_revalidate_rejects_witnesses_of_another_prime():
    # corollary-a's forged witness fits a = 1, but a = -3 at 13 and 5 at 29;
    # row-identity's fits every a, with a row count that is no prime's
    for p in (13, 29):
        [r] = run_check("corollary-a", p)
        assert r.status == "pass" and revalidate(r), p
        forged = {"Sstar": "-1", "S": "1", "a": "1", "root": "1"}
        assert not revalidate(CheckResult(r.check_id, p, None, r.status, forged)), p
        [r] = run_check("row-identity", p)
        assert r.status == "pass" and revalidate(r), p
        forged = dict(r.witness, j_count="999")
        assert not revalidate(CheckResult(r.check_id, p, None, r.status, forged)), p


def test_revalidate_row_identity_recomputes_rows_1_and_n(monkeypatch):
    # a witness that fits a forged decomposition is caught only by the direct
    # sums of rows j = 1 and j = n
    [r] = run_check("row-identity", 29)
    real = PrimeCtx.for_prime(29)
    forged = real._replace(decomp=real.decomp._replace(a=1))

    class ForgedCtx:
        for_prime = staticmethod(lambda p: forged)

    monkeypatch.setattr(harness, "PrimeCtx", ForgedCtx)
    assert not revalidate(CheckResult(r.check_id, 29, None, r.status, dict(r.witness, a="1")))
    assert not revalidate(r)            # a = 5 does not fit the forged decomposition


def test_revalidate_lemma_sign_checks_qr_count_and_every_sign(monkeypatch):
    [r] = run_check("lemma-sign", 29)
    assert r.status == "pass" and revalidate(r)
    assert not revalidate(CheckResult(r.check_id, 29, None, r.status,
                                      dict(r.witness, qr_count="7")))
    # a formula that is wrong at one square d is caught by the rotation sign
    real = harness.perm_sign_formula
    monkeypatch.setattr(harness, "perm_sign_formula",
                        lambda ctx, d: -real(ctx, d) if d % ctx.p == 7 else real(ctx, d))
    assert not revalidate(r)


def test_sign_workers_fail_where_the_rotation_sign_is_wrong(monkeypatch):
    [lemma] = run_check("lemma-sign", 29)
    [theorem] = run_check("theorem-a", 29, {"d_list": [7]})
    real = harness.perm_sign_rotation
    monkeypatch.setattr(harness, "perm_sign_rotation",
                        lambda ctx, d: -real(ctx, d) if d % ctx.p == 7 else real(ctx, d))
    [r] = run_check("lemma-sign", 29)
    assert r.status == "fail"
    assert r.witness["mismatches"] == "1" and r.witness["first_bad_d"] == "7"
    [r] = run_check("theorem-a", 29, {"d_list": [7]})
    assert r.status == "fail" and r.witness["sign"] == str(-int(theorem.witness["sign"]))
    # neither re-validator takes its sign from the rotation
    assert lemma.status == theorem.status == "pass"
    assert revalidate(lemma) and revalidate(theorem)


def test_run_check_rejects_a_prime_outside_the_class():
    for check_id in CHECK_IDS:
        cls4 = harness.CHECKS[check_id].cls4
        if cls4 is None:
            assert run_check(check_id, 7) and run_check(check_id, 13), check_id
            continue
        p = 7 if cls4 == 1 else 13
        with pytest.raises(ValueError, match=f"{check_id} covers primes p = {cls4} "):
            run_check(check_id, p)


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


def test_cache_ignores_a_line_of_another_code_version(tmp_path):
    # the 12-hex sha256 key that caches written before source_hash carry
    import hashlib

    pkg = Path(harness.__file__).parent
    digest = hashlib.sha256()
    for f in sorted(pkg.glob("*.py")):
        digest.update(f.name.encode())
        digest.update(f.read_bytes())
    forged = [r._replace(status="fail").to_record()
              for r in run_check("jacobsthal", 13)]
    cache = tmp_path / "results.jsonl"
    stale = json.dumps({"version": digest.hexdigest()[:12], "task": "jacobsthal|13|{}",
                        "results": forged}) + "\n"
    cache.write_text(stale)
    config = RunConfig(checks=("jacobsthal",), pmax=13, fmt="json")
    fresh, cached = io.StringIO(), io.StringIO()
    assert run(config, fresh) == 0
    assert run(RunConfig(checks=("jacobsthal",), pmax=13, fmt="json", cache_path=str(cache)),
               cached) == 0
    assert cached.getvalue() == fresh.getvalue()
    lines = cache.read_text().splitlines(keepends=True)
    assert lines[0] == stale and len(lines) == 3       # p = 5 and p = 13 appended
    assert {json.loads(line)["version"] for line in lines[1:]} == {code_version()}


def test_code_version_follows_every_source_byte(tmp_path, monkeypatch):
    pkg = tmp_path / "legdet"
    shutil.copytree(Path(harness.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    versions = [code_version()]
    monkeypatch.setattr(harness, "__file__", str(pkg / "harness.py"))
    assert code_version() == versions[0]
    module = pkg / "ntcore.py"
    source = bytearray(module.read_bytes())
    source[len(source) // 2] ^= 1
    module.write_bytes(source)
    versions.append(code_version())
    (pkg / "empty.py").touch()
    versions.append(code_version())
    assert len(set(versions)) == 3
    assert all(len(v) == 16 and set(v) <= set("0123456789abcdef") for v in versions)


def test_only_the_checks_that_read_d_key_their_cache_on_it(tmp_path):
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "jacobsthal,theorem-a", "--pmax", "29", "--cache", str(cache)]
    assert cli_main(args) == 0
    assert cache.read_text().count("\n") == 8             # two checks at 5, 13, 17, 29
    assert cli_main(args + ["--d", "2"]) == 0
    added = cache.read_text().splitlines()[8:]
    assert sorted(json.loads(line)["task"] for line in added) == [
        f'theorem-a|{p}|{{"d_list": [2]}}' for p in (13, 17, 29, 5)]


def test_d_all_reaches_sun_zero_and_sun_qr(capsys):
    args = ["verify", "--what", "sun-zero,sun-qr", "--pmax", "13", "--format", "json"]
    assert cli_main(args + ["--d", "all"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
    assert len(records) == 16
    for p in (5, 13):
        ctx = PrimeCtx.for_prime(p)
        for check_id, ld in (("sun-zero", -1), ("sun-qr", 1)):
            assert [r["params"]["d"] for r in records if (r["check_id"], r["p"]) == (check_id, p)
                    ] == [d for d in range(p) if ctx.legendre(d) == ld]
    assert all(r["status"] == "pass" for r in records)


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


@pytest.fixture
def fork_at_once(monkeypatch):
    """FORK_COST_S = 0 and 64 CPUs: a --jobs run forks before its first job,
    however little work it has and on a machine of any size, so the test
    exercises the forked workers."""
    monkeypatch.setattr(harness, "FORK_COST_S", 0)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 64)


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_matches_serial():
    serial, parallel = io.StringIO(), io.StringIO()
    d_list = [1, 2, 3, 5, -1, 7, 10]
    run(RunConfig(checks=DET_CHECKS, pmax=61, fmt="json", jobs=1, d_list=d_list), serial)
    run(RunConfig(checks=DET_CHECKS, pmax=61, fmt="json", jobs=2, d_list=d_list), parallel)
    assert serial.getvalue() == parallel.getvalue()
    assert "sun-zero" in serial.getvalue() and "sun-qr" in serial.getvalue()


@pytest.mark.usefixtures("fork_at_once")
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


def _forks_in_process(monkeypatch):
    """Replace harness._fork_jobs by a run of its jobs in this process that
    records how many jobs and workers it was given; return the record."""
    calls = []

    def fork_jobs(jobs, workers):
        calls.append((len(jobs), workers))
        return ((idx, harness._run_job(job)) for idx, job in enumerate(jobs))

    monkeypatch.setattr(harness, "_fork_jobs", fork_jobs)
    return calls


def test_run_starts_no_more_workers_than_cpus(monkeypatch):
    config = RunConfig(checks=("jacobsthal",), pmax=61, fmt="json")    # eight primes
    serial, capped = io.StringIO(), io.StringIO()
    run(config, serial)
    monkeypatch.setattr(harness, "FORK_COST_S", 0)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
    calls = _forks_in_process(monkeypatch)
    config.jobs = 5000
    run(config, capped)
    assert calls == [(8, 3)]
    assert capped.getvalue() == serial.getvalue()


@pytest.mark.usefixtures("fork_at_once")
def test_workers_run_fixed_strides_largest_first(tmp_path, monkeypatch):
    config = RunConfig(checks=("jacobsthal",), pmax=61, fmt="json")    # eight primes
    serial, forked = io.StringIO(), io.StringIO()
    run(config, serial)
    log = tmp_path / "jobs.log"

    def logged(check_id, p, opts=None):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {p}\n")
        return run_check(check_id, p, opts)

    monkeypatch.setattr(harness, "run_check", logged)
    config.jobs = 2
    run(config, forked)
    by_pid: dict[int, list[int]] = {}
    for line in log.read_text().splitlines():
        pid, p = map(int, line.split())
        by_pid.setdefault(pid, []).append(p)
    assert os.getpid() not in by_pid
    assert sorted(by_pid.values()) == [[53, 37, 17, 5], [61, 41, 29, 13]]
    assert forked.getvalue() == serial.getvalue()


def test_cpu_count_reads_the_affinity_mask_where_there_is_one(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert harness._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert harness._cpu_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)    # undetermined
    assert harness._cpu_count() == 1


def test_run_below_the_fork_cost_forks_nothing(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 64)
    forks = _counting(monkeypatch, os, "fork")
    config = RunConfig(checks=("jacobsthal",), pmax=29, fmt="json")
    serial, unforked, forked = io.StringIO(), io.StringIO(), io.StringIO()
    run(config, serial)
    config.jobs = 2
    run(config, unforked)
    assert forks == []
    monkeypatch.setattr(harness, "FORK_COST_S", 0)        # the same run forks at once
    run(config, forked)
    assert len(forks) == 2
    assert unforked.getvalue() == forked.getvalue() == serial.getvalue()


def test_run_forks_once_the_work_done_and_left_each_reach_the_fork_cost(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 64)
    monkeypatch.setattr(harness, "FORK_COST_S", 3)
    calls = _forks_in_process(monkeypatch)

    def output(config, cost) -> str:
        # the clock reads 0 at the start and k * cost before job k
        clock = itertools.chain([0], itertools.count(0, cost))
        monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        out = io.StringIO()
        run(config, out)
        return out.getvalue()

    for pmax, cost, forked in (
            (61, 1, [(5, 2)]),    # 8 jobs: before job 3, 3 spent and 5 jobs of 1 left
            (37, 1, []),          # 5 jobs: before job 3, 3 spent but 2 jobs of 1 left
            (17, 3, [(2, 2)]),    # 3 jobs: before job 1, 3 spent and 2 jobs of 3 left
            (13, 3, [])):         # 2 jobs: before job 1, 3 spent but 1 job left
        config = RunConfig(checks=("jacobsthal",), pmax=pmax, fmt="json")
        serial = output(config, cost)
        assert calls == []
        config.jobs = 2
        assert output(config, cost) == serial
        assert calls == forked, pmax
        calls.clear()


def test_error_in_the_serial_phase_is_raised_as_in_a_serial_run(monkeypatch):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 64)
    # a PrimeWork of its own, so the faulty eigen product it caches goes with it
    monkeypatch.setattr(harness, "prime_work", functools.lru_cache(maxsize=1)(PrimeWork))
    _eigen_crt_off_by_one_at_211(monkeypatch)
    forks = _counting(monkeypatch, os, "fork")
    errors = []
    for jobs in (1, 2):
        config = RunConfig(checks=("conjecture-a",), pmax=211, fmt="json", jobs=jobs)
        with pytest.raises(ArithmeticError, match=r"^S\(1,211\)") as info:
            run(config, io.StringIO())
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert forks == []


@pytest.mark.usefixtures("fork_at_once")
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


@pytest.mark.usefixtures("fork_at_once")
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


@pytest.mark.usefixtures("fork_at_once")
def test_worker_that_dies_raises_child_process_error(monkeypatch):
    monkeypatch.setattr(harness, "run_check", _dies_at_13)
    assert threading.active_count() == 1        # so only a forked worker exits
    with pytest.raises(ChildProcessError, match="during the job of p = 13$"):
        run(RunConfig(checks=("jacobsthal",), pmax=29, jobs=2), io.StringIO())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("fork_at_once")
def test_cli_exits_2_on_a_forked_job_error(monkeypatch, capsys):
    _eigen_crt_off_by_one_at_211(monkeypatch)
    assert cli_main(["verify", "--what", "conjecture-a", "--pmax", "211",
                     "--jobs", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "S(1,211)" in captured.err


@pytest.mark.usefixtures("fork_at_once")
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


@pytest.mark.usefixtures("fork_at_once")
def test_cli_exits_2_on_an_unusable_cache_path(tmp_path, capsys):
    # a directory fails when the cache is read, a path under a missing
    # directory when the first result is stored; both before any output
    for cache, fmt in ((tmp_path, "text"), (tmp_path / "missing" / "c.jsonl", "csv")):
        for jobs in ("1", "2"):
            assert cli_main(["verify", "--what", "jacobsthal", "--pmax", "29", "--format",
                             fmt, "--jobs", jobs, "--cache", str(cache)]) == 2, (cache, jobs)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: "), (cache, jobs)
            assert "Traceback" not in captured.err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("fork_at_once")
def test_run_without_fork_runs_serially(monkeypatch):
    config = RunConfig(checks=("jacobsthal", "corollary-a"), pmax=61, fmt="json")
    serial = io.StringIO()
    run(config, serial)
    monkeypatch.delattr(os, "fork")
    config.jobs = 2
    unforked = io.StringIO()
    run(config, unforked)
    assert unforked.getvalue() == serial.getvalue()


@pytest.mark.usefixtures("fork_at_once")
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


def test_cli_verify_has_no_precision_bits_option(capsys):
    # no check of verify reads a precision, so verify has no such option
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--what", "eigen", "--pmax", "13", "--precision-bits", "128"])
    assert exc.value.code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_every_cli_option_has_help(capsys):
    for command in ("verify", "det", "eigen"):
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        lines = capsys.readouterr().out.split("options:\n")[1].splitlines() + [""]
        for line, after in zip(lines, lines[1:]):
            # the help follows on the option's line, or indented on the next
            if line.startswith("  -"):
                assert "  " in line.strip() or after.startswith("   "), (command, line)
        if command == "det":
            assert "only --matrix s reads it" in " ".join(" ".join(lines).split())


def test_eigen_check_names_a_flipped_row(monkeypatch):
    orig = charsums.squares_matrix

    def flipped(ctx, d=1):
        m = orig(ctx, d)
        rows = [list(row) for row in m.entries]
        j = next(j for j, c in enumerate(rows[6]) if c)
        rows[6][j] = -rows[6][j]                            # row 7
        return m._replace(entries=tuple(map(tuple, rows)))

    monkeypatch.setattr(charsums, "squares_matrix", flipped)
    (r,) = run_check("eigen", 29)
    assert r.status == "fail"
    assert r.witness == {"rows": "14", "real": "1", "vandermonde": "1", "first_bad_row": "7"}
    # the cyclotomic oracle names the same row
    assert oracle_eigen_identity(29, flipped(PrimeCtx.for_prime(29)).entries) == (True, True, 7)


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


def test_cache_rejects_a_line_that_is_not_a_record(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "jacobsthal", "--pmax", "13", "--cache", str(cache)]
    assert cli_main(args) == 0
    capsys.readouterr()
    record = cache.read_text().splitlines()[0]
    # JSON that parses, so no torn write, whether it is the last line or not
    for bad in ("7", "[1,2]", "null", json.dumps({"version": code_version()})):
        for lines, lineno in (([bad], 1), ([record, bad, record], 2)):
            cache.write_text("\n".join(lines) + "\n")
            assert cli_main(args) == 2, (bad, lineno)
            captured = capsys.readouterr()
            assert captured.out == "", (bad, lineno)
            assert captured.err == f"error: {cache}: line {lineno} is not a cache record\n"


def test_cache_rejects_a_record_whose_results_are_not_results(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "jacobsthal", "--pmax", "13", "--cache", str(cache)]
    assert cli_main(args) == 0
    capsys.readouterr()
    first, second = cache.read_text().splitlines()
    for bad in (7, [7], [{"check_id": "jacobsthal"}], "results", {"p": 13}, [None]):
        for lines, lineno in (([second, first], 2), ([first, second], 1)):
            rec = json.loads(lines[lineno - 1])
            lines[lineno - 1] = json.dumps({**rec, "results": bad})
            cache.write_text("\n".join(lines) + "\n")
            assert cli_main(args) == 2, (bad, lineno)
            captured = capsys.readouterr()
            assert captured.out == "", (bad, lineno)
            assert captured.err == f"error: {cache}: line {lineno} is not a cache record\n"


@pytest.mark.parametrize("field, bads", [
    ("check_id", [7, None, ["jacobsthal"]]),
    ("p", ["13", 13.0, True, None]),
    ("status", ["maybe", "PASS", None, 1]),
    ("params", [7, [], "d"]),
    ("witness", [7, None, ["sum"], {"sum": 7}, {"sum": None}]),
])
def test_cache_rejects_a_result_field_of_the_wrong_value(tmp_path, capsys, field, bads):
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "jacobsthal", "--pmax", "13", "--cache", str(cache)]
    assert cli_main(args) == 0
    capsys.readouterr()
    first, second = cache.read_text().splitlines()
    for bad in bads:
        for lines, lineno in (([second, first], 2), ([first, second], 1)):
            rec = json.loads(lines[lineno - 1])
            rec["results"][0][field] = bad
            lines[lineno - 1] = json.dumps(rec)
            cache.write_text("\n".join(lines) + "\n")
            assert cli_main(args) == 2, (bad, lineno)
            captured = capsys.readouterr()
            assert captured.out == "", (bad, lineno)
            assert captured.err == f"error: {cache}: line {lineno} is not a cache record\n"


def test_cache_revalidates_every_cached_pass(tmp_path, capsys):
    # a forged pass, or one whose witness its re-validator cannot read,
    # exits 2 before any output
    cache = tmp_path / "c.jsonl"
    for what, p, old, new in (
        ("jacobsthal", 5, '"sum":"-1"', '"sum":"999"'),
        ("jacobsthal", 5, '"sum":"-1",', ""),
        ("jacobsthal", 13, '"sum":"3"', '"sum":"three"'),
        ("theorem-a", 5, '"p":5,"params":{"d":2}', '"p":5,"params":{"d":1}'),
    ):
        args = ["verify", "--what", what, "--pmax", "13", "--d", "1,2",
                "--cache", str(cache)]
        cache.unlink(missing_ok=True)
        assert cli_main(args) == 0
        honest = capsys.readouterr().out
        assert cli_main(args) == 0 and capsys.readouterr().out == honest
        text = cache.read_text()
        assert text.count(old) == 1, (what, old)
        cache.write_text(text.replace(old, new))
        assert cli_main(args) == 2, (what, new)
        captured = capsys.readouterr()
        assert captured.out == "", (what, new)
        assert captured.err == (f"error: {cache}: a cached pass of {what} at p = {p} "
                                "fails re-validation\n")


def test_cache_rejects_results_that_do_not_match_their_task(tmp_path, capsys):
    # true passes filed under another task, or a task's results cut short,
    # exit 2 before any output
    cache = tmp_path / "c.jsonl"
    for what, p, forge in (
        # p = 13's results on the line of p = 5
        ("jacobsthal", 5, lambda by_p: by_p[5].update(results=by_p[13]["results"])),
        # p = 13's line without its d = 2 result
        ("theorem-a", 13, lambda by_p: by_p[13].update(results=by_p[13]["results"][:1])),
    ):
        args = ["verify", "--what", what, "--pmax", "13", "--d", "1,2",
                "--cache", str(cache)]
        cache.unlink(missing_ok=True)
        assert cli_main(args) == 0
        capsys.readouterr()
        by_p = {int(rec["task"].split("|")[1]): rec
                for rec in map(json.loads, cache.read_text().splitlines())}
        assert sorted(by_p) == [5, 13]
        forge(by_p)
        cache.write_text("".join(json.dumps(rec) + "\n" for rec in by_p.values()))
        assert cli_main(args) == 2, what
        captured = capsys.readouterr()
        assert captured.out == "", what
        assert captured.err == (f"error: {cache}: the cached results of {what} at p = {p} "
                                "do not match that task\n")


def test_cache_rejects_a_d_that_is_not_an_int(tmp_path, capsys):
    # {"d": 2.0} and {"d": true} equal {"d": 2} and {"d": 1}, but print otherwise
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "sun-zero,sun-qr", "--pmax", "13", "--d", "1,2",
            "--cache", str(cache)]
    assert cli_main(args) == 0
    capsys.readouterr()
    text = cache.read_text()
    for old, new in (('"d":2', '"d":2.0'), ('"d":1', '"d":true')):
        lineno = text[:text.index(old)].count("\n") + 1
        cache.write_text(text.replace(old, new, 1))
        assert cli_main(args) == 2, new
        captured = capsys.readouterr()
        assert captured.out == "", new
        assert captured.err == f"error: {cache}: line {lineno} is not a cache record\n"


def test_cache_ends_a_last_line_that_lacks_its_newline(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    args = ["verify", "--what", "jacobsthal", "--format", "json"]
    assert cli_main(args + ["--pmax", "17"]) == 0
    uncached = capsys.readouterr().out
    assert cli_main(args + ["--pmax", "5", "--cache", str(cache)]) == 0
    capsys.readouterr()
    cache.write_bytes(cache.read_bytes()[:-1])    # an interrupted write
    for _ in range(2):
        assert cli_main(args + ["--pmax", "17", "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == uncached
        lines = cache.read_text().splitlines()
        assert len(lines) == 3, lines             # 5, then 13 and 17
    for line in lines:
        json.loads(line)


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


def _fresh_interpreter(code: str, **env: str) -> str:
    """Standard output of code run by a new Python that imports this legdet,
    with env added to its environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(legdet.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_cli_import_leaves_numpy_and_mpmath_unloaded():
    out = _fresh_interpreter("import sys, legdet.cli; "
                             "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))")
    assert out.strip() == "[]"


def test_verify_and_det_leave_openssl_unloaded(tmp_path):
    # hashlib maps OpenSSL's libcrypto; the cache key must not need it
    caches = [str(tmp_path / f"jobs{jobs}.jsonl") for jobs in (1, 2)]
    out = _fresh_interpreter(
        "import contextlib, io, sys; from legdet import harness; from legdet.cli import main\n"
        "harness.FORK_COST_S, harness._cpu_count = 0, lambda: 2    # --jobs 2 forks\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--pmax', '5', '--format', 'json', '--cache', c,\n"
        f"                   '--jobs', j]) for c, j in zip({caches!r}, ('1', '2'))]\n"
        "    codes += [main(['det', '--matrix', m, '--p', '13']) for m in ('s', 'chapman')]\n"
        "print(*codes, *(m in sys.modules for m in ('hashlib', '_hashlib')))")
    assert out.split() == ["1", "1", "0", "0", "False", "False"]


def test_verify_and_det_start_without_dataclasses(tmp_path):
    # the records are NamedTuples: no process compiles dataclass methods, and
    # nothing loads dataclasses or the inspect it imports
    out = _fresh_interpreter(
        "import contextlib, io, sys; from legdet import harness; from legdet.cli import main\n"
        "harness.FORK_COST_S, harness._cpu_count = 0, lambda: 2    # --jobs 2 forks\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--pmax', '5', '--format', 'json', '--cache',\n"
        f"                   {str(tmp_path)!r} + '/jobs' + j, '--jobs', j]) for j in '12']\n"
        "    codes += [main(['det', '--matrix', m, '--p', '13']) for m in ('s', 'chapman')]\n"
        "print(*codes, *(m in sys.modules for m in ('dataclasses', 'inspect')))")
    assert out.split() == ["1", "1", "0", "0", "False", "False"]


def test_code_version_is_the_same_under_every_hash_seed():
    code = "from legdet.harness import code_version; print(code_version())"
    versions = {_fresh_interpreter(code, PYTHONHASHSEED=seed).strip() for seed in ("0", "12345")}
    assert versions == {code_version()}


def test_exact_eigen_verify_leaves_numpy_unloaded():
    out = _fresh_interpreter("import sys; from legdet.charsums import eigen_verify; "
                             "from legdet.ntcore import PrimeCtx; "
                             "report = eigen_verify(PrimeCtx.for_prime(13)); "
                             "print(report.mode, report.ok, 'numpy' in sys.modules)")
    assert out.split() == ["exact", "True", "False"]


def test_chapman_and_eigen_checks_leave_numpy_and_mpmath_unloaded():
    out = _fresh_interpreter("import sys; from legdet.harness import run_check; "
                             "print(*(r.status for c, p in (('chapman', 229), "
                             "('chapman-star', 229), ('eigen', 101)) "
                             "for r in run_check(c, p)), "
                             "*(m in sys.modules for m in ('numpy', 'mpmath')))")
    assert out.split() == ["pass", "pass", "pass", "False", "False"]


def test_scalar_checks_leave_numpy_unloaded():
    out = _fresh_interpreter("import io, sys; from legdet.harness import RunConfig, run; "
                             "print(run(RunConfig(checks=('lemma-sign', 'jacobsthal', "
                             "'row-identity'), pmax=101), io.StringIO()), "
                             "'numpy' in sys.modules)")
    assert out.split() == ["0", "False"]


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
        ok, _ = _check_product(work)
        assert ok
        assert len(eigen) == count                  # product reused it


def test_class_data_is_computed_once_per_prime(monkeypatch):
    from legdet import quadfield

    calls = _counting(monkeypatch, quadfield, "class_data")
    work = PrimeWork(13)
    for check_id in ("chapman", "chapman-star"):
        ok, _ = harness.CHECKS[check_id].worker(work)
        assert ok
    assert calls == [(13,)]


def test_chapman_dets_are_computed_once_per_prime(monkeypatch):
    calls = _counting(monkeypatch, exactla, "chapman_dets")
    for p in (7, 13):
        work = PrimeWork(p)
        for check_id in ("chapman", "chapman-star"):
            ok, _ = harness.CHECKS[check_id].worker(work)
            assert ok
        assert calls == [(work.ctx,)]
        calls.clear()


def test_s1_routes_that_disagree_raise(monkeypatch):
    orig = charsums.eigen_product
    monkeypatch.setattr(charsums, "eigen_product", lambda ctx: orig(ctx) + 1)
    with pytest.raises(ArithmeticError):
        PrimeWork(211).det(1)


def test_public_names_resolve():
    # test_tracer_names.py checks the names perfbench/tracer.py looks up
    for name in legdet.__all__:
        assert hasattr(legdet, name), name


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


def test_no_command_runs_bareiss():
    # cli reads the evil matrix off the Hankel kernel of chapman_dets
    from legdet import cli

    assert not hasattr(cli, "det_exact") and not hasattr(cli, "evil_matrix")
    assert cli.evil_det is exactla.evil_det


def test_cli_det_chapman_prints_the_bareiss_polynomial(capsys):
    for p in (3, 5, 13, 229):
        ctx = PrimeCtx.for_prime(p)
        for matrix, star in (("chapman", False), ("chapman-star", True)):
            assert cli_main(["det", "--matrix", matrix, "--p", str(p)]) == 0
            out = capsys.readouterr().out
            assert out == str(det_affine(chapman_matrix(ctx, star))) + "\n", (p, matrix)


def test_cli_det_carlitz_prints_the_constant_term(capsys):
    for p in (3, 5, 13, 47):
        assert cli_main(["det", "--matrix", "carlitz", "--p", str(p)]) == 0
        expected = det_exact(carlitz_matrix(PrimeCtx.for_prime(p)))
        assert capsys.readouterr().out == f"{expected}\n", p
    q = (1 << 61) - 1
    assert cli_main(["det", "--matrix", "carlitz", "--p", "199"]) == 0
    value = int(capsys.readouterr().out)
    assert value % q == det_mod(carlitz_matrix(PrimeCtx.for_prime(199)), q)


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


def test_cli_verify_help_describes_every_option(capsys):
    with pytest.raises(SystemExit):
        cli_main(["verify", "--help"])
    options = capsys.readouterr().out.split("options:\n")[1]
    for entry in re.split(r"\n(?=  -)", options.strip("\n")):
        invocation, _, description = entry.strip().partition("  ")
        assert description.strip(), invocation


def test_cli_verify_rejects_unknown_check(capsys):
    assert cli_main(["verify", "--what", "nope"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_cli_reports_contract_violations(capsys):
    assert cli_main(["eigen", "--p", "7"]) == 2        # needs p = 1 (mod 4)
    assert "error:" in capsys.readouterr().err
    assert cli_main(["det", "--matrix", "s", "--p", "15"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_runs_a_repeated_check_once(tmp_path, capsys):
    args = ["verify", "--pmax", "13", "--format", "json"]        # primes 5 and 13
    for what, repeated in (("jacobsthal", "jacobsthal,jacobsthal"),
                           ("jacobsthal,corollary-a", "jacobsthal,corollary-a,jacobsthal")):
        assert cli_main(args + ["--what", what]) == 0
        once = capsys.readouterr().out
        tasks = 2 * len(what.split(","))
        assert once.endswith(f"# checks run: {tasks}  passed: {tasks}  failed: 0  skipped: 0\n")
        cache = tmp_path / f"{repeated}.jsonl"
        assert cli_main(args + ["--what", repeated, "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == once
        assert len(cache.read_text().splitlines()) == tasks


def test_cli_verify_with_cache(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    args = ["verify", "--what", "jacobsthal", "--pmax", "17",
            "--format", "json", "--cache", cache]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    assert capsys.readouterr().out == first
