"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria that cover a check's whole default range run it through harness.run,
the code `legdet verify` runs, and assert its exit code; criterion 9 picks its
own primes and calls harness.run_check for each.

Criterion 9 checks the Chapman closed forms at every prime 5 <= p <= 103 where
they are claimed, that is every such prime but p = 3.  There they are provably
false (det C_3(x) = x + 1 and det C*_3(x) = 3x - 1, checked by direct
expansion); test_quadfield.py::test_chapman_forms_fail_at_p3 pins that
exception to its exact values.
"""

import hashlib
import random
import time

from conftest import (
    oracle_class_number,
    oracle_det_cofactor,
    oracle_is_prime,
    oracle_primes,
    run_json,
)
from legdet.charsums import eigen_verify, product_identity
from legdet.cli import main as cli_main
from legdet.exactla import det_exact, det_mod
from legdet.harness import run_check
from legdet.matrices import (
    carlitz_matrix,
    chapman_matrix,
    evil_matrix,
    squares_matrix,
    squares_star_matrix,
)
from legdet.ntcore import (
    PrimeCtx,
    TwoSquare,
    perm_sign_cycles,
    perm_sign_formula,
)
from legdet.quadfield import QuadUnit, class_number, unit_norm
from legdet.charsums import eigenvalue_exact, row_identity_check


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def test_criterion_01_worked_examples():
    t0 = time.monotonic()
    ok = True
    ok &= det_exact(squares_matrix(PrimeCtx.for_prime(5), 1)) == 1
    ok &= det_exact(squares_matrix(PrimeCtx.for_prime(13), 1)) == -27
    ok &= det_exact(squares_star_matrix(PrimeCtx.for_prime(5))) == -1
    ok &= det_exact(squares_star_matrix(PrimeCtx.for_prime(13))) == -9
    ok &= det_exact(squares_star_matrix(PrimeCtx.for_prime(17))) == -441
    ok &= PrimeCtx.for_prime(5).decomp == TwoSquare(1, 1)
    ok &= PrimeCtx.for_prime(13).decomp == TwoSquare(-3, 1)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _report(1, "worked examples", ok, f"{elapsed:.3f}s")


def test_criterion_02_squares_det_full_d_sweep():
    t0 = time.monotonic()
    code, records = run_json(checks=("theorem-a",), pmax=200, d_list="all")
    elapsed = time.monotonic() - t0
    failures = [(r["p"], r["params"]["d"]) for r in records if r["status"] != "pass"]
    count = len(records)
    expected_count = sum(p for p in oracle_primes(5, 200, cls4=1))
    ok = code == 0 and not failures and count == expected_count and elapsed < 300
    assert _report(
        2,
        "square-quotient sweep p<=200, all d",
        ok,
        f"{count} (p,d) pairs, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_d_all_prints_the_full_theorem_a_sweep_byte_for_byte(capsys):
    # the md5 that --full-d-sweep, which --d all replaced, printed for this run
    args = ["verify", "--what", "theorem-a", "--pmax", "61", "--format", "json", "--d", "all"]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "cfdcdf95edee897945edc903aee6effc"
    assert out.count("\n") == 1 + sum(oracle_primes(5, 61, cls4=1))     # every (p, d), summary


def test_criterion_03_star_determinant_sweep():
    code, records = run_json(checks=("corollary-a",), pmax=200)
    failures = [r["p"] for r in records if r["status"] != "pass"]
    covered = [r["p"] for r in records] == oracle_primes(5, 200, cls4=1)
    ok = code == 0 and not failures and covered
    assert _report(3, "star determinant sweep p<=200", ok, f"failures: {failures}")


def test_criterion_04_negated_square_sweep_3_mod_4():
    code, records = run_json(checks=("conjecture-a",), pmax=200)
    failures = [r["p"] for r in records if r["status"] != "pass"]
    covered = [r["p"] for r in records] == oracle_primes(3, 200, cls4=3)
    ok = code == 0 and not failures and covered
    assert _report(4, "-S(1,p) square sweep p<=200", ok, f"failures: {failures}")


def test_criterion_05_permutation_sign():
    bad_signs = []
    for p in oracle_primes(5, 500, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        for j in range(1, ctx.n + 1):
            d = j * j % p
            if perm_sign_cycles(ctx, d) != perm_sign_formula(ctx, d):
                bad_signs.append((p, d))
    bad_transport = []
    for p in oracle_primes(5, 100, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        s1 = det_exact(squares_matrix(ctx, 1))
        for j in range(1, ctx.n + 1):
            d = j * j % p
            if det_exact(squares_matrix(ctx, d)) != perm_sign_cycles(ctx, d) * s1:
                bad_transport.append((p, d))
    ok = not bad_signs and not bad_transport
    assert _report(
        5,
        "permutation sign p<=500 + determinant transport p<=100",
        ok,
        f"sign mismatches: {bad_signs[:3]}, transport mismatches: {bad_transport[:3]}",
    )


def test_criterion_06_eigenvalue_identities():
    bad = []
    for p in oracle_primes(5, 61, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        prod, det = product_identity(ctx)
        if prod != det:
            bad.append((p, "product"))
        if eigenvalue_exact(ctx, ctx.n).as_int() != -1:
            bad.append((p, "corner"))
        if eigenvalue_exact(ctx, ctx.n // 2).as_int() != -ctx.decomp.a:
            bad.append((p, "half"))
        report = eigen_verify(ctx, exact=True)
        if not report.ok:
            bad.append((p, "exact-eigen"))
    worst = 0.0
    for p in oracle_primes(5, 500, cls4=1):
        report = eigen_verify(PrimeCtx.for_prime(p), exact=False)
        worst = max(worst, report.residual)
        if not report.ok:
            bad.append((p, "float-eigen"))
    ok = not bad and worst < 1e-9
    assert _report(
        6,
        "eigenvalue product/corner identities + residuals p<=500",
        ok,
        f"max float residual {worst:.2e}, failures: {bad[:4]}",
    )


def test_criterion_07_row_identity_sweep():
    t0 = time.monotonic()
    failures = []
    for p in oracle_primes(5, 2000, cls4=1):
        if not row_identity_check(PrimeCtx.for_prime(p)):
            failures.append(p)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30
    assert _report(
        7, "row identity sweep p<=2000", ok, f"{elapsed:.1f}s, failures: {failures}"
    )


def test_criterion_08_carlitz_characteristic_polynomials():
    code, records = run_json(checks=("carlitz",), pmax=47)
    failures = [(r["p"], r["status"]) for r in records if r["status"] != "pass"]
    covered = [r["p"] for r in records] == oracle_primes(3, 47)
    ok = code == 0 and not failures and covered
    assert _report(
        8, "Carlitz characteristic polynomials p<=47", ok, f"failures: {failures}"
    )


def test_criterion_09_chapman_closed_forms():
    # The closed forms are not claimed at p = 3 (see chapman_expected); that
    # exception is pinned in test_quadfield.py::test_chapman_forms_fail_at_p3.
    failures = []
    for p in oracle_primes(7, 103, cls4=3) + oracle_primes(5, 101, cls4=1):
        results = {c: run_check(c, p)[0] for c in ("chapman", "chapman-star")}
        failures += [(p, c) for c, r in results.items() if r.status != "pass"]
        if p % 4 == 3:
            continue
        w = results["chapman"].witness
        u, v, uh, vh = (int(w[k]) for k in ("u", "v", "uh", "vh"))
        if unit_norm(QuadUnit(u, v), p) not in (1, -1):
            failures.append((p, "norm"))
        if (u - v) % 2 or (uh - vh) % 2:
            failures.append((p, "parity"))
        if not class_number(p) == oracle_class_number(p, 128) == oracle_class_number(p, 256):
            failures.append((p, "h-stability"))
    if class_number(229) != 3 or oracle_class_number(229, 128) != 3 \
            or oracle_class_number(229, 256) != 3:
        failures.append((229, "h-regression"))
    ok = not failures
    assert _report(
        9,
        "Chapman closed forms (3 mod 4 in 7..103; 1 mod 4 <= 101)",
        ok,
        f"failures: {failures}",
    ), f"every prime in range must verify exactly; failures: {failures}"


def test_criterion_10_oracle_equivalence():
    rng = random.Random(1009)
    qs = []
    while len(qs) < 5:
        cand = rng.randrange(1 << 29, 1 << 30) | 1
        while not oracle_is_prime(cand):
            cand += 2
        if cand not in qs:
            qs.append(cand)

    corpus = []
    for p in oracle_primes(5, 61, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        for d in (0, 1, 2, 3, p - 1):
            corpus.append(squares_matrix(ctx, d).entries)
        corpus.append(squares_star_matrix(ctx).entries)
    for p in oracle_primes(3, 47):
        corpus.append(carlitz_matrix(PrimeCtx.for_prime(p)).entries)
    for p in oracle_primes(3, 61):
        ctx = PrimeCtx.for_prime(p)
        corpus.append(evil_matrix(ctx).entries)
        for star in (False, True):
            for x in (0, 1, 2):
                corpus.append(chapman_matrix(ctx, star).at(x))

    mismatches = 0
    for m in corpus:
        d = det_exact(m)
        for q in qs:
            if det_mod(m, q) != d % q:
                mismatches += 1

    cofactor_bad = 0
    for _ in range(1000):
        dim = rng.randint(0, 6)
        m = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
        if det_exact([row[:] for row in m]) != oracle_det_cofactor(m):
            cofactor_bad += 1

    ok = mismatches == 0 and cofactor_bad == 0
    assert _report(
        10,
        "modular/cofactor oracle equivalence",
        ok,
        f"{len(corpus)} matrices x 5 primes, {mismatches} modular mismatches, "
        f"{cofactor_bad} cofactor mismatches",
    )
