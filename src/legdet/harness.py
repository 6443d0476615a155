"""Range verification harness: runs every identity check over ranges of primes,
emits machine-readable results, and caches them for resumable re-runs.

Each check is one record in CHECKS: the primes it covers, its default prime
ceiling, its worker, its re-validator and the values of (d/p) at which it
runs, if it runs once per d.  A worker is a pure function of a PrimeWork, and
of d for such a check, that returns a verdict: whether the check holds, and a
witness of decimal strings.  run_check alone turns verdicts into CheckResult
records, one for each params of _task_params; the re-validator re-checks a
pass by independent scalar arithmetic, also when run() takes it from the
cache, where the results must also carry the check, p and params, in order,
that _task_params gives their task.  The checks of one prime share its
PrimeWork, so run() hands out one job per prime, largest first; with --jobs
it forks worker processes for the jobs left once the run has shown that they
can pay for the fork, and worker w of k runs every k-th of them from the w-th
on; the run reads their results in job order.  Results are always emitted in
deterministic order.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import math
import os
import random
import sys
import threading
import time
from collections.abc import Callable
from itertools import compress
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import charsums, exactla, quadfield
from .exactla import IntPoly
from .ntcore import (
    PrimeCtx,
    euler_table,
    is_perfect_square,
    legendre,
    perm_sign_cycles,
    perm_sign_formula,
    perm_sign_rotation,
    jacobsthal_sum,
)


class CheckResult(NamedTuple):
    check_id: str
    p: int
    params: dict | None
    status: str                  # pass | fail | skipped
    witness: dict[str, str]

    def to_record(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))

    @staticmethod
    def from_record(rec: dict) -> "CheckResult":
        """A result record as a CheckResult; KeyError for a missing field, and
        TypeError unless check_id is a str, p an int, status pass, fail or
        skipped, params None or a dict of str to int, and witness a dict of
        str to str.  A float or bool d would equal an int one and print
        otherwise."""
        r = CheckResult(rec["check_id"], rec["p"], rec["params"], rec["status"],
                        rec["witness"])
        if not (type(r.check_id) is str and type(r.p) is int
                and r.status in ("pass", "fail", "skipped")
                and (r.params is None or type(r.params) is dict
                     and all(type(v) is int for v in r.params.values()))
                and type(r.witness) is dict
                and all(type(v) is str for v in r.witness.values())):
            raise TypeError(f"not a result record: {rec!r}")
        return r


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p <= hi, by one sieve of Eratosthenes to hi."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, hi + 1, q)))
    lo = max(lo, 2)
    return list(compress(range(lo, hi + 1), sieve[lo:]))


def default_d_list(p: int) -> list[int]:
    """{1, 2, 3, 5, p-1} plus 8 deterministic pseudo-random residues."""
    rng = random.Random(f"legdet-d-{p}")
    ds = [1 % p, 2 % p, 3 % p, 5 % p, (p - 1) % p]
    ds += [rng.randrange(p) for _ in range(8)]
    return list(dict.fromkeys(ds))


# ---------------------------------------------------------------------------
# per-prime shared work
# ---------------------------------------------------------------------------


class PrimeWork:
    """One prime's context, its squares-matrix determinants S(d,p), each
    computed once by the circulant route (charsums.det_squares), and its
    Chapman polynomials (exactla.chapman_dets) and class-number data, each
    computed once and shared by the chapman and chapman-star checks.

    S(1,p) is returned only once eigen-CRT (charsums.eigen_product) agrees.
    It is a second route with its own ring (Phi_(p-1)(2^s), det_squares works
    mod Phi_n(2^s)), its own certificate of its root of unity and its own
    packed evaluation; a fault in the constructor of the modulus they share
    can only raise.  A disagreement raises ArithmeticError.
    """

    def __init__(self, p: int):
        self.ctx = PrimeCtx.for_prime(p)
        self._dets: dict[int, int] = {}

    def det(self, d: int) -> int:
        d %= self.ctx.p
        if d not in self._dets:
            s_val = charsums.det_squares(self.ctx, d)
            if d == 1 and s_val != self.eigen_product:
                raise ArithmeticError(
                    f"S(1,{self.ctx.p}): det_squares gives {s_val}, "
                    f"eigen-CRT {self.eigen_product}")
            self._dets[d] = s_val
        return self._dets[d]

    @functools.cached_property
    def eigen_product(self) -> int:
        """The product of the eigenvalues of S(1,p), by eigen-CRT."""
        return charsums.eigen_product(self.ctx)

    @functools.cached_property
    def chapman_dets(self) -> tuple[IntPoly, IntPoly]:
        """(det C(x), det C*(x)) by exactla.chapman_dets."""
        return exactla.chapman_dets(self.ctx)

    @functools.cached_property
    def class_data(self) -> quadfield.ClassData:
        """quadfield.class_data of p (p = 1 mod 4)."""
        return quadfield.class_data(self.ctx.p)


@functools.lru_cache(maxsize=1)
def prime_work(p: int) -> PrimeWork:
    """The PrimeWork of p; the last one is kept, so the checks of one prime
    run back to back share it."""
    return PrimeWork(p)


def _d_list(p: int, opts: dict) -> list[int]:
    """The d values of p for the checks that read the run's d-list: every d
    in 0..p-1 for "all", else the list (default_d_list(p) if none) mod p."""
    d_list = opts.get("d_list")
    if d_list == "all":
        return list(range(p))
    return list(dict.fromkeys(d % p for d in (d_list or default_d_list(p))))


# ---------------------------------------------------------------------------
# per-prime check workers, each followed by its re-validator, which re-checks
# a pass witness by its own arithmetic, not by the worker's pass predicate
# ---------------------------------------------------------------------------

# A worker's verdict: whether the check holds, and its witness.
Verdict = tuple[bool, dict[str, str]]


def _check_theorem_a(work: PrimeWork, d: int) -> Verdict:
    ctx = work.ctx
    a = ctx.decomp.a
    s_val = work.det(d)
    eps = ctx.epsilon(d)
    wit = {"S": str(s_val), "a": str(a), "eps": str(eps)}
    quotient, rem = divmod(eps * s_val, a)
    root = is_perfect_square(quotient) if rem == 0 else None
    ok = root is not None
    if root is not None:
        wit["root"] = str(root)
    ld = ctx.legendre(d)
    if ld == -1:
        ok = ok and s_val == 0
    elif ld == 1:
        sign = perm_sign_rotation(ctx, d)
        wit["sign"] = str(sign)
        wit["S1"] = str(work.det(1))
        ok = ok and s_val == sign * work.det(1)
    return ok, wit


def _revalidate_theorem_a(r: CheckResult) -> bool:
    ctx, d, w = PrimeCtx.for_prime(r.p), r.params["d"], r.witness
    s_val, a, eps = int(w["S"]), int(w["a"]), int(w["eps"])
    if ctx.epsilon(d) != eps or ctx.decomp.a != a:
        return False
    quotient, rem = divmod(eps * s_val, a)
    if rem != 0 or int(w["root"]) ** 2 != quotient:
        return False
    ld = ctx.legendre(d)
    if ld == -1:
        return s_val == 0
    if ld == 1:
        sign = int(w["sign"])
        return sign == perm_sign_cycles(ctx, d) and s_val == sign * int(w["S1"])
    return True


def _check_corollary_a(work: PrimeWork) -> Verdict:
    ctx = work.ctx
    a = ctx.decomp.a
    s_val = work.det(1)
    star = charsums.det_squares_star(ctx)
    root = is_perfect_square(-star)
    ok = root is not None and star * a == -s_val
    wit = {"Sstar": str(star), "S": str(s_val), "a": str(a)}
    if root is not None:
        wit["root"] = str(root)
    return ok, wit


def _revalidate_corollary_a(r: CheckResult) -> bool:
    w = r.witness
    star, s_val, a = int(w["Sstar"]), int(w["S"]), int(w["a"])
    if PrimeCtx.for_prime(r.p).decomp.a != a:
        return False
    return int(w["root"]) ** 2 == -star and star * a == -s_val


def _check_conjecture_a(work: PrimeWork) -> Verdict:
    s_val = work.det(1)
    root = is_perfect_square(-s_val)
    wit = {"S": str(s_val)}
    if root is not None:
        wit["root"] = str(root)
    return root is not None, wit


def _revalidate_conjecture_a(r: CheckResult) -> bool:
    return int(r.witness["root"]) ** 2 == -int(r.witness["S"])


def _check_lemma_sign(work: PrimeWork) -> Verdict:
    """At every square d = j^2, j = 1..n, the rotation sign against
    epsilon(d) = chi(j) from euler_table, which shares no code with it."""
    ctx, p = work.ctx, work.ctx.p
    chi = euler_table(p, ctx.n)
    bad = [d for d, eps in zip((j * j % p for j in range(1, ctx.n + 1)), chi[1:])
           if perm_sign_rotation(ctx, d) != eps]
    wit = {"qr_count": str(ctx.n), "mismatches": str(len(bad))}
    if bad:
        wit["first_bad_d"] = str(bad[0])
    return not bad, wit


def _revalidate_lemma_sign(r: CheckResult) -> bool:
    """qr_count = (p-1)/2, and at every square d the sign from ord(d)
    (perm_sign_cycles, which reads no dlog) equals the formula's."""
    w, ctx = r.witness, PrimeCtx.for_prime(r.p)
    p, n = ctx.p, ctx.n
    if int(w["qr_count"]) != n or int(w["mismatches"]) != 0:
        return False
    return all(perm_sign_cycles(ctx, d) == perm_sign_formula(ctx, d)
               for d in (j * j % p for j in range(1, n + 1)))


def _check_eigen(work: PrimeWork) -> Verdict:
    identity = charsums.eigen_identity(work.ctx)
    wit = {
        "rows": str(work.ctx.n),
        "real": "1" if identity.real else "0",
        "vandermonde": "1" if identity.vandermonde else "0",
    }
    if identity.first_bad_row is not None:
        wit["first_bad_row"] = str(identity.first_bad_row)
    return identity.ok, wit


def _revalidate_eigen(r: CheckResult) -> bool:
    w = r.witness
    return (
        int(w["rows"]) == (r.p - 1) // 2
        and w["real"] == w["vandermonde"] == "1"
        and "first_bad_row" not in w
    )


def _check_product(work: PrimeWork) -> Verdict:
    prod, det = work.eigen_product, work.det(1)
    return prod == det, {"prod": str(prod), "det": str(det)}


def _revalidate_product(r: CheckResult) -> bool:
    return int(r.witness["prod"]) == int(r.witness["det"])


def _check_jacobsthal(work: PrimeWork) -> Verdict:
    s = jacobsthal_sum(work.ctx)
    a = work.ctx.decomp.a
    return s == -a, {"sum": str(s), "a": str(a)}


def _revalidate_jacobsthal(r: CheckResult) -> bool:
    s = int(r.witness["sum"])
    return s == -int(r.witness["a"]) and jacobsthal_sum(PrimeCtx.for_prime(r.p)) == s


def _check_row_identity(work: PrimeWork) -> Verdict:
    ctx = work.ctx
    ok = charsums.row_identity_check(ctx)
    return ok, {"a": str(ctx.decomp.a), "j_count": str(ctx.n)}


def _revalidate_row_identity(r: CheckResult) -> bool:
    """a and j_count from p, and rows j = 1 and j = n of the identity by
    direct sums."""
    w, ctx = r.witness, PrimeCtx.for_prime(r.p)
    p, n, sym, a = ctx.p, ctx.n, ctx.symbols, int(w["a"])
    return (a == ctx.decomp.a and int(w["j_count"]) == n and all(
        sum(sym[(i * i + j * j) % p] * sym[i] for i in range(1, n + 1)) == -a * sym[j]
        for j in (1, n)))


def _carlitz_expected(p: int) -> IntPoly:
    """Carlitz's closed form (x^2 - s p)^((p-3)/2) (x^2 - s), s = (-1/p),
    expanded by the binomial theorem in y = x^2."""
    s = -1 if (p - 1) // 2 % 2 else 1
    e = (p - 3) // 2
    a = [math.comb(e, k) * (-s * p) ** (e - k) for k in range(e + 1)]   # (y - s p)^e
    b = [u - s * v for u, v in zip([0] + a, a + [0])]                     # times (y - s)
    coeffs = [0] * (2 * len(b) - 1)
    coeffs[::2] = b
    return IntPoly.make(coeffs)


def _check_carlitz(work: PrimeWork) -> Verdict:
    actual = charsums.carlitz_char_poly(work.ctx)
    expected = _carlitz_expected(work.ctx.p)
    wit = {
        "coeffs": json.dumps(list(actual.coeffs)),
        "expected": json.dumps(list(expected.coeffs)),
    }
    return actual == expected, wit


def _revalidate_carlitz(r: CheckResult) -> bool:
    w = r.witness
    return json.loads(w["coeffs"]) == json.loads(w["expected"]) == list(
        _carlitz_expected(r.p).coeffs
    )


def _check_chapman(work: PrimeWork, star: bool) -> Verdict:
    ctx, p = work.ctx, work.ctx.p
    actual = work.chapman_dets[star]
    data = None
    wit: dict[str, str] = {}
    if ctx.cls == 1:
        data = work.class_data
        wit.update(
            u=str(data.eps.u),
            v=str(data.eps.v),
            h=str(data.h),
            norm=str(quadfield.unit_norm(data.eps, p)),
            uh=str(data.eps_h.u),
            vh=str(data.eps_h.v),
        )
    expected = quadfield.chapman_expected(ctx, star, data)
    wit["coeffs"] = json.dumps(list(actual.coeffs))
    wit["expected"] = json.dumps(list(expected.coeffs))
    return actual == expected, wit


def _revalidate_chapman(r: CheckResult, star: bool) -> bool:
    """The witness's polynomials agree, and equal the closed form rebuilt from
    p, and for p = 1 (mod 4) from the unit eps and eps^h of the witness, once
    eps is checked to be a unit and eps^h to be its h-th power."""
    w, ctx = r.witness, PrimeCtx.for_prime(r.p)
    p, data = ctx.p, None
    if ctx.cls == 1:
        u, v, h = int(w["u"]), int(w["v"]), int(w["h"])
        if (u * u - p * v * v) // 4 != int(w["norm"]) or int(w["norm"]) not in (1, -1):
            return False
        eps = quadfield.QuadUnit(u, v)
        eps_h = quadfield.QuadUnit(int(w["uh"]), int(w["vh"]))
        if quadfield.unit_pow(eps, h, p) != eps_h:
            return False
        data = quadfield.ClassData(eps, h, eps_h)
    expected = quadfield.chapman_expected(ctx, star, data)
    return json.loads(w["coeffs"]) == json.loads(w["expected"]) == list(expected.coeffs)


def _check_sun_zero(work: PrimeWork, d: int) -> Verdict:
    s_val = work.det(d)
    return s_val == 0, {"S": str(s_val)}


def _revalidate_sun_zero(r: CheckResult) -> bool:
    return int(r.witness["S"]) == 0


def _check_sun_qr(work: PrimeWork, d: int) -> Verdict:
    s_val = work.det(d)
    symbol = work.ctx.legendre(-s_val)
    return symbol >= 0, {"S": str(s_val), "legendre_negS": str(symbol)}


def _revalidate_sun_qr(r: CheckResult) -> bool:
    return PrimeCtx.for_prime(r.p).legendre(-int(r.witness["S"])) >= 0


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    """One identity check: the primes it covers, its default prime ceiling,
    the worker that gives its verdict for one prime, or for one prime and
    one d, the re-validator of its pass witnesses, and the values of (d/p)
    at which it runs for each d of the run's d-list."""

    id: str
    cls4: int | None        # covers odd primes p = cls4 (mod 4); None: every odd prime
    pmax: int               # default prime ceiling
    worker: Callable[..., Verdict]     # (work) or, with d_symbols, (work, d)
    revalidate: Callable[[CheckResult], bool]
    # None: one verdict per prime; else one per d with (d/p) in it, so the
    # check's cache keys carry the d-list
    d_symbols: tuple[int, ...] | None = None


# Determinant checks stop at 200, scalar checks go to 2000 and carlitz stops at
# 47.  Raising a ceiling changes the default output.
CHECKS = {check.id: check for check in (
    Check("theorem-a", 1, 200, _check_theorem_a, _revalidate_theorem_a, (-1, 0, 1)),
    Check("corollary-a", 1, 200, _check_corollary_a, _revalidate_corollary_a),
    Check("conjecture-a", 3, 200, _check_conjecture_a, _revalidate_conjecture_a),
    Check("lemma-sign", 1, 2000, _check_lemma_sign, _revalidate_lemma_sign),
    Check("eigen", 1, 200, _check_eigen, _revalidate_eigen),
    Check("product", 1, 200, _check_product, _revalidate_product),
    Check("jacobsthal", 1, 2000, _check_jacobsthal, _revalidate_jacobsthal),
    Check("row-identity", 1, 2000, _check_row_identity, _revalidate_row_identity),
    Check("carlitz", None, 47, _check_carlitz, _revalidate_carlitz),
    Check("chapman", None, 200, functools.partial(_check_chapman, star=False),
          functools.partial(_revalidate_chapman, star=False)),
    Check("chapman-star", None, 200, functools.partial(_check_chapman, star=True),
          functools.partial(_revalidate_chapman, star=True)),
    Check("sun-zero", 1, 200, _check_sun_zero, _revalidate_sun_zero, (-1,)),
    Check("sun-qr", 1, 200, _check_sun_qr, _revalidate_sun_qr, (1,)),
)}
CHECK_IDS = tuple(CHECKS)


def _check(check_id: str) -> Check:
    try:
        return CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check {check_id!r}") from None


def default_pmax(check_id: str) -> int:
    return _check(check_id).pmax


def applicable_primes(check_id: str, pmax: int) -> list[int]:
    cls4 = _check(check_id).cls4
    return [p for p in primes_between(3, pmax) if cls4 is None or p % 4 == cls4]


def _task_params(check: Check, p: int, opts: dict) -> list[dict | None]:
    """The params of the results of one check at one prime, in order: [None]
    for a check without d_symbols, else {"d": d} for each d of the d-list in
    opts whose (d/p) is in d_symbols."""
    if check.d_symbols is None:
        return [None]
    return [{"d": d} for d in _d_list(p, opts) if legendre(d, p) in check.d_symbols]


def run_check(check_id: str, p: int, opts: dict | None = None) -> list[CheckResult]:
    """Run one check for one prime; pure, deterministic, picklable.
    The check's worker gives one verdict for each params of _task_params, with
    d from params, and each verdict becomes one CheckResult.
    ValueError for a prime outside the check's class mod 4."""
    check = _check(check_id)
    if check.cls4 is not None and p % 4 != check.cls4:
        raise ValueError(f"{check_id} covers primes p = {check.cls4} (mod 4), not p = {p}")
    work = prime_work(p)
    verdicts = [(params, check.worker(work, **(params or {})))
                for params in _task_params(check, p, opts or {})]
    return [CheckResult(check.id, p, params, "pass" if ok else "fail", wit)
            for params, (ok, wit) in verdicts]


def revalidate(result: CheckResult) -> bool:
    """Re-check a pass-result witness by independent arithmetic on the recorded
    decimal strings (no determinant recomputation)."""
    if result.status != "pass":
        return True
    return _check(result.check_id).revalidate(result)


# ---------------------------------------------------------------------------
# cache, run configuration, output
# ---------------------------------------------------------------------------


def code_version() -> str:
    """Hash of the package source, part of every cache key: the 64-bit
    importlib.util.source_hash, as 16 hex digits, of each module's name, a
    NUL byte and its bytes, in sorted order.  It is the same in every process
    and under every hash seed, and changes with the Python minor version.
    It is not hashlib's: that would load OpenSSL into every process."""
    pkg = Path(__file__).parent
    source = b"".join(f.name.encode() + b"\0" + f.read_bytes()
                      for f in sorted(pkg.glob("*.py")))
    return importlib.util.source_hash(source).hex()


class ResultCache:
    """Append-only JSON Lines cache, one line per task, keyed by
    (check_id, p, params, code version).  Stale-version lines are kept but
    ignored on load.  An unparsable last line, as an interrupted write leaves,
    is skipped with a warning and cut off before the next append; any other
    line that is not an object holding version, task and results raises
    ValueError, as does a current-version line whose results are not a list
    of CheckResult records with fields of the right types.  A whole last
    line that lacks its newline gets one before the next append.  The first
    put opens the file, and the handle stays open until close; each put
    writes and flushes its line, so an interrupted run keeps every task it
    finished."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.version = code_version()
        self._records: dict[str, list[CheckResult]] = {}
        self._torn_at: int | None = None     # byte offset of a torn last line
        self._unterminated = False           # the file does not end in a newline
        self._fh = None                      # the append handle, open from the first put
        if self.path.exists():
            data = self.path.read_bytes()
            self._unterminated = data[-1:] not in (b"", b"\n")
            lines = data.splitlines(keepends=True)
            last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
            offset = 0
            for i, line in enumerate(lines):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:                  # bad JSON or bad UTF-8
                    if i == last:
                        print(f"warning: {self.path}: skipping a torn last line",
                              file=sys.stderr)
                        self._torn_at = start
                        continue
                    rec = None
                # a record cut short does not parse, so this is no torn write
                try:
                    version, task, results = rec["version"], rec["task"], rec["results"]
                    if version == self.version:
                        self._records[task] = [CheckResult.from_record(r) for r in results]
                except (KeyError, TypeError):
                    raise ValueError(f"{self.path}: line {i + 1} is not a cache record") from None

    def get(self, task_key: str) -> list[CheckResult] | None:
        return self._records.get(task_key)

    def put(self, task_key: str, results: list[CheckResult]) -> None:
        self._records[task_key] = results
        recs = [r.to_record() for r in results]
        line = json.dumps({"version": self.version, "task": task_key, "results": recs},
                          separators=(",", ":")) + "\n"
        if self._fh is None:
            if self._torn_at is not None:
                with self.path.open("r+b") as fh:
                    fh.truncate(self._torn_at)
            elif self._unterminated:
                line = "\n" + line
            self._torn_at, self._unterminated = None, False
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(line)
        self._fh.flush()

    def close(self) -> None:
        """Close the append handle, if a put opened it."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class RunConfig(SimpleNamespace):
    """A run's options: assignable, compared and printed field by field."""

    def __init__(self, checks: tuple[str, ...] = CHECK_IDS,
                 pmax: int | None = None,                 # None: per-check defaults
                 d_list: list[int] | str | None = None,   # "all": every d in 0..p-1
                 jobs: int = 1, fmt: str = "text",        # fmt: json | csv | text
                 cache_path: str | None = None):
        super().__init__(checks=checks, pmax=pmax, d_list=d_list, jobs=jobs, fmt=fmt,
                         cache_path=cache_path)


def _task_key(check_id: str, p: int, opts: dict) -> str:
    reads_d = CHECKS[check_id].d_symbols is not None
    rel = {"d_list": opts["d_list"]} if reads_d and opts["d_list"] else {}
    return f"{check_id}|{p}|{json.dumps(rel)}"


# What forking --jobs workers costs a run, in wall time: the least work done,
# and the least work left, for which run() forks.  A --jobs 2 CLI run of
# almost no work took 7-27 ms longer than the same run serial, on a 2-vCPU
# Intel Xeon with CPython 3.11: the workers write the refcounts of objects
# they share with the parent, so each copies about 7 MB of its pages
# (3,200-3,550 more minor faults for two workers) and the run takes 2-12 ms
# more system time.
FORK_COST_S = 0.03


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_job(job) -> list[list[CheckResult]]:
    """Every task of one prime, in order, sharing the prime's PrimeWork."""
    p, check_ids, opts = job
    return [run_check(check_id, p, opts) for check_id in check_ids]


def _fork_jobs(jobs: list, workers: int):
    """Run the jobs on `workers` forked processes; yield (index, results) for
    each job, in the order of the list.

    Worker w of k runs jobs w, w + k, w + 2k, ... of the list, in that order,
    and pickles (True, results) for each back over its own pipe, or (False,
    exception) for a job that raises, and then stops; an interrupt ends it
    too.  So job i is the next reply of worker i mod k: the parent reads the
    replies in job order, one blocking load each, and raises the first error
    of the list, as a serial run does.  A worker runs ahead of the parent
    only as far as its pipe buffer (64 KiB on Linux) holds its replies.  It
    leaves only by os._exit, so it never flushes the parent's buffered
    output or runs its exit handlers.  A job's exception, or the
    ChildProcessError of a worker that dies, is raised once every worker has
    been killed and reaped.
    """
    import pickle
    import signal

    pids: list[int] = []
    files: list = []                            # every pipe end, as a file
    try:
        for first in range(workers):
            reply_r, reply_w = os.pipe()
            ours, theirs = os.fdopen(reply_r, "rb"), os.fdopen(reply_w, "wb")
            files += [ours, theirs]
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for f in files[:-1]:        # all but this worker's own end
                        f.close()
                    for job in jobs[first::workers]:
                        try:
                            reply = (True, _run_job(job))
                        except Exception as exc:
                            reply = (False, exc)
                        pickle.dump(reply, theirs, pickle.HIGHEST_PROTOCOL)
                        theirs.flush()
                        if not reply[0]:
                            break
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            theirs.close()
        for idx, job in enumerate(jobs):
            w = idx % workers
            try:
                ok, value = pickle.load(files[2 * w])  # worker w's reply end
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"worker {pids[w]} exited during the job of p = {job[0]}") from None
            if not ok:
                raise value
            yield idx, value
    finally:
        for f in files:
            f.close()
        for pid in pids:                        # a worker that has exited ignores the kill
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_jobs(jobs: list, workers: int):
    """Run the jobs in order in this process and yield (index, results) for
    each, until the run has spent FORK_COST_S and the jobs left, at the mean
    cost of the jobs run so far, would take FORK_COST_S more; then run the
    rest on min(workers, jobs left) forked workers, when that is more than one.
    So a run shorter than a fork never forks."""
    start = time.perf_counter()
    for idx, job in enumerate(jobs):
        spent, left = time.perf_counter() - start, len(jobs) - idx
        forks = min(workers, left)
        if forks > 1 and spent >= FORK_COST_S and spent * left >= FORK_COST_S * idx:
            with contextlib.closing(_fork_jobs(jobs[idx:], forks)) as forked:
                for done, results in forked:
                    yield idx + done, results
            return
        yield idx, _run_job(job)


def _emit(result: CheckResult, fmt: str, out) -> None:
    if fmt == "json":
        out.write(result.to_json() + "\n")
    elif fmt == "csv":
        import csv

        params = json.dumps(result.params, sort_keys=True) if result.params else ""
        wit = json.dumps(result.witness, separators=(",", ":"))
        csv.writer(out).writerow(
            [result.check_id, result.p, params, result.status, wit]
        )
    else:
        extra = " ".join(f"{k}={_short(v)}" for k, v in result.witness.items())
        params = (
            " ".join(f"{k}={v}" for k, v in result.params.items()) if result.params else ""
        )
        out.write(
            f"{result.status.upper():<5} {result.check_id:<13} p={result.p:<6} {params:<8} {extra}\n"
        )


def _short(v: str, limit: int = 40) -> str:
    return v if len(v) <= limit else v[: limit - 3] + "..."


def run(config: RunConfig, out=None) -> int:
    """Execute the configured checks; returns 0 iff no check failed."""
    out = out or sys.stdout
    cache = ResultCache(config.cache_path) if config.cache_path else None
    opts = {"d_list": config.d_list}
    # every task's results, in task order; None until computed
    results: dict[tuple[str, int], list[CheckResult] | None] = {}
    pending: dict[int, list[str]] = {}                  # p -> the checks it runs
    for check_id in dict.fromkeys(config.checks):       # each check once
        pmax = config.pmax if config.pmax is not None else default_pmax(check_id)
        for p in applicable_primes(check_id, pmax):
            cached = cache.get(_task_key(check_id, p, opts)) if cache else None
            if cached is not None:
                for r in cached:
                    try:
                        valid = revalidate(r)
                    except (LookupError, TypeError, ValueError, ArithmeticError):
                        valid = False       # a witness that is not the check's
                    if not valid:
                        raise ValueError(f"{cache.path}: a cached pass of {r.check_id} "
                                         f"at p = {r.p} fails re-validation")
                if [(r.check_id, r.p, r.params) for r in cached] != [
                        (check_id, p, params)
                        for params in _task_params(CHECKS[check_id], p, opts)]:
                    raise ValueError(f"{cache.path}: the cached results of {check_id} "
                                     f"at p = {p} do not match that task")
            else:
                pending.setdefault(p, []).append(check_id)
            results[check_id, p] = cached

    # one job per prime, largest first: its checks share one PrimeWork
    jobs = [(p, pending[p], opts) for p in sorted(pending, reverse=True)]
    # fork where it exists (not on Windows) and is safe: no other thread runs;
    # and no more workers than there are CPUs to run them
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    done = _run_jobs(jobs, min(config.jobs, _cpu_count()) if can_fork else 1)
    try:
        with contextlib.closing(done):
            for idx, computed in done:
                p, check_ids, _ = jobs[idx]
                for check_id, task_results in zip(check_ids, computed):
                    results[check_id, p] = task_results
                    if cache:
                        cache.put(_task_key(check_id, p, opts), task_results)
    finally:
        if cache:
            cache.close()

    if config.fmt == "csv":
        out.write("check_id,p,params,status,witness\n")
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for task_results in results.values():
        for result in task_results:
            counts[result.status] += 1
            _emit(result, config.fmt, out)

    total = sum(counts.values())
    out.write(
        f"# checks run: {total}  passed: {counts['pass']}  "
        f"failed: {counts['fail']}  skipped: {counts['skipped']}\n"
    )
    return 0 if counts["fail"] == 0 else 1
