"""Range verification harness: runs every identity check over ranges of primes,
emits machine-readable results, and caches them for resumable re-runs.

Each check is one record in CHECKS: the primes it covers, its default prime
ceiling, its worker and its re-validator.  A worker is a pure function of
(PrimeWork, options) that produces CheckResult records whose witnesses are
decimal strings; the re-validator re-checks them by independent scalar
arithmetic.  The checks of one prime share its PrimeWork, so run() hands out
one job per prime, to forked worker processes with --jobs; results are always
emitted in deterministic order.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import os
import random
import struct
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import charsums, quadfield
from .exactla import IntPoly, det_affine
from .matrices import chapman_matrix
from .ntcore import (
    PrimeCtx,
    is_perfect_square,
    is_prime,
    perm_sign_cycles,
    perm_sign_formula,
    jacobsthal_sum,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    p: int
    params: dict | None
    status: str                  # pass | fail | skipped
    witness: dict[str, str]

    def to_record(self) -> dict:
        return {
            "check_id": self.check_id,
            "p": self.p,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))

    @staticmethod
    def from_record(rec: dict) -> "CheckResult":
        return CheckResult(
            rec["check_id"], rec["p"], rec["params"], rec["status"], rec["witness"]
        )


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


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
    class-number data, computed once per precision.

    S(1,p) is returned only once eigen-CRT (charsums.eigen_product) agrees.
    It is a second route with its own ring (Phi_(p-1)(2^s), det_squares works
    mod Phi_n(2^s)), its own certificate of its root of unity and its own
    power table; a fault in the constructor of the modulus they share can
    only raise.  A disagreement raises ArithmeticError.
    """

    def __init__(self, p: int):
        self.ctx = PrimeCtx.for_prime(p)
        self._dets: dict[int, int] = {}
        self._class_data: dict[int, quadfield.ClassData] = {}

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

    def class_data(self, precision_bits: int) -> quadfield.ClassData:
        """quadfield.class_data of p (p = 1 mod 4), computed once per precision."""
        if precision_bits not in self._class_data:
            self._class_data[precision_bits] = quadfield.class_data(self.ctx.p, precision_bits)
        return self._class_data[precision_bits]


@functools.lru_cache(maxsize=1)
def prime_work(p: int) -> PrimeWork:
    """The PrimeWork of p; the last one is kept, so the checks of one prime
    run back to back share it."""
    return PrimeWork(p)


def _d_list(p: int, opts: dict) -> list[int]:
    return list(dict.fromkeys(d % p for d in (opts.get("d_list") or default_d_list(p))))


# ---------------------------------------------------------------------------
# per-prime check workers, each followed by its re-validator, which re-checks
# a pass witness by its own arithmetic, not by the worker's pass predicate
# ---------------------------------------------------------------------------


def _check_theorem_a(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    a = ctx.decomp.a
    d_list = list(range(p)) if opts.get("full_sweep") else _d_list(p, opts)
    out = []
    for d in d_list:
        s_val = work.det(d)
        eps = ctx.epsilon(d)
        wit = {"S": str(s_val), "a": str(a), "eps": str(eps)}
        quotient, rem = divmod(eps * s_val, a)
        root = is_perfect_square(quotient) if rem == 0 else None
        ok = rem == 0 and root is not None
        if root is not None:
            wit["root"] = str(root)
        ld = ctx.legendre(d)
        if ld == -1:
            ok = ok and s_val == 0
        elif ld == 1:
            sign = perm_sign_cycles(ctx, d)
            wit["sign"] = str(sign)
            wit["S1"] = str(work.det(1))
            ok = ok and s_val == sign * work.det(1)
        out.append(
            CheckResult("theorem-a", p, {"d": d}, "pass" if ok else "fail", wit)
        )
    return out


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


def _check_corollary_a(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    a = ctx.decomp.a
    s_val = work.det(1)
    star = charsums.det_squares_star(ctx)
    root = is_perfect_square(-star)
    ok = root is not None and star * a == -s_val
    wit = {"Sstar": str(star), "S": str(s_val), "a": str(a)}
    if root is not None:
        wit["root"] = str(root)
    return [CheckResult("corollary-a", p, None, "pass" if ok else "fail", wit)]


def _revalidate_corollary_a(r: CheckResult) -> bool:
    w = r.witness
    star, s_val, a = int(w["Sstar"]), int(w["S"]), int(w["a"])
    return int(w["root"]) ** 2 == -star and star * a == -s_val


def _check_conjecture_a(work: PrimeWork, opts: dict) -> list[CheckResult]:
    p, s_val = work.ctx.p, work.det(1)
    root = is_perfect_square(-s_val)
    wit = {"S": str(s_val)}
    if root is not None:
        wit["root"] = str(root)
    return [CheckResult("conjecture-a", p, None, "pass" if root is not None else "fail", wit)]


def _revalidate_conjecture_a(r: CheckResult) -> bool:
    return int(r.witness["root"]) ** 2 == -int(r.witness["S"])


def _check_lemma_sign(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    squares = (j * j % p for j in range(1, ctx.n + 1))
    bad = [d for d in squares if perm_sign_cycles(ctx, d) != perm_sign_formula(ctx, d)]
    wit = {"qr_count": str(ctx.n), "mismatches": str(len(bad))}
    if bad:
        wit["first_bad_d"] = str(bad[0])
    return [CheckResult("lemma-sign", p, None, "fail" if bad else "pass", wit)]


def _revalidate_lemma_sign(r: CheckResult) -> bool:
    return int(r.witness["mismatches"]) == 0


def _check_eigen(work: PrimeWork, opts: dict) -> list[CheckResult]:
    p = work.ctx.p
    report = charsums.eigen_verify(work.ctx, prec_bits=opts.get("precision_bits", 128))
    wit = {
        "mode": report.mode,
        "residual": repr(report.residual),
        "max_imag_rel": repr(report.max_imag_rel),
        "vandermonde": "1" if report.vandermonde_ok else "0",
    }
    return [CheckResult("eigen", p, None, "pass" if report.ok else "fail", wit)]


def _revalidate_eigen(r: CheckResult) -> bool:
    w = r.witness
    return (
        w["vandermonde"] == "1"
        and float(w["max_imag_rel"]) <= charsums.IMAG_REL_TOL
        and (w["mode"] == "exact" or float(w["residual"]) < charsums.RESIDUAL_TOL)
    )


def _check_product(work: PrimeWork, opts: dict) -> list[CheckResult]:
    p = work.ctx.p
    prod, det = work.eigen_product, work.det(1)
    wit = {"prod": str(prod), "det": str(det)}
    return [CheckResult("product", p, None, "pass" if prod == det else "fail", wit)]


def _revalidate_product(r: CheckResult) -> bool:
    return int(r.witness["prod"]) == int(r.witness["det"])


def _check_jacobsthal(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    s = jacobsthal_sum(ctx)
    a = ctx.decomp.a
    wit = {"sum": str(s), "a": str(a)}
    return [CheckResult("jacobsthal", p, None, "pass" if s == -a else "fail", wit)]


def _revalidate_jacobsthal(r: CheckResult) -> bool:
    s = int(r.witness["sum"])
    return s == -int(r.witness["a"]) and jacobsthal_sum(PrimeCtx.for_prime(r.p)) == s


def _check_row_identity(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    ok = charsums.row_identity_check(ctx)
    wit = {"a": str(ctx.decomp.a), "j_count": str(ctx.n)}
    return [CheckResult("row-identity", p, None, "pass" if ok else "fail", wit)]


def _revalidate_row_identity(r: CheckResult) -> bool:
    return int(r.witness["a"]) == PrimeCtx.for_prime(r.p).decomp.a


def _carlitz_expected(p: int) -> IntPoly:
    sgn = -1 if (p - 1) // 2 % 2 else 1
    quad = IntPoly.make((-sgn * p, 0, 1))
    return quad ** ((p - 3) // 2) * IntPoly.make((-sgn, 0, 1))


def _check_carlitz(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    actual = charsums.carlitz_char_poly(ctx)
    expected = _carlitz_expected(p)
    wit = {
        "coeffs": json.dumps(list(actual.coeffs)),
        "expected": json.dumps(list(expected.coeffs)),
    }
    return [CheckResult("carlitz", p, None, "pass" if actual == expected else "fail", wit)]


def _revalidate_carlitz(r: CheckResult) -> bool:
    w = r.witness
    return json.loads(w["coeffs"]) == json.loads(w["expected"]) == list(
        _carlitz_expected(r.p).coeffs
    )


def _check_chapman(work: PrimeWork, opts: dict, star: bool) -> list[CheckResult]:
    check_id = "chapman-star" if star else "chapman"
    ctx, p = work.ctx, work.ctx.p
    actual = det_affine(chapman_matrix(ctx, star))
    data = None
    wit: dict[str, str] = {}
    if ctx.cls == 1:
        data = work.class_data(opts.get("precision_bits", 128))
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
    return [CheckResult(check_id, p, None, "pass" if actual == expected else "fail", wit)]


def _revalidate_chapman(r: CheckResult) -> bool:
    w, p = r.witness, r.p
    if json.loads(w["coeffs"]) != json.loads(w["expected"]):
        return False
    if p % 4 == 1:
        u, v, h = int(w["u"]), int(w["v"]), int(w["h"])
        if (u * u - p * v * v) // 4 != int(w["norm"]) or int(w["norm"]) not in (1, -1):
            return False
        eps_h = quadfield.unit_pow(quadfield.QuadUnit(u, v), h, p)
        return (eps_h.u, eps_h.v) == (int(w["uh"]), int(w["vh"]))
    return True


def _check_sun_zero(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    out = []
    for d in _d_list(p, opts):
        if ctx.legendre(d) != -1:
            continue
        s_val = work.det(d)
        wit = {"S": str(s_val)}
        out.append(
            CheckResult("sun-zero", p, {"d": d}, "pass" if s_val == 0 else "fail", wit)
        )
    return out


def _revalidate_sun_zero(r: CheckResult) -> bool:
    return int(r.witness["S"]) == 0


def _check_sun_qr(work: PrimeWork, opts: dict) -> list[CheckResult]:
    ctx, p = work.ctx, work.ctx.p
    out = []
    for d in _d_list(p, opts):
        if ctx.legendre(d) != 1:
            continue
        s_val = work.det(d)
        ok = ctx.legendre(-s_val) >= 0
        wit = {"S": str(s_val), "legendre_negS": str(ctx.legendre(-s_val))}
        out.append(
            CheckResult("sun-qr", p, {"d": d}, "pass" if ok else "fail", wit)
        )
    return out


def _revalidate_sun_qr(r: CheckResult) -> bool:
    return PrimeCtx.for_prime(r.p).legendre(-int(r.witness["S"])) >= 0


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One identity check: the primes it covers, its default prime ceiling,
    the worker that computes its results for one prime and the re-validator
    of its pass witnesses."""

    id: str
    cls4: int | None        # covers odd primes p = cls4 (mod 4); None: every odd prime
    pmax: int               # default prime ceiling
    worker: Callable[[PrimeWork, dict], list[CheckResult]]
    revalidate: Callable[[CheckResult], bool]


# Determinant checks stop at 200, scalar checks go to 2000 and carlitz stops at
# 47.  Raising a ceiling changes the default output.
CHECKS = {check.id: check for check in (
    Check("theorem-a", 1, 200, _check_theorem_a, _revalidate_theorem_a),
    Check("corollary-a", 1, 200, _check_corollary_a, _revalidate_corollary_a),
    Check("conjecture-a", 3, 200, _check_conjecture_a, _revalidate_conjecture_a),
    Check("lemma-sign", 1, 2000, _check_lemma_sign, _revalidate_lemma_sign),
    Check("eigen", 1, 200, _check_eigen, _revalidate_eigen),
    Check("product", 1, 200, _check_product, _revalidate_product),
    Check("jacobsthal", 1, 2000, _check_jacobsthal, _revalidate_jacobsthal),
    Check("row-identity", 1, 2000, _check_row_identity, _revalidate_row_identity),
    Check("carlitz", None, 47, _check_carlitz, _revalidate_carlitz),
    Check("chapman", None, 200, functools.partial(_check_chapman, star=False),
          _revalidate_chapman),
    Check("chapman-star", None, 200, functools.partial(_check_chapman, star=True),
          _revalidate_chapman),
    Check("sun-zero", 1, 200, _check_sun_zero, _revalidate_sun_zero),
    Check("sun-qr", 1, 200, _check_sun_qr, _revalidate_sun_qr),
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


def run_check(check_id: str, p: int, opts: dict | None = None) -> list[CheckResult]:
    """Run one check for one prime; pure, deterministic, picklable."""
    return _check(check_id).worker(prime_work(p), opts or {})


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
    """Short hash of the package source, part of every cache key."""
    digest = hashlib.sha256()
    pkg = Path(__file__).parent
    for f in sorted(pkg.glob("*.py")):
        digest.update(f.name.encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()[:12]


class ResultCache:
    """Append-only JSON Lines cache, one line per task, keyed by
    (check_id, p, params, code version).  Stale-version lines are kept but
    ignored on load.  An unparsable last line, as an interrupted write leaves,
    is skipped with a warning and cut off before the next append; an
    unparsable line anywhere else raises."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.version = code_version()
        self._records: dict[str, list[dict]] = {}
        self._torn_at: int | None = None     # byte offset of a torn last line
        if self.path.exists():
            lines = self.path.read_bytes().splitlines(keepends=True)
            last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
            offset = 0
            for i, line in enumerate(lines):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:                  # bad JSON or bad UTF-8
                    if i != last:
                        raise
                    print(f"warning: {self.path}: skipping a torn last line",
                          file=sys.stderr)
                    self._torn_at = start
                    continue
                if rec.get("version") != self.version:
                    continue
                self._records[rec["task"]] = rec["results"]

    def get(self, task_key: str) -> list[CheckResult] | None:
        recs = self._records.get(task_key)
        if recs is None:
            return None
        return [CheckResult.from_record(r) for r in recs]

    def put(self, task_key: str, results: list[CheckResult]) -> None:
        recs = [r.to_record() for r in results]
        self._records[task_key] = recs
        if self._torn_at is not None:
            with self.path.open("r+b") as fh:
                fh.truncate(self._torn_at)
            self._torn_at = None
        with self.path.open("a") as fh:
            fh.write(
                json.dumps(
                    {"version": self.version, "task": task_key, "results": recs},
                    separators=(",", ":"),
                )
                + "\n"
            )


# the witnesses store floats as doubles, whose significand has 53 bits
MIN_PRECISION_BITS = 53


def check_precision_bits(bits: int, name: str = "precision_bits") -> None:
    """Raise ValueError if bits is below MIN_PRECISION_BITS; name is how the
    caller calls the setting."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"{name} must be at least {MIN_PRECISION_BITS}, not {bits}")


@dataclass
class RunConfig:
    checks: tuple[str, ...] = CHECK_IDS
    pmax: int | None = None                  # None: per-check defaults
    d_list: list[int] | None = None
    jobs: int = 1
    fmt: str = "text"                        # json | csv | text
    cache_path: str | None = None
    precision_bits: int = 128
    full_d_sweep: bool = False


def _task_key(check_id: str, p: int, opts: dict) -> str:
    rel = {
        k: opts[k]
        for k in ("d_list", "full_sweep", "precision_bits")
        if opts.get(k) not in (None, False)
    }
    return f"{check_id}|{p}|{json.dumps(rel, sort_keys=True)}"


def _run_job(job) -> list[list[CheckResult]]:
    """Every task of one prime, in order, sharing the prime's PrimeWork."""
    p, check_ids, opts = job
    return [run_check(check_id, p, opts) for check_id in check_ids]


_INDEX = struct.Struct("<I")      # a job index, parent to worker
_LENGTH = struct.Struct("<Q")     # the length of a pickled reply, worker to parent


def _serve_jobs(jobs: list, task_r: int, result_w: int) -> None:
    """A forked worker's loop: run each job whose index arrives on task_r and
    write back the length-prefixed pickle of (True, results), or of (False,
    exception), until the parent closes task_r.  An interrupt ends the loop."""
    import pickle

    while msg := os.read(task_r, _INDEX.size):      # one index, or end of file
        try:
            reply = (True, _run_job(jobs[_INDEX.unpack(msg)[0]]))
        except Exception as exc:
            reply = (False, exc)
        frame = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(frame)) + frame)
        while view:
            view = view[os.write(result_w, view):]


def _fork_jobs(jobs: list, workers: int):
    """Run the jobs on `workers` forked processes; yield (index, results) as
    each job finishes.

    The parent hands each worker one job index at a time over that worker's
    own pipe, in the order of jobs, and the next one when the result is back.
    A worker leaves only by os._exit, so it never flushes the parent's
    buffered output or runs its exit handlers.  An exception raised by a job
    is re-raised here, and a worker that dies raises ChildProcessError, once
    every worker has been killed and reaped.
    """
    import pickle
    import select
    import signal

    todo = iter(range(len(jobs)))
    pids: list[int] = []
    open_fds: set[int] = set()                  # pipe ends the parent holds
    # result fd -> (task fd, pid, job index, the reply's bytes read so far)
    busy: dict[int, tuple[int, int, int, bytearray]] = {}

    def hand_out(task_w: int, result_r: int, pid: int) -> None:
        idx = next(todo, None)
        if idx is None:                          # end of file: the worker exits
            busy.pop(result_r, None)
            os.close(task_w)
            open_fds.discard(task_w)
        else:
            busy[result_r] = (task_w, pid, idx, bytearray())
            os.write(task_w, _INDEX.pack(idx))

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            open_fds |= {task_r, task_w, result_r, result_w}
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in open_fds - {task_r, result_w}:
                        os.close(fd)
                    _serve_jobs(jobs, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            for fd in (task_r, result_w):
                os.close(fd)
                open_fds.discard(fd)
            hand_out(task_w, result_r, pid)
        while busy:
            for fd in select.select(list(busy), [], [])[0]:
                task_w, pid, idx, data = busy[fd]
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise ChildProcessError(
                        f"worker {pid} exited during the job of p = {jobs[idx][0]}")
                data += chunk
                if (len(data) < _LENGTH.size
                        or len(data) < _LENGTH.size + _LENGTH.unpack_from(data)[0]):
                    continue                    # the reply is not complete yet
                ok, value = pickle.loads(data[_LENGTH.size:])
                if not ok:
                    raise value
                hand_out(task_w, fd, pid)
                yield idx, value
    finally:
        for fd in open_fds:
            os.close(fd)
        for pid in pids:
            if busy:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _emit(result: CheckResult, fmt: str, out) -> None:
    if fmt == "json":
        out.write(result.to_json() + "\n")
    elif fmt == "csv":
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
    """Execute the configured checks; returns 0 iff no check failed.  Raises
    ValueError for precision_bits below MIN_PRECISION_BITS."""
    check_precision_bits(config.precision_bits)
    out = out or sys.stdout
    cache = ResultCache(config.cache_path) if config.cache_path else None
    opts = {
        "d_list": config.d_list,
        "full_sweep": config.full_d_sweep,
        "precision_bits": config.precision_bits,
    }
    tasks = []
    for check_id in config.checks:
        pmax = config.pmax if config.pmax is not None else default_pmax(check_id)
        for p in applicable_primes(check_id, pmax):
            tasks.append((check_id, p))

    if config.fmt == "csv":
        out.write("check_id,p,params,status,witness\n")

    results_by_task: dict[int, list[CheckResult]] = {}
    pending: dict[int, list[tuple[int, str, str]]] = {}    # p -> (idx, key, check)
    for idx, (check_id, p) in enumerate(tasks):
        key = _task_key(check_id, p, opts)
        cached = cache.get(key) if cache else None
        if cached is not None:
            results_by_task[idx] = cached
        else:
            pending.setdefault(p, []).append((idx, key, check_id))

    def finish(p: int, computed: list[list[CheckResult]]) -> None:
        for (idx, key, _), results in zip(pending[p], computed):
            results_by_task[idx] = results
            if cache:
                cache.put(key, results)

    # one job per prime, largest first: its checks share one PrimeWork
    jobs = [(p, [c for _, _, c in pending[p]], opts) for p in sorted(pending, reverse=True)]
    workers = min(config.jobs, len(jobs))    # fork no worker that would get no job
    # fork where it exists (not on Windows) and is safe: no other thread runs
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        done = _fork_jobs(jobs, workers)
    else:
        done = ((idx, _run_job(job)) for idx, job in enumerate(jobs))
    with contextlib.closing(done):
        for idx, computed in done:
            finish(jobs[idx][0], computed)

    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for idx in range(len(tasks)):
        for result in results_by_task[idx]:
            counts[result.status] += 1
            _emit(result, config.fmt, out)

    total = sum(counts.values())
    out.write(
        f"# checks run: {total}  passed: {counts['pass']}  "
        f"failed: {counts['fail']}  skipped: {counts['skipped']}\n"
    )
    return 0 if counts["fail"] == 0 else 1
