"""Benchmark of `legdet verify`, run through the real CLI in fresh processes.

    python3 perfbench/run.py --workload det-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout; the package is imported from its `src/`.

--trace 0 times the CLI: `setup_s` (five runs with no tasks), then, until
--seconds have passed, a serial cold run (`verify_s`, `peak_rss_mb`) and the
same run with `--jobs 2` (`verify_j2_s`, and `speedup_j2`, the ratio of the
two).  Each metric is the median over the run.  --trace 1 alternates an
untraced serial CLI run with a traced in-process run (perfbench/tracer.py)
and prints the per-layer metrics.

Every run checks the program's output: every result is `pass` except the two
documented p = 3 Chapman results on poly-field; every pass re-validates; a
seeded sample of determinant witnesses agrees mod a 61-bit prime with
`legdet.det_mod`; the serial, `--jobs 2`, traced and warm-cache runs print the
same bytes; the warm re-run recomputes nothing.  Errors are counted against
the results expected (`failed` / `attempted` in the last line, printed as
`error_share`).

--selftest runs the default-ceiling workloads once, prints the default-run
wall time, and checks the call counts the seed commit makes.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
Scratch files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TIMEOUT_S = 150.0          # whole run, children included
SETUP_RUNS = 5
ORACLE_Q = (1 << 61) - 1   # a 61-bit prime
ORACLE_SAMPLE = 4

DET_CHECKS = ("theorem-a", "corollary-a", "conjecture-a", "product", "sun-zero", "sun-qr")
MOD1_CHECKS = frozenset({"theorem-a", "corollary-a", "lemma-sign", "eigen", "product",
                         "jacobsthal", "row-identity", "sun-zero", "sun-qr"})


@dataclass(frozen=True)
class Part:
    """One `legdet verify` process."""
    checks: tuple[str, ...]
    pmax: int | None        # None: each check's default ceiling


@dataclass(frozen=True)
class Workload:
    parts: tuple[Part, ...]   # run one after another; their times add up
    full: Part                # the same checks at the default ceilings (--selftest)
    expected_fail: frozenset = frozenset()

    @property
    def checks(self) -> tuple[str, ...]:
        return tuple(c for part in self.parts for c in part.checks)


# Three workloads partition the default `legdet verify` checks; det-large adds
# large n.  Ceilings are scaled down from the defaults so that a serial run
# takes about a second and a run holds ten or so of them.  poly-field keeps
# carlitz, whose cost grows fastest, below the other checks' ceiling.
SCALAR_CHECKS = ("lemma-sign", "jacobsthal", "row-identity")
POLY_CHECKS = ("chapman", "chapman-star", "eigen")
WORKLOADS = {
    "det-sweep": Workload((Part(DET_CHECKS, 109),), Part(DET_CHECKS, None)),
    "det-large": Workload((Part(("conjecture-a",), 230),), Part(("conjecture-a",), 400)),
    "scalar-sweep": Workload((Part(SCALAR_CHECKS, 1000),), Part(SCALAR_CHECKS, None)),
    "poly-field": Workload((Part(("carlitz",), 31), Part(POLY_CHECKS, 110)),
                           Part(("carlitz",) + POLY_CHECKS, None),
                           frozenset({("chapman", 3), ("chapman-star", 3)})),
}

# Counts the seed commit makes at the default ceilings (det-sweep at seed 0).
SEED_COUNTS = {
    "det-sweep": {
        "exactla.det_exact.calls": 578,
        "exactla.det_exact.distinct": 292,
        "exactla.det_exact.n_le_50.calls": 311,
        "exactla.det_exact.n_51_100.calls": 267,
        "exactla.det_exact.cells": 1_989_808,
        "exactla.det_exact.out_bits": 41_213,
    },
    "scalar-sweep": {"ntcore.perm_sign_cycles.calls": 67_810},
}

END_TO_END = {"setup_s": "s", "verify_s": "s", "verify_j2_s": "s",
              "speedup_j2": "ratio", "peak_rss_mb": "MB"}


class Failure(Exception):
    """The benchmark cannot run here."""


def d_list(name: str, seed: int) -> list[int] | None:
    """det-sweep's --d list: the library default at seed 0, else seeded."""
    if name != "det-sweep" or seed == 0:
        return None
    rng = random.Random(seed)
    return [1, 2, 3, 5, -1] + [rng.randrange(1, 10**6) for _ in range(8)]


def verify_args(part: Part, ds) -> list[str]:
    args = ["verify", "--format", "json", "--what", ",".join(part.checks)]
    if part.pmax is not None:
        args += ["--pmax", str(part.pmax)]
    if ds:
        args += ["--d", ",".join(map(str, ds))]
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts child processes under one deadline and reaps every one of them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], out: Path) -> tuple[float, float, int]:
        """Run argv with stdout to out; returns (wall s, peak RSS MB, exit code)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Failure("time limit reached")
        with out.open("wb") as fh, out.with_suffix(".err").open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fh, stderr=err,
                                    cwd=ROOT, env=self.env, start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise Failure(f"{' '.join(argv)} was killed")
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def cli(self, args: list[str], out: Path) -> tuple[float, float, int]:
        return self.run(["-m", "legdet.cli", *args], out)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def expected_keys(parts, ds) -> set[tuple]:
    """(check, p, d) of every result the run must print, from the checks'
    prime classes and the d-list."""
    from legdet import harness
    from legdet.ntcore import is_prime

    keys = set()
    for part, cid in ((part, cid) for part in parts for cid in part.checks):
        top = part.pmax if part.pmax is not None else harness.default_pmax(cid)
        for p in range(3, top + 1):
            if not is_prime(p) or (cid in MOD1_CHECKS and p % 4 != 1) \
                    or (cid == "conjecture-a" and p % 4 != 3):
                continue
            if cid not in ("theorem-a", "sun-zero", "sun-qr"):
                keys.add((cid, p, None))
                continue
            for d in dict.fromkeys(x % p for x in (ds or harness.default_d_list(p))):
                symbol = 0 if d == 0 else (1 if pow(d, (p - 1) // 2, p) == 1 else -1)
                if (cid == "theorem-a" or (cid == "sun-zero" and symbol == -1)
                        or (cid == "sun-qr" and symbol == 1)):
                    keys.add((cid, p, d))
    return keys


def oracle_pairs(rec: dict):
    """(matrix builder, claimed determinant) pairs of one result's witness."""
    from legdet import matrices
    from legdet.ntcore import PrimeCtx

    cid, w = rec["check_id"], rec["witness"]
    ctx = PrimeCtx.for_prime(rec["p"])
    if cid in ("theorem-a", "sun-zero", "sun-qr"):
        yield lambda: matrices.squares_matrix(ctx, rec["params"]["d"]), int(w["S"])
    elif cid in ("conjecture-a", "corollary-a"):
        yield lambda: matrices.squares_matrix(ctx, 1), int(w["S"])
        if cid == "corollary-a":
            yield lambda: matrices.squares_star_matrix(ctx), int(w["Sstar"])
    elif cid == "product":
        yield lambda: matrices.squares_matrix(ctx, 1), int(w["det"])
    elif cid == "carlitz":     # det(xI - M) at x = 0 is det(M), p - 1 being even
        yield lambda: matrices.carlitz_matrix(ctx), json.loads(w["coeffs"])[0]
    elif cid in ("chapman", "chapman-star"):
        c = json.loads(w["coeffs"]) + [0]
        m = matrices.chapman_matrix(ctx, cid == "chapman-star")
        yield lambda: m.at(0), c[0]
        yield lambda: m.at(1), c[0] + c[1]


def check_output(w: Workload, parts, ds, oracle_seed: str, text: bytes) -> list[str]:
    """Every error in one run's output, one message each."""
    from legdet import det_mod, harness

    errors = []
    recs = [json.loads(line) for line in text.decode().splitlines()
            if line and not line.startswith("#")]
    got = [(r["check_id"], r["p"], (r["params"] or {}).get("d")) for r in recs]
    expected = expected_keys(parts, ds)
    errors += [f"missing {k}" for k in sorted(expected - set(got), key=str)]
    errors += [f"unexpected {k}" for k in sorted(set(got) - expected, key=str)]
    errors += ["duplicate result"] * (len(got) - len(set(got)))
    pool = []
    for rec in recs:
        should_fail = (rec["check_id"], rec["p"]) in w.expected_fail
        if rec["status"] != ("fail" if should_fail else "pass"):
            errors.append(f"{rec['check_id']} p={rec['p']} is {rec['status']}")
        elif not harness.revalidate(harness.CheckResult.from_record(rec)):
            errors.append(f"{rec['check_id']} p={rec['p']} does not re-validate")
        pool += [(rec, pair) for pair in oracle_pairs(rec)]
    rng = random.Random(oracle_seed)
    for rec, (build, claimed) in rng.sample(pool, min(ORACLE_SAMPLE, len(pool))):
        if claimed % ORACLE_Q != det_mod(build(), ORACLE_Q):
            errors.append(f"{rec['check_id']} p={rec['p']} disagrees with det_mod")
    return errors


def diff_lines(a: bytes, b: bytes) -> int:
    la, lb = a.splitlines(), b.splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def environment(seed: int) -> dict:
    from importlib.metadata import version

    from legdet.harness import code_version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:   # GIT_DIR keeps git from searching above the checkout
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
                             cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "git_sha": sha, "legdet_code": code_version()}


class Check:
    """Error tally of one benchmark run."""

    def __init__(self, name: str, w: Workload, ds, seed: int):
        self.w, self.ds, self.oracle_seed = w, ds, f"oracle-{name}-{seed}"
        self.expected_rcs = [int(any(c in part.checks for c, _ in w.expected_fail))
                             for part in w.parts]
        self.ref: bytes | None = None
        self.per_run = len(expected_keys(w.parts, ds))
        self.runs = 0
        self.failed = 0
        self.messages: list[str] = []

    def error(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.messages.append(message)

    def output(self, label: str, outs: list[Path], rcs: list[int]) -> None:
        """Count the errors of one verify run's output."""
        text = b"".join(out.read_bytes() for out in outs)
        self.runs += 1
        if rcs != self.expected_rcs:
            self.error(f"{label}: exit codes {rcs}")
        if self.ref is None:
            self.ref = text
            for e in check_output(self.w, self.w.parts, self.ds, self.oracle_seed, text):
                self.error(f"{label}: {e}")
        elif text != self.ref:
            n = diff_lines(self.ref, text)
            self.error(f"{label}: {n} lines differ from the first serial run", n)

    @property
    def attempted(self) -> int:
        return max(1, self.per_run * self.runs)


def run_parts(runner: Runner, w: Workload, ds, name: str, extra: list[str],
              fresh: bool = True) -> tuple[float, float, list[Path], list[int]]:
    """One CLI process per part, each with its own cache; fresh empties the
    caches first.  Returns (total wall s, peak RSS MB, outputs, exit codes)."""
    wall, rss, outs, rcs = 0.0, 0.0, [], []
    for i, part in enumerate(w.parts):
        out, cache = WORK / f"{name}.{i}.json", WORK / f"{name}.cache{i}.jsonl"
        if fresh:
            cache.unlink(missing_ok=True)
        t, r, rc = runner.cli(verify_args(part, ds) + ["--cache", str(cache), *extra], out)
        wall, rss = wall + t, max(rss, r)
        outs.append(out)
        rcs.append(rc)
    return wall, rss, outs, rcs


def cache_lines(name: str, w: Workload) -> int:
    return sum((WORK / f"{name}.cache{i}.jsonl").read_bytes().count(b"\n")
               for i in range(len(w.parts)))


def measure_setup(runner: Runner, w: Workload, tag: str, k: int) -> list[float]:
    """Wall times of k runs of all the workload's checks with no prime to check."""
    args = verify_args(Part(w.checks, 2), None)
    runner.cli(args, WORK / f"{tag}.setup.json")    # the first import compiles bytecode
    return [runner.cli(args, WORK / f"{tag}.setup.json")[0] for _ in range(k)]


def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Check]:
    w = WORKLOADS[name]
    ds = d_list(name, seed)
    tag = f"{name}-s{seed}-t{int(trace)}"
    runner = Runner(time.monotonic() + TIMEOUT_S)
    check = Check(name, w, ds, seed)
    setup = measure_setup(runner, w, tag, SETUP_RUNS)

    samples: dict[str, list[float]] = {k: [] for k in ("verify_s", "verify_j2_s",
                                                        "speedup_j2", "peak_rss_mb")}
    layer: list[dict] = []
    end = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < end:
        wall, rss, outs, rcs = run_parts(runner, w, ds, f"{tag}.serial", [])
        check.output(f"serial #{i}", outs, rcs)
        samples["verify_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        if trace:
            parts = [f"--part={','.join(p.checks)}:{p.pmax}" for p in w.parts]
            _, _, rc = runner.run(
                [tracer.__file__, *parts, *(["--d", ",".join(map(str, ds))] if ds else []),
                 "--work", str(WORK), "--tag", tag], WORK / f"{tag}.tracer.log")
            if rc != 0:
                raise Failure(f"traced run exited {rc}")
            summary = json.loads((WORK / f"{tag}.summary.json").read_text())
            codes = summary["exit_codes"]
            half = len(codes) // 2
            check.output(f"traced #{i}", [WORK / f"{tag}.out.json"], codes[:half])
            check.output(f"traced warm #{i}", [WORK / f"{tag}.warm.json"], codes[half:])
            layer.append(summary["metrics"])
        else:
            if i == 0:
                lines = cache_lines(f"{tag}.serial", w)
                _, _, outs, rcs = run_parts(runner, w, ds, f"{tag}.serial", [], fresh=False)
                check.output("warm re-run", outs, rcs)
                added = cache_lines(f"{tag}.serial", w) - lines
                if added:
                    check.error(f"warm re-run recomputed {added} tasks", added)
            wall2, _, outs, rcs = run_parts(runner, w, ds, f"{tag}.j2", ["--jobs", "2"])
            check.output(f"jobs-2 #{i}", outs, rcs)
            samples["verify_j2_s"].append(wall2)
            samples["speedup_j2"].append(wall / wall2)
        i += 1

    if not trace:
        samples["setup_s"] = setup
        return {k: samples[k] for k in END_TO_END}, check
    for key in tracer.COUNT_METRICS:
        if len({m[key] for m in layer if key in m}) > 1:
            check.error(f"{key} differs between traced runs")
    metrics = {k: [m[k] for m in layer] for k in layer[0]}
    untraced = statistics.median(samples["verify_s"]) - len(w.parts) * statistics.median(setup)
    overhead = statistics.median(metrics["trace.wall_s"]) - untraced
    metrics["trace.overhead_s"] = [overhead]
    metrics["trace.overhead_share"] = [overhead / untraced]
    return {k: metrics[k] for k in tracer.PER_LAYER}, check


def selftest() -> int:
    """Default-ceiling runs: the default-run wall time and the seed's counts."""
    runner = Runner(time.monotonic() + 900)
    ok = True
    total = 0.0
    for name in ("det-sweep", "scalar-sweep", "poly-field"):
        w = WORKLOADS[name]
        out = WORK / "selftest.json"
        wall, _, rc = runner.cli(verify_args(w.full, None), out)
        errors = check_output(w, [w.full], None, "oracle-selftest", out.read_bytes())
        total += wall
        print(f"{name:<13} default ceilings  verify_s {wall:8.3f} s  exit {rc}"
              f"  errors {len(errors)}")
        ok = ok and not errors
        if name not in SEED_COUNTS:
            continue
        _, _, rc = runner.run([tracer.__file__, f"--part={','.join(w.full.checks)}",
                               "--work", str(WORK), "--tag", "selftest"], WORK / "selftest.log")
        if rc != 0:
            raise Failure(f"traced run exited {rc}")
        got = json.loads((WORK / "selftest.summary.json").read_text())["metrics"]
        for key, want in SEED_COUNTS[name].items():
            print(f"  {key:<36} {got[key]:>10}  seed commit {want:>10}"
                  f"  {'same' if got[key] == want else 'DIFFERENT'}")
            ok = ok and got[key] == want
    print(f"default run (det-sweep + scalar-sweep + poly-field) verify_s {total:.3f} s")
    print(json.dumps({"environment": environment(0)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "legdet" / "__init__.py").is_file():
        print(f"error: no legdet package under {SRC}", file=sys.stderr)
        return 2
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest()
        samples, check = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    units = tracer.PER_LAYER if args.trace else END_TO_END
    report = {"workload": args.workload, "trace": args.trace, "environment": env,
              "errors": check.messages, "metrics": {}}
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in env.items() if k != "seed"))
    print(f"# {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for key, values in samples.items():
        q1, med, q3 = quartiles(values)
        report["metrics"][key] = {"median": med, "q1": q1, "q3": q3, "samples": values,
                                  "unit": units[key]}
        print(f"  {key:<36} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(values):4d}  {units[key]}")
    failed = check.failed
    print(f"  {'error_share':<36} {failed / check.attempted:12.6g} "
          f"({failed} of {check.attempted} results)  ratio")
    for msg in check.messages[:20]:
        print(f"# error: {msg}")
    (WORK / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {k: {"value": report["metrics"][k]["median"], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
