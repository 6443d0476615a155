"""Traced in-process `legdet` run: spans around the public functions of each
package module, kept in memory and written out when the run ends.

    python3 perfbench/tracer.py --part CHECKS[:PMAX] [--part ...] [--d 1,2,...] \
        --work DIR --tag NAME

For each part in turn it runs `legdet.harness.run(RunConfig(...))` on a fresh
cache, then repeats the parts warm on the same caches, and writes into DIR:

    NAME.out.json, NAME.warm.json   the cold and warm `--format json` output
    NAME.spans.jsonl                one span per line: name, start, end, parent
                                    index, note (det_exact: n, bits, matrix hash)
    NAME.summary.json               the per-layer metrics (see PER_LAYER)

Wrapping a function rebinds its name in every `legdet` module that holds it,
because `harness`, `charsums` and `quadfield` import `det_exact`, `det_affine`
and `squares_matrix` by name.  Nothing in the package itself changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Fixed here rather than read from legdet: BENCHMARK.json names one metric per check.
CHECK_IDS = (
    "theorem-a", "corollary-a", "conjecture-a", "lemma-sign", "eigen", "product",
    "jacobsthal", "row-identity", "carlitz", "chapman", "chapman-star", "sun-zero",
    "sun-qr",
)

# Module-level functions wrapped, by module.  Span names are "<module>.<function>".
TRACED_FUNCTIONS = {
    "ntcore": ("perm_sign_cycles", "perm_sign_formula", "jacobsthal_sum",
               "is_perfect_square"),
    "matrices": ("squares_matrix", "squares_star_matrix", "carlitz_matrix",
                 "chapman_matrix"),
    "exactla": ("det_exact", "det_affine", "char_poly"),
    "charsums": ("eigen_verify", "product_identity", "row_identity_check"),
    "quadfield": ("class_data", "class_number", "fundamental_unit", "chapman_expected"),
    "harness": ("run", "run_check"),
}
COMPUTE_LAYERS = ("ntcore", "matrices", "exactla", "charsums", "quadfield")
DET_BANDS = (("n_le_50", 0, 50), ("n_51_100", 51, 100), ("n_101_200", 101, 200))

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "exactla.det_exact.calls": "count",
    "exactla.det_exact.s": "s",
    "exactla.det_exact.distinct": "count",
    "exactla.det_exact.unique_ratio": "ratio",
    **{f"exactla.det_exact.{band}.{k}": u
       for band, _, _ in DET_BANDS for k, u in (("calls", "count"), ("s", "s"))},
    "exactla.det_exact.cells": "count",
    "exactla.det_exact.out_bits": "bits",
    **{f"{name}.{k}": u
       for name in ("exactla.det_affine", "exactla.char_poly", "charsums.product_identity")
       for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **{f"{name}.{k}": u
       for name in ("charsums.eigen_verify", "charsums.row_identity_check",
                    "ntcore.perm_sign_cycles", "ntcore.perm_sign_formula",
                    "ntcore.for_prime", "matrices.build", "quadfield.class_data",
                    "quadfield.class_number", "quadfield.fundamental_unit")
       for k, u in (("calls", "count"), ("s", "s"))},
    "ntcore.jacobsthal_sum.s": "s",
    **{f"{layer}.self_s": "s" for layer in COMPUTE_LAYERS},
    "harness.self_s": "s",
    "harness.cache.put": "count",
    "harness.cache.put_s": "s",
    "harness.task.p50_ms": "ms",
    "harness.task.p99_ms": "ms",
    "harness.task.max_s": "s",
    **{f"harness.check.{cid}.s": "s" for cid in CHECK_IDS},
    "harness.resume_s": "s",
    "harness.cache.hit_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.layer_coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Metrics that count work: they must repeat exactly from one traced run to the next.
COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u in ("count", "bits")
                      or k == "exactla.det_exact.unique_ratio")


class Tracer:
    """Spans in memory: [name, start, end, parent index, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = (t0, t1)
            if note is not None:
                spans[idx][4] = note(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, t0, t1, parent, note in self.spans:
                fh.write(json.dumps([name, round(t0, 7), round(t1, 7), parent, note]) + "\n")


def _det_note(args, result) -> list:
    rows = getattr(args[0], "entries", args[0])
    return [len(rows), abs(result).bit_length(), hash(tuple(map(tuple, rows)))]


def _rebind(orig, new) -> None:
    """Point every name in a legdet module that refers to orig at new."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "legdet" or mod_name.startswith("legdet."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    import legdet.harness
    import legdet.ntcore

    notes = {
        "exactla.det_exact": _det_note,
        "harness.run_check": lambda args, result: args[0],
    }
    for mod_name, names in TRACED_FUNCTIONS.items():
        mod = sys.modules[f"legdet.{mod_name}"]
        for name in names:
            span = f"{mod_name}.{name}"
            orig = getattr(mod, name)
            _rebind(orig, tracer.wrap(span, orig, notes.get(span)))
    ctx_cls = legdet.ntcore.PrimeCtx
    ctx_cls.for_prime = staticmethod(tracer.wrap("ntcore.for_prime", ctx_cls.for_prime))
    cache_cls = legdet.harness.ResultCache
    cache_cls.get = tracer.wrap("harness.cache.get", cache_cls.get,
                                lambda args, result: result is not None)
    cache_cls.put = tracer.wrap("harness.cache.put", cache_cls.put)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1]


def summarize(spans: list[list], root: int) -> dict[str, float]:
    """Per-layer metrics of the spans below the span at index root."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    below = []
    todo = list(children.get(root, ()))
    while todo:
        i = todo.pop()
        below.append(i)
        todo.extend(children.get(i, ()))
    below.sort()

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def self_time(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def group(prefixes) -> list[int]:
        """Outermost spans whose name starts with one of prefixes."""
        out = []
        for i in below:
            if not spans[i][0].startswith(prefixes):
                continue
            parent = spans[i][3]
            while parent != root and not spans[parent][0].startswith(prefixes):
                parent = spans[parent][3]
            if parent == root:
                out.append(i)
        return out

    m: dict[str, float] = {}

    def calls_and_s(key: str, idx: list[int]) -> None:
        m[f"{key}.calls"] = len(idx)
        m[f"{key}.s"] = sum(dur(i) for i in idx)

    by_name: dict[str, list[int]] = {}
    for i in below:
        by_name.setdefault(spans[i][0], []).append(i)

    dets = by_name.get("exactla.det_exact", [])
    calls_and_s("exactla.det_exact", group(("exactla.det_exact",)))
    notes = [spans[i][4] for i in dets]
    m["exactla.det_exact.distinct"] = len({(n, key) for n, _, key in notes})
    m["exactla.det_exact.unique_ratio"] = (
        m["exactla.det_exact.distinct"] / len(dets) if dets else 0.0)
    for band, lo, hi in DET_BANDS:
        calls_and_s(f"exactla.det_exact.{band}",
                    [i for i in dets if lo <= spans[i][4][0] <= hi])
    m["exactla.det_exact.cells"] = sum(n * n for n, _, _ in notes)
    m["exactla.det_exact.out_bits"] = sum(bits for _, bits, _ in notes)

    for name in ("exactla.det_affine", "exactla.char_poly", "charsums.product_identity"):
        calls_and_s(name, group((name,)))
        m[f"{name}.self_s"] = sum(self_time(i) for i in by_name.get(name, ()))
    for name in ("charsums.eigen_verify", "charsums.row_identity_check",
                 "ntcore.perm_sign_cycles", "ntcore.perm_sign_formula",
                 "ntcore.for_prime", "quadfield.class_data", "quadfield.class_number",
                 "quadfield.fundamental_unit"):
        calls_and_s(name, group((name,)))
    calls_and_s("matrices.build", group(("matrices.",)))
    m["ntcore.jacobsthal_sum.s"] = sum(dur(i) for i in group(("ntcore.jacobsthal_sum",)))
    for layer in COMPUTE_LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_time(i) for i in below if spans[i][0].startswith(f"{layer}."))

    tasks = by_name.get("harness.run_check", [])
    runs = by_name.get("harness.run", [])
    m["harness.self_s"] = sum(dur(i) for i in runs) - sum(dur(i) for i in tasks)
    puts = by_name.get("harness.cache.put", [])
    m["harness.cache.put"] = len(puts)
    m["harness.cache.put_s"] = sum(dur(i) for i in puts)
    task_s = sorted(dur(i) for i in tasks)
    m["harness.task.p50_ms"] = 1000 * _percentile(task_s, 50)
    m["harness.task.p99_ms"] = 1000 * _percentile(task_s, 99)
    m["harness.task.max_s"] = task_s[-1] if task_s else 0.0
    for cid in CHECK_IDS:
        m[f"harness.check.{cid}.s"] = sum(dur(i) for i in tasks if spans[i][4] == cid)

    m["trace.wall_s"] = dur(root)
    m["trace.coverage"] = sum(
        dur(c) for i in runs for c in children.get(i, ())) / dur(root)
    m["trace.layer_coverage"] = sum(
        dur(i) for i in group(tuple(f"{layer}." for layer in COMPUTE_LAYERS))) / dur(root)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", action="append", required=True)
    ap.add_argument("--d", default=None)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from legdet import harness

    def path(kind: str) -> Path:
        return args.work / f"{args.tag}.{kind}"

    configs = []
    for i, part in enumerate(args.part):
        checks, _, pmax = part.partition(":")
        path(f"cache{i}.jsonl").unlink(missing_ok=True)
        configs.append(harness.RunConfig(
            checks=tuple(checks.split(",")),
            pmax=int(pmax) if pmax else None,
            d_list=[int(x) for x in args.d.split(",")] if args.d else None,
            fmt="json",
            cache_path=str(path(f"cache{i}.jsonl")),
        ))

    def workload(kind: str) -> list[int]:
        with path(f"{kind}.json").open("w") as out:
            return [harness.run(config, out=out) for config in configs]

    tracer = Tracer()
    install(tracer)
    workload = tracer.wrap("workload", workload)
    cold = len(tracer.spans)
    codes = workload("out")
    warm = len(tracer.spans)
    codes += workload("warm")
    for config in configs:
        Path(config.cache_path).unlink()

    spans = tracer.spans
    metrics = summarize(spans, cold)
    gets = [s[4] for s in spans[warm:] if s[0] == "harness.cache.get"]
    metrics["harness.resume_s"] = spans[warm][2] - spans[warm][1]
    metrics["harness.cache.hit_ratio"] = sum(gets) / len(gets) if gets else 0.0
    tracer.write(path("spans.jsonl"))
    path("summary.json").write_text(json.dumps({"exit_codes": codes, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
