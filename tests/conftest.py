"""Shared independent oracles for the test suite, and run_json, which runs
checks through the code `legdet verify --format json` runs.

The oracles deliberately avoid the library's code paths: symbols by Euler's
criterion on raw pow, determinants by cofactor expansion, primality by trial
division.  They are the reference implementations the fast paths are checked
against.
"""

from __future__ import annotations

import io
import json

from legdet.harness import RunConfig, run


def run_json(**config) -> tuple[int, list[dict]]:
    """Exit code and result records of harness.run(RunConfig(**config)) in
    JSON format."""
    out = io.StringIO()
    code = run(RunConfig(fmt="json", **config), out)
    lines = out.getvalue().splitlines()
    return code, [json.loads(line) for line in lines if not line.startswith("#")]


def oracle_is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def oracle_primes(lo: int, hi: int, cls4: int | None = None) -> list[int]:
    return [
        p
        for p in range(lo, hi + 1)
        if oracle_is_prime(p) and (cls4 is None or p % 4 == cls4)
    ]


def oracle_legendre(x: int, p: int) -> int:
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def oracle_qr_set(p: int) -> set[int]:
    return {j * j % p for j in range(1, p)}


def oracle_det_cofactor(rows) -> int:
    """Determinant by first-row cofactor expansion; exponential, dim <= ~7."""
    dim = len(rows)
    if dim == 0:
        return 1
    if dim == 1:
        return rows[0][0]
    total = 0
    for j in range(dim):
        c = rows[0][j]
        if c == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * c * oracle_det_cofactor(minor)
    return total


def oracle_perm_sign_inversions(perm: list[int]) -> int:
    """Sign of a permutation given as a list of images of 0..n-1, by inversion count."""
    inv = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1
