"""Shared independent oracles for the test suite, and run_json, which runs
checks through the code `legdet verify --format json` runs.

The oracles deliberately avoid the library's code paths: symbols by Euler's
criterion on raw pow, determinants by cofactor expansion, permutation signs by
inversion counts and by walking every cycle, primality by trial division, unit
minimality by the Pell unit of Z[sqrt p], class numbers by the Dirichlet sine
product in mpmath, eigenvalue identities in Z[zeta_(p-1)], the
row sums of the squares matrix by an n x n numpy product.  They are the
reference implementations the fast paths are checked against.
"""

from __future__ import annotations

import io
import json
import math

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


def oracle_perm_sign_cycles(p: int, d: int) -> int:
    """Sign of x -> d*x on the quadratic residues mod p, for a residue d, by
    walking every cycle: (-1)^(n - the number of cycles), n = (p-1)/2."""
    n = (p - 1) // 2
    visited = bytearray(p)
    cycles = 0
    for j in range(1, n + 1):
        s = j * j % p
        if visited[s]:
            continue
        cycles += 1
        x = s
        while not visited[x]:
            visited[x] = 1
            x = x * d % p
    return -1 if (n - cycles) % 2 else 1


def oracle_pell_unit(p: int) -> tuple[int, int]:
    """The fundamental unit x + y sqrt(p) of Z[sqrt p] (x, y > 0, norm +-1),
    for a non-square p > 1: the convergent of sqrt(p) that ends its first
    continued-fraction period."""
    a0 = math.isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        if a == 2 * a0:
            return h, k
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def oracle_is_fundamental_unit(p: int, u: int, v: int) -> bool:
    """Whether (u + v sqrt p)/2, u, v > 0 and of norm +-1, is the fundamental
    unit of the ring of integers O of Q(sqrt p), for a prime p = 1 (mod 4).

    The Pell unit of Z[sqrt p] is the fundamental unit eps when eps lies in
    Z[sqrt p] (u, v even) and eps^3 otherwise.  With u, v even, eps could
    also be the cube of an odd fundamental unit; so it must have no cube root
    in O, i.e. no integer t with t^3 - 3 N t = u, N = N(eps) (the trace of
    delta^3 for delta of trace t and norm N).
    """
    norm = (u * u - p * v * v) // 4
    if u % 2 == 0 and v % 2 == 0:
        if oracle_pell_unit(p) != (u // 2, v // 2):
            return False
        # t^3 - 3 N t is below u at t = 0, 1 and increasing from t = 1 on,
        # so bisect for the least t in [0, u] where it reaches u
        lo, hi = 0, u
        while lo < hi:
            t = (lo + hi) // 2
            if t ** 3 - 3 * norm * t < u:
                lo = t + 1
            else:
                hi = t
        return lo ** 3 - 3 * norm * lo != u
    cube = ((u ** 3 + 3 * p * u * v * v) // 8, (3 * u * u * v + p * v ** 3) // 8)
    return oracle_pell_unit(p) == cube


def oracle_class_number(p: int, bits: int) -> int:
    """Class number h of Q(sqrt p), p = 1 (mod 4) prime, by the Dirichlet
    sine product, in mpmath at the given precision:

        2 h log(eps) = sum over a in 1..p-1 of -(a/p) log sin(pi a/p).

    eps is the Pell unit of Z[sqrt p] or, when that is a cube in the ring of
    integers, its cube root.  Fails unless the value lies within 1e-6 of an
    integer.
    """
    import mpmath

    x, y = oracle_pell_unit(p)
    k = 1 if oracle_is_fundamental_unit(p, 2 * x, 2 * y) else 3   # Pell unit = eps^k
    with mpmath.workprec(bits):
        acc = -mpmath.fsum(oracle_legendre(a, p) * mpmath.log(mpmath.sin(mpmath.pi * a / p))
                           for a in range(1, p))
        hval = k * acc / (2 * mpmath.log(x + y * mpmath.sqrt(p)))
        h = int(mpmath.nint(hval))
        assert h >= 1 and abs(hval - h) < 1e-6, (p, bits, hval)
    return h


def oracle_eigen_identity(p: int, rows=None) -> tuple[bool, bool, int | None]:
    """(real, vandermonde, first_bad_row) for the eigenvalues of the n x n
    matrix rows, by default [((i^2+j^2)/p)], n = (p-1)/2, p = 1 (mod 4), in
    exact arithmetic in Z[zeta], zeta = zeta_(p-1).

    chi(g) = zeta for the least primitive root g, v_k = (chi^k(j^2))_j and
    lambda_k = sum_j ((1+j^2)/p) chi^k(j^2).  real: every lambda_k equals its
    conjugate; vandermonde: the chi(j^2) are distinct; first_bad_row: the
    first row i where (M v_k)_i = lambda_k (v_k)_i fails for some k, or None.
    An element of Z[zeta] is a coefficient vector mod x^(p-1) - 1, and it is
    zero when its remainder by the cyclotomic polynomial Phi_(p-1) is.
    """
    from legdet.charsums import cyclotomic_polynomial

    m, n = p - 1, (p - 1) // 2
    if rows is None:
        rows = [[oracle_legendre(i * i + j * j, p) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    primes = [q for q in range(2, p) if m % q == 0 and oracle_is_prime(q)]
    g = next(g for g in range(2, p) if all(pow(g, m // q, p) != 1 for q in primes))
    dlog = {pow(g, t, p): t for t in range(m)}
    exps = [2 * dlog[j] % m for j in range(1, n + 1)]        # chi(j^2) = zeta^(2 dlog j)

    def element(coeffs, k, shift=0):        # zeta^shift sum_j coeffs_j chi^k(j^2)
        vec = [0] * m
        for c, e in zip(coeffs, exps):
            vec[(k * e + shift) % m] += c
        return vec

    def is_zero(vec):
        for i in range(m - 1, deg - 1, -1):
            if c := vec[i]:
                for t, f in enumerate(phi):
                    vec[i - deg + t] -= c * f
        return not any(vec)

    lams = [element([oracle_legendre(1 + j * j, p) for j in range(1, n + 1)], k)
            for k in range(1, n + 1)]
    real = all(is_zero([a - b for a, b in zip(lam, lam[:1] + lam[:0:-1])]) for lam in lams)
    vandermonde = len(set(exps)) == n
    for i, row in enumerate(rows, start=1):
        for k, lam in enumerate(lams, start=1):
            s = k * exps[i - 1] % m                      # lambda_k zeta^s
            rhs = lam[m - s:] + lam[:m - s]
            if not is_zero([a - b for a, b in zip(element(row, k), rhs)]):
                return real, vandermonde, i
    return real, vandermonde, None


def oracle_row_sums(p: int) -> list[int]:
    """sum_i ((i^2+j^2)/p)(i/p) for j = 1..n, n = (p-1)/2, by brute force:
    the symbol vector times the n x n matrix [((i^2+j^2)/p)], in numpy int64."""
    import numpy as np

    n = (p - 1) // 2
    sym = np.array([oracle_legendre(x, p) for x in range(p)], dtype=np.int64)
    i = np.arange(1, n + 1, dtype=np.int64)
    sq = i * i % p
    return [int(s) for s in sym[i] @ sym[(sq[:, None] + sq[None, :]) % p]]
