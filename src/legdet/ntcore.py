"""Scalar number theory: primality, Legendre and quartic symbols, two-square
decompositions, Jacobsthal sums, permutation signs, perfect-square testing.

Everything here is exact integer arithmetic on machine-word primes; all
functions are pure and PrimeCtx is immutable, so values can be shared freely
across workers.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

# The first 12 primes as Miller-Rabin bases: exact for all n below
# psi_12 = 318,665,857,834,031,151,167,461, about 3.2 * 10^23 (Sorenson and
# Webster 2015; OEIS A014233), so for every 64-bit n and then some.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Primality by Miller-Rabin to the bases _MR_WITNESSES: exact for every
    m < 318,665,857,834,031,151,167,461; above that, only a strong
    probable-prime test."""
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m == q:
            return True
        if m % q == 0:
            return False
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def legendre(x: int, p: int) -> int:
    """Legendre symbol (x/p) by Euler's criterion; p an odd prime."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


@functools.lru_cache(maxsize=128)
def _factor_trial(m: int) -> tuple[int, ...]:
    """Distinct prime factors by trial division (fine at desk scale); the
    last 128 are kept, so each prime's n and p - 1 are factored once."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def _generates(g: int, p: int, factors: tuple[int, ...]) -> bool:
    """Whether g generates the units mod the prime p, given the distinct
    prime factors of p - 1."""
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in factors)


def find_generator(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    if p == 2:
        return 1
    factors = _factor_trial(p - 1)
    for g in range(2, p):
        if _generates(g, p, factors):
            return g
    raise ValueError(f"no generator found for {p}")  # unreachable for prime p


def is_perfect_square(v: int) -> int | None:
    """The non-negative integer root of v if v is a perfect square, else None."""
    if v < 0:
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


class TwoSquare(NamedTuple):
    """The normalized decomposition p = a^2 + 4*b^2 with a odd, a = 1 (mod 4), b > 0."""

    a: int
    b: int


class PrimeCtx(NamedTuple):
    """A validated odd prime with its multiplicative structure precomputed.

    powers[t] is g^t mod p for t < p - 1, and dlog[x] the index t of x
    (dlog[0] = -1 sentinel); symbols[x] is the Legendre symbol (x/p).
    decomp is present exactly when p = 1 (mod 4).
    """

    p: int
    n: int
    cls: int
    g: int
    powers: tuple[int, ...]
    dlog: tuple[int, ...]
    symbols: tuple[int, ...]
    decomp: TwoSquare | None
    # equal only to itself and hashed by identity: no comparison walks the tables
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @classmethod
    def for_prime(cls, p: int, g: int | None = None) -> "PrimeCtx":
        if not is_prime(p) or p == 2:
            raise ValueError(f"{p} is not an odd prime")
        if g is None:
            g = find_generator(p)
        elif not _generates(g, p, _factor_trial(p - 1)):
            raise ValueError(f"{g} does not generate the units mod {p}")
        powers, dlog = [1] * (p - 1), [-1] * p
        x = 1
        for t in range(p - 1):
            powers[t], dlog[x] = x, t
            x = x * g % p
        symbols = [0] * p
        for x in powers[::2]:               # the squares g^(2t)
            symbols[x] = 1
        for x in powers[1::2]:
            symbols[x] = -1
        decomp = _two_square(p, g) if p % 4 == 1 else None
        return cls(p, (p - 1) // 2, p % 4, g, tuple(powers), tuple(dlog), tuple(symbols),
                   decomp)

    def legendre(self, x: int) -> int:
        return self.symbols[x % self.p]

    def epsilon(self, d: int) -> int:
        """-1 when d is a quadratic but not biquadratic residue mod p, else +1."""
        if self.cls != 1 or self.legendre(d) != 1:
            return 1
        return -1 if pow(d % self.p, (self.p - 1) // 4, self.p) == self.p - 1 else 1


def _two_square(p: int, g: int) -> TwoSquare:
    """p = a^2 + 4 b^2 via sqrt(-1) mod p and Cornacchia's Euclidean descent.

    g generates the units mod p, so g^((p-1)/2) = -1 and g^((p-1)/4) is a
    square root of -1.  Either root gives the same normalized result.
    ArithmeticError if the descent does not end at x^2 + y^2 = p, as when
    g^((p-1)/4) is no square root of -1 because g is no generator.
    """
    a0, b0 = p, pow(g, (p - 1) // 4, p)
    while b0 * b0 > p:
        a0, b0 = b0, a0 % b0
    x = b0
    y = math.isqrt(p - x * x)
    if x * x + y * y != p:
        raise ArithmeticError(f"no p = x^2 + y^2 from g = {g} mod {p}")
    odd, even = (x, y) if x % 2 == 1 else (y, x)
    a = odd if odd % 4 == 1 else -odd
    return TwoSquare(a, even // 2)


def jacobsthal_sum(ctx: PrimeCtx) -> int:
    """sum_{j=1..n} ((1+j^2)/p) (j/p); equals -a for p = 1 (mod 4)."""
    p, sym = ctx.p, ctx.symbols
    return sum(sym[(1 + j * j) % p] * sym[j] for j in range(1, ctx.n + 1))


def perm_sign_cycles(ctx: PrimeCtx, d: int) -> int:
    """Sign of x -> d*x on the quadratic residues, by cycle decomposition.

    The n residues form a group and d lies in it, so the cycle through x is
    the coset x<d>: every cycle has length ord(d), and there are n / ord(d)
    of them; the sign is (-1)^(n - n / ord(d)).  ord(d) divides n, and comes
    from n's prime factors q by dividing e = n by q while d^(e/q) = 1, with
    neither dlog nor a walk.
    """
    p, n = ctx.p, ctx.n
    d %= p
    if ctx.symbols[d] != 1:
        raise ValueError(f"d={d} is not a quadratic residue mod {p}")
    order = n
    for q in _factor_trial(n):
        while order % q == 0 and pow(d, order // q, p) == 1:
            order //= q
    return -1 if (n - n // order) % 2 else 1


def perm_sign_rotation(ctx: PrimeCtx, d: int) -> int:
    """Sign of the same permutation, by its rotation structure.

    In the coordinates x = g^(2t), t in Z/n, x -> d*x is rotation by
    k = dlog(d)/2, which has gcd(n, k) cycles: the sign is
    (-1)^(n - gcd(n, k)), read from dlog without a walk.
    """
    p = ctx.p
    d %= p
    if ctx.symbols[d] != 1:
        raise ValueError(f"d={d} is not a quadratic residue mod {p}")
    return -1 if (ctx.n - math.gcd(ctx.n, ctx.dlog[d] // 2)) % 2 else 1


def perm_sign_formula(ctx: PrimeCtx, d: int) -> int:
    """Sign of the same permutation, for p = 1 (mod 4): epsilon(d), which
    reads d^((p-1)/4) mod p."""
    p = ctx.p
    d %= p
    if ctx.symbols[d] != 1:
        raise ValueError(f"d={d} is not a quadratic residue mod {p}")
    if ctx.cls != 1:
        raise ValueError(f"p={p} must be 1 (mod 4)")
    return -1 if pow(d, (p - 1) // 4, p) == p - 1 else 1


def euler_table(p: int, n: int) -> list[int]:
    """chi[j] = j^((p-1)/2) mod p, as +1 or -1, for j = 1..n < p; chi[0] = 0.

    Euler's criterion gives each entry; pow computes it only at prime j, and
    a composite j = q*i with q its smallest prime factor, from a sieve to n,
    takes chi(q) chi(i), since j -> j^((p-1)/2) is multiplicative.  Nothing
    here reads a generator, dlog, powers or symbols.  For p = 1 (mod 4),
    epsilon(j^2) = chi(j) because (j^2)^((p-1)/4) = j^((p-1)/2): that is
    Euler's criterion read at j, not the sign lemma restated.
    """
    spf = [0] * (n + 1)                     # smallest prime factor; 0: 1 or a prime
    # q descends, so the last q written at a composite j is its least prime factor
    for q in range(math.isqrt(n), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, n + 1, q))
    e = (p - 1) // 2
    chi = [0] * (n + 1)
    for j in range(1, n + 1):
        q = spf[j]
        chi[j] = chi[q] * chi[j // q] if q else (1 if pow(j, e, p) == 1 else -1)
    return chi
