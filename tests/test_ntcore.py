import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import legdet

from conftest import (
    oracle_is_prime,
    oracle_legendre,
    oracle_perm_sign_cycles,
    oracle_perm_sign_inversions,
    oracle_primes,
    oracle_qr_set,
)
from legdet.ntcore import (
    PrimeCtx,
    TwoSquare,
    _two_square,
    euler_table,
    find_generator,
    is_perfect_square,
    is_prime,
    jacobsthal_sum,
    legendre,
    perm_sign_cycles,
    perm_sign_formula,
    perm_sign_rotation,
)


def test_is_prime_small_examples():
    assert is_prime(13)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13


def test_is_prime_matches_trial_division():
    for m in range(0, 3000):
        assert is_prime(m) == oracle_is_prime(m), m
    # spot checks around word-size boundaries
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime((1 << 61) - 1)


def test_is_prime_matches_sympy_around_2_64():
    # the window holds 13 primes, 2^64 + 13 (the Chapman modulus's base,
    # the least prime above 2^64) among them
    import sympy

    window = range((1 << 64) - 300, (1 << 64) + 301)
    primes = [m for m in window if is_prime(m)]
    assert primes == [m for m in window if sympy.isprime(m)]
    assert len(primes) == 13
    assert min(m for m in primes if m > 1 << 64) == (1 << 64) + 13


def test_legendre_examples():
    ctx5 = PrimeCtx.for_prime(5)
    ctx13 = PrimeCtx.for_prime(13)
    assert ctx5.legendre(5) == 0
    assert ctx13.legendre(3) == 1
    assert ctx5.legendre(2) == -1


def test_legendre_matches_qr_table():
    for p in oracle_primes(3, 200):
        ctx = PrimeCtx.for_prime(p)
        qrs = oracle_qr_set(p)
        for x in range(p):
            expected = 0 if x == 0 else (1 if x in qrs else -1)
            assert ctx.legendre(x) == expected
            assert legendre(x, p) == expected


def test_epsilon_examples():
    ctx = PrimeCtx.for_prime(13)
    assert ctx.epsilon(3) == 1    # fourth powers mod 13 are {1, 3, 9}
    assert ctx.epsilon(4) == -1   # 4^3 = 64 = -1 (mod 13)
    assert ctx.epsilon(0) == 1


def test_epsilon_multiplicative_on_residues():
    for p in (13, 17, 29, 37):
        ctx = PrimeCtx.for_prime(p)
        qrs = sorted(oracle_qr_set(p))
        for d1 in qrs:
            for d2 in qrs:
                assert ctx.epsilon(d1 * d2) == ctx.epsilon(d1) * ctx.epsilon(d2)


def test_two_square_known_values():
    assert PrimeCtx.for_prime(5).decomp == TwoSquare(1, 1)
    assert PrimeCtx.for_prime(13).decomp == TwoSquare(-3, 1)
    assert PrimeCtx.for_prime(17).decomp == TwoSquare(1, 2)


def test_two_square_unique_and_normalized():
    for p in oracle_primes(5, 1000, cls4=1):
        got = PrimeCtx.for_prime(p).decomp
        matches = []
        a = -int(p**0.5) - 1
        while a <= int(p**0.5) + 1:
            if a % 2 != 0 and a % 4 == 1:
                rest = p - a * a
                if rest > 0 and rest % 4 == 0:
                    b2 = rest // 4
                    b = is_perfect_square(b2)
                    if b is not None and b > 0:
                        matches.append(TwoSquare(a, b))
            a += 1
        assert matches == [got]
        assert got.a * got.a + 4 * got.b * got.b == p
        assert got.a % 4 == 1 and got.b > 0


def test_two_square_rejects_3_mod_4():
    assert PrimeCtx.for_prime(7).decomp is None


def test_two_square_raises_on_a_non_generator():
    # 3 has order 3 mod 13, so 3^3 = 1 is no square root of -1; the check
    # must not be an assert, which python -O strips
    assert _two_square(13, 2) == TwoSquare(-3, 1)
    with pytest.raises(ArithmeticError):
        _two_square(13, 3)
    code = ("from legdet.ntcore import _two_square\n"
            "try:\n    _two_square(13, 3)\nexcept ArithmeticError:\n    print('raised')")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(legdet.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "raised\n"


def test_jacobsthal_examples():
    # direct sums with the oracle symbol
    for p, expected in ((13, 3), (5, -1), (17, -1)):
        direct = sum(
            oracle_legendre(1 + j * j, p) * oracle_legendre(j, p)
            for j in range(1, (p - 1) // 2 + 1)
        )
        assert direct == expected
        assert jacobsthal_sum(PrimeCtx.for_prime(p)) == expected


def test_jacobsthal_equals_minus_a_up_to_1e4():
    for p in oracle_primes(5, 10_000, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        assert jacobsthal_sum(ctx) == -ctx.decomp.a, p


def test_perm_sign_examples():
    ctx = PrimeCtx.for_prime(13)
    assert perm_sign_cycles(ctx, 1) == 1
    assert perm_sign_cycles(ctx, 4) == -1
    assert perm_sign_cycles(ctx, 3) == 1
    assert perm_sign_formula(ctx, 4) == -1
    assert perm_sign_formula(ctx, 3) == 1
    assert perm_sign_formula(PrimeCtx.for_prime(17), 1) == 1


def test_perm_sign_matches_inversion_count():
    for p in (13, 17, 23, 29):
        ctx = PrimeCtx.for_prime(p)
        qrs = sorted(oracle_qr_set(p))
        index = {x: i for i, x in enumerate(qrs)}
        for d in qrs:
            perm = [index[d * x % p] for x in qrs]
            assert perm_sign_cycles(ctx, d) == oracle_perm_sign_inversions(perm)


def test_perm_sign_cycles_matches_the_walk_over_every_cycle():
    # one cycle's length gives them all, in both classes mod 4
    for p in oracle_primes(3, 400):
        ctx = PrimeCtx.for_prime(p)
        for d in sorted(oracle_qr_set(p)):
            assert perm_sign_cycles(ctx, d) == oracle_perm_sign_cycles(p, d), (p, d)


def test_perm_sign_cycles_equals_formula():
    for p in oracle_primes(5, 200, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        for d in sorted(oracle_qr_set(p)):
            assert perm_sign_cycles(ctx, d) == perm_sign_formula(ctx, d), (p, d)


def test_euler_table_is_epsilon_of_j_squared():
    # epsilon(j^2) = chi(j) is Euler's criterion: the table lemma-sign reads
    # its formula side from equals perm_sign_formula at every square j^2
    for p in oracle_primes(5, 1999, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        chi = euler_table(p, ctx.n)
        assert len(chi) == ctx.n + 1 and chi[0] == 0, p
        assert chi[1:] == [perm_sign_formula(ctx, j * j % p) for j in range(1, ctx.n + 1)], p


def test_euler_table_is_the_legendre_symbol():
    # in both classes mod 4, and past n for the sieve's composite entries
    for p in oracle_primes(3, 499):
        for n in ((p - 1) // 2, p - 1):
            assert euler_table(p, n) == [0] + [oracle_legendre(j, p) for j in range(1, n + 1)]


def test_perm_sign_rejects_nonresidue():
    ctx = PrimeCtx.for_prime(13)
    with pytest.raises(ValueError):
        perm_sign_cycles(ctx, 2)
    with pytest.raises(ValueError):
        perm_sign_formula(ctx, 2)
    for p, d in ((13, 2), (13, 0), (7, 3), (7, 14)):
        with pytest.raises(ValueError, match="not a quadratic residue"):
            perm_sign_rotation(PrimeCtx.for_prime(p), d)


def test_perm_sign_rotation_matches_the_walks():
    # both classes mod 4; at p = 3 (mod 4), n is odd
    for p in oracle_primes(3, 499):
        ctx = PrimeCtx.for_prime(p)
        for d in sorted(oracle_qr_set(p)):
            sign = perm_sign_rotation(ctx, d)
            assert sign == perm_sign_cycles(ctx, d) == oracle_perm_sign_cycles(p, d), (p, d)


def test_perm_sign_rotation_does_not_depend_on_the_generator():
    # dlog is taken base g, the sign is not: g^k generates too when gcd(k, p-1) = 1
    for p in oracle_primes(5, 499):
        ctx = PrimeCtx.for_prime(p)
        k = next(k for k in range(3, p) if math.gcd(k, p - 1) == 1)
        other = PrimeCtx.for_prime(p, pow(ctx.g, k, p))
        assert other.g != ctx.g and other.dlog != ctx.dlog, p
        for d in sorted(oracle_qr_set(p)):
            assert perm_sign_rotation(other, d) == perm_sign_cycles(ctx, d), (p, d)


def test_is_perfect_square():
    assert is_perfect_square(441) == 21
    assert is_perfect_square(0) == 0
    assert is_perfect_square(-27) is None
    rng = random.Random(7)
    for _ in range(300):
        r = rng.randrange(0, 10**12)
        assert is_perfect_square(r * r) == r
        v = rng.randrange(2, 10**12)
        root = is_perfect_square(v)
        if root is not None:
            assert root * root == v
        else:
            import math

            s = math.isqrt(v)
            assert s * s != v


def test_find_generator():
    assert find_generator(13) == 2
    for p in oracle_primes(3, 200):
        g = find_generator(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1


def test_prime_ctx_structure():
    for p in (5, 13, 17, 29, 101):
        ctx = PrimeCtx.for_prime(p)
        assert ctx.n == (p - 1) // 2
        assert ctx.cls == p % 4
        # dlog inverts exponentiation
        for x in range(1, p):
            assert pow(ctx.g, ctx.dlog[x], p) == x
        assert (ctx.decomp is not None) == (p % 4 == 1)


def test_prime_ctx_powers_walk_the_generator():
    # for the default generator and for another one, g^k with k prime to p - 1
    # (p = 3 has no other)
    for p in oracle_primes(3, 500):
        g0 = find_generator(p)
        k = next((k for k in range(2, p - 1) if math.gcd(k, p - 1) == 1), 1)
        for g in (g0, pow(g0, k, p)):
            ctx = PrimeCtx.for_prime(p, g)
            assert len(ctx.powers) == p - 1, (p, g)
            for t, x in enumerate(ctx.powers):
                assert x == pow(g, t, p) and ctx.dlog[x] == t, (p, g, t)


def test_prime_ctx_rejects_bad_input():
    with pytest.raises(ValueError):
        PrimeCtx.for_prime(15)
    with pytest.raises(ValueError):
        PrimeCtx.for_prime(2)
    with pytest.raises(ValueError):
        PrimeCtx.for_prime(13, g=3)  # 3 has order 3 mod 13


def test_prime_ctx_alternate_generator():
    ctx = PrimeCtx.for_prime(13, g=6)  # 6 is also a generator mod 13
    assert ctx.g == 6
    for x in range(1, 13):
        assert pow(6, ctx.dlog[x], 13) == x
    assert ctx.legendre(3) == 1 and ctx.legendre(2) == -1
    # decomp comes from the square root g^((p-1)/4) of -1; g and its inverse
    # give the two roots, so together they cover every generator's root
    for p in oracle_primes(5, 2000, cls4=1):
        g = find_generator(p)
        g_inv = pow(g, -1, p)
        assert pow(g_inv, (p - 1) // 4, p) == p - pow(g, (p - 1) // 4, p)
        assert PrimeCtx.for_prime(p, g_inv).decomp == PrimeCtx.for_prime(p).decomp, p
