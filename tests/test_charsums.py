import math
import random
import tracemalloc

import pytest

from conftest import oracle_eigen_identity, oracle_legendre, oracle_primes, oracle_row_sums
from legdet import charsums
from legdet.charsums import (
    CyclotomicElt,
    carlitz_char_poly,
    cyclotomic_polynomial,
    det_squares,
    det_squares_star,
    eigen_identity,
    eigen_product,
    eigen_verify,
    eigenvalue_exact,
    product_identity,
    row_identity_check,
)
from legdet.exactla import char_poly, det_exact, det_mod
from legdet.harness import _carlitz_expected
from legdet.matrices import carlitz_matrix, squares_matrix, squares_star_matrix
from legdet.ntcore import PrimeCtx, TwoSquare


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # prod over divisors reconstructs x^m - 1
    for m in range(1, 31):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1]


def test_cyclotomic_elt_arithmetic():
    m = 12

    def monomial(t, c=1):
        return CyclotomicElt(m, tuple(c if i == t else 0 for i in range(m)))

    zeta, one = monomial(1), monomial(0)
    # Phi_12(zeta) = zeta^4 - zeta^2 + 1 = 0 in Z[zeta_12]
    assert (monomial(4) - monomial(2) + one).is_zero()
    assert (monomial(4) + one).canonical() == monomial(2).canonical()
    assert not (zeta - one).is_zero()
    assert one.as_int() == 1
    assert CyclotomicElt(m, (0,) * m).as_int() == 0
    assert zeta.as_int() is None
    # zeta^6 = -1 and zeta^3 + zeta^9 = 0 in Z[zeta_12]
    assert monomial(6).as_int() == -1
    assert (monomial(3) + monomial(9)).as_int() == 0
    assert monomial(6, 3).as_int() == -3
    # conjugation sends zeta to zeta^11, and zeta + zeta^11 = sqrt 3 is real
    assert zeta.conjugate().coeffs[11] == 1
    real = zeta + zeta.conjugate()
    assert (real - real.conjugate()).is_zero()
    assert real.as_int() is None


def test_eigenvalue_known_values():
    ctx13 = PrimeCtx.for_prime(13)
    assert eigenvalue_exact(ctx13, 6).as_int() == -1
    assert eigenvalue_exact(ctx13, 3).as_int() == 3  # -a with a = -3
    ctx5 = PrimeCtx.for_prime(5)
    assert eigenvalue_exact(ctx5, 1).as_int() == -1
    z = eigenvalue_exact(ctx13, 3).to_float()
    assert abs(complex(z) - 3) < 1e-30


def test_eigenvalues_real_and_conjugate_paired():
    for p in (5, 13, 17, 29):
        ctx = PrimeCtx.for_prime(p)
        lams = [eigenvalue_exact(ctx, k) for k in range(1, ctx.n + 1)]
        for lam in lams:
            assert (lam - lam.conjugate()).is_zero()
        for k in range(1, ctx.n):
            assert (lams[ctx.n - k - 1] - lams[k - 1].conjugate()).is_zero()


def test_corner_eigenvalues_across_range():
    for p in oracle_primes(5, 200, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        assert eigenvalue_exact(ctx, ctx.n).as_int() == -1, p
        assert eigenvalue_exact(ctx, ctx.n // 2).as_int() == -ctx.decomp.a, p


def test_eigen_verify_exact():
    report = eigen_verify(PrimeCtx.for_prime(13))
    assert report.mode == "exact"
    assert report.ok
    assert report.residual == 0.0
    assert report.vandermonde_ok
    assert sorted(round(x) for x in report.lambdas) == [-3, -3, -1, -1, -1, 3]


def test_eigen_verify_float():
    report = eigen_verify(PrimeCtx.for_prime(29), exact=False)
    assert report.mode == "float"
    assert report.ok
    assert report.residual < 1e-9
    prod = math.prod(report.lambdas)
    det = det_exact(squares_matrix(PrimeCtx.for_prime(29), 1))
    assert abs(prod - det) / abs(det) < 1e-6


def test_eigen_verify_requires_1_mod_4():
    with pytest.raises(ValueError):
        eigen_verify(PrimeCtx.for_prime(7))


def test_eigen_identity_matches_the_cyclotomic_oracle():
    # the oracle checks M v_k = lambda_k v_k in Z[zeta_(p-1)], k by k, on a
    # matrix and a generator of its own
    for p in oracle_primes(5, 109, cls4=1):
        assert eigen_identity(PrimeCtx.for_prime(p)) == oracle_eigen_identity(p) \
            == (True, True, None), p


def test_eigen_identity_matches_float_residuals():
    for p in oracle_primes(5, 200, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        assert eigen_identity(ctx).ok, p
        assert eigen_verify(ctx, exact=False).residual < 1e-9, p


def test_eigenvalue_multiset_independent_of_generator():
    # 2 and 6 both generate (Z/13)^*; 3 and 5 generate (Z/17)^*
    for p, g2 in ((13, 6), (17, 5)):
        ctx_a = PrimeCtx.for_prime(p)
        ctx_b = PrimeCtx.for_prime(p, g=g2)
        assert ctx_a.g != ctx_b.g
        la = sorted(eigen_verify(ctx_a).lambdas)
        lb = sorted(eigen_verify(ctx_b).lambdas)
        assert all(abs(x - y) < 1e-9 for x, y in zip(la, lb))


def test_product_identity():
    assert product_identity(PrimeCtx.for_prime(5)) == (1, 1)
    assert product_identity(PrimeCtx.for_prime(13)) == (-27, -27)
    assert product_identity(PrimeCtx.for_prime(17)) == (441, 441)
    prod, det = product_identity(PrimeCtx.for_prime(29))
    assert prod == det
    assert eigen_product(PrimeCtx.for_prime(29)) == prod


def test_eigen_product_matches_bareiss_in_both_classes():
    # every odd p up to 200, the default ceiling of the checks that use S(1,p)
    for p in oracle_primes(3, 200):
        ctx = PrimeCtx.for_prime(p)
        assert eigen_product(ctx) == det_exact(squares_matrix(ctx, 1)), p


def test_eigen_product_matches_det_squares_past_n_100():
    # p - 1 = 210 and 630 have four odd prime factors, so phi(p-1)/(p-1) is
    # small and the base w = 2^s of eigen-CRT's modulus is at its largest
    for p in (211, 401, 631, 1009):
        ctx = PrimeCtx.for_prime(p)
        assert eigen_product(ctx) == det_squares(ctx, 1), p


def test_det_squares_matches_bareiss_for_every_d():
    # both prime classes, every d including 0 and the non-residues
    for p in oracle_primes(3, 119):
        ctx = PrimeCtx.for_prime(p)
        for d in range(p):
            assert det_squares(ctx, d) == det_exact(squares_matrix(ctx, d)), (p, d)


def test_det_squares_matches_modular_oracle_at_p401():
    q = (1 << 61) - 1
    ctx = PrimeCtx.for_prime(401)
    residue, non_residue = 4, 3
    assert oracle_legendre(residue, 401) == 1 and oracle_legendre(non_residue, 401) == -1
    for d in (1, residue, non_residue):
        assert det_squares(ctx, d) % q == det_mod(squares_matrix(ctx, d), q), d


def test_det_squares_matches_modular_oracle_at_n_210():
    # n = 2 * 3 * 5 * 7: phi(n)/n is smallest, so the base w = 2^s is largest
    q = (1 << 61) - 1
    ctx = PrimeCtx.for_prime(421)
    assert ctx.n == 210
    assert det_squares(ctx, 1) % q == det_mod(squares_matrix(ctx, 1), q)


def test_cyclotomic_modulus_certificate():
    primes = oracle_primes(2, 2310)

    def phi_at(m, x):
        """Phi_m(x) by Horner, with every prime factor of m divided out."""
        val = 0
        for c in reversed(cyclotomic_polynomial(m)):
            val = val * x + c
        for r in primes:
            while m % r == 0 and val % r == 0:
                val //= r
        return val

    for m in [*range(1, 421), 2310]:
        bound = 4 * m**m
        # the 1-bit step of Carlitz and the byte step of the packed routes
        for step in (1, 8):
            q, w = charsums._cyclotomic_modulus(m, bound, step)
            assert q * q > bound and q == phi_at(m, w), (m, step)
            assert w == 1 << (w.bit_length() - 1) and (w.bit_length() - 1) % step == 0
            # the smallest s: 2^(s-step) gives too small a modulus
            assert w == 1 << step or phi_at(m, w >> step) ** 2 <= bound, (m, step)
            assert pow(w, m, q) == 1 and math.gcd(m, q) == 1, (m, step)
            for r in primes:
                if m % r == 0:
                    assert math.gcd(pow(w, m // r, q) - 1, q) == 1, (m, r, step)
        assert charsums._cyclotomic_modulus(m, bound) == charsums._cyclotomic_modulus(m, bound, 1)


@pytest.mark.parametrize("fault", ["w = 1", "Q too small"])
def test_every_route_raises_on_an_uncertified_modulus(monkeypatch, fault):
    orig = charsums._cyclotomic_modulus
    if fault == "w = 1":                # order 1, below every m > 1
        patched = lambda m, bound, step=1: (orig(m, bound)[0], 1)
    else:                               # w = 2 has order m mod Phi_m(2)
        patched = lambda m, bound, step=1: orig(m, 0)
    monkeypatch.setattr(charsums, "_cyclotomic_modulus", patched)
    charsums._fourier_modulus.cache_clear()
    ctx = PrimeCtx.for_prime(13)
    try:
        for route in (lambda: det_squares(ctx, 1), lambda: det_squares_star(ctx),
                      lambda: carlitz_char_poly(ctx), lambda: eigen_product(ctx)):
            with pytest.raises(ArithmeticError, match="fails its certificate"):
                route()
    finally:
        charsums._fourier_modulus.cache_clear()


def test_eigen_product_certifies_its_own_modulus(monkeypatch):
    # eigen-CRT reads nothing of the Fourier core that det_squares uses
    def no_table(m, sq_bound, step):
        raise AssertionError("eigen_product used _fourier_modulus")

    def no_values(vec, q, w):
        raise AssertionError("eigen_product used _fourier_values")

    monkeypatch.setattr(charsums, "_fourier_modulus", no_table)
    monkeypatch.setattr(charsums, "_fourier_values", no_values)
    assert eigen_product(PrimeCtx.for_prime(13)) == -27


def _slot_bytes(m: int, n: int) -> int:
    """B of the packed routes' w = 2^(8B) for dimension m and Hadamard bound n^(n/2)."""
    w = charsums._cyclotomic_modulus(m, 4 * n**n, 8)[1]
    return (w.bit_length() - 1) // 8


def test_packed_values_at_slot_widths_1_2_3():
    q = (1 << 61) - 1
    for p, width in ((67, 1), (61, 2), (421, 3)):
        ctx = PrimeCtx.for_prime(p)
        assert _slot_bytes(ctx.n, ctx.n) == width, p
        assert det_squares(ctx, 1) == eigen_product(ctx), p
    assert _slot_bytes(420, 210) == 2             # eigen-CRT's own width at p = 421
    for p in (61, 67):                              # 421 is held to det_mod above
        ctx = PrimeCtx.for_prime(p)
        for d in (1, 2, -1):
            assert det_squares(ctx, d) % q == det_mod(squares_matrix(ctx, d), q), (p, d)


def test_fourier_values_match_a_power_table():
    # random vectors, so that lambda_k and lambda_(-k) differ: every fold of
    # S(1,p) is symmetric.  m = 30, 33, 210: slots of 2, 1, 3 bytes; 254 =
    # 2 * 127 folds into bins of up to 254, the widest one byte holds; 260
    # and 384 = 3 * 128 fold into bins of two byte planes, 384 also at k/g = 2
    cases = [(m, 8, 1) for m in (1, 2, 30, 33, 210, 254, 260, 384)]
    # W = w^r of a 1-bit step, byte-aligned at r = 8/gcd(8, s), as Carlitz
    # takes it: s = 4, 6, 5 and 3 at m = 15, 45, 21 and 47
    cases += [(15, 1, 2), (45, 1, 4), (21, 1, 8), (47, 1, 8)]
    for m, step, r in cases:
        rng = random.Random(m)
        vec = [rng.choice((-1, 0, 1)) for _ in range(m)]
        q, w = charsums._fourier_modulus(m, 4 * m**m, step)
        assert r == 8 // math.gcd(8, w.bit_length() - 1), m
        w **= r
        powers = [pow(w, j, q) for j in range(m)]
        order = [0] + sorted(range(1, m), key=lambda k: (math.gcd(k, m), k))
        expected = [sum(c * powers[k * t % m] for t, c in enumerate(vec)) % q for k in order]
        got = list(charsums._fourier_values(vec, q, w))
        assert got[0] == sum(vec) and got[1:] == expected[1:], (m, r)


def test_packed_values_at_and_past_the_byte_switch():
    # a divisor g of n (and of p - 1) folds c into bins of up to 2g: one byte
    # plane at n = 254 = 2 * 127, two at n = 260 = 2 * 130, 270 = 2 * 135 and
    # 384 = 3 * 128; eigen-CRT folds at h = 254 of p - 1 = 508, and at
    # h = 128, 192, 256 and 384 of 768, into two planes
    for p, g, planes in ((509, 127, 1), (521, 130, 2), (541, 135, 2), (769, 128, 2)):
        ctx = PrimeCtx.for_prime(p)
        assert ctx.n % g == 0 and ctx.n > g and (2 * g >= 256) == (planes == 2)
        s_val = det_squares(ctx, 1)
        assert s_val == eigen_product(ctx), p
        if p in (509, 769):             # corollary-a
            star = det_squares_star(ctx)
            assert math.isqrt(-star) ** 2 == -star, p
            assert star * ctx.decomp.a == -s_val, p
    q = (1 << 61) - 1
    ctx = PrimeCtx.for_prime(521)
    assert det_squares(ctx, 1) % q == det_mod(squares_matrix(ctx, 1), q)


def test_fourier_buffers_are_released_between_divisors():
    # the g = 1 plane is the largest buffer (m^2 bytes); the peak stays near
    # it only if each divisor's planes are gone before the next are built.
    # S*(1,p) also holds its n lambda_k, 2.4 n^2 bytes in all at p = 503;
    # lists of the R_k and of suffix products beside them reach 3.7 n^2
    ctx, star = PrimeCtx.for_prime(1009), PrimeCtx.for_prime(503)
    for route, bound in ((lambda: det_squares(ctx, 1), 1.1 * ctx.n**2),
                         (lambda: eigen_product(ctx), 1.1 * (ctx.p - 1) ** 2),
                         (lambda: det_squares_star(star), 3 * star.n**2)):
        route()                         # the modulus is cached from here on
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


def test_circulant_order_helpers_match_a_pow_walk():
    # _squares_coeffs and _square_roots slice ctx.powers; here each is rebuilt
    # from pow(g, t, p), for the default generator and for another one (p = 3
    # has no other)
    for p in oracle_primes(3, 500):
        g0 = PrimeCtx.for_prime(p).g
        k = next((k for k in range(2, p - 1) if math.gcd(k, p - 1) == 1), 1)
        for g in (g0, pow(g0, k, p)):
            ctx = PrimeCtx.for_prime(p, g)
            n = ctx.n
            for d in (1, 2, 3, p - 1):
                assert charsums._squares_coeffs(ctx, d) == [
                    oracle_legendre(1 + d * pow(g, 2 * s, p), p) for s in range(n)], (p, g, d)
            assert charsums._square_roots(ctx) == [
                min(pow(g, u, p), p - pow(g, u, p)) for u in range(n)], (p, g)


def test_det_squares_of_a_non_residue_builds_no_modulus(monkeypatch):
    # at p = 1 (mod 4), lambda_0 = sum_s ((1 + d g^(2s))/p) is 0 for a
    # non-residue d, so S(d,p) = 0 is known before any modulus is built
    def no_modulus(m, bound, step=1):
        raise AssertionError("det_squares built a modulus")

    monkeypatch.setattr(charsums, "_cyclotomic_modulus", no_modulus)
    charsums._fourier_modulus.cache_clear()
    try:
        for p in (13, 401, 1009):
            ctx = PrimeCtx.for_prime(p)
            for d in range(1, p):
                if oracle_legendre(d, p) == -1:
                    assert det_squares(ctx, d) == 0, (p, d)
        with pytest.raises(AssertionError, match="built a modulus"):
            det_squares(PrimeCtx.for_prime(13), 1)
    finally:
        charsums._fourier_modulus.cache_clear()


def test_det_squares_star_matches_bareiss():
    for p in oracle_primes(3, 199):
        ctx = PrimeCtx.for_prime(p)
        assert det_squares_star(ctx) == det_exact(squares_star_matrix(ctx)), p


def test_det_squares_star_matches_modular_oracle():
    q = (1 << 61) - 1
    for p in (401, 797):
        ctx = PrimeCtx.for_prime(p)
        assert det_squares_star(ctx) % q == det_mod(squares_star_matrix(ctx), q), p


def test_carlitz_char_poly_matches_interpolated_char_poly():
    for p in oracle_primes(3, 47):
        ctx = PrimeCtx.for_prime(p)
        assert carlitz_char_poly(ctx) == char_poly(carlitz_matrix(ctx)), p


def test_carlitz_char_poly_closed_form_and_modular_constant_term():
    q = (1 << 61) - 1
    for p in (101, 199):
        ctx = PrimeCtx.for_prime(p)
        poly = carlitz_char_poly(ctx)
        assert poly == _carlitz_expected(p), p
        # det(0 I - C) = det C, since C has even dimension p - 1
        assert poly.coeffs[0] % q == det_mod(carlitz_matrix(ctx), q), p


def test_pair_product_square():
    # dividing the corner eigenvalues lambda_n = -1 and lambda_{n/2} = -a out
    # of det S(1,p) leaves the square of the conjugate-pair product
    expected = {5: (1, 1), 13: (9, 3), 17: (441, 21)}
    for p, (quotient, root) in expected.items():
        ctx = PrimeCtx.for_prime(p)
        lam_n = eigenvalue_exact(ctx, ctx.n).as_int()
        lam_half = eigenvalue_exact(ctx, ctx.n // 2).as_int()
        q, rem = divmod(det_exact(squares_matrix(ctx, 1)), lam_n * lam_half)
        assert rem == 0, p
        assert (q, math.isqrt(q)) == (quotient, root), p
        assert root * root == quotient, p


def test_row_identity():
    # direct sum for p=13, j=1: sum_i ((i^2+1)/13)(i/13) = 3 = -a * (1/13)
    p = 13
    direct = sum(
        oracle_legendre(i * i + 1, p) * oracle_legendre(i, p) for i in range(1, 7)
    )
    assert direct == 3
    for q in (5, 13, 17, 29, 101):
        assert row_identity_check(PrimeCtx.for_prime(q))
    with pytest.raises(ValueError):
        row_identity_check(PrimeCtx.for_prime(7))


def test_row_sums_match_numpy_oracle():
    for p in oracle_primes(5, 2000, cls4=1):
        assert charsums._row_sums(PrimeCtx.for_prime(p)) == oracle_row_sums(p), p


def test_row_sums_on_both_sides_of_the_slot_width_switch():
    # a slot holds up to 4n: one byte for n = 56 (p = 113), two for n = 68 (p = 137)
    assert 4 * 56 < 1 << 8 <= 4 * 68
    for p in (113, 137):
        n = (p - 1) // 2
        sums = charsums._row_sums(PrimeCtx.for_prime(p))
        for j in (1, 2, 3, n // 2, n - 1, n):
            direct = sum(oracle_legendre(i * i + j * j, p) * oracle_legendre(i, p)
                         for i in range(1, n + 1))
            assert sums[j - 1] == direct, (p, j)


def test_row_identity_check_rejects_a_flipped_symbol_or_a_wrong_a():
    # the route reads (x/p) at every x <= n (the r_t) and at every x = 1 + a
    # square (the c_s); flipping any one of them must break the identity
    for p in (13, 29, 113, 137):
        ctx = PrimeCtx.for_prime(p)
        assert row_identity_check(ctx)
        read = set(range(1, ctx.n + 1)) | {(1 + j * j) % p for j in range(1, ctx.n + 1)}
        for x in read - {0}:
            sym = list(ctx.symbols)
            sym[x] = -sym[x]
            assert not row_identity_check(ctx._replace(symbols=tuple(sym))), (p, x)
        a, b = ctx.decomp.a, ctx.decomp.b
        for wrong in (a - 4, a + 4, -a):
            bad = ctx._replace(decomp=TwoSquare(wrong, b))
            assert not row_identity_check(bad), (p, wrong)
