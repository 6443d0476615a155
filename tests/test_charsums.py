import math

import pytest

from conftest import oracle_legendre, oracle_primes
from legdet import charsums
from legdet.charsums import (
    CyclotomicElt,
    carlitz_char_poly,
    cyclotomic_polynomial,
    det_squares,
    det_squares_star,
    eigen_product,
    eigen_verify,
    eigenvalue_exact,
    product_identity,
    row_identity_check,
)
from legdet.exactla import char_poly, det_exact, det_mod
from legdet.harness import _carlitz_expected
from legdet.matrices import carlitz_matrix, squares_matrix, squares_star_matrix
from legdet.ntcore import PrimeCtx


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
    assert report.ok and report.exact_ok
    assert report.residual == 0.0
    assert report.vandermonde_ok
    assert sorted(round(x) for x in report.lambdas) == [-3, -3, -1, -1, -1, 3]


def test_eigen_verify_float():
    report = eigen_verify(PrimeCtx.for_prime(29), exact=False)
    assert report.mode == "float"
    assert report.ok
    assert report.residual < 1e-9
    assert report.max_imag_rel < 1e-12
    prod = math.prod(report.lambdas)
    det = det_exact(squares_matrix(PrimeCtx.for_prime(29), 1))
    assert abs(prod - det) / abs(det) < 1e-6


def test_eigen_verify_requires_1_mod_4():
    with pytest.raises(ValueError):
        eigen_verify(PrimeCtx.for_prime(7))


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
        q, w = charsums._cyclotomic_modulus(m, bound)
        assert q * q > bound and q == phi_at(m, w), m
        # the smallest s: 2^(s-1) gives too small a modulus
        assert w == 2 or phi_at(m, w // 2) ** 2 <= bound, m
        assert pow(w, m, q) == 1 and math.gcd(m, q) == 1, m
        for r in primes:
            if m % r == 0:
                assert math.gcd(pow(w, m // r, q) - 1, q) == 1, (m, r)


@pytest.mark.parametrize("fault", ["w = 1", "Q too small"])
def test_every_route_raises_on_an_uncertified_modulus(monkeypatch, fault):
    orig = charsums._cyclotomic_modulus
    if fault == "w = 1":                # order 1, below every m > 1
        patched = lambda m, bound: (orig(m, bound)[0], 1)
    else:                               # w = 2 has order m mod Phi_m(2)
        patched = lambda m, bound: orig(m, 0)
    monkeypatch.setattr(charsums, "_cyclotomic_modulus", patched)
    charsums._fourier_tables.cache_clear()
    ctx = PrimeCtx.for_prime(13)
    try:
        for route in (lambda: det_squares(ctx, 1), lambda: det_squares_star(ctx),
                      lambda: carlitz_char_poly(ctx), lambda: eigen_product(ctx)):
            with pytest.raises(ArithmeticError, match="fails its certificate"):
                route()
    finally:
        charsums._fourier_tables.cache_clear()


def test_eigen_product_certifies_its_own_modulus(monkeypatch):
    # eigen-CRT reads no table of the Fourier core that det_squares uses
    def no_table(m, sq_bound):
        raise AssertionError("eigen_product used _fourier_tables")

    monkeypatch.setattr(charsums, "_fourier_tables", no_table)
    assert eigen_product(PrimeCtx.for_prime(13)) == -27


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
