import random

import pytest

from conftest import oracle_det_cofactor, oracle_is_prime, oracle_primes
from legdet import exactla
from legdet.exactla import (
    IntPoly,
    _interpolate,
    chapman_dets,
    char_poly,
    det_affine,
    det_exact,
    det_mod,
    evil_det,
)
from legdet.matrices import (AffineMatrix, carlitz_matrix, chapman_matrix, evil_matrix,
                             squares_matrix)
from legdet.ntcore import PrimeCtx


def _random_matrix(rng, dim, lo=-1, hi=1):
    return [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)]


def test_det_exact_trivial():
    assert det_exact([]) == 1
    assert det_exact([[7]]) == 7
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    # column 0 is zero below row 0, so the elimination swaps columns
    assert det_exact([[1, 2], [0, 3]]) == 3
    assert det_exact([[2, 1, 1], [0, 1, 0], [0, 0, 1]]) == 2


def test_det_exact_known_values():
    assert det_exact(squares_matrix(PrimeCtx.for_prime(5), 1)) == 1
    assert det_exact(squares_matrix(PrimeCtx.for_prime(13), 1)) == -27


def test_det_exact_matches_cofactor_on_1000_random_sign_matrices():
    rng = random.Random(20240)
    for _ in range(1000):
        dim = rng.randint(0, 6)
        m = _random_matrix(rng, dim)
        assert det_exact([row[:] for row in m]) == oracle_det_cofactor(m)


def test_det_exact_transpose_and_row_swap():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.randint(2, 6)
        m = _random_matrix(rng, dim, -4, 4)
        d = det_exact([row[:] for row in m])
        mt = [list(col) for col in zip(*m)]
        assert det_exact(mt) == d
        i, j = rng.sample(range(dim), 2)
        swapped = [row[:] for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_exact(swapped) == -d


def test_det_exact_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def test_det_mod_examples():
    m13 = squares_matrix(PrimeCtx.for_prime(13), 1)
    assert det_mod(m13, 101) == 74  # -27 mod 101
    assert det_mod([[1, 0], [0, 1]], 97) == 1
    assert det_mod(squares_matrix(PrimeCtx.for_prime(5), 1), 7) == 1


def test_det_mod_agrees_with_det_exact():
    rng = random.Random(99)
    qs = [q for q in range(10**6, 10**6 + 200) if oracle_is_prime(q)][:5]
    for _ in range(60):
        dim = rng.randint(1, 7)
        m = _random_matrix(rng, dim, -5, 5)
        d = det_exact([row[:] for row in m])
        for q in qs:
            assert det_mod(m, q) == d % q


def test_det_affine_examples():
    # 2x2 by hand: (x+1)(x-1) - (x-1)^2 = 2x - 2
    assert det_affine(chapman_matrix(PrimeCtx.for_prime(5))) == IntPoly.make((-2, 2))
    assert det_affine(chapman_matrix(PrimeCtx.for_prime(7))) == IntPoly.make((0, -8))
    # direct 4x4 cofactor expansion gives the constant +8 for the star variant
    c7s = chapman_matrix(PrimeCtx.for_prime(7), star=True)
    assert oracle_det_cofactor(c7s.at(0)) == 8
    assert oracle_det_cofactor(c7s.at(1)) == 8
    assert det_affine(c7s) == IntPoly.make((8,))


def test_det_affine_always_degree_at_most_one():
    for p in oracle_primes(3, 61):
        ctx = PrimeCtx.for_prime(p)
        for star in (False, True):
            poly = det_affine(chapman_matrix(ctx, star))
            assert poly.degree() <= 1


def _affine_cofactor_check(constants, xs=(-3, 0, 1, 2, 5)):
    m = AffineMatrix(len(constants), tuple(map(tuple, constants)), "test")
    poly = det_affine(m)
    assert poly.degree() <= 1
    for x in xs:
        assert poly.eval_at(x) == oracle_det_cofactor(m.at(x)), (constants, x)
    return poly


def test_det_affine_matches_cofactor_on_random_affine_matrices():
    rng = random.Random(6021)
    for _ in range(400):
        dim = rng.randint(0, 6)
        _affine_cofactor_check(_random_matrix(rng, dim, -2, 2))
    for _ in range(200):
        # equal leading columns leave D's first column zero: a column swap
        dim = rng.randint(2, 6)
        m = _random_matrix(rng, dim)
        first = rng.randint(-1, 1)
        for row in m:
            row[0] = first
        _affine_cofactor_check(m)
    for _ in range(200):
        # a repeated row makes D singular; one shifted by a constant does not
        dim = rng.randint(2, 6)
        m = _random_matrix(rng, dim)
        i, j = rng.sample(range(dim), 2)
        shift = rng.randint(-1, 1)
        m[j] = [c + shift for c in m[i]]
        poly = _affine_cofactor_check(m)
        if shift == 0:
            assert poly == IntPoly.make(())


def test_det_affine_hand_cases():
    # D = [[0, 1, -1], [0, -1, 1]] is singular: every determinant is 0
    assert _affine_cofactor_check([[1, 0, 2], [1, 1, 1], [1, -1, 3]]) == IntPoly.make(())
    # D = [[0, 2, -1], [0, -2, -2]] has a zero first column, which the
    # elimination swaps to the end in two steps; det = x ((2)(-2) - (-1)(-2))
    assert _affine_cofactor_check([[0, 1, 2], [0, 3, 1], [0, -1, 0]]) == IntPoly.make((0, -6))
    # one column swap each: D = [[-1, 0, -1], [1, 0, -1]], and D = [[0, 1]]
    assert _affine_cofactor_check([[1, 0, 2], [0, 0, 1], [2, 0, 1]]) == IntPoly.make((0, -2))
    assert _affine_cofactor_check([[0, 1], [0, 2]]) == IntPoly.make((0, 1))
    assert det_affine(AffineMatrix(0, (), "empty")) == IntPoly.make((1,))
    assert det_affine(AffineMatrix(1, ((-4,),), "one")) == IntPoly.make((-4, 1))


def test_det_affine_matches_pointwise_determinants_for_chapman():
    for p in oracle_primes(3, 113):
        ctx = PrimeCtx.for_prime(p)
        for star in (False, True):
            m = chapman_matrix(ctx, star)
            poly = det_affine(m)
            for x in (0, 1, 2):
                assert poly.eval_at(x) == det_exact(m.at(x)), (p, star, x)
    q = (1 << 61) - 1
    ctx = PrimeCtx.for_prime(199)
    for star in (False, True):
        m = chapman_matrix(ctx, star)
        poly = det_affine(m)
        for x in (0, 1, 2):
            assert poly.eval_at(x) % q == det_mod(m.at(x), q), (star, x)


def test_chapman_dets_match_det_affine_up_to_200():
    for p in oracle_primes(3, 200):
        ctx = PrimeCtx.for_prime(p)
        expected = tuple(det_affine(chapman_matrix(ctx, star)) for star in (False, True))
        assert chapman_dets(ctx) == expected, p


def test_chapman_dets_match_det_mod_above_200():
    q = (1 << 61) - 1
    for p in (211, 401):
        ctx = PrimeCtx.for_prime(p)
        for star, poly in enumerate(chapman_dets(ctx)):
            m = chapman_matrix(ctx, bool(star))
            for x in (0, 1):
                assert poly.eval_at(x) % q == det_mod(m.at(x), q), (p, star, x)


def test_chapman_dets_raise_on_a_modulus_too_small(monkeypatch):
    # the modulus of one 64-bit step less: at p = 101 and 199, q^2 is about
    # 2^384 and 2^768, below the bounds 4 (4N)^N of 394 and 867 bits
    modulus = exactla._chapman_modulus
    monkeypatch.setattr(exactla, "_chapman_modulus", lambda k: modulus(k - 1))
    for p in (101, 199):
        with pytest.raises(ArithmeticError, match=f"is too small for p = {p}$"):
            chapman_dets(PrimeCtx.for_prime(p))


def test_chapman_dets_raise_on_a_leading_coefficient_that_is_no_unit(monkeypatch):
    # with q = 2 q', q is as large as the bound asks, but no even leading
    # coefficient is a unit; G_1 leads with 1 + (1/p) = 2
    modulus = exactla._chapman_modulus
    monkeypatch.setattr(exactla, "_chapman_modulus", lambda k: 2 * modulus(k))
    for p in (3, 5, 13):
        with pytest.raises(ArithmeticError, match="^leading coefficient [0-9]+ is not a unit mod "):
            chapman_dets(PrimeCtx.for_prime(p))


def test_evil_det_matches_bareiss_below_120():
    for p in oracle_primes(3, 120):
        ctx = PrimeCtx.for_prime(p)
        assert evil_det(ctx) == det_exact(evil_matrix(ctx)), p


def test_evil_det_matches_det_mod_at_401():
    q = (1 << 61) - 1
    ctx = PrimeCtx.for_prime(401)
    assert evil_det(ctx) % q == det_mod(evil_matrix(ctx), q)


def test_char_poly_carlitz_closed_forms():
    # p = 5: (x^2 - 5)(x^2 - 1) = x^4 - 6x^2 + 5
    assert char_poly(carlitz_matrix(PrimeCtx.for_prime(5))) == IntPoly.make(
        (5, 0, -6, 0, 1)
    )
    # p = 7: (x^2 + 7)^2 (x^2 + 1) = x^6 + 15x^4 + 63x^2 + 49
    assert char_poly(carlitz_matrix(PrimeCtx.for_prime(7))) == IntPoly.make(
        (49, 0, 63, 0, 15, 0, 1)
    )
    assert char_poly([[5]]) == IntPoly.make((-5, 1))
    # x (x + 1) / 2 takes the values 0, 1, 3 but has no integer coefficients
    with pytest.raises(ArithmeticError):
        _interpolate([0, 1, 3])


def test_char_poly_against_cofactor_at_fresh_points():
    rng = random.Random(31337)
    for _ in range(60):
        dim = rng.randint(1, 5)
        m = _random_matrix(rng, dim, -3, 3)
        poly = char_poly(m)
        assert poly.degree() == dim and poly.coeffs[-1] == 1
        assert poly.eval_at(0) == (-1) ** dim * det_exact([row[:] for row in m])
        for t in (-2, dim + 3, 17):
            shifted = [
                [(t if i == j else 0) - m[i][j] for j in range(dim)]
                for i in range(dim)
            ]
            assert poly.eval_at(t) == oracle_det_cofactor(shifted)


def test_int_poly_basics():
    p = IntPoly.make((1, 2, 0))
    assert p.coeffs == (1, 2)
    assert p.degree() == 1
    assert p.eval_at(3) == 7
    assert str(IntPoly.make((-32, 96))) == "96*x - 32"
    assert str(IntPoly.make(())) == "0"
    assert str(IntPoly.make((8,))) == "8"
    assert str(IntPoly.make((5, 0, -6, 0, 1))) == "x^4 - 6*x^2 + 5"
