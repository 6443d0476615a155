from conftest import oracle_legendre, oracle_primes
from legdet.exactla import det_exact
from legdet.matrices import (
    carlitz_matrix,
    chapman_matrix,
    evil_matrix,
    squares_matrix,
    squares_star_matrix,
)
from legdet.ntcore import PrimeCtx, perm_sign_cycles


def test_squares_matrix_p5():
    m = squares_matrix(PrimeCtx.for_prime(5), 1)
    assert m.entries == ((-1, 0), (0, -1))
    assert det_exact(m) == 1
    assert m.tag == "s(p=5,d=1)"


def test_squares_matrix_known_determinants():
    assert det_exact(squares_matrix(PrimeCtx.for_prime(13), 1)) == -27


def test_squares_star_matrix_small():
    m5 = squares_star_matrix(PrimeCtx.for_prime(5))
    assert m5.entries == ((1, -1), (0, -1))
    assert det_exact(m5) == -1
    assert det_exact(squares_star_matrix(PrimeCtx.for_prime(13))) == -9
    assert det_exact(squares_star_matrix(PrimeCtx.for_prime(17))) == -441


def test_carlitz_matrix_small():
    m3 = carlitz_matrix(PrimeCtx.for_prime(3))
    assert m3.entries == ((0, -1), (1, 0))
    m5 = carlitz_matrix(PrimeCtx.for_prime(5))
    assert m5.entries[0][2] == -1  # ((1-3)/5) = (3/5)
    for p in (3, 5, 7, 11):
        m = carlitz_matrix(PrimeCtx.for_prime(p))
        assert all(m.entries[i][i] == 0 for i in range(m.dim))


def test_chapman_matrix_small():
    c7 = chapman_matrix(PrimeCtx.for_prime(7))
    assert c7.constants == ((1, 1, -1), (1, -1, 1), (-1, 1, -1))
    c5 = chapman_matrix(PrimeCtx.for_prime(5))
    assert c5.constants == ((1, -1), (-1, -1))
    c5s = chapman_matrix(PrimeCtx.for_prime(5), star=True)
    assert c5s.dim == 3
    assert c5s.constants[2][2] == 0  # i + j - 1 = 5
    assert c5s.at(2)[2][2] == 2


def test_evil_matrix_small():
    m3 = evil_matrix(PrimeCtx.for_prime(3))
    assert m3.entries == ((0, 1), (-1, 0))
    m7 = evil_matrix(PrimeCtx.for_prime(7))
    assert m7.entries[0][3] == -1  # (3/7); squares mod 7 are {1, 2, 4}
    for p in (3, 5, 7, 11):
        m = evil_matrix(PrimeCtx.for_prime(p))
        assert m.dim == (p + 1) // 2
        assert all(m.entries[i][i] == 0 for i in range(m.dim))


def test_builders_match_oracle_symbols():
    for p in oracle_primes(3, 61):
        ctx = PrimeCtx.for_prime(p)
        n = ctx.n
        for d in (1, 2, 3):
            m = squares_matrix(ctx, d)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert m.entries[i - 1][j - 1] == oracle_legendre(
                        i * i + d * j * j, p
                    )
        star = squares_star_matrix(ctx)
        assert star.entries[0] == tuple(oracle_legendre(j, p) for j in range(1, n + 1))
        assert star.entries[1:] == squares_matrix(ctx, 1).entries[1:]
        car = carlitz_matrix(ctx)
        for i in range(1, p):
            for j in range(1, p):
                assert car.entries[i - 1][j - 1] == oracle_legendre(i - j, p)
        for star_flag, dim in ((False, n), (True, n + 1)):
            ch = chapman_matrix(ctx, star_flag)
            assert ch.dim == dim
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    assert ch.constants[i - 1][j - 1] == oracle_legendre(i + j - 1, p)
        ev = evil_matrix(ctx)
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                assert ev.entries[i - 1][j - 1] == oracle_legendre(j - i, p)


def test_squares_matrix_symmetry_and_zeros():
    for p in oracle_primes(5, 61, cls4=1):
        ctx = PrimeCtx.for_prime(p)
        m = squares_matrix(ctx, 1)
        assert m.entries == tuple(zip(*m.entries))  # symmetric when d = 1
        for d in range(1, p):
            md = squares_matrix(ctx, d)
            has_zero = any(0 in row for row in md.entries)
            # entry(i,j) = 0 iff i^2 = -d j^2; impossible when -d is a non-residue
            if ctx.legendre(-d) == -1:
                assert not has_zero
            else:
                assert has_zero


def test_squares_matrix_scaling_law():
    # S(d t^2, p) = sgn(pi(t^2)) S(d, p): column relabeling by a residue permutation
    for p in (13, 17):
        ctx = PrimeCtx.for_prime(p)
        for d in (1, 2, 3):
            for t in (2, 3, 4):
                lhs = det_exact(squares_matrix(ctx, d * t * t))
                rhs = perm_sign_cycles(ctx, t * t) * det_exact(squares_matrix(ctx, d))
                assert lhs == rhs, (p, d, t)
