import math
import time
from types import SimpleNamespace

import pytest

from conftest import oracle_class_number, oracle_is_fundamental_unit, oracle_primes
from legdet import quadfield
from legdet.exactla import IntPoly, chapman_dets, det_affine
from legdet.harness import run_check
from legdet.matrices import chapman_matrix
from legdet.ntcore import PrimeCtx
from legdet.quadfield import (
    QuadUnit,
    chapman_expected,
    class_data,
    class_number,
    fundamental_unit,
    unit_mul,
    unit_norm,
    unit_pow,
)


def test_fundamental_unit_small():
    assert fundamental_unit(5) == QuadUnit(1, 1)     # (1 + sqrt 5)/2
    assert fundamental_unit(13) == QuadUnit(3, 1)    # (3 + sqrt 13)/2
    assert fundamental_unit(17) == QuadUnit(8, 2)    # 4 + sqrt 17
    assert fundamental_unit(97) == QuadUnit(11208, 1138)


def test_fundamental_unit_norm_and_minimality():
    for p in oracle_primes(5, 300, cls4=1):
        eps = fundamental_unit(p)
        assert unit_norm(eps, p) in (1, -1)
        assert eps.u > 0 and eps.v > 0
        assert (eps.u - eps.v) % 2 == 0
        # no unit between 1 and eps: the Pell-unit oracle accepts eps and
        # rejects its powers
        assert oracle_is_fundamental_unit(p, eps.u, eps.v), p
        for k in (2, 3, 5):
            power = unit_pow(eps, k, p)
            assert not oracle_is_fundamental_unit(p, power.u, power.v), (p, k)


def test_fundamental_unit_large_primes():
    # v has 37, 43 and 370 bits here, far past any search or float bound
    t0 = time.monotonic()
    units = {p: fundamental_unit(p) for p in (1621, 2389, 82021)}
    assert time.monotonic() - t0 < 1.0
    for p, eps in units.items():
        assert eps.u * eps.u - p * eps.v * eps.v in (4, -4), p
        assert (eps.u - eps.v) % 2 == 0 and eps.v > 0, p


def test_fundamental_unit_rejects_3_mod_4():
    with pytest.raises(ValueError):
        fundamental_unit(7)


def test_unit_arithmetic():
    p = 13
    eps = fundamental_unit(p)
    one = QuadUnit(2, 0)
    assert unit_mul(one, eps, p) == eps
    assert unit_pow(eps, 0, p) == one
    assert unit_pow(eps, 3, p) == unit_mul(unit_mul(eps, eps, p), eps, p)
    # norms are multiplicative
    sq = unit_pow(eps, 2, p)
    assert unit_norm(sq, p) == unit_norm(eps, p) ** 2


def test_class_numbers():
    assert class_number(5) == 1
    assert class_number(13) == 1
    assert class_number(229) == 3


def test_class_number_stable_under_precision_doubling():
    for p in (5, 13, 17, 97, 101, 229):
        assert class_number(p) == oracle_class_number(p, 128) == oracle_class_number(p, 256)


# every prime p = 1 (mod 4) below 3000 with h > 1, from the Dirichlet sine
# product (oracle_class_number), too slow to run over the whole range here
CLASS_NUMBERS_ABOVE_1 = {
    229: 3, 257: 3, 401: 5, 577: 7, 733: 3, 761: 3, 1009: 7, 1093: 5, 1129: 9,
    1229: 3, 1297: 11, 1373: 3, 1429: 5, 1489: 3, 1601: 7, 1901: 3, 2029: 7,
    2081: 5, 2089: 3, 2153: 5, 2213: 3, 2557: 3, 2677: 3, 2713: 3, 2777: 3,
    2857: 3, 2917: 3,
}


def test_class_number_table_below_3000():
    primes = oracle_primes(5, 2999, cls4=1)
    start = time.perf_counter()
    got = {p: class_number(p) for p in primes}
    elapsed = time.perf_counter() - start
    assert got == {p: CLASS_NUMBERS_ABOVE_1.get(p, 1) for p in primes}
    assert elapsed < 0.5, elapsed


def test_class_number_halves_the_cycle_count_when_the_unit_has_norm_1():
    # no prime p = 1 (mod 4) has a unit of norm +1, so the branch is pinned at
    # squarefree discriminants: Q(sqrt 21), Q(sqrt 33) and Q(sqrt 77) have
    # h = 1 and h+ = 2; Q(sqrt 65) and Q(sqrt 85) have norm -1 and h = h+ = 2
    for d, h, norm in ((21, 1, 1), (33, 1, 1), (77, 1, 1), (65, 2, -1), (85, 2, -1)):
        assert unit_norm(fundamental_unit(d), d) == norm
        assert class_number(d) == h, d


def test_class_number_raises_when_rho_leaves_the_reduced_forms(monkeypatch):
    # with isqrt one too small, the enumeration misses reduced forms that rho
    # still reaches
    units = {p: fundamental_unit(p) for p in (13, 229)}
    monkeypatch.setattr(quadfield, "math", SimpleNamespace(isqrt=lambda n: math.isqrt(n) - 1))
    for p, eps in units.items():
        with pytest.raises(ArithmeticError, match=f"^rho leaves the reduced forms of {p} at "):
            quadfield._class_number(p, eps)


def test_class_data_half_integer_components():
    for p in (5, 13, 17, 229):
        data = class_data(p)
        assert (data.eps_h.u - data.eps_h.v) % 2 == 0
        assert unit_norm(data.eps_h, p) in (1, -1)
        assert data.eps_h == unit_pow(data.eps, data.h, p)
    d229 = class_data(229)
    assert d229.h == 3
    assert d229.eps_h == QuadUnit(3420, 226)  # eps^3 = 1710 + 113 sqrt 229


def test_class_data_computes_the_unit_once(monkeypatch):
    calls = []

    def counting_unit(p):
        calls.append(p)
        return fundamental_unit(p)

    monkeypatch.setattr(quadfield, "fundamental_unit", counting_unit)
    for p in (13, 229):
        assert class_data(p).h == class_number(p)
    assert calls == [13, 13, 229, 229]     # one in class_data, one in class_number


# The chapman checks take both polynomials of a prime from one call of
# exactla.chapman_dets (subresultants); det_affine (Bareiss) is the oracle
# these tests hold the closed forms and that route to.
def _chapman_status(p: int, star: bool) -> str:
    [result] = run_check("chapman-star" if star else "chapman", p)
    return result.status


def test_chapman_verify_examples():
    assert _chapman_status(5, False) == "pass"       # det = 2x - 2
    assert _chapman_status(7, False) == "pass"       # det = -8x
    ctx13 = PrimeCtx.for_prime(13)
    assert det_affine(chapman_matrix(ctx13)) == IntPoly.make((-32, 96))
    assert _chapman_status(13, False) == "pass"
    assert _chapman_status(13, True) == "pass"
    # the first primes with h > 1; the default ceiling of 200 holds none
    for p in (229, 257):
        for check_id in ("chapman", "chapman-star"):
            [result] = run_check(check_id, p)
            assert (result.status, result.witness["h"]) == ("pass", "3"), (check_id, p)


def test_chapman_star_constant_positive_for_3_mod_4():
    # the star determinant is the constant +2^((p-1)/2) for 7 <= p = 3 (mod 4)
    for p in (7, 11, 19, 23):
        ctx = PrimeCtx.for_prime(p)
        assert det_affine(chapman_matrix(ctx, True)) == IntPoly.make((1 << ctx.n,))
        assert _chapman_status(p, True) == "pass"


def test_chapman_forms_fail_at_p3():
    # p = 3 is a genuine exception: det C = x + 1 and det C* = 3x - 1 match
    # neither closed-form branch.  Both the subresultant route the checks use
    # and the Bareiss oracle give these values.
    ctx = PrimeCtx.for_prime(3)
    assert chapman_dets(ctx) == (IntPoly.make((1, 1)), IntPoly.make((-1, 3)))
    assert det_affine(chapman_matrix(ctx, False)) == IntPoly.make((1, 1))
    assert det_affine(chapman_matrix(ctx, True)) == IntPoly.make((-1, 3))
    assert _chapman_status(3, False) == "fail"
    assert _chapman_status(3, True) == "fail"


def test_chapman_both_variants_share_class_data():
    for p in (29, 37, 41):
        ctx = PrimeCtx.for_prime(p)
        data = class_data(p)
        plain = chapman_expected(ctx, False, data)
        star = chapman_expected(ctx, True, data)
        assert det_affine(chapman_matrix(ctx, False)) == plain
        assert det_affine(chapman_matrix(ctx, True)) == star
        # both closed forms are built from the same (u, v)
        assert star.coeffs[0] == plain.coeffs[1]
        assert star.coeffs[1] == p * plain.coeffs[0]
