"""Fundamental unit and class number of Q(sqrt(p)) for p = 1 (mod 4), and
the Chapman determinant closed forms.

Units are stored as integer pairs (u, v) meaning (u + v sqrt(p))/2 with
u = v (mod 2); the pair multiplication law keeps half-integers exact.  The
class number counts the cycles of reduced forms of discriminant p.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactla import IntPoly
from .ntcore import PrimeCtx


class QuadUnit(NamedTuple):
    """(u + v sqrt(p))/2 with u = v (mod 2)."""

    u: int
    v: int


class ClassData(NamedTuple):
    eps: QuadUnit      # fundamental unit > 1
    h: int             # class number
    eps_h: QuadUnit    # eps^h = a_p + b_p sqrt(p) with (u, v) = (2 a_p, 2 b_p)


def unit_mul(a: QuadUnit, b: QuadUnit, p: int) -> QuadUnit:
    u = a.u * b.u + p * a.v * b.v
    v = a.u * b.v + b.u * a.v
    if u % 2 or v % 2:
        raise ArithmeticError("unit product is not half-integral")
    return QuadUnit(u // 2, v // 2)


def unit_pow(a: QuadUnit, e: int, p: int) -> QuadUnit:
    if e < 0:
        raise ValueError("negative powers not supported")
    acc = QuadUnit(2, 0)  # multiplicative identity: (2 + 0 sqrt p)/2 = 1
    base = a
    while e:
        if e & 1:
            acc = unit_mul(acc, base, p)
        base = unit_mul(base, base, p)
        e >>= 1
    return acc


def unit_norm(a: QuadUnit, p: int) -> int:
    num = a.u * a.u - p * a.v * a.v
    if num % 4:
        raise ArithmeticError("norm is not an integer")
    return num // 4


def fundamental_unit(p: int) -> QuadUnit:
    """Minimal (u, v), v > 0, with u^2 - p v^2 = +-4, for prime p = 1 (mod 4).

    Expands omega = (1 + sqrt p)/2 as a continued fraction, with complete
    quotients (P + sqrt p)/Q, until Q returns to 2.  The last convergent h/k
    then gives the fundamental unit h - k omega' = (2h - k + k sqrt p)/2 of
    the maximal order, in integer arithmetic and one period of steps.
    """
    if p % 4 != 1:
        raise ValueError(f"p={p} must be 1 (mod 4)")
    root = math.isqrt(p)
    P, Q = 1, 2
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        a = (P + root) // Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        P = a * Q - P
        Q = (p - P * P) // Q
        if Q == 2:
            break
    eps = QuadUnit(2 * h - k, k)
    _check_unit(eps, p)
    return eps


def _check_unit(eps: QuadUnit, p: int) -> None:
    if unit_norm(eps, p) not in (1, -1):
        raise ArithmeticError(f"({eps.u} + {eps.v} sqrt {p})/2 is not a unit")
    if eps.v <= 0 or eps.u <= 0:
        raise ArithmeticError("fundamental unit must exceed 1")


def class_number(p: int) -> int:
    """Class number of Q(sqrt(p)), p > 1 squarefree and 1 (mod 4)."""
    return _class_number(p, fundamental_unit(p))


def _class_number(p: int, eps: QuadUnit) -> int:
    """class_number for p's fundamental unit eps, already computed: the
    number of cycles of reduced forms (a, b, c) of discriminant p under the
    reduction operator rho (Cohen, A Course in Computational Algebraic Number
    Theory, 5.6), which is h, or 2h when N(eps) = +1.  With r = isqrt(p),
    (a, b, c) is reduced iff 0 < b <= r and r - b < 2|a| <= r + b, and
    rho(a, b, c) = (c, b', (b'^2 - p)/4c) with b' = -b (mod 2|c|), r - 2|c| < b' <= r.
    """
    r = math.isqrt(p)
    forms = set()
    for b in range(1, r + 1, 2):
        n = (p - b * b) // 4
        for a in range((r - b + 2) // 2, (r + b) // 2 + 1):
            if n % a == 0:
                forms.update(((a, b, -n // a), (-a, b, n // a)))
    cycles = 0
    while forms:
        start = form = forms.pop()
        cycles += 1
        while True:
            _, b, c = form
            b = r - (r + b) % (2 * abs(c))
            form = (c, b, (b * b - p) // (4 * c))
            if form == start:
                break
            if form not in forms:
                raise ArithmeticError(f"rho leaves the reduced forms of {p} at {form}")
            forms.remove(form)
    return cycles if unit_norm(eps, p) == -1 else cycles // 2


def class_data(p: int) -> ClassData:
    eps = fundamental_unit(p)
    h = _class_number(p, eps)
    return ClassData(eps, h, unit_pow(eps, h, p))


def chapman_expected(ctx: PrimeCtx, star: bool, data: ClassData | None) -> IntPoly:
    """Closed form of the Chapman determinant as a polynomial in x; data is
    p's class data, read only for p = 1 (mod 4).

    For p = 1 (mod 4), with eps^h = a_p + b_p sqrt(p) and (u, v) = (2a_p, 2b_p):
        det C   = (-1)^((p-1)/4) 2^((p-1)/2) (b_p - a_p x)
        det C*  = (-1)^((p-1)/4) 2^((p-1)/2) (p b_p x - a_p)
    For p = 3 (mod 4):
        det C   = -2^((p-1)/2) x
        det C*  = +2^((p-1)/2)
    (The star formula's sign for p = 3 (mod 4) is fixed here to match the
    determinants themselves, verified exactly for every 7 <= p <= 103; neither
    branch holds at p = 3, where det C = x + 1 and det C* = 3x - 1.)
    """
    p = ctx.p
    if ctx.cls == 3:
        pw = 1 << ctx.n
        return IntPoly.make((pw,)) if star else IntPoly.make((0, -pw))
    u, v = data.eps_h.u, data.eps_h.v
    s = -1 if (p - 1) // 4 % 2 else 1
    half_pw = 1 << (ctx.n - 1)      # 2^((p-1)/2) times a_p or b_p stays integral
    if star:
        return IntPoly.make((-s * half_pw * u, s * half_pw * p * v))
    return IntPoly.make((s * half_pw * v, -s * half_pw * u))
