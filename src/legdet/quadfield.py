"""Fundamental unit and class number of Q(sqrt(p)) for p = 1 (mod 4), and
the Chapman determinant closed forms.

Units are stored as integer pairs (u, v) meaning (u + v sqrt(p))/2 with
u = v (mod 2); the pair multiplication law keeps half-integers exact.  The
class number is the only floating-point computation in the package: the
Dirichlet sine-product formula evaluated in mpmath (imported on first use),
guarded by an integrality gap and an automatic precision-doubling retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactla import IntPoly
from .ntcore import PrimeCtx


@dataclass(frozen=True)
class QuadUnit:
    """(u + v sqrt(p))/2 with u = v (mod 2)."""

    u: int
    v: int


@dataclass(frozen=True)
class ClassData:
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


def class_number(p: int, precision_bits: int = 128) -> int:
    """Class number of Q(sqrt(p)) by the Dirichlet sine-product formula.

    h = log(prod of sin(pi n/p) over non-residues / over residues) / (2 log eps).
    If the value is too close to a rounding boundary the computation retries
    at doubled precision.
    """
    return _class_number(p, fundamental_unit(p), precision_bits)


def _class_number(p: int, eps: QuadUnit, precision_bits: int) -> int:
    """class_number for p's fundamental unit eps, already computed."""
    import mpmath

    bits = precision_bits
    for _ in range(8):
        with mpmath.workprec(bits):
            acc = mpmath.mpf(0)
            pi_over_p = mpmath.pi / p
            for a in range(1, p):
                t = mpmath.log(mpmath.sin(pi_over_p * a))
                if pow(a, (p - 1) // 2, p) == 1:
                    acc -= t
                else:
                    acc += t
            eps_val = (eps.u + eps.v * mpmath.sqrt(p)) / 2
            hval = acc / (2 * mpmath.log(eps_val))
            h = int(mpmath.nint(hval))
            gap = float(mpmath.mpf(0.5) - abs(hval - h))
        if gap > 1e-6 and h >= 1:
            return h
        bits *= 2
    raise ArithmeticError(f"class number of {p} did not stabilize")


def class_data(p: int, precision_bits: int = 128) -> ClassData:
    eps = fundamental_unit(p)
    h = _class_number(p, eps, precision_bits)
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
