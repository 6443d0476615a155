"""Exact linear algebra over arbitrary-precision integers.

det_exact is fraction-free Bareiss elimination (every division is exact).  The
checks take the squares-family determinants from the circulant routes in
charsums; det_exact is their second route for S(1,p) up to n = 100 and the
determinant of `legdet det` for the Carlitz and evil matrices.  det_mod is an
independent cross-check oracle over F_q, deliberately sharing no code with
det_exact.
det_affine runs one Bareiss elimination on the row differences of a matrix
[x + c_ij] and gets both coefficients of its determinant.  char_poly evaluates
det_exact at dim+1 points and interpolates exactly; the checks take the
Carlitz polynomial from charsums.carlitz_char_poly instead, and char_poly is
the reference the tests compare it with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .matrices import AffineMatrix


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly.make([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly.make(out)

    def __pow__(self, e: int) -> "IntPoly":
        acc = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            mag = abs(c)
            body = f"{mag}" if i == 0 or mag != 1 else ""
            piece = (body + ("*" if body and term else "") + term) or "0"
            if not parts:
                parts.append(("-" if c < 0 else "") + piece)
            else:
                parts.append(("- " if c < 0 else "+ ") + piece)
        return " ".join(parts)


def _rows(m) -> list[list[int]]:
    grid = getattr(m, "entries", m)
    return [list(r) for r in grid]


def det_exact(m) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Zero pivots are repaired by searching the column below and swapping; a
    fully zero column short-circuits to 0.  The empty matrix has determinant 1.
    """
    a = _rows(m)
    dim = len(a)
    if dim == 0:
        return 1
    if any(len(r) != dim for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(dim - 1):
        if a[k][k] == 0:
            for i in range(k + 1, dim):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(k + 1, dim):
            ri = a[i]
            f = ri[k]
            if prev == 1:
                ri[k + 1:] = [pivot * x - f * y for x, y in zip(ri[k + 1:], tail)]
            else:
                ri[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(ri[k + 1:], tail)]
        prev = pivot
    return sign * a[dim - 1][dim - 1]


def det_mod(m, q: int) -> int:
    """Determinant mod a prime q by ordinary Gaussian elimination over F_q."""
    a = [[x % q for x in row] for row in _rows(m)]
    dim = len(a)
    if dim == 0:
        return 1 % q
    det = 1
    for k in range(dim):
        piv = k
        while piv < dim and a[piv][k] == 0:
            piv += 1
        if piv == dim:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det % q
        akk = a[k][k]
        det = det * akk % q
        inv = pow(akk, -1, q)
        tail = a[k][k:]
        for i in range(k + 1, dim):
            ri = a[i]
            f = ri[k]
            if f:
                f = f * inv % q
                ri[k:] = [(x - f * y) % q for x, y in zip(ri[k:], tail)]
    return det


def det_affine(m: AffineMatrix) -> IntPoly:
    """Determinant of [x + c_ij] as a polynomial in x.

    Subtracting row 0 from every other row leaves x in row 0 alone, so
    det = det[K_0; D] + x det[1; D], where K_0 is row 0 of the constants and
    D holds the rows K_i - K_0: the result is affine by construction.  One
    fraction-free elimination over D, with row and column swaps, carries both
    candidate rows K_0 and (1, ..., 1) along; if D has rank below dim - 1,
    both determinants are 0.
    """
    rows = _rows(m.constants)
    dim = len(rows)
    if dim == 0:
        return IntPoly.make((1,))
    k0 = rows[0]
    a = [[x - y for x, y in zip(r, k0)] for r in rows[1:]]
    tops = [list(k0), [1] * dim]
    sign = -1 if dim % 2 == 0 else 1     # (-1)^(dim-1): row 0 moved below D
    prev = 1
    for k in range(dim - 1):
        if a[k][k] == 0:
            pivot_at = next(
                ((i, j) for j in range(k, dim) for i in range(k, dim - 1) if a[i][j]),
                None,
            )
            if pivot_at is None:
                return IntPoly(())
            i, j = pivot_at
            if i != k:
                a[k], a[i] = a[i], a[k]
                sign = -sign
            if j != k:
                for r in a + tops:
                    r[k], r[j] = r[j], r[k]
                sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for ri in a[k + 1:] + tops:
            f = ri[k]
            ri[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(ri[k + 1:], tail)]
        prev = pivot
    return IntPoly.make((sign * tops[0][-1], sign * tops[1][-1]))


def char_poly(m) -> IntPoly:
    """det(xI - M), exact and monic, via dim+1 evaluations and interpolation."""
    a = _rows(m)
    dim = len(a)
    if dim == 0:
        raise ValueError("characteristic polynomial needs dim >= 1")
    values = []
    for t in range(dim + 1):
        shifted = [
            [(t if i == j else 0) - a[i][j] for j in range(dim)] for i in range(dim)
        ]
        values.append(det_exact(shifted))
    coeffs = _interpolate(values)
    poly = IntPoly.make(coeffs)
    if poly.degree() != dim or poly.coeffs[-1] != 1:
        raise ArithmeticError("interpolated characteristic polynomial is not monic")
    return poly


def _interpolate(values: list[int]) -> list[Fraction]:
    """Lagrange interpolation at nodes 0..len(values)-1; result must be integral."""
    npts = len(values)
    # master = prod (x - s)
    master = [1]
    for s in range(npts):
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] -= s * master[i + 1]
    out = [Fraction(0)] * npts
    for t in range(npts):
        # basis_t = master / (x - t), by synthetic division
        basis = [0] * npts
        carry = master[npts]
        for i in range(npts - 1, -1, -1):
            basis[i] = carry
            carry = master[i] + t * carry
        denom = math.prod(t - s for s in range(npts) if s != t)
        w = Fraction(values[t], denom)
        for i in range(npts):
            out[i] += w * basis[i]
    ints = []
    for c in out:
        if c.denominator != 1:
            raise ArithmeticError("interpolation produced a non-integer coefficient")
        ints.append(c.numerator)
    return ints

