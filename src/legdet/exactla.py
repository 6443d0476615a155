"""Exact linear algebra over arbitrary-precision integers.

One fraction-free (Bareiss) elimination, _eliminate, computes every integer
determinant here: it eliminates dim - 1 rows and carries one or more further
rows along, so each carried row t yields det [t; rows].  det_exact carries
row 0 of its matrix.  det_affine carries two rows for a matrix [x + c_ij]:
after row 0 is subtracted from the others, x is left in row 0 alone, and the
two carried rows give both coefficients of the determinant.  The checks take
the squares-family determinants from the circulant routes in charsums, and
confirm S(1,p) by eigen-CRT; det_exact is the oracle the tests hold those
routes to, and the determinant of `legdet det` for the Carlitz and evil
matrices.  det_mod is an independent
cross-check oracle over F_q, deliberately sharing no code with det_exact.
char_poly evaluates det_exact at dim+1 points and interpolates in integers
by Newton's forward differences; the checks take the Carlitz polynomial from
charsums.carlitz_char_poly instead, and char_poly is the reference the tests
compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _eliminate(rows: list[list[int]], tops: list[list[int]]) -> list[int]:
    """det [t; rows] for each carried row t, by one fraction-free elimination.

    rows holds dim - 1 rows of length dim.  Bareiss elimination over them, with
    row and column swaps where a pivot is zero, carries every t along as the
    last row, so t ends up holding det [rows; t] in its last entry; every
    division is exact.  If rows has rank below dim - 1, every determinant is 0.
    Both arguments are overwritten.
    """
    dim = len(rows) + 1
    sign = -1 if dim % 2 == 0 else 1     # (-1)^(dim-1): t moved from last to first
    prev = 1
    for k in range(dim - 1):
        if rows[k][k] == 0:
            pivot_at = next(
                ((i, j) for j in range(k, dim) for i in range(k, dim - 1) if rows[i][j]),
                None,
            )
            if pivot_at is None:
                return [0] * len(tops)
            i, j = pivot_at
            if i != k:
                rows[k], rows[i] = rows[i], rows[k]
                sign = -sign
            if j != k:
                for r in rows + tops:
                    r[k], r[j] = r[j], r[k]
                sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for ri in rows[k + 1:] + tops:
            f = ri[k]
            ri[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(ri[k + 1:], tail)]
        prev = pivot
    return [sign * t[-1] for t in tops]


def det_exact(m) -> int:
    """Exact determinant: one fraction-free elimination of rows 1..dim-1 that
    carries row 0 along.  The empty matrix has determinant 1."""
    a = _rows(m)
    if not a:
        return 1
    if any(len(r) != len(a) for r in a):
        raise ValueError("matrix is not square")
    return _eliminate(a[1:], a[:1])[0]


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
    elimination over D carries both candidate rows K_0 and (1, ..., 1) along.
    """
    rows = _rows(m.constants)
    if not rows:
        return IntPoly.make((1,))
    k0 = rows[0]
    d = [[x - y for x, y in zip(r, k0)] for r in rows[1:]]
    return IntPoly.make(_eliminate(d, [list(k0), [1] * len(rows)]))


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


def _interpolate(values: list[int]) -> list[int]:
    """Coefficients, low first, of the polynomial of degree < len(values) that
    takes values[t] at t = 0, 1, ...: Newton's forward-difference form
    sum_k (Delta^k f(0) / k!) x (x-1) ... (x-k+1), expanded in integers.
    The coefficients are integers exactly when k! divides every Delta^k f(0);
    otherwise ArithmeticError."""
    newton = []
    diffs = list(values)
    fact = 1
    for k in range(len(values)):
        c, r = divmod(diffs[0], fact)
        if r:
            raise ArithmeticError("interpolation produced a non-integer coefficient")
        newton.append(c)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        fact *= k + 1
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):         # coeffs = coeffs (x - k) + c_k
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    return coeffs
