"""Exact linear algebra over arbitrary-precision integers.

One fraction-free (Bareiss) elimination, _eliminate, eliminates dim - 1 rows
and carries one or more further rows along, so each carried row t yields
det [t; rows].  det_exact carries row 0 of its matrix.  det_affine carries
two rows for a matrix [x + c_ij]: after row 0 is subtracted from the others,
x is left in row 0 alone, and the two carried rows give both coefficients of
the determinant.  No legdet command runs them: they are the oracles the tests
hold the structured routes to.  char_poly evaluates det_exact at dim+1 points
and interpolates in integers by Newton's forward differences, the reference
for charsums.carlitz_char_poly.  det_mod is an independent oracle over F_q,
deliberately sharing no code with det_exact.

One subresultant kernel, _hankel_dets, takes the Hankel determinants of a
p-periodic sequence from one Euclidean remainder sequence modulo a power of
the prime 2^64 + 13.  chapman_dets reads both Chapman polynomials off it,
and evil_det Chapman's evil determinant det [((j-i)/p)].
"""

from __future__ import annotations

from typing import NamedTuple

from .matrices import AffineMatrix
from .ntcore import PrimeCtx


class IntPoly(NamedTuple):
    """Integer polynomial, coefficients lowest degree first, no trailing zeros:
    a value type that the routes return and the checks compare, with no
    arithmetic."""

    coeffs: tuple[int, ...]

    def __add__(self, other):               # no tuple concatenation or repetition
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__

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


def _signed(r: int, q: int) -> int:
    """The residue r mod q lifted into (-q/2, q/2): exact for a value of
    absolute value B when q > 2B."""
    return r if 2 * r < q else r - q


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


def chapman_dets(ctx: PrimeCtx) -> tuple[IntPoly, IntPoly]:
    """(det C_n(x), det C*_(n+1)(x)): the determinants of chapman_matrix(ctx)
    and chapman_matrix(ctx, True).  C_N(x) is the Hankel matrix of
    h_k = x + ((k+1)/p), whose h_0 = x + 1 is not 0 at x = 0 or 1, and
    det C_N is affine in x, so _hankel_dets at x = 0 and 1 gives both."""
    p, n, sym = ctx.p, ctx.n, ctx.symbols
    (c0, s0), (c1, s1) = (_hankel_dets([x + sym[(k + 1) % p] for k in range(p)], (n, n + 1))
                          for x in (0, 1))
    return IntPoly.make((c0, c1 - c0)), IntPoly.make((s0, s1 - s0))


def evil_det(ctx: PrimeCtx) -> int:
    """det evil_matrix(ctx) = det [((j-i)/p)]_(i,j=1..n+1).  Its N = n + 1 rows
    reversed give the Hankel matrix of h_k = ((k-n)/p), h_0 != 0, and
    multiply the determinant by (-1)^(N(N-1)/2)."""
    p, n, sym = ctx.p, ctx.n, ctx.symbols
    [det] = _hankel_dets([sym[(k - n) % p] for k in range(p)], (n + 1,))
    return -det if (n + 1) * n // 2 % 2 else det


def _hankel_dets(h: list[int], dims: tuple[int, ...]) -> list[int]:
    """det [h_(i+j)]_(i,j<N) for each N < p in dims, for the p-periodic
    sequence of period h, h_0 != 0, modulo q = R^k, R = 2^64 + 13.

    The generating function of h is G(z)/(z^p - 1), with
    G(z) = sum_(k<p) h_k z^(p-1-k), and
    det [h_(i+j)]_(i,j<N) = (-1)^(N(N-1)/2) sres_(p-N)(z^p - 1, G) (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 6 and 11).  One
    remainder sequence, down to degree p - max(dims), passes every p - N.

    By Hadamard each determinant is at most (M^2 N)^(N/2), M = max |h_k|; k
    is the least with 2^(128k) > 4 (M^2 N)^N for the largest N, so q^2
    exceeds it.  R is prime, so a residue mod q is a unit exactly when R
    does not divide it.  The sequence divides only by units (a leading
    coefficient that is not one raises ArithmeticError), so the residues are
    the subresultants mod q, although q is not prime for k > 1.
    """
    p, top = len(h), max(dims)
    sq_bound = 4 * (max(map(abs, h)) ** 2 * top) ** top
    q = _chapman_modulus(-(-sq_bound.bit_length() // 128))
    if q * q <= sq_bound:
        raise ArithmeticError(f"Chapman modulus {q} is too small for p = {p}")
    degs, leads = _remainder_sequence([1] + [0] * (p - 1) + [q - 1],
                                      [c % q for c in h], q, p - top)
    dets = []
    for dim in dims:
        r = _subresultant(degs, leads, p - dim, q)
        if dim * (dim - 1) // 2 % 2:
            r = -r % q
        dets.append(_signed(r, q))
    return dets


def _chapman_modulus(k: int) -> int:
    """R^k, for the prime R = 2^64 + 13, the least prime above 2^64."""
    return ((1 << 64) + 13) ** k


def _remainder_sequence(a: list[int], b: list[int], q: int,
                        stop: int) -> tuple[list[int], list[int]]:
    """The degrees and leading coefficients of the Euclidean remainder
    sequence r_0 = a, r_1 = b, r_(i+1) = r_(i-1) rem r_i over Z/qZ, up to the
    first remainder of degree at most stop, or the last nonzero one.

    Coefficients are residues, highest degree first, and a[0] and b[0] are
    nonzero.  A normal step, whose quotient has degree 1, is one pass over
    the coefficients; any other step is one pass per quotient term.
    """
    degs, leads = [len(a) - 1, len(b) - 1], [a[0], b[0]]
    while len(b) - 1 > stop:
        try:
            inv = pow(b[0], -1, q)
        except ValueError:
            raise ArithmeticError(
                f"leading coefficient {b[0]} is not a unit mod {q}") from None
        if len(a) == len(b) + 1:
            q1 = a[0] * inv % q
            q0 = (a[1] - q1 * b[1]) * inv % q
            r = [(u - q1 * v - q0 * w) % q for u, v, w in zip(a[2:], b[2:] + [0], b[1:])]
        else:
            r = a
            while len(r) >= len(b):
                c = r[0] * inv % q
                r = [(u - c * v) % q for u, v in zip(r[1:], b[1:] + [0] * (len(r) - len(b)))]
        lead = next((i for i, c in enumerate(r) if c), None)
        if lead is None:                        # b divides a: the sequence ends
            break
        a, b = b, r[lead:]
        degs.append(len(b) - 1)
        leads.append(b[0])
    return degs, leads


def _subresultant(degs: list[int], leads: list[int], j: int, q: int) -> int:
    """sres_j mod q of r_0 and r_1, read from the degrees n_i and leading
    coefficients l_i of their remainder sequence (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 11): 0 unless j = n_i for some i >= 1, and then
    prod_(k=1..i-1) (-1)^((n_(k-1)-j)(n_k-j)) l_k^(n_(k-1)-n_(k+1))
    times l_i^(n_(i-1)-n_i)."""
    if j not in degs[1:]:
        return 0
    i = degs.index(j, 1)
    acc = pow(leads[i], degs[i - 1] - degs[i], q)
    for k in range(1, i):
        acc = acc * pow(leads[k], degs[k - 1] - degs[k + 1], q) % q
        if (degs[k - 1] - j) * (degs[k] - j) % 2:
            acc = -acc % q
    return acc


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
