"""The eigenvalues of the squares matrix as character sums, exact cyclotomic
arithmetic in Z[zeta_{p-1}], and four results from circulant Fourier values:
the squares-matrix determinants S(d,p) and S*(1,p), the eigenvalue product
(eigen-CRT, a second route to S(1,p)) and the Carlitz characteristic
polynomial.  Each is taken modulo one number Q = Phi_m(2^s), in which 2^s is a
certified principal m-th root of unity, and lifted from (-Q/2, Q/2).  Each
Fourier value is read off byte slices of a repeated coefficient buffer as
one integer (Kronecker substitution) at a root w = 2^(8B) of Q whose w^g - 1
is a unit for every proper divisor g of m.  For the first three, s = 8B is
the least whole number of bytes; det_squares stops as soon as its product is
0 mod Q, which makes that determinant 0 exactly.  Carlitz takes the least s,
which keeps its product tree narrow, and reads its values at
w = (2^s)^r = 2^lcm(8, s): r | 8 and p is odd, so w keeps the order p.
The row identity of p = a^2 + 4b^2 reads every row sum of the squares
matrix, in the same circulant order, off one integer product.

The eigenvalue of index k is lambda_k = sum_{j=1..n} ((1+j^2)/p) chi^k(j^2),
chi a generator of the character group.  eigen_identity decides that these
are the eigenvalues of the squares matrix by one identity in Z[x]/(x^n - 1),
in integers.  eigen_verify reports them for `legdet eigen`: as mpmath floats
(imported on first use), as elements of Z[zeta_{p-1}] in exact mode, and
with numpy eigenvector residuals in float mode; none of these decides
anything.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from typing import Iterator, NamedTuple

from .exactla import IntPoly, _signed, det_exact
from .matrices import squares_matrix
from .ntcore import PrimeCtx, _factor_trial

EXACT_PMAX = 61          # eigen_verify's default mode: exact up to here, float above
FLOAT_PREC_BITS = 128    # mpmath precision of eigen_verify's floats, well past a double's 53


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low first) of the m-th cyclotomic polynomial.

    Computed as (x^m - 1) / prod of the lower-order cyclotomic polynomials,
    all divisions exact.
    """
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(poly)


def _divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (low degree first) by a
    monic divisor."""
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            quot[i - dn] = c
            for j, dc in enumerate(den):
                rem[i - dn + j] -= c * dc
    return quot, rem[:dn]


def _reduce_mod_cyclotomic(vec, m: int) -> tuple[int, ...]:
    """Canonical form of sum c_t zeta^t: remainder mod the m-th cyclotomic poly."""
    rem = _divmod_monic(vec, cyclotomic_polynomial(m))[1]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


class CyclotomicElt(NamedTuple):
    """Exact element of Z[zeta_m] as a length-m coefficient vector (zeta^t basis)."""

    order: int
    coeffs: tuple[int, ...]

    def __add__(self, other: "CyclotomicElt") -> "CyclotomicElt":
        return CyclotomicElt(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicElt") -> "CyclotomicElt":
        return CyclotomicElt(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def conjugate(self) -> "CyclotomicElt":
        """Image under zeta -> zeta^(-1) (complex conjugation)."""
        m = self.order
        out = [0] * m
        for t, c in enumerate(self.coeffs):
            out[(m - t) % m] = c
        return CyclotomicElt(m, tuple(out))

    def canonical(self) -> tuple[int, ...]:
        return _reduce_mod_cyclotomic(self.coeffs, self.order)

    def is_zero(self) -> bool:
        return self.canonical() == ()

    def as_int(self) -> int | None:
        """The value as a rational integer, or None if it is not one."""
        c = self.canonical()
        if c == ():
            return 0
        if len(c) == 1:
            return c[0]
        return None

    def to_float(self) -> mpmath.mpc:
        import mpmath

        roots = _root_table(self.order)
        with mpmath.workprec(FLOAT_PREC_BITS):
            return sum(
                (c * roots[t] for t, c in enumerate(self.coeffs) if c),
                start=mpmath.mpc(0),
            )


@functools.lru_cache(maxsize=16)
def _root_table(m: int):
    import mpmath

    with mpmath.workprec(FLOAT_PREC_BITS):
        base = mpmath.expjpi(mpmath.mpf(2) / m)
        return tuple(base**t for t in range(m))


def eigenvalue_exact(ctx: PrimeCtx, k: int) -> CyclotomicElt:
    """lambda_k as an exact element of Z[zeta_{p-1}]."""
    p, m = ctx.p, ctx.p - 1
    if not 1 <= k <= ctx.n:
        raise ValueError(f"k={k} out of range 1..{ctx.n}")
    vec = [0] * m
    sym, dlog = ctx.symbols, ctx.dlog
    for j in range(1, ctx.n + 1):
        c = sym[(1 + j * j) % p]
        if c:
            vec[(2 * k * dlog[j]) % m] += c
    return CyclotomicElt(m, tuple(vec))


class EigenIdentity(NamedTuple):
    """The outcome of eigen_identity; ok iff all three hold."""

    real: bool                      # L's coefficients at t and -t are equal
    vandermonde: bool               # the exponents e_j are distinct
    first_bad_row: int | None       # the first row i where the identity fails

    @property
    def ok(self) -> bool:
        return self.real and self.vandermonde and self.first_bad_row is None


def eigen_identity(ctx: PrimeCtx) -> EigenIdentity:
    """Check that the lambda_k are the eigenvalues of the squares matrix M,
    with eigenvectors v_k = (chi^k(j^2))_j, by one identity in Z[x]/(x^n - 1).

    With e_j = dlog j mod n and L(x) = sum_j ((1+j^2)/p) x^(e_j), row i of M
    must satisfy sum_j M_ij x^(e_j) = L(x) x^(e_i).  The map x -> zeta_n^k is
    a ring map of Z[x]/(x^n - 1), and chi^k(j^2) = zeta_n^(k e_j), so the
    identity gives M v_k = lambda_k v_k with lambda_k = L(zeta_n^k) for every
    k at once.  lambda_k is real when L(x) = L(x^-1), and the v_k are
    independent (a Vandermonde matrix) when the e_j are distinct.
    """
    if ctx.cls != 1:
        raise ValueError(f"p={ctx.p} must be 1 (mod 4)")
    p, n, sym = ctx.p, ctx.n, ctx.symbols
    exps = [ctx.dlog[j] % n for j in range(1, n + 1)]
    lam = [0] * n
    for j, e in enumerate(exps, start=1):
        lam[e] += sym[(1 + j * j) % p]
    real = all(lam[t] == lam[-t % n] for t in range(n))
    first_bad_row = None
    for i, (row, e_i) in enumerate(zip(squares_matrix(ctx, 1).entries, exps), start=1):
        lhs = [0] * n
        for c, e in zip(row, exps):
            lhs[e] += c
        if lhs != lam[-e_i % n:] + lam[:-e_i % n]:     # the coefficients of L(x) x^(e_i)
            first_bad_row = i
            break
    return EigenIdentity(real, len(set(exps)) == n, first_bad_row)


class EigenReport(NamedTuple):
    p: int
    mode: str                                   # "exact" | "float"
    lambdas: tuple[float, ...]                  # real parts, index k = 1..n
    residuals: tuple[float, ...]                # per-k eigenvector residual
    lambdas_exact: tuple[CyclotomicElt, ...] | None
    identity: EigenIdentity                     # decides ok

    @property
    def residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def vandermonde_ok(self) -> bool:
        return self.identity.vandermonde

    @property
    def ok(self) -> bool:
        return self.identity.ok

    def rows(self) -> list[dict]:
        """One JSON-ready record per eigenvalue."""
        out = []
        for i, lam in enumerate(self.lambdas):
            row = {"p": self.p, "k": i + 1, "lambda_float": lam}
            if self.lambdas_exact is not None:
                row["lambda_exact"] = list(self.lambdas_exact[i].canonical())
            row["residual"] = self.residuals[i]
            out.append(row)
        return out


def eigen_verify(ctx: PrimeCtx, exact: bool | None = None) -> EigenReport:
    """The eigenvalue report that `legdet eigen` prints; its verdict `ok` is
    eigen_identity's.

    The lambda_k are evaluated in mpmath at FLOAT_PREC_BITS.  Exact mode (the
    default up to EXACT_PMAX) also reports each lambda_k in Z[zeta_{p-1}];
    float mode reports the numpy residual max_j |(M v_k - lambda_k v_k)_j| of
    each k instead.  Neither the floats nor the residuals decide anything.
    """
    identity = eigen_identity(ctx)
    if exact is None:
        exact = ctx.p <= EXACT_PMAX
    n, m = ctx.n, ctx.p - 1
    lams_exact = tuple(eigenvalue_exact(ctx, k) for k in range(1, n + 1))
    lam_re = tuple(float(lam.to_float().real) for lam in lams_exact)
    if exact:
        return EigenReport(ctx.p, "exact", lam_re, (0.0,) * n, lams_exact, identity)

    import numpy as np

    sq_exps = [(2 * ctx.dlog[j]) % m for j in range(1, n + 1)]
    Mf = np.array(squares_matrix(ctx, 1).entries, dtype=np.float64)
    E = np.empty((n, n), dtype=np.int64)
    for k in range(1, n + 1):
        E[:, k - 1] = [(k * e) % m for e in sq_exps]
    V = np.exp(2j * np.pi * E / m)
    lam_arr = np.array(lam_re, dtype=np.float64)
    R = Mf @ V - V * lam_arr[None, :]
    residuals = tuple(float(x) for x in np.abs(R).max(axis=0))
    return EigenReport(ctx.p, "float", lam_re, residuals, None, identity)


def _cyclotomic_modulus(m: int, sq_bound: int, step: int = 1) -> tuple[int, int]:
    """(Q, w) with w = 2^s and Q = Phi_m(w), every prime factor of m divided
    out, for the smallest multiple s of step with Q^2 > sq_bound.

    Every prime factor of Phi_m(w) that does not divide m is 1 (mod m), and w
    has order exactly m modulo it.  So w is a principal m-th root of unity
    mod Q and m is a unit: circulant determinants, adjugates and
    characteristic polynomials of dimension m diagonalise in Z/QZ as they do
    over C.  Callers certify the order of w rather than trust this.
    """
    factors = _factor_trial(m)
    w = 1
    while True:
        w <<= step          # not w*w: the overshoot makes every product dearer
        num = den = 1       # Phi_m(w) = prod_(e | rad m) (w^(m/e) - 1)^mu(e)
        for subset in range(1 << len(factors)):
            term = w ** (m // math.prod(r for i, r in enumerate(factors)
                                         if subset >> i & 1)) - 1
            if subset.bit_count() % 2:
                den *= term
            else:
                num *= term
        q = num // den
        for r in factors:
            while q % r == 0:
                q //= r
        if q * q > sq_bound:
            return q, w


def eigen_product(ctx: PrimeCtx) -> int:
    """The product of all lambda_k by eigen-CRT: every lambda_k is evaluated
    as its character sum mod Q = Phi_(p-1)(w), w = 2^(8B), of
    _cyclotomic_modulus, and the product is lifted from Z/QZ.

    Mod Q, zeta_(p-1) becomes w, of order m = p - 1, and lambda_k is
    sum_t v_t w^(kt), where v_t = ((1+j^2)/p) at t = 2 dlog j for j <= n and
    0 elsewhere.  Ordered by the squares g^(2t), S(1,p) is a circulant with
    exactly these eigenvalues, k = 1..n, so their product is det S(1,p) at
    every odd p, at most n^(n/2) in absolute value by Hadamard, and Q exceeds
    twice that.

    Each lambda_k is read off bytes.  With h = gcd(k, m), m' = m/h and the
    folded V_t = sum_(u = t mod m') v_u, lambda_k = sum_(e < m') V_(k'e) w^(he),
    k' the inverse of k/h mod m'.  Adding h sum_e w^(he) = h (w^m - 1)/(w^h - 1)
    changes nothing mod Q, because w^h - 1 divides some w^(m/r) - 1, which
    the certificate makes a unit.  So lambda_k is the integer whose h B-byte
    slot e holds V_(k'e) + h, in [0, 2h]: byte i of each slot is the slice
    with step k' of the plane bytes(((V + h) >> 8i) & 255) * m', one plane
    while 2h < 256.  As m is even and w^(m/2) = -1 mod Q, its upper half is
    subtracted from its lower half before the % Q.  The h = 1 plane is m^2
    bytes; each divisor's planes are freed before the next are built.

    This route is kept apart from det_squares: its ring has m = p - 1
    (theirs m = n), it certifies Q and w in its own code, and it indexes the
    terms of lambda_k by j rather than by the exponent of g^2.  A fault in
    the shared constructor of Q can thus only raise.
    """
    p, n, m = ctx.p, ctx.n, ctx.p - 1
    sym, dlog = ctx.symbols, ctx.dlog
    sq_bound = 4 * n**n
    q, z = _cyclotomic_modulus(m, sq_bound, 8)
    shift = z.bit_length() - 1
    if q * q <= sq_bound or z != 1 << shift or shift % 8 or pow(z, m, q) != 1 or any(
            math.gcd(pow(z, m // r, q) - 1, q) != 1 for r in _factor_trial(m)):
        raise ArithmeticError(f"eigen-CRT: the modulus for m = {m} fails its certificate")
    width = shift // 8                      # B
    half = m // 2 * width
    v = [0] * m
    for j in range(1, n + 1):
        v[2 * dlog[j] % m] = sym[(1 + j * j) % p]
    prod = 1
    for h in range(1, n + 1):
        if m % h:
            continue
        m1 = m // h
        folded = [sum(v[t::m1]) + h for t in range(m1)]
        ks = [k for k in range(1, m1 // 2 + 1) if math.gcd(k, m1) == 1]   # h k <= n
        reps = [bytes(x >> 8 * i & 255 for x in folded) * m1
                for i in range(((2 * h).bit_length() + 7) // 8)]
        buf = bytearray(m * width)
        for k in ks:
            inv = pow(k, -1, m1)
            for i, rep in enumerate(reps):
                buf[i::h * width] = rep[:inv * m1:inv]
            lam = int.from_bytes(buf[:half], "little") - int.from_bytes(buf[half:], "little")
            prod = prod * (lam % q) % q
        del reps, rep
    return prod if 2 * prod < q else prod - q


def product_identity(ctx: PrimeCtx) -> tuple[int, int]:
    """(product of all lambda_k by eigen-CRT, exact det of the matrix).

    The two values are computed along routes that share no code: character
    sums mod Phi_(p-1)(2^(8B)) on one side, Bareiss elimination on the other.
    """
    return eigen_product(ctx), det_exact(squares_matrix(ctx, 1))


@functools.lru_cache(maxsize=4)
def _fourier_modulus(m: int, sq_bound: int, step: int) -> tuple[int, int]:
    """(Q, w) of _cyclotomic_modulus(m, sq_bound, step), once certified:
    w = 2^s with step | s, Q^2 > sq_bound, and w has order exactly m modulo
    every prime factor of Q, since w^m = 1 and w^(m/r) - 1 is a unit for
    every prime r | m.  Then w is a principal m-th root of unity and m a unit
    mod Q, and so is w^g - 1 for every proper divisor g of m, a divisor of
    some w^(m/r) - 1.  ArithmeticError if any of this fails."""
    q, w = _cyclotomic_modulus(m, sq_bound, step)
    s = w.bit_length() - 1
    if q * q <= sq_bound or w != 1 << s or s % step or pow(w, m, q) != 1 or any(
            math.gcd(pow(w, m // r, q) - 1, q) != 1 for r in _factor_trial(m)):
        raise ArithmeticError(f"Fourier modulus for m = {m} fails its certificate")
    return q, w


def _fourier_values(vec: list[int], q: int, w: int) -> Iterator[int]:
    """lambda_k = sum_t c_t w^(kt) mod Q for every k < m, where (c_t) = vec
    has length m and entries -1, 0 and 1: lambda_0 = sum c, exactly, first,
    then the other k in the order of (gcd(k, m), k).  w = 2^(8B) must be a
    principal m-th root of unity mod Q with w^g - 1 a unit for every proper
    divisor g of m, as _fourier_modulus certifies (for carlitz_char_poly's
    power of its w, see there).

    w^e is byte e B of an integer.  With m' = m/g, k' the inverse of k/g mod
    m' and c folded into C_t = sum_(u = t mod m') c_u, lambda_k =
    sum_(e < m') C_(k'e) w^(ge).  Adding g sum_e w^(ge) = g (w^m - 1)/(w^g - 1)
    changes nothing mod Q, as w^g - 1 is a unit, and puts each C_(k'e) + g in
    [0, 2g], ceil(bits(2g)/8) <= g B bytes: byte i of every slot is the slice
    with step k' of the plane bytes(((C + g) >> 8i) & 255) * m', laid g B
    bytes apart.  While 2g < 256 that is one plane; for g = 1, bytes(c + 1) * m,
    an m^2-byte buffer, freed like every divisor's before the next is built.
    For even m, w^(m/2) = -1 mod Q (w^m = 1, and w^(m/2) - 1 is a unit), so
    the upper half of that integer is subtracted from the lower half first.
    """
    m = len(vec)
    width = (w.bit_length() - 1) // 8       # B
    half = m // 2 * width
    yield sum(vec)
    for g in range(1, m):
        if m % g:
            continue
        m1 = m // g
        bins = [sum(vec[t::m1]) + g for t in range(m1)]
        planes = [bytes(x >> 8 * i & 255 for x in bins) * m1
                  for i in range(((2 * g).bit_length() + 7) // 8)]
        units = [k for k in range(1, m1) if math.gcd(k, m1) == 1]
        out = bytearray(m * width)
        for k in units:
            inv = pow(k, -1, m1)
            for i, plane in enumerate(planes):
                out[i::g * width] = plane[:inv * m1:inv]
            if m % 2:
                yield int.from_bytes(out, "little") % q
            else:
                yield (int.from_bytes(out[:half], "little")
                       - int.from_bytes(out[half:], "little")) % q
        del planes, plane


def _squares_coeffs(ctx: PrimeCtx, d: int) -> list[int]:
    """c_s = ((1 + d g^(2s))/p), s < n: the first row of S(d,p) in the
    circulant order of det_squares."""
    p, sym = ctx.p, ctx.symbols
    d %= p
    return [sym[(1 + d * x) % p] for x in ctx.powers[::2]]


def _square_roots(ctx: PrimeCtx) -> list[int]:
    """i_u, u < n: the root i <= n of x_u = g^(2u), the row and column of
    S(d,p) at place u in the circulant order of det_squares.  g^u is a
    square root of x_u, and so is p - g^u."""
    p, n = ctx.p, ctx.n
    return [x if x <= n else p - x for x in ctx.powers[:n]]


def det_squares(ctx: PrimeCtx, d: int) -> int:
    """det S(d,p) = det [((i^2 + d j^2)/p)] from the matrix's circulant structure.

    Ordering rows and columns alike by x_t = g^(2t) turns the matrix into the
    circulant [c_((u-t) mod n)], c_s = ((1 + d g^(2s))/p), since
    ((x + d y)/p) = ((1 + d y/x)/p) for a square x.  Its determinant is
    prod_k sum_s c_s w^(ks) over the n-th roots of unity w^k; that product is
    taken mod Q = Phi_n(w) of _fourier_modulus, over the values of
    _fourier_values, and lifted into (-Q/2, Q/2).  Q^2 > 4 n^n, so Q exceeds
    twice the Hadamard bound n^(n/2) of every determinant of dimension n with
    entries in {-1, 0, 1}: exact for every d and every odd prime, and
    S*(1,p) shares the modulus.

    Since |det| < Q/2, det = 0 exactly as soon as the product is 0 mod Q,
    and the route stops there.  lambda_0 = sum_s c_s is exact, and when it is
    0 (a non-residue d at p = 1 (mod 4)) no modulus is built at all.
    """
    n = ctx.n
    c = _squares_coeffs(ctx, d)
    if sum(c) == 0:
        return 0
    q, w = _fourier_modulus(n, 4 * n**n, 8)
    det = 1
    for lam in _fourier_values(c, q, w):
        det = det * lam % q
        if det == 0:
            return 0
    return _signed(det, q)


def det_squares_star(ctx: PrimeCtx) -> int:
    """det S*(1,p), S(1,p) with its first row replaced by ((j/p))_j, from the
    adjugate of the circulant of det_squares.

    The first row of S(1,p) is the row of x_0 = 1 in circulant order, so
    det S* = sum_u r_u adj(C)[u][0], where r_u = (j/p) for the j <= n with
    j^2 = x_u = g^(2u).  C = F diag(lambda_k) F^-1 with F = [w^(tk)], hence
    adj(C) = F diag(nu_k) F^-1 with nu_k = prod_(l != k) lambda_l, and
    det S* = (1/n) sum_k nu_k R_k with R_k = sum_u r_u w^(ku), in one pass
    over k: acc <- acc lambda_k + prefix R_k, then prefix <- prefix lambda_k.
    Nothing is divided, so a zero lambda needs no special case.  By Hadamard |det S*| <= n^(n/2), and det_squares' Q exceeds twice
    that.  Exact at every odd prime.
    """
    n, sym = ctx.n, ctx.symbols
    r = [sym[i] for i in _square_roots(ctx)]
    q, w = _fourier_modulus(n, 4 * n**n, 8)
    lams = list(_fourier_values(_squares_coeffs(ctx, 1), q, w))
    acc, prefix = 0, 1
    for lam, r_k in zip(lams, _fourier_values(r, q, w)):      # the same order of k
        acc = (acc * lam + prefix * r_k) % q
        prefix = prefix * lam % q
    return _signed(acc * pow(n, -1, q) % q, q)


def _poly_from_roots(roots: list[int], q: int) -> list[int]:
    """prod_k (x - r_k) mod q, low degree first, by a product tree.

    Each product of two polynomials is one integer product (Kronecker
    substitution): coefficient i sits in byte slot i, wide enough for a sum
    of len(roots) products of residues, so no slot carries into the next.
    """
    polys = [[-r % q, 1] for r in roots]
    width = (2 * q.bit_length() + len(roots).bit_length()) // 8 + 1

    def pack(poly):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in poly), "little")

    while len(polys) > 1:
        paired = []
        for f, g in zip(polys[::2], polys[1::2]):
            h = (pack(f) * pack(g)).to_bytes(width * (len(f) + len(g) - 1), "little")
            paired.append([int.from_bytes(h[i:i + width], "little") % q
                           for i in range(0, len(h), width)])
        polys = paired + polys[len(paired) * 2:]
    return polys[0]


def carlitz_char_poly(ctx: PrimeCtx) -> IntPoly:
    """det(xI - C) for the Carlitz matrix C = [((i-j)/p)]_(1 <= i,j < p).

    C is the p x p circulant A = [((i-j)/p)]_(0 <= i,j < p) with row and
    column 0 deleted.  Every principal (p-1)-minor of xI - A is a cyclic
    shift of that one, and together they sum to chi_A'(x), so
    det(xI - C) = chi_A'(x)/p.  chi_A = prod_k (x - mu_k) over the Fourier
    values mu_k = sum_s ((-s)/p) w^(ks) of A, mod Q = Phi_p(w) of
    _fourier_modulus with w = 2^s for the smallest s: a byte-aligned w would
    double the width of Q and the cost of the product tree with it.
    _fourier_values reads them at w^r = 2^lcm(8, s), r = 8/gcd(8, s), which
    meets its precondition: r | 8 and p is odd, so w^r has order p modulo
    every prime factor of Q, as w has, and w^r - 1 is a unit.  That only
    permutes the mu_k, and their product does not depend on the order.  The
    coefficient of x^(p-1-m) is, up to sign, a sum of C(p-1, m) principal
    m-minors of C, each at most (p-1)^(m/2) by Hadamard (off the diagonal
    every entry is +-1), so every coefficient is at most
    sum_m C(p-1, m) (p-1)^(m/2) = (1 + sqrt(p-1))^(p-1) in absolute value,
    and Q exceeds twice that.
    """
    p, sym = ctx.p, ctx.symbols
    # (1 + sqrt(p-1))^2 <= p + ceil(2 sqrt(p-1)), and isqrt(4m - 1) + 1 = ceil(2 sqrt m)
    sq_bound = 4 * (p + math.isqrt(4 * p - 5) + 1) ** (p - 1)
    q, w = _fourier_modulus(p, sq_bound, 1)
    r = 8 // math.gcd(8, w.bit_length() - 1)
    mus = list(_fourier_values([sym[-s % p] for s in range(p)], q, w**r))
    chi = _poly_from_roots(mus, q)
    inv_p = pow(p, -1, q)
    return IntPoly.make([_signed(k * c * inv_p % q, q) for k, c in enumerate(chi) if k])


def _row_sums(ctx: PrimeCtx) -> list[int]:
    """sum_i ((i^2+j^2)/p)(i/p) for j = 1..n, from one integer product.

    In the circulant order of det_squares, with r_t = (i_t/p) for the roots
    i_t of _square_roots, the sum of row j = i_u is the cyclic correlation
    sum_t c_((t-u) mod n) r_t, c_s = ((1 + g^(2s))/p).  c + 1 and the reversed
    r + 1 are packed into equal slots of two integers (Kronecker
    substitution), and slots n-1-u and 2n-1-u of their product hold
    sum_t (c_(t-u) + 1)(r_t + 1) between them: the row sum plus
    sum c + sum r + n.  A slot sums at most n products of at most 4, so a
    slot that holds 4n carries nothing into the next.
    """
    n, sym = ctx.n, ctx.symbols
    roots = _square_roots(ctx)
    c = _squares_coeffs(ctx, 1)
    r = [sym[i] for i in roots]
    code = next(code for code in "BHIQ" if 4 * n < 1 << 8 * array(code).itemsize)
    width = array(code).itemsize

    def pack(vec):
        # native byte order reverses nothing on a little-endian machine; on a
        # big-endian one it reverses both factors and the product alike
        return int.from_bytes(array(code, [v + 1 for v in vec]), sys.byteorder)

    prod = pack(c) * pack(r[::-1])
    slots = array(code, prod.to_bytes(width * (2 * n - 1), sys.byteorder))
    slots.append(0)
    offset = sum(c) + sum(r) + n
    sums = [0] * n
    for i, s in zip(roots, map(operator.add, slots[n - 1::-1], slots[:n - 1:-1])):
        sums[i - 1] = s - offset
    return sums


def row_identity_check(ctx: PrimeCtx) -> bool:
    """sum_i ((i^2+j^2)/p)(i/p) = -a (j/p) for every j = 1..n, every row sum
    taken by _row_sums."""
    if ctx.cls != 1 or ctx.decomp is None:
        raise ValueError(f"p={ctx.p} must be 1 (mod 4)")
    a, sym = ctx.decomp.a, ctx.symbols
    return _row_sums(ctx) == [-a * s for s in sym[1:ctx.n + 1]]
