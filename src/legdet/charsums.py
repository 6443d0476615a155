"""The eigenvalues of the squares matrix as character sums, exact cyclotomic
arithmetic in Z[zeta_{p-1}], and four results from circulant Fourier values:
the squares-matrix determinants S(d,p) and S*(1,p), the eigenvalue product
(eigen-CRT, a second route to S(1,p)) and the Carlitz characteristic
polynomial.  Each is taken modulo one number Q = Phi_m(2^s), in which 2^s is a
certified principal m-th root of unity, and lifted from (-Q/2, Q/2).

The eigenvalue of index k is lambda_k = sum_{j=1..n} ((1+j^2)/p) chi^k(j^2),
chi a generator of the character group.  Two evaluation modes exist: exact
cyclotomic (authoritative; coefficient vectors reduced mod x^(p-1) - 1 during
arithmetic and canonicalized mod the cyclotomic polynomial only at comparison
time) and high-precision floating (mpmath for the values, imported on first
use, and numpy for the eigenvector residual sweep, imported only in float
mode).  Integrality claims are never decided by floats: they route through
exact determinants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .exactla import IntPoly, det_exact
from .matrices import squares_matrix
from .ntcore import PrimeCtx, _factor_trial

EXACT_PMAX = 61          # cyclotomic arithmetic stays cheap up to here
RESIDUAL_TOL = 1e-9      # float-mode eigenvector residual
IMAG_REL_TOL = 1e-12     # float-mode relative imaginary part


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


@dataclass(frozen=True)
class CyclotomicElt:
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

    def to_float(self, prec_bits: int = 128) -> mpmath.mpc:
        import mpmath

        roots = _root_table(self.order, prec_bits)
        with mpmath.workprec(prec_bits):
            return sum(
                (c * roots[t] for t, c in enumerate(self.coeffs) if c),
                start=mpmath.mpc(0),
            )


@functools.lru_cache(maxsize=16)
def _root_table(m: int, prec_bits: int):
    import mpmath

    with mpmath.workprec(prec_bits):
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


@dataclass(frozen=True)
class EigenReport:
    p: int
    mode: str                                   # "exact" | "float"
    lambdas: tuple[float, ...]                  # real parts, index k = 1..n
    residuals: tuple[float, ...]                # per-k eigenvector residual
    max_imag_rel: float
    vandermonde_ok: bool
    exact_ok: bool | None                       # exact-mode identities, else None
    lambdas_exact: tuple[CyclotomicElt, ...] | None

    @property
    def residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def ok(self) -> bool:
        if not self.vandermonde_ok or self.max_imag_rel > IMAG_REL_TOL:
            return False
        if self.mode == "exact":
            return bool(self.exact_ok)
        return self.residual < RESIDUAL_TOL

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


def eigen_verify(
    ctx: PrimeCtx,
    exact: bool | None = None,
    prec_bits: int = 128,
) -> EigenReport:
    """Check that the lambda_k are exactly the eigenvalues of the squares matrix.

    Exact mode verifies M v_k = lambda_k v_k in Z[zeta_{p-1}] for every k and
    every component, plus realness of each lambda_k; float mode bounds the
    residual of the same identity in floating point.  Both check that the
    eigenvector matrix is nonsingular (the chi(j^2) are pairwise distinct).
    """
    import mpmath

    if ctx.cls != 1:
        raise ValueError(f"p={ctx.p} must be 1 (mod 4)")
    if exact is None:
        exact = ctx.p <= EXACT_PMAX
    p, n, m = ctx.p, ctx.n, ctx.p - 1
    dlog, sym = ctx.dlog, ctx.symbols
    sq_exps = [(2 * dlog[j]) % m for j in range(1, n + 1)]
    vandermonde_ok = len(set(sq_exps)) == n

    lams_exact = tuple(eigenvalue_exact(ctx, k) for k in range(1, n + 1))
    floats = [lam.to_float(prec_bits) for lam in lams_exact]
    with mpmath.workprec(prec_bits):
        max_imag = max(
            float(abs(z.imag) / max(1, abs(z))) for z in floats
        )
    lam_re = tuple(float(z.real) for z in floats)

    if exact:
        ok = all(
            (lam - lam.conjugate()).is_zero() for lam in lams_exact
        )
        M = squares_matrix(ctx, 1).entries
        for ki, lam in enumerate(lams_exact, start=1):
            if not ok:
                break
            for i in range(1, n + 1):
                vec = [0] * m
                row = M[i - 1]
                for j in range(1, n + 1):
                    c = row[j - 1]
                    if c:
                        vec[(2 * ki * dlog[j]) % m] += c
                shift = (2 * ki * dlog[i]) % m
                for t, c in enumerate(lam.coeffs):
                    if c:
                        vec[(t + shift) % m] -= c
                if _reduce_mod_cyclotomic(vec, m) != ():
                    ok = False
                    break
        return EigenReport(
            p, "exact", lam_re, (0.0,) * n, max_imag, vandermonde_ok, ok, lams_exact
        )

    import numpy as np

    Mf = np.array(squares_matrix(ctx, 1).entries, dtype=np.float64)
    E = np.empty((n, n), dtype=np.int64)
    for k in range(1, n + 1):
        E[:, k - 1] = [(k * e) % m for e in sq_exps]
    V = np.exp(2j * np.pi * E / m)
    lam_arr = np.array(lam_re, dtype=np.float64)
    R = Mf @ V - V * lam_arr[None, :]
    residuals = tuple(float(x) for x in np.abs(R).max(axis=0))
    return EigenReport(
        p, "float", lam_re, residuals, max_imag, vandermonde_ok, None, None
    )


def _cyclotomic_modulus(m: int, sq_bound: int) -> tuple[int, int]:
    """(Q, w) with w = 2^s and Q = Phi_m(w), every prime factor of m divided
    out, for the smallest s with Q^2 > sq_bound.

    Every prime factor of Phi_m(w) that does not divide m is 1 (mod m), and w
    has order exactly m modulo it.  So w is a principal m-th root of unity
    mod Q and m is a unit: circulant determinants, adjugates and
    characteristic polynomials of dimension m diagonalise in Z/QZ as they do
    over C.  Callers certify the order of w rather than trust this.
    """
    factors = _factor_trial(m)
    w = 1
    while True:
        w *= 2              # not w*w: the overshoot makes every product dearer
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
    as its character sum mod Q = Phi_(p-1)(w) of _cyclotomic_modulus, and
    the product is lifted from Z/QZ.

    Mod Q, zeta_(p-1) becomes w, of order p - 1, and lambda_k is
    sum_(j <= n) ((1+j^2)/p) w^(2k dlog j).  Ordered by the squares g^(2t),
    S(1,p) is a circulant with exactly these eigenvalues, so their product is
    det S(1,p) at every odd p, at most n^(n/2) in absolute value by Hadamard,
    and Q exceeds twice that.  This route is kept apart from det_squares: its
    ring has m = p - 1 (theirs m = n), it certifies Q and w in its own code,
    and it indexes the terms of lambda_k by j rather than by the exponent of
    g^2.  A fault in the shared constructor of Q can thus only raise.
    """
    p, n, m = ctx.p, ctx.n, ctx.p - 1
    sym, dlog = ctx.symbols, ctx.dlog
    sq_bound = 4 * n**n
    q, z = _cyclotomic_modulus(m, sq_bound)
    if q * q <= sq_bound or pow(z, m, q) != 1 or any(
            math.gcd(pow(z, m // r, q) - 1, q) != 1 for r in _factor_trial(m)):
        raise ArithmeticError(f"eigen-CRT: the modulus for m = {m} fails its certificate")
    # the term of j in lambda_k sits at 2k dlog j (mod m) in the table
    # [z^i mod q] + [-z^i mod q], m further on when ((1+j^2)/p) = -1
    terms = [(2 * dlog[j] % m, 0 if c > 0 else m)
             for j in range(1, n + 1) if (c := sym[(1 + j * j) % p])]
    powers = [1] * m
    for i in range(1, m):
        powers[i] = powers[i - 1] * z % q
    get = (powers + [q - x for x in powers]).__getitem__
    prod = 1
    for k in range(1, n + 1):
        prod = prod * sum(map(get, [k * e % m + off for e, off in terms])) % q
    return prod if 2 * prod < q else prod - q


def product_identity(ctx: PrimeCtx) -> tuple[int, int]:
    """(product of all lambda_k by eigen-CRT, exact det of the matrix).

    The two values are computed along routes that share no code: character
    sums mod Phi_(p-1)(2^s) on one side, Bareiss elimination on the other.
    """
    return eigen_product(ctx), det_exact(squares_matrix(ctx, 1))


@functools.lru_cache(maxsize=4)
def _fourier_tables(m: int, sq_bound: int) -> tuple[int, list[int]]:
    """Q of _cyclotomic_modulus(m, sq_bound) and its table [w^j mod Q] +
    [-w^j mod Q] (j < m), once Q and w are certified: Q^2 > sq_bound, and w
    has order exactly m modulo every prime factor of Q, since w^m = 1 and
    w^(m/r) - 1 is a unit for every prime r | m.  Then w is a principal m-th
    root of unity and m a unit mod Q.  ArithmeticError if either fails."""
    q, w = _cyclotomic_modulus(m, sq_bound)
    if q * q <= sq_bound or pow(w, m, q) != 1 or any(
            math.gcd(pow(w, m // r, q) - 1, q) != 1 for r in _factor_trial(m)):
        raise ArithmeticError(f"Fourier modulus for m = {m} fails its certificate")
    powers = [1] * m
    for j in range(1, m):
        powers[j] = powers[j - 1] * w % q
    return q, powers + [q - x for x in powers]


def _fourier_values(m: int, sq_bound: int, *vectors) -> tuple[int, list[list[int]]]:
    """(Q, values) for the table of _fourier_tables(m, sq_bound), where
    values[i][k] = sum_s c_s w^(ks) mod Q for the i-th vector (c_s), k < m.

    Each c_s is -1, 0 or 1 and each vector has length m, so the term c_s w^(ks)
    sits in the table at k*s mod m, m further on if c_s = -1."""
    q, table = _fourier_tables(m, sq_bound)
    get = table.__getitem__
    values = []
    for vec in vectors:
        terms = [(s, 0 if c > 0 else m) for s, c in enumerate(vec) if c]
        values.append([sum(map(get, [k * s % m + off for s, off in terms])) % q
                       for k in range(m)])
    return q, values


def _signed(r: int, q: int) -> int:
    """The residue r mod q lifted into (-q/2, q/2): exact for a value of
    absolute value B when q > 2B."""
    return r if 2 * r < q else r - q


def _squares_coeffs(ctx: PrimeCtx, d: int) -> list[int]:
    """c_s = ((1 + d g^(2s))/p), s < n: the first row of S(d,p) in the
    circulant order of det_squares."""
    p, sym = ctx.p, ctx.symbols
    d %= p
    g2 = ctx.g * ctx.g % p
    coeffs = []
    x = 1
    for _ in range(ctx.n):
        coeffs.append(sym[(1 + d * x) % p])
        x = x * g2 % p
    return coeffs


def det_squares(ctx: PrimeCtx, d: int) -> int:
    """det S(d,p) = det [((i^2 + d j^2)/p)] from the matrix's circulant structure.

    Ordering rows and columns alike by x_t = g^(2t) turns the matrix into the
    circulant [c_((u-t) mod n)], c_s = ((1 + d g^(2s))/p), since
    ((x + d y)/p) = ((1 + d y/x)/p) for a square x.  Its determinant is
    prod_k sum_s c_s w^(ks) over the n-th roots of unity w^k; that product is
    taken mod Q = Phi_n(w) of _fourier_tables and lifted into (-Q/2, Q/2).
    Q^2 > 4 n^n, so Q exceeds twice the Hadamard bound n^(n/2) of every
    determinant of dimension n with entries in {-1, 0, 1}: exact for every d
    and every odd prime, and S*(1,p) shares the table.
    """
    n = ctx.n
    q, (lams,) = _fourier_values(n, 4 * n**n, _squares_coeffs(ctx, d))
    det = 1
    for lam in lams:
        det = det * lam % q
    return _signed(det, q)


def det_squares_star(ctx: PrimeCtx) -> int:
    """det S*(1,p), S(1,p) with its first row replaced by ((j/p))_j, from the
    adjugate of the circulant of det_squares.

    The first row of S(1,p) is the row of x_0 = 1 in circulant order, so
    det S* = sum_u r_u adj(C)[u][0], where r_u = (j/p) for the j <= n with
    j^2 = x_u = g^(2u).  C = F diag(lambda_k) F^-1 with F = [w^(tk)], hence
    adj(C) = F diag(nu_k) F^-1 with nu_k = prod_(l != k) lambda_l, and
    det S* = (1/n) sum_k nu_k R_k with R_k = sum_u r_u w^(ku).  The nu_k are
    taken by prefix and suffix products, so a zero lambda needs no special
    case.  By Hadamard |det S*| <= n^(n/2), and the table's Q exceeds twice
    that.  Exact at every odd prime.
    """
    p, n, sym = ctx.p, ctx.n, ctx.symbols
    r = []
    x = 1                               # x = g^u, a square root of x_u
    for _ in range(n):
        r.append(sym[x if x <= n else p - x])
        x = x * ctx.g % p
    q, (lams, r_hat) = _fourier_values(n, 4 * n**n, _squares_coeffs(ctx, 1), r)
    suffix = [1] * (n + 1)              # suffix[k] = prod_(l >= k) lambda_l
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] * lams[k] % q
    acc, prefix = 0, 1
    for lam, nu_tail, r_k in zip(lams, suffix[1:], r_hat):
        acc += prefix * nu_tail % q * r_k
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
    values mu_k = sum_s ((-s)/p) w^(ks) of A, taken mod Q = Phi_p(w) of
    _fourier_tables.  The coefficient of x^(p-1-m) is, up to sign, a sum of
    C(p-1, m) principal m-minors of C, each at most (p-1)^(m/2) by Hadamard
    (off the diagonal every entry is +-1), so every coefficient is at most
    sum_m C(p-1, m) (p-1)^(m/2) = (1 + sqrt(p-1))^(p-1) in absolute value,
    and Q exceeds twice that.
    """
    p, sym = ctx.p, ctx.symbols
    # (1 + sqrt(p-1))^2 <= p + ceil(2 sqrt(p-1)), and isqrt(4m - 1) + 1 = ceil(2 sqrt m)
    sq_bound = 4 * (p + math.isqrt(4 * p - 5) + 1) ** (p - 1)
    q, (mus,) = _fourier_values(p, sq_bound, [sym[-s % p] for s in range(p)])
    chi = _poly_from_roots(mus, q)
    inv_p = pow(p, -1, q)
    return IntPoly.make([_signed(k * c * inv_p % q, q) for k, c in enumerate(chi) if k])


def row_identity_check(ctx: PrimeCtx) -> bool:
    """sum_i ((i^2+j^2)/p)(i/p) = -a (j/p) for every j = 1..n."""
    import numpy as np

    if ctx.cls != 1 or ctx.decomp is None:
        raise ValueError(f"p={ctx.p} must be 1 (mod 4)")
    p, n = ctx.p, ctx.n
    sym = np.array(ctx.symbols, dtype=np.int64)
    i = np.arange(1, n + 1, dtype=np.int64)
    sq = i * i % p
    idx = (sq[:, None] + sq[None, :]) % p
    lhs = sym[i] @ sym[idx]
    rhs = -ctx.decomp.a * sym[i]
    return bool(np.array_equal(lhs, rhs))
