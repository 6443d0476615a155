"""The eigenvalues of the squares matrix as character sums, exact cyclotomic
arithmetic in Z[zeta_{p-1}], and four results from circulant Fourier values
mod word-size primes: the squares-matrix determinants S(d,p) and S*(1,p), the
eigenvalue product (eigen-CRT, a second route to S(1,p)) and the Carlitz
characteristic polynomial.

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
from .ntcore import PrimeCtx, _factor_trial, is_prime

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


# eigen_product's primes q = 1 (mod p - 1) lie above 2^62 and the Fourier
# primes of det_squares below it, so the two routes share no modulus.
_EIGEN_BITS = 62


def eigen_product(ctx: PrimeCtx) -> int:
    """The product of all lambda_k by eigen-CRT: every lambda_k is evaluated
    as its character sum mod primes q = 1 (mod p - 1), and the products mod q
    are combined by CRT.

    Mod q, zeta_(p-1) becomes an element z of order p - 1, and lambda_k is
    sum_(j <= n) ((1+j^2)/p) z^(2k dlog j).  Ordered by the squares g^(2t),
    S(1,p) is a circulant with exactly these eigenvalues, so their product is
    det S(1,p) at every odd p, at most n^(n/2) in absolute value by Hadamard;
    the residues are combined until the modulus exceeds twice that.  This
    route shares no code with det_squares: it has its own primes (above 2^62,
    theirs lie below), its own root search and CRT, and it indexes the terms
    of lambda_k by j rather than by the exponent of g^2.
    """
    p, n, m = ctx.p, ctx.n, ctx.p - 1
    sym, dlog = ctx.symbols, ctx.dlog
    # the term of j in lambda_k sits at 2k dlog j (mod m) in the table
    # [z^i mod q] + [-z^i mod q], m further on when ((1+j^2)/p) = -1
    terms = [(2 * dlog[j] % m, 0 if c > 0 else m)
             for j in range(1, n + 1) if (c := sym[(1 + j * j) % p])]
    rows = [[k * e % m + off for e, off in terms] for k in range(1, n + 1)]
    cofactors = [m // r for r in _factor_trial(m)]
    sq_bound = 4 * n**n
    value, modulus = 0, 1
    t = (1 << _EIGEN_BITS) // m
    while modulus * modulus <= sq_bound:
        t += 1
        q = 1 + m * t
        if not is_prime(q):
            continue
        h = 1
        while True:                     # z = h^((q-1)/m) has order m
            h += 1
            z = pow(h, t, q)
            if all(pow(z, c, q) != 1 for c in cofactors):
                break
        powers = [1] * m
        for i in range(1, m):
            powers[i] = powers[i - 1] * z % q
        get = (powers + [q - x for x in powers]).__getitem__
        prod = 1
        for row in rows:
            prod = prod * sum(map(get, row)) % q
        value += modulus * ((prod - value) * pow(modulus, -1, q) % q)
        modulus *= q
    return value if 2 * value < modulus else value - modulus


def product_identity(ctx: PrimeCtx) -> tuple[int, int]:
    """(product of all lambda_k by eigen-CRT, exact det of the matrix).

    The two values are computed along routes that share no code: character
    sums mod primes q = 1 (mod p - 1) on one side, Bareiss elimination on
    the other.
    """
    return eigen_product(ctx), det_exact(squares_matrix(ctx, 1))


# Fourier primes q = 1 (mod m) are taken just below 2^62, far inside the range
# where ntcore.is_prime is deterministic.
_FOURIER_BITS = 62


def _fourier_primes(m: int):
    """Yield (q, w): the primes q = 1 (mod m) below 2^62 in descending order,
    each with an element w of order m mod q."""
    factors = _factor_trial(m)
    t = ((1 << _FOURIER_BITS) - 2) // m
    while t > 0:
        q = 1 + m * t
        t -= 1
        if not is_prime(q):
            continue
        for h in range(2, q):
            w = pow(h, (q - 1) // m, q)
            if all(pow(w, m // r, q) != 1 for r in factors):
                break
        yield q, w


@functools.lru_cache(maxsize=4)
def _fourier_tables(m: int, sq_bound: int) -> tuple[tuple[int, list[int]], ...]:
    """The first Fourier primes q = 1 (mod m) whose product squared exceeds
    sq_bound, each with its table [w^j mod q] + [-w^j mod q] (j < m)."""
    tables = []
    modulus = 1
    for q, w in _fourier_primes(m):
        powers = [1] * m
        for j in range(1, m):
            powers[j] = powers[j - 1] * w % q
        tables.append((q, powers + [q - x for x in powers]))
        modulus *= q
        if modulus * modulus > sq_bound:
            break
    return tuple(tables)


def _fourier_values(m: int, sq_bound: int, *vectors):
    """Yield (q, values) for each table of _fourier_tables(m, sq_bound), where
    values[i][k] = sum_s c_s w^(ks) mod q for the i-th vector (c_s), k < m.

    Each c_s is -1, 0 or 1 and each vector has length m, so the term c_s w^(ks)
    sits in the table at k*s mod m, m further on if c_s = -1.  Lazy: no table
    past the one a caller stops at is read."""
    index_rows = []
    for vec in vectors:
        terms = [(s, 0 if c > 0 else m) for s, c in enumerate(vec) if c]
        index_rows.append([[k * s % m + off for s, off in terms] for k in range(m)])
    for q, table in _fourier_tables(m, sq_bound):
        get = table.__getitem__
        yield q, [[sum(map(get, row)) % q for row in rows] for rows in index_rows]


def _crt_signed(residues, sq_bound: int) -> list[int]:
    """Combine residue vectors (q, [r mod q, ...]) by CRT until the modulus M
    satisfies M^2 > sq_bound, then lift each entry into (-M/2, M/2).

    Exact when sq_bound >= (2B)^2 for a bound B on every |entry|.  residues is
    consumed lazily: no residue past the bound is computed.
    """
    modulus, res = 1, []
    for q, vals in residues:
        inv = pow(modulus, -1, q)
        res = [r + modulus * ((v - r) * inv % q)
               for r, v in zip(res or [0] * len(vals), vals)]
        modulus *= q
        if modulus * modulus > sq_bound:
            break
    return [r if 2 * r < modulus else r - modulus for r in res]


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
    taken mod primes q = 1 (mod n) and the residues are combined by CRT until
    the modulus exceeds 2 nz^(n/2), the Hadamard bound when every row has nz
    nonzero entries.  Exact for every d and every odd prime.
    """
    n = ctx.n
    coeffs = _squares_coeffs(ctx, d)

    def residues():
        # 4 n^n bounds every determinant of dimension n with entries in
        # {-1, 0, 1}, so S(d,p) for every d and S*(1,p) share these tables
        for q, (lams,) in _fourier_values(n, 4 * n**n, coeffs):
            det_q = 1
            for lam in lams:
                det_q = det_q * lam % q
            yield q, (det_q,)

    nz = sum(1 for c in coeffs if c)
    return _crt_signed(residues(), 4 * nz**n)[0]


def det_squares_star(ctx: PrimeCtx) -> int:
    """det S*(1,p), S(1,p) with its first row replaced by ((j/p))_j, from the
    adjugate of the circulant of det_squares.

    The first row of S(1,p) is the row of x_0 = 1 in circulant order, so
    det S* = sum_u r_u adj(C)[u][0], where r_u = (j/p) for the j <= n with
    j^2 = x_u = g^(2u).  C = F diag(lambda_k) F^-1 with F = [w^(tk)], hence
    adj(C) = F diag(nu_k) F^-1 with nu_k = prod_(l != k) lambda_l, and
    det S* = (1/n) sum_k nu_k R_k with R_k = sum_u r_u w^(ku).  The nu_k are
    taken by prefix and suffix products, so a zero lambda needs no special
    case.  By Hadamard |det S*| <= sqrt(n) nz^((n-1)/2): the new row has n
    nonzero entries and every other row nz.  Exact at every odd prime.
    """
    p, n, sym = ctx.p, ctx.n, ctx.symbols
    coeffs = _squares_coeffs(ctx, 1)
    r = []
    x = 1                               # x = g^u, a square root of x_u
    for _ in range(n):
        r.append(sym[x if x <= n else p - x])
        x = x * ctx.g % p

    def residues():
        for q, (lams, r_hat) in _fourier_values(n, 4 * n**n, coeffs, r):
            suffix = [1] * (n + 1)      # suffix[k] = prod_(l >= k) lambda_l
            for k in range(n - 1, -1, -1):
                suffix[k] = suffix[k + 1] * lams[k] % q
            acc, prefix = 0, 1
            for lam, nu_tail, r_k in zip(lams, suffix[1:], r_hat):
                acc += prefix * nu_tail % q * r_k
                prefix = prefix * lam % q
            yield q, (acc * pow(n, -1, q) % q,)

    nz = sum(1 for c in coeffs if c)
    return _crt_signed(residues(), 4 * n * nz ** (n - 1))[0]


def carlitz_char_poly(ctx: PrimeCtx) -> IntPoly:
    """det(xI - C) for the Carlitz matrix C = [((i-j)/p)]_(1 <= i,j < p).

    C is the p x p circulant A = [((i-j)/p)]_(0 <= i,j < p) with row and
    column 0 deleted.  Every principal (p-1)-minor of xI - A is a cyclic
    shift of that one, and together they sum to chi_A'(x), so
    det(xI - C) = chi_A'(x)/p.  chi_A = prod_k (x - mu_k) over the Fourier
    values mu_k = sum_s ((-s)/p) w^(ks) of A, taken mod primes q = 1 (mod p).
    The coefficient of x^(p-1-m) is, up to sign, a sum of C(p-1, m) principal
    m-minors of C, each at most (p-1)^(m/2) by Hadamard (off the diagonal
    every entry is +-1), so every coefficient is at most
    sum_m C(p-1, m) (p-1)^(m/2) = (1 + sqrt(p-1))^(p-1) in absolute value.
    The residues are combined by CRT until the modulus exceeds twice that.
    """
    p, sym = ctx.p, ctx.symbols
    # (1 + sqrt(p-1))^2 <= p + ceil(2 sqrt(p-1)), and isqrt(4m - 1) + 1 = ceil(2 sqrt m)
    sq_bound = 4 * (p + math.isqrt(4 * p - 5) + 1) ** (p - 1)

    def residues():
        for q, (mus,) in _fourier_values(p, sq_bound, [sym[-s % p] for s in range(p)]):
            chi = [1]                                   # low degree first
            for mu in mus:
                chi = [(a - mu * b) % q for a, b in zip([0] + chi, chi + [0])]
            inv_p = pow(p, -1, q)
            yield q, [k * c * inv_p % q for k, c in enumerate(chi) if k]

    return IntPoly.make(_crt_signed(residues(), sq_bound))


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
