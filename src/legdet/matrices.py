"""Builders for the Legendre-symbol matrices under study.

Every builder returns an immutable matrix tagged with its parameters so that
verification reports can state what was tested.  Entries live in {-1, 0, 1};
the Chapman matrices keep the variable symbolic (an AffineMatrix stores only
the constant part, the full entry being x + c).
"""

from __future__ import annotations

from typing import NamedTuple

from .ntcore import PrimeCtx


class SignMatrix(NamedTuple):
    dim: int
    entries: tuple[tuple[int, ...], ...]
    tag: str


class AffineMatrix(NamedTuple):
    """Matrix with entries x + constants[i][j] for a formal variable x."""

    dim: int
    constants: tuple[tuple[int, ...], ...]
    tag: str

    def at(self, x: int) -> list[list[int]]:
        """Evaluate the entries at a concrete integer x."""
        return [[x + c for c in row] for row in self.constants]


def squares_matrix(ctx: PrimeCtx, d: int = 1) -> SignMatrix:
    """n x n matrix of symbols ((i^2 + d j^2)/p); symmetric when d = 1."""
    p, n, sym = ctx.p, ctx.n, ctx.symbols
    d %= p
    sq = [j * j % p for j in range(n + 1)]
    rows = tuple(
        tuple(sym[(sq[i] + d * sq[j]) % p] for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return SignMatrix(n, rows, f"s(p={p},d={d})")


def squares_star_matrix(ctx: PrimeCtx) -> SignMatrix:
    """squares_matrix(ctx, 1) with the first row replaced by ((j/p))_j."""
    base = squares_matrix(ctx, 1)
    first = tuple(ctx.symbols[j] for j in range(1, ctx.n + 1))
    return SignMatrix(ctx.n, (first,) + base.entries[1:], f"sstar(p={ctx.p})")


def carlitz_matrix(ctx: PrimeCtx) -> SignMatrix:
    """(p-1) x (p-1) matrix of symbols ((i-j)/p); zero diagonal."""
    p, sym = ctx.p, ctx.symbols
    rows = tuple(
        tuple(sym[(i - j) % p] for j in range(1, p)) for i in range(1, p)
    )
    return SignMatrix(p - 1, rows, f"carlitz(p={p})")


def chapman_matrix(ctx: PrimeCtx, star: bool = False) -> AffineMatrix:
    """Hankel-type matrix with entries x + ((i+j-1)/p), dim n (or n+1 when star)."""
    p, sym = ctx.p, ctx.symbols
    dim = ctx.n + 1 if star else ctx.n
    rows = tuple(
        tuple(sym[(i + j - 1) % p] for j in range(1, dim + 1))
        for i in range(1, dim + 1)
    )
    name = "chapman-star" if star else "chapman"
    return AffineMatrix(dim, rows, f"{name}(p={p})")


def evil_matrix(ctx: PrimeCtx) -> SignMatrix:
    """(n+1) x (n+1) matrix of symbols ((j-i)/p)."""
    p, sym = ctx.p, ctx.symbols
    dim = ctx.n + 1
    rows = tuple(
        tuple(sym[(j - i) % p] for j in range(1, dim + 1))
        for i in range(1, dim + 1)
    )
    return SignMatrix(dim, rows, f"evil(p={p})")

