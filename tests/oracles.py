"""Exact pairing and rational solvers used only by the test oracles.

The package itself never solves or inverts a rational system: the box
searches here bound coordinates through the inverse form, and the
cross-path checks express lattice vectors in a sublattice basis.  Plain
Gauss-Jordan elimination over `fractions.Fraction`, kept independent of
the package's fraction-free core so the oracles share no code with it.
`dot` is the dense pairing u^T G v that the tests check the package's
structured pairings and root norms against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def dot(g: Sequence[Sequence[int | Fraction]], u: Iterable[int],
        v: Iterable[int]) -> int | Fraction:
    """Pairing u^T G v, exact for integer or Fraction entries of G.

    Zero coordinates are skipped, so sparse vectors such as roots pair in
    time proportional to their supports.
    """
    vv = [(j, vj) for j, vj in enumerate(v) if vj]
    return sum(ui * sum(g[i][j] * vj for j, vj in vv)
               for i, ui in enumerate(u) if ui)


def solve_rational(a: Sequence[Sequence[int | Fraction]],
                   b: Sequence[int | Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly; None if inconsistent.

    Requires the solution to be unique (A of full column rank), which is
    the only case the tests need: expressing a vector in a basis.
    """
    rows = [[Fraction(x) for x in r] for r in a]
    rhs = [Fraction(x) for x in b]
    if len(rows) != len(rhs):
        raise ValueError("dimension mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rhs[rank], rhs[piv] = rhs[piv], rhs[rank]
        p = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                rhs[i] -= f * rhs[rank]
        pivots.append((rank, col))
        rank += 1
    for i in range(rank, len(rows)):
        if rhs[i] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = rhs[row] / rows[row][col]
    return x


def invert_rational(a: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix by Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in r] for r in a]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    aug = [rows[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
