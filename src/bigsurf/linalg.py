"""Exact integer and rational linear algebra for small lattices.

Everything here runs on arbitrary-precision integers and `fractions.Fraction`;
no floating point enters any code path.  The routines cover exactly what
lattice computations on surfaces need: saturated integer kernels, Sylvester
inertia of symmetric forms, Gram restriction to a sublattice, and bounded
short-vector enumeration on negative definite forms.

Matrices are plain sequences of rows; vectors come back as tuples so they can
be hashed and compared.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[int, ...]
IntRows = Sequence[Sequence[int]]


@dataclass(frozen=True)
class Inertia:
    """Signature (p, n, z) of a symmetric bilinear form."""

    positive: int
    negative: int
    zero: int

    @property
    def dim(self) -> int:
        return self.positive + self.negative + self.zero

    @property
    def is_negative_definite(self) -> bool:
        return self.positive == 0 and self.zero == 0

    @property
    def is_negative_semidefinite(self) -> bool:
        return self.positive == 0


def _copy_rows(m: IntRows) -> list[list[int]]:
    rows = [list(r) for r in m]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must all have the same length")
    return rows


def _symmetric_int_rows(g: Sequence[Sequence[int | Fraction]]
                        ) -> tuple[list[list[int]], int]:
    """Validate symmetry and clear denominators: the integer matrix den * g
    and the positive integer den, the lcm of the entries' denominators.

    Scaling a symmetric form by a positive integer does not change its
    inertia, so rational input is lifted to an integer matrix.
    """
    rows = [[Fraction(x) for x in r] for r in g]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"gram matrix is not symmetric at ({i}, {j})")
    den = math.lcm(*(x.denominator for r in rows for x in r)) if n else 1
    return [[int(x * den) for x in r] for r in rows], den


def _sign_normalized(v: Vec) -> Vec:
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-x for x in v)
    return v


def integer_kernel(m: IntRows) -> list[Vec]:
    """Basis of the saturated integer kernel {v in Z^n : M v = 0}.

    Works by unimodular row reduction of the transpose augmented with an
    identity block (Hermite-normal-form style).  Rows whose left block
    vanishes carry, in the right block, a basis of the kernel lattice; the
    echelon structure of the nonzero left rows makes that basis saturated.
    """
    rows = _copy_rows(m)
    r = len(rows)
    if r == 0:
        raise ValueError("matrix must have at least one row")
    n = len(rows[0])
    if n == 0:
        return []
    # work[j] = (column j of M) followed by the j-th standard basis vector
    work = [[rows[i][j] for i in range(r)] + [int(t == j) for t in range(n)]
            for j in range(n)]
    rank = 0
    for col in range(r):
        while True:
            piv = None
            for i in range(rank, n):
                if work[i][col] and (piv is None or abs(work[i][col]) < abs(work[piv][col])):
                    piv = i
            if piv is None:
                break
            work[rank], work[piv] = work[piv], work[rank]
            p = work[rank][col]
            cleared = True
            for i in range(rank + 1, n):
                q = work[i][col]
                if q:
                    f = q // p
                    if f:
                        work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
                    if work[i][col]:
                        cleared = False
            if cleared:
                rank += 1
                break
    basis = []
    for i in range(rank, n):
        assert not any(work[i][:r])
        basis.append(_sign_normalized(tuple(work[i][r:])))
    basis.sort()
    return basis


def inertia(g: Sequence[Sequence[int | Fraction]]) -> Inertia:
    """Exact inertia of a symmetric matrix by congruence elimination.

    Symmetric Gaussian elimination with symmetric pivoting; an all-zero
    diagonal block is handled by the standard row+column addition that
    turns an off-diagonal entry into a usable pivot.  The arithmetic core
    is fraction-free (Bareiss), so every intermediate value is an integer
    minor and the pivot signs read off the signature.
    """
    a, _ = _symmetric_int_rows(g)
    n = len(a)
    pos = neg = zero = 0
    prev = 1
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if off is None:
                zero += n - k
                break
            i, j = off
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for t in range(k, n):
                a[t][k], a[t][piv] = a[t][piv], a[t][k]
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            aik = a[i][k]
            rowk = a[k]
            rowi = a[i]
            for j in range(i, n):
                rowi[j] = (p * rowi[j] - aik * rowk[j]) // prev
            for j in range(i + 1, n):
                a[j][i] = rowi[j]
        prev = p
        k += 1
    return Inertia(pos, neg, zero)


def is_negative_definite(g: Sequence[Sequence[int | Fraction]]) -> bool:
    """Early-exit negative definiteness test.

    A symmetric form is negative definite iff its leading principal minors
    are nonzero and alternate in sign starting negative, which is exactly
    the condition that every Bareiss pivot has sign opposite the previous
    one.  Equivalent to ``inertia(g).is_negative_definite`` but stops at
    the first failing pivot.
    """
    a, _ = _symmetric_int_rows(g)
    n = len(a)
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p == 0 or (p > 0) == (prev > 0):
            return False
        for i in range(k + 1, n):
            aik = a[i][k]
            rowk = a[k]
            rowi = a[i]
            for j in range(i, n):
                rowi[j] = (p * rowi[j] - aik * rowk[j]) // prev
            for j in range(i + 1, n):
                a[j][i] = rowi[j]
        prev = p
    return True


def gram_restrict(g: IntRows, basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """Gram matrix of the form g restricted to the given basis vectors."""
    gm = _copy_rows(g)
    bs = [list(b) for b in basis]
    n = len(gm)
    if any(len(b) != n for b in bs):
        raise ValueError("basis vectors must match the gram dimension")
    gb = [[sum(gm[i][t] * b[t] for t in range(n)) for i in range(n)] for b in bs]
    return [[sum(bi[t] * gbj[t] for t in range(n)) for gbj in gb] for bi in bs]


def solve_rational(a: Sequence[Sequence[int | Fraction]],
                   b: Sequence[int | Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly; None if inconsistent.

    Requires the solution to be unique (A of full column rank), which is
    the only case the package needs: expressing a vector in a basis.
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


def short_vectors(g: Sequence[Sequence[int | Fraction]], bound: int,
                  include_negatives: bool = False) -> list[Vec]:
    """All v != 0 with 0 < -v^T G v <= bound on a negative definite form.

    Fincke-Pohst enumeration: the positive form -G is decomposed as
    L D L^T with exact rational entries, the quadratic form becomes a sum
    of weighted completed squares, and coordinates are enumerated from the
    last one down.  The denominators are cleared once: with den the lcm of
    the denominators of L and scale = den^2 * lcm(denominators of D),

        scale * (-v^T G v) = sum_i w_i (den * v_i + S_i)^2,
        w_i = scale * d_i / den^2,   S_i = sum_{j>i} den * L_ji * v_j,

    so the weights, the partial sums and the remaining budget are all
    integers, the inner loop never touches a Fraction, and each coordinate
    interval comes from one math.isqrt.  A rational G is first scaled to
    g_den * G by the lcm g_den of its denominators, and the bound with it.
    Only one vector of each {v, -v} pair is visited: while every higher
    coordinate is zero, v_i >= 0 is required.

    Returns one representative per {v, -v} pair (first nonzero coefficient
    positive), or both signs when include_negatives is set, sorted
    lexicographically either way.
    """
    a, g_den = _symmetric_int_rows(g)
    n = len(a)
    if n == 0 or bound <= 0:
        return []
    if not is_negative_definite(a):
        raise ValueError("form must be negative definite")
    aq = [[Fraction(-x) for x in row] for row in a]
    d = [Fraction(0)] * n
    lower = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d[k] = aq[k][k] - sum(d[t] * lower[k][t] ** 2 for t in range(k))
        assert d[k] > 0
        for i in range(k + 1, n):
            lower[i][k] = (aq[i][k] - sum(d[t] * lower[i][t] * lower[k][t]
                                          for t in range(k))) / d[k]

    den = math.lcm(*(lower[j][i].denominator for i in range(n) for j in range(i + 1, n)))
    d_den = math.lcm(*(x.denominator for x in d))
    scale = den * den * d_den
    weight = [int(x * d_den) for x in d]
    # row i of m holds den * L_ji at position j > i and zeros elsewhere
    m = [[int(lower[j][i] * den) if j > i else 0 for j in range(n)] for i in range(n)]

    found: list[Vec] = []
    x = [0] * n

    def descend(i: int, rem: int, fixed_sign: bool) -> None:
        s = sum(map(operator.mul, m[i], x))
        wi = weight[i]
        # w_i (den * v_i + s)^2 <= rem  iff  |den * v_i + s| <= isqrt(rem // w_i)
        t = math.isqrt(rem // wi)
        lo = 0 if fixed_sign else -((s + t) // den)
        hi = (t - s) // den
        if i == 0:
            for xi in range(lo, hi + 1):
                if xi or not fixed_sign:
                    x[0] = xi
                    found.append(tuple(x))
        else:
            for xi in range(lo, hi + 1):
                x[i] = xi
                u = den * xi + s
                descend(i - 1, rem - wi * u * u, fixed_sign and not xi)
        x[i] = 0

    descend(n - 1, bound * g_den * scale, True)
    reps = sorted(_sign_normalized(v) for v in found)
    if include_negatives:
        return sorted(reps + [tuple(-c for c in v) for v in reps])
    return reps


def dot(g: Sequence[Sequence[int | Fraction]], u: Iterable[int],
        v: Iterable[int]) -> int | Fraction:
    """Pairing u^T G v, exact for integer or Fraction entries of G.

    Zero coordinates are skipped, so sparse vectors such as roots pair in
    time proportional to their supports.
    """
    vv = [(j, vj) for j, vj in enumerate(v) if vj]
    return sum(ui * sum(g[i][j] * vj for j, vj in vv)
               for i, ui in enumerate(u) if ui)
