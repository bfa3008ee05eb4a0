"""Exact integer linear algebra for small lattices.

Everything here runs on arbitrary-precision integers; no floating point
enters any code path.  The routines cover exactly what lattice computations
on surfaces need: saturated integer kernels, negative definiteness by
Sylvester's criterion on the pivots of one unpivoted fraction-free
elimination, Gram restriction to a sublattice, and bounded short-vector
enumeration on symmetric forms whose entries are exact ints (a Fraction,
bool or numpy entry raises DomainError) under a bound that is an int by
`operator.index` (a float or Fraction bound raises DomainError).

Matrices are plain sequences of rows; vectors come back as tuples so they can
be hashed and compared.  Those tuples are built from lists, whose length
CPython knows, so it allocates them at their own size: a tuple built from a
generator starts at length 10 and is realloced, which leaves its block in
another length's free list (see `picard.DivisorClass`).
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Iterator, Sequence

from .errors import DomainError, InvariantError, NotNegativeDefiniteError

Vec = tuple[int, ...]
IntRows = Sequence[Sequence[int]]
_INT = {int}


def _copy_rows(m: IntRows) -> list[list[int]]:
    rows = [list(r) for r in m]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must all have the same length")
    return rows


def _symmetric_int_rows(g: IntRows) -> list[list[int]]:
    """The rows of g as lists, after checking that g is square and
    symmetric (ValueError otherwise) and that every entry is exactly an int
    (DomainError otherwise)."""
    rows = [list(r) for r in g]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("gram matrix must be square")
    ints = set(map(type, chain.from_iterable(rows))) <= _INT
    # on ints, equality with the transpose is exact and the loop only names
    # the first asymmetric position; on other entries it runs first, so
    # asymmetry is reported ahead of the entry type
    if not ints or rows != list(map(list, zip(*rows))):
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"gram matrix is not symmetric at ({i}, {j})")
        if not ints:
            raise DomainError("gram matrix entries must all be int")
    return rows


def _sign_normalized(v: Vec) -> Vec:
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple([-x for x in v])
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
        if any(work[i][:r]):
            raise InvariantError("kernel row fails to vanish after row reduction")
        basis.append(_sign_normalized(tuple(work[i][r:])))
    basis.sort()
    return basis


def _bareiss_pivots(a: list[list[int]]) -> Iterator[tuple[int, int, list[int]]]:
    """Fraction-free symmetric elimination (Bareiss) of the integer matrix a,
    in place and without pivoting; the one elimination core of the module.

    Step k takes a[k][k] as its pivot, yields (previous pivot, pivot, pivot
    row), the previous pivot being 1 at first, and eliminates below the pivot
    by exact division by the previous pivot.  The k-th pivot is the k-th
    leading principal minor Delta_k of a (Bareiss, Math. Comp. 22, 1968), so
    Sylvester's criterion reads definiteness off the pivots.  The generator
    returns at the first zero pivot, where the form is not definite.  Only
    the upper triangle is eliminated: the trailing block stays symmetric,
    so a[i][k] is read as a[k][i] from the pivot row, and the entries left
    of the diagonal are never updated.  Row k is never written after step
    k, so a consumer may keep it; its entries j > k are exact: each is the
    leading k x k block bordered by row k and column j.

    A row whose multiplier a[k][i] is zero is left alone at step k.  Step t
    sends row i to (Delta_{t+1} a[i][j] - a[t][i] a[t][j]) / Delta_t, which
    with a zero multiplier is a[i][j] Delta_{t+1} / Delta_t; over a run of
    skipped steps s, ..., k - 1 these factors telescope to Delta_k /
    Delta_s.  So a row first skipped at step s is brought up to date by one
    multiplication by Delta_k and one division by Delta_s, exact because
    the result is the bordered minor, when it is next touched: as the pivot
    row, before it is yielded, or at its next nonzero multiplier.  The
    pivots and pivot rows are those of the eager elimination.  A block
    whose rows meet few others costs little: an arrowhead with its arrow
    last is eliminated in O(k^2) writes, not O(k^3).
    """
    n = len(a)
    prev = 1
    stale: dict[int, int] = {}  # row i -> Delta_s, s the step it was first skipped at
    for k in range(n):
        rowk = a[k]
        if stale:
            # the rows step k touches: the pivot row, and each row with a
            # nonzero multiplier (a stale row k has the zeros of the current one)
            for i in [i for i in stale if i == k or rowk[i]]:
                d, rowi = stale.pop(i), a[i]
                for j in range(i, n):
                    rowi[j] = rowi[j] * prev // d
        p = rowk[k]
        if p == 0:
            return
        yield prev, p, rowk
        for i in range(k + 1, n):
            aik = rowk[i]
            if aik:
                rowi = a[i]
                for j in range(i, n):
                    rowi[j] = (p * rowi[j] - aik * rowk[j]) // prev
            elif i not in stale:
                stale[i] = prev
        prev = p


def is_negative_definite(g: IntRows) -> bool:
    """Early-exit negative definiteness test by Sylvester's criterion.

    A symmetric form is negative definite iff its leading principal minors
    Delta_1, ..., Delta_n, the pivots of `_bareiss_pivots`, are nonzero and
    alternate in sign starting negative (Delta_0 = 1).  Stops at the first
    pivot that fails to alternate or at a zero minor.
    """
    a = _symmetric_int_rows(g)
    steps = 0
    for prev, p, _ in _bareiss_pivots(a):
        if (p > 0) == (prev > 0):
            return False
        steps += 1
    return steps == len(a)


def gram_restrict(g: IntRows, basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """Gram matrix of the form g restricted to the given basis vectors."""
    gm = _copy_rows(g)
    bs = [list(b) for b in basis]
    n = len(gm)
    if any(len(b) != n for b in bs):
        raise ValueError("basis vectors must match the gram dimension")
    gb = [[sum(gm[i][t] * b[t] for t in range(n)) for i in range(n)] for b in bs]
    return [[sum(bi[t] * gbj[t] for t in range(n)) for gbj in gb] for bi in bs]


def short_vectors(g: IntRows, bound: int) -> list[Vec]:
    """All v != 0 with 0 < -v^T G v <= bound on a negative definite form,
    sorted lexicographically.

    Fincke-Pohst enumeration on completed squares read straight off the
    fraction-free elimination of -G.  The elimination and the search run
    on the coordinates of v in reverse order, x_k = v_{n-1-k}.  With
    Delta_k the k-th leading minor of -G in those coordinates (Delta_0 = 1)
    and r_k the k-th pivot row of `_bareiss_pivots`,

        -x^T G x = sum_k (Delta_{k+1} x_k + sum_{j>k} r_k[j] x_j)^2
                         / (Delta_k Delta_{k+1}),

    so with L = lcm_k(Delta_k Delta_{k+1}) the search runs on
    L * (-x^T G x) = sum_k w_k (Delta_{k+1} x_k + S_k)^2 with the integer
    weights w_k = L / (Delta_k Delta_{k+1}): the weights, the partial sums
    S_k and the remaining budget are all integers, and each coordinate
    interval comes from one math.isqrt.  By Sylvester's criterion a pivot
    <= 0, or a stop at a zero minor, means the form is not negative
    definite and raises NotNegativeDefiniteError; no separate definiteness
    pass runs, and the elimination runs before a bound <= 0 returns [].  The search needs no
    evenness: odd forms are enumerated the same way.  bound is read by
    operator.index, as every count is, so True is read as 1 and any other
    type (a float or a Fraction) raises DomainError before the elimination.

    The search is iterative, so its depth is not limited by Python's
    recursion limit.  Coordinates are fixed from x_{n-1} = v_0 down; level
    k keeps x_k, its upper end, the budget and the centre in arrays.
    S_k = r_k[k+1] x_{k+1} + B_k, where the part B_k over j > k + 1 stays
    fixed while x_{k+1} runs through its interval, so B_k is summed once
    per interval of x_{k+1}, over the nonzero x_j only, and each centre S_k
    costs one product.  Only one vector of each {v, -v} pair is visited
    (while every higher coordinate is zero, x_k >= 0 is required), and
    every level runs upwards, so the visited vectors, those whose first
    nonzero coordinate is positive, come out sorted lexicographically.
    The negation of each is built next to it: negation reverses that order
    and puts each negation before every visited vector, so the negations,
    reversed, followed by the visited vectors are sorted with no sort.
    """
    try:
        bound = operator.index(bound)
    except TypeError:
        raise DomainError(f"bound must be an int, not {type(bound).__name__}") from None
    a = _symmetric_int_rows(g)
    n = len(a)
    minor = [1]
    # row k of m holds r_k[j] at position j > k and zeros elsewhere
    m: list[list[int]] = []
    for _, p, row in _bareiss_pivots([[-x for x in reversed(r)] for r in reversed(a)]):
        if p <= 0:
            break
        minor.append(p)
        k = len(m)
        m.append([0] * (k + 1) + row[k + 1:])
    if len(m) < n:
        raise NotNegativeDefiniteError("the Gram matrix is not negative definite")
    if n == 0 or bound <= 0:
        return []
    scale = math.lcm(*[minor[k] * minor[k + 1] for k in range(n)])
    weight = [scale // (minor[k] * minor[k + 1]) for k in range(n)]

    found: list[Vec] = []
    negated: list[Vec] = []
    x = [0] * n
    hi = [0] * n
    rem = [0] * n
    centre = [0] * n
    base = [0] * n
    # nonzero[i]: the pairs (j, x_j) with j > i and x_j != 0; while it is
    # empty only x_i >= 0 is visited
    nonzero: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # entering level i with budget r and centre s = S_i; every x_j with
    # j <= i is 0 here
    i, r, s = n - 1, bound * scale, 0
    while True:
        d = minor[i + 1]
        # w_i (d * x_i + s)^2 <= r  iff  |d * x_i + s| <= isqrt(r // w_i)
        t = math.isqrt(r // weight[i])
        if i:
            row, b = m[i - 1], 0
            for j, xj in nonzero[i]:
                b += row[j] * xj
            base[i - 1] = b
            x[i] = (-((s + t) // d) if nonzero[i] else 0) - 1
            hi[i], rem[i], centre[i] = (t - s) // d, r, s
        else:
            head = tuple(x[:0:-1])  # v = (x_{n-1}, ..., x_1, x_0)
            neg_head = tuple([-c for c in head])
            for x0 in range(-((s + t) // d) if nonzero[0] else 1, (t - s) // d + 1):
                found.append(head + (x0,))
                negated.append(neg_head + (-x0,))
            i = 1
        # step the lowest level that has a value left, then descend from it
        while i < n:
            xi = x[i] + 1
            if xi <= hi[i]:
                x[i] = xi
                u = minor[i + 1] * xi + centre[i]
                r = rem[i] - weight[i] * u * u
                nonzero[i - 1] = nonzero[i] + [(i, xi)] if xi else nonzero[i]
                i -= 1
                s = base[i] + m[i][i + 1] * xi
                break
            x[i] = 0
            i += 1
        else:
            break
    negated.reverse()
    negated += found
    return negated
