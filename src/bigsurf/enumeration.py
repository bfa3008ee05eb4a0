"""Complete enumeration of negative-square classes on del Pezzo lattices.

On the blow-up of the plane at r <= 8 general points the classes of
self-intersection -1 meeting the canonical class in -1, and the roots of
self-intersection -2 orthogonal to it, are finite in number.  Both families
lie in one ball of the lifted form

    Q(x) = -x^2 + 2 (K.x)^2,

which is positive definite for r <= 8: writing x = m + tK with m in the
(negative definite) complement of K, Q(x) = -m^2 + t^2 K^2 (2 K^2 - 1),
and K^2 = 9 - r >= 1.  A root has K.x = 0 and Q(x) = 2, a minus-one class
K.x = -1 and Q(x) = 3, so one Fincke-Pohst search of the ball Q(x) <= 3
lists every candidate, and its elimination certifies that Q is positive
definite.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import DomainError, InvariantError
from .linalg import short_vectors
from .picard import DivisorClass, _count, blowup_p2

__all__ = ["NegativeClassTable", "negative_classes"]


class NegativeClassTable(NamedTuple):
    """All (d; m) solutions for one lattice, as divisor classes in the
    basis (l, e_1..e_r), listed in lexicographic (d, m) order."""

    r: int
    minus_one_classes: tuple[DivisorClass, ...]
    minus_two_roots: tuple[DivisorClass, ...]


def _degree_then_multiplicities(x: tuple[int, ...]) -> tuple[int, ...]:
    """(d, m_1..m_r) of the class d*l - sum(m_i e_i) with coordinates x."""
    return (x[0], *map(operator.neg, x[1:]))


def negative_classes(r: int) -> NegativeClassTable:
    """Every class with d^2 - sum(m^2) = -1, 3d - sum(m) = 1 and every root
    with d^2 - sum(m^2) = -2, 3d - sum(m) = 0 (both signs included).

    With k = G K the search runs on the Gram G - 2 k k^T of -Q.  A vector
    with K.x = 0 is a root (x^2 = K.x mod 2 forces x^2 = -2); one with
    K.x = -1 is a minus-one class when x^2 = -1, which leaves out -K at
    r = 8.  r is an int by operator.index, or DomainError."""
    r = _count("r", r)
    if not 0 <= r <= 8:
        raise DomainError(
            "r must satisfy 0 <= r <= 8; beyond that the complement of the "
            "canonical class stops being negative definite and the "
            "enumeration is unbounded")
    lattice = blowup_p2(r)
    rank = lattice.rank
    k = lattice.row(lattice.canonical.nums)
    gram = lattice.gram_of([[(i, 1)] for i in range(rank)])
    lift = [[g - 2 * a * b for g, b in zip(gram_row, k)] for gram_row, a in zip(gram, k)]
    by_kx: dict[int, list[tuple[int, ...]]] = {0: [], -1: []}
    for x in short_vectors(lift, 3):
        bucket = by_kx.get(sum(map(operator.mul, k, x)))
        if bucket is not None:
            bucket.append(x)

    def classes(kx: int) -> list[DivisorClass]:
        return [DivisorClass(x) for x in sorted(by_kx[kx], key=_degree_then_multiplicities)]

    minus_one = [c for c in classes(-1) if lattice.pair(c, c) == -1]
    if any(c.nums[0] < 0 for c in minus_one):
        raise InvariantError("a minus-one class of negative degree")
    return NegativeClassTable(r, tuple(minus_one), tuple(classes(0)))
