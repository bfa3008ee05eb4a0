"""Complete enumeration of negative-square classes on del Pezzo lattices.

On the blow-up of the plane at r <= 8 general points the classes of
self-intersection -1 meeting the canonical class in -1, and the roots of
self-intersection -2 orthogonal to it, are finite in number.  Writing a
class as d*l - sum(m_i e_i), both families satisfy a pair of Diophantine
equations whose solutions are boxed in by a Cauchy-Schwarz bound derived
below, so a pruned recursive search is provably complete.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .errors import DomainError, InvariantError
from .picard import DivisorClass

__all__ = ["NegativeClassTable", "negative_classes"]


class NegativeClassTable(NamedTuple):
    """All (d; m) solutions for one lattice, as divisor classes in the
    basis (l, e_1..e_r), listed in lexicographic (d, m) order."""

    r: int
    minus_one_classes: tuple[DivisorClass, ...]
    minus_two_roots: tuple[DivisorClass, ...]


def _degree_interval(r: int, kpair: int, square: int) -> range:
    """Integer degrees d admitted by Cauchy-Schwarz.

    The constraints force sum(m) = 3d - kpair and sum(m^2) = d^2 - square,
    so (3d - kpair)^2 <= r*(d^2 - square), a quadratic inequality in d
    with positive leading coefficient 9 - r.  Its roots are
    (3*kpair +- sqrt(disc)) / (9 - r) with disc = r*(kpair^2 - (9-r)*square).
    """
    lead = 9 - r
    disc = r * (kpair * kpair - lead * square)
    if disc < 0:
        return range(0)
    s = isqrt(disc)
    if s * s < disc:
        s += 1
    lo = -((s - 3 * kpair) // lead)
    hi = (3 * kpair + s) // lead
    return range(lo, hi + 1)


def _fill(t: int, total: int, total_sq: int, prefix: list[int],
          out: list[tuple[int, ...]]) -> None:
    if t == 0:
        if total == 0 and total_sq == 0:
            out.append(tuple(prefix))
        return
    if total * total > t * total_sq:
        return
    bound = isqrt(total_sq)
    for m in range(-bound, bound + 1):
        prefix.append(m)
        _fill(t - 1, total - m, total_sq - m * m, prefix, out)
        prefix.pop()


def _solutions(r: int, kpair: int, square: int) -> list[tuple[int, ...]]:
    found: list[tuple[int, ...]] = []
    for d in _degree_interval(r, kpair, square):
        total_sq = d * d - square
        if total_sq < 0:
            continue
        ms: list[tuple[int, ...]] = []
        _fill(r, 3 * d - kpair, total_sq, [], ms)
        found.extend((d,) + m for m in ms)
    return found


def negative_classes(r: int) -> NegativeClassTable:
    """Every class with d^2 - sum(m^2) = -1, 3d - sum(m) = 1 and every root
    with d^2 - sum(m^2) = -2, 3d - sum(m) = 0 (both signs included)."""
    if not 0 <= r <= 8:
        raise DomainError(
            "r must satisfy 0 <= r <= 8; beyond that the complement of the "
            "canonical class stops being negative definite and the "
            "enumeration is unbounded")
    minus_one = _solutions(r, 1, -1)
    roots = _solutions(r, 0, -2)
    if any(sol[0] < 0 for sol in minus_one):
        raise InvariantError("a minus-one class of negative degree")

    def to_class(sol: tuple[int, ...]) -> DivisorClass:
        return DivisorClass.of((sol[0],) + tuple(-m for m in sol[1:]))

    return NegativeClassTable(r, tuple(to_class(s) for s in minus_one),
                              tuple(to_class(s) for s in roots))
