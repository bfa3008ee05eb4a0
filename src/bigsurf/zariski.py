"""The Zariski decomposition -K = P + N for a family of blown-up
Hirzebruch surfaces.

The family: a degree-n Hirzebruch surface (n >= 2) with k named fibers,
3 <= k <= n+1, carrying a_i blown-up points each (away from the negative
section), subject to sum(1/a_i) < k - 2.  On these surfaces -K is big but
not nef, and its positive and negative parts have exact rational
coefficients that the decomposition routine recomputes and certifies
against the lattice pairing.  The same coefficient c decides log
canonicity of the contracted pair via 2 - c <= 1, equivalently
sum(1/a_i) >= k - 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, InvariantError
from .linalg import is_negative_definite
from .picard import (DivisorClass, Frozen, _count, _set, add_terms,
                     blowup_hirzebruch, sparse_terms, strict_terms)

__all__ = [
    "FamilyParams",
    "LogCanonicalResult",
    "ZariskiChecks",
    "ZariskiReport",
    "log_canonical_test",
    "zariski_decompose",
]


def _reciprocal_sum(a: Sequence[int]) -> Fraction:
    """sum(1/a_j) as one Fraction over lcm(a)."""
    m = math.lcm(*a)
    return Fraction(sum(m // ai for ai in a), m)


def _validate_shape(n: int, k: int, a: Sequence[int]) -> tuple[int, int, tuple[int, ...]]:
    """n, k and a as ints (by operator.index), once they fit the family."""
    n, k = _count("n", n), _count("k", k)
    a = tuple(_count("a_j", ai) for ai in a)
    if n < 2:
        raise DomainError("n must satisfy n >= 2")
    if not 3 <= k <= n + 1:
        raise DomainError("k must satisfy 3 <= k <= n + 1")
    if len(a) != k:
        raise DomainError("a must list exactly k multiplicities")
    if any(ai < 1 for ai in a):
        raise DomainError("every a_j must satisfy a_j >= 1")
    return n, k, a


class FamilyParams(Frozen):
    """Parameters (n, k, a_1..a_k) of one member of the family."""

    _fields = __slots__ = ("n", "k", "a")
    def __init__(self, n: int, k: int, a: Sequence[int]):
        n, k, a = _validate_shape(n, k, a)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "a", a)
        if self.reciprocal_sum >= k - 2:
            raise DomainError("a must satisfy sum(1/a_j) < k - 2")

    @property
    def reciprocal_sum(self) -> Fraction:
        return _reciprocal_sum(self.a)


class ZariskiChecks(NamedTuple):
    """Certificates recomputed from the lattice pairing, never assumed."""

    p_dot_sigma_zero: bool
    p_dot_fibers_zero: bool
    p_dot_n_zero: bool
    n_effective: bool
    n_support_negative_definite: bool
    sum_is_minus_canonical: bool

    @property
    def all_pass(self) -> bool:
        return all(self)


@dataclass(frozen=True)
class ZariskiReport:
    params: FamilyParams
    positive_part: DivisorClass
    negative_part: DivisorClass
    p_squared: Fraction
    checks: ZariskiChecks
    lc_coefficient: Fraction
    log_canonical: bool


def zariski_decompose(params: FamilyParams) -> ZariskiReport:
    """Compute P and N with exact coefficients and certify the decomposition.

    P = c*sigma + (n+2-k)*F + sum(c/a_i * F_i) with c = (n+2-k)/(n - sum 1/a_j),
    N = (2-c)*sigma + sum((1 - c/a_i) * F_i), where F_i is the strict fiber
    transform.  Every reported check is evaluated against the actual
    intersection form; the negative-definiteness check runs on the Gram
    matrix of the components with strictly positive coefficient in N.

    The strict transforms stay sparse (their incidence terms): P and N are
    summed from them as integer numerators over one common denominator
    den = (denominator of c) * lcm(a), on which c and every c/a_i are
    integers.  One structured Gram of P, sigma and the F_i, all ints
    (P's entries over den), gives P^2, P.sigma, every P.F_i and the
    support block of N, so the work is linear in the rank and in k apart
    from the (k+2)^2 Gram entries.
    """
    n, k, a = params.n, params.k, params.a
    lattice = blowup_hirzebruch(n, [(ai, False) for ai in a])
    rank = lattice.rank
    fiber, sigma = 1, [(0, 1)]  # F and sigma head the basis of blowup_hirzebruch
    strict = strict_terms(lattice)[1]

    s = params.reciprocal_sum
    c = Fraction(n + 2 - k) / (n - s)
    lcm_a = math.lcm(*a)
    den = c.denominator * lcm_a
    c_num = c.numerator * lcm_a  # c * den
    sigma_neg = 2 * den - c_num  # (2 - c) * den
    fiber_pos = [c_num // ai for ai in a]  # (c / a_i) * den
    fiber_neg = [den - x for x in fiber_pos]  # (1 - c / a_i) * den
    p_vec = [0] * rank
    neg_vec = [0] * rank
    add_terms(p_vec, sigma, c_num)
    p_vec[fiber] += (n + 2 - k) * den
    add_terms(neg_vec, sigma, sigma_neg)
    for fi, pos, neg_coef in zip(strict, fiber_pos, fiber_neg):
        add_terms(p_vec, fi, pos)
        add_terms(neg_vec, fi, neg_coef)
    p, neg = DivisorClass(tuple(p_vec), den), DivisorClass(tuple(neg_vec), den)

    # rows and columns: P (numerators over den), sigma, F_1..F_k
    gram = lattice.gram_of([sparse_terms(p_vec), sigma, *strict])
    p_squared = Fraction(gram[0][0], den * den)
    if p_squared != Fraction((n + 2 - k) ** 2) / (n - s):
        raise InvariantError(f"P^2 = {p_squared} disagrees with the closed form "
                             f"for n={n} k={k} a={list(a)}")

    support = [j for j, coef in enumerate([sigma_neg, *fiber_neg], start=1) if coef > 0]
    checks = ZariskiChecks(
        p_dot_sigma_zero=gram[0][1] == 0,
        p_dot_fibers_zero=not any(gram[0][2:]),
        p_dot_n_zero=lattice.pair(p, neg) == 0,
        n_effective=sigma_neg >= 0 and all(x >= 0 for x in fiber_neg),
        n_support_negative_definite=is_negative_definite(
            [[gram[i][j] for j in support] for i in support]),
        sum_is_minus_canonical=(p + neg) == lattice.anticanonical,
    )
    return ZariskiReport(params, p, neg, p_squared, checks,
                         lc_coefficient=2 - c, log_canonical=s >= k - 2)


class LogCanonicalResult(NamedTuple):
    """log_canonical is decided by sum(1/a_j) >= k - 2; the coefficient
    2 - (n+2-k)/(n - sum 1/a_j) is None when its denominator vanishes."""

    log_canonical: bool
    coefficient: Fraction | None


def log_canonical_test(n: int, k: int, a: Sequence[int]) -> LogCanonicalResult:
    """Log-canonicity criterion, available outside the family's defining
    inequality so that both outcomes are reachable."""
    n, k, a = _validate_shape(n, k, a)
    s = _reciprocal_sum(a)
    lc = s >= k - 2
    coefficient = None if s == n else 2 - Fraction(n + 2 - k) / (n - s)
    return LogCanonicalResult(lc, coefficient)
