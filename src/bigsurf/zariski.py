"""The Zariski decomposition -K = P + N for a family of blown-up
Hirzebruch surfaces, and its report types.

The family, whose members `picard.FamilyParams` names: a degree-n
Hirzebruch surface (n >= 2) with k named fibers, 3 <= k <= n+1, carrying
a_i blown-up points each (away from the negative section), subject to
sum(1/a_i) < k - 2.  On these surfaces -K is big but not nef, and its
positive and negative parts have exact rational coefficients that the
decomposition routine recomputes and certifies against the lattice
pairing.  The same coefficient c decides log canonicity of the contracted
pair via 2 - c <= 1, equivalently sum(1/a_i) >= k - 2.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import InvariantError
from .linalg import is_negative_definite
from .picard import (DivisorClass, FamilyParams, _lowest, _new, _reciprocal_sum, _set,
                     hirzebruch_model)
from .report import Report

__all__ = [
    "ZariskiChecks",
    "ZariskiReport",
    "zariski_decompose",
]


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


class ZariskiReport(Report):
    _fields = __slots__ = ("params", "positive_part", "negative_part", "p_squared", "checks",
                           "lc_coefficient", "log_canonical")

    def __init__(self, params: FamilyParams, positive_part: DivisorClass,
                 negative_part: DivisorClass, p_squared: Fraction, checks: ZariskiChecks,
                 lc_coefficient: Fraction, log_canonical: bool):
        _set(self, "params", params)
        _set(self, "positive_part", positive_part)
        _set(self, "negative_part", negative_part)
        _set(self, "p_squared", p_squared)
        _set(self, "checks", checks)
        _set(self, "lc_coefficient", lc_coefficient)
        _set(self, "log_canonical", log_canonical)


def zariski_decompose(params: FamilyParams) -> ZariskiReport:
    """Compute P and N with exact coefficients and certify the decomposition.

    P = c*sigma + (n+2-k)*F + sum(c/a_i * F_i) with c = (n+2-k)/(n - sum 1/a_j),
    N = (2-c)*sigma + sum((1 - c/a_i) * F_i), where F_i is the strict fiber
    transform.  Every reported check is evaluated against the actual
    intersection form; the negative-definiteness check runs on the Gram
    matrix of the components with strictly positive coefficient in N.

    Everything is int arithmetic: sum(1/a_j) is one numerator over
    m = lcm(a), c is reduced by one gcd, and on den = (denominator of c) * m
    c and every c/a_i are integers, so one walk over the sparse terms of
    sigma and of each F_i sums P's and N's numerators.  The row G.P of the
    lattice gives P^2 and P.N as dense dots and P.sigma and every P.F_i as
    dots over each curve's terms; the closed form of P^2 is checked by
    cross-multiplying, and the only Fractions built are the reported P^2
    and log-canonical coefficient.  N's support block is the lattice's
    `gram_of` on the curves alone, the F_i first and sigma last: sigma
    meets every F_i once and the F_i are pairwise disjoint, so each step
    of the definiteness check's elimination touches only its own fiber's
    row and sigma's, and the check costs O(k^2).  The verdict does not
    depend on the order.
    """
    n, k, a = params.n, params.k, params.a
    lattice, sigma, strict = hirzebruch_model(n, [(ai, False) for ai in a])
    s, m = _reciprocal_sum(a)
    q, gap = n + 2 - k, n * m - s  # c = q / (n - s/m) = q*m / gap
    g = math.gcd(q * m, gap)
    den = gap // g * m
    c_num = q * m // g * m  # c * den
    sigma_neg = 2 * den - c_num  # (2 - c) * den
    fiber_pos = [c_num // ai for ai in a]  # (c / a_i) * den
    fiber_neg = [den - x for x in fiber_pos]  # (1 - c / a_i) * den
    p_vec, neg_vec = [0] * lattice.rank, [0] * lattice.rank
    p_vec[1] = q * den  # F follows sigma at the head of the basis of hirzebruch_model
    for terms, pos, neg_coef in zip([sigma, *strict], [c_num, *fiber_pos],
                                    [sigma_neg, *fiber_neg]):
        for i, x in terms:
            p_vec[i] += pos * x
            neg_vec[i] += neg_coef * x

    gp = lattice.row(p_vec)  # G.P, over den
    p2 = sum(map(operator.mul, p_vec, gp))  # P^2 * den^2
    p_squared = Fraction(p2, den * den)
    if p2 * gap != q * q * m * den * den:
        raise InvariantError(f"P^2 = {p_squared} disagrees with the closed form "
                             f"for n={n} k={k} a={list(a)}")

    # N's support, sigma last (see above)
    support = [f for f, coef in zip(strict, fiber_neg) if coef > 0] + [sigma] * (sigma_neg > 0)
    checks = ZariskiChecks(
        p_dot_sigma_zero=sum([gp[i] * x for i, x in sigma]) == 0,
        p_dot_fibers_zero=not any(sum([gp[i] * x for i, x in f]) for f in strict),
        p_dot_n_zero=sum(map(operator.mul, neg_vec, gp)) == 0,
        n_effective=sigma_neg >= 0 and all(x >= 0 for x in fiber_neg),
        n_support_negative_definite=is_negative_definite(lattice.gram_of(support)),
        sum_is_minus_canonical=list(map(operator.add, p_vec, neg_vec)) == [
            -den * x for x in lattice.canonical.nums],
    )
    p, neg = _new(*_lowest(tuple(p_vec), den)), _new(*_lowest(tuple(neg_vec), den))
    return ZariskiReport(params, p, neg, p_squared, checks,
                         lc_coefficient=Fraction(sigma_neg, den),
                         log_canonical=s >= (k - 2) * m)
