"""Bigness of the anticanonical class on blow-ups of the plane.

Two independent routes to the same answer:

* a closed-form criterion read off the degree d_i of each component curve
  of the cubic and the number a_i of points on it alone, carried by an
  auxiliary class v that is orthogonal to every component of the
  distinguished anticanonical member and whose sign of v^2 decides it;

* a lattice criterion: a big divisor with support in a curve collection
  exists precisely when the orthogonal complement of the collection is
  negative definite.

`cross_check` and `agreement_sweep` run both and insist they agree.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, InvariantError
from .linalg import gram_restrict, integer_kernel, is_negative_definite
from .picard import (
    DivisorClass,
    LineConic,
    PicardLattice,
    PointConfiguration,
    ThreeLines,
    _components,
    _count,
    _set,
    config_lattice,
    incidence_class,
)
from .report import Report

if TYPE_CHECKING:  # _closed_form imports it, so a roots request never loads it
    from fractions import Fraction

Vec = tuple[int, ...]


def orthogonal_complement(lattice: PicardLattice,
                          classes: list[DivisorClass]) -> tuple[list[Vec], list[list[int]]]:
    """Saturated integer basis of the common orthogonal of the given integral
    classes, together with the restricted Gram matrix.

    The kernel rows G.c come from the lattice's head-plus-tail structure in
    O(rank) per class, and the dense form, the lattice's `gram_of` on the
    unit classes, is restricted to the kernel basis.  classes must not be
    empty (integer_kernel raises ValueError for no rows).
    """
    gram = lattice.gram_of([[(i, 1)] for i in range(lattice.rank)])
    basis = integer_kernel([lattice.row(c.integral_coeffs()) for c in classes])
    return basis, gram_restrict(gram, basis)


def is_big_supported(lattice: PicardLattice, classes: list[DivisorClass]) -> bool:
    """Whether some big divisor has support contained in the given curve
    classes: true exactly when their orthogonal complement is negative
    definite (a rank-0 complement counts)."""
    _, gram = orthogonal_complement(lattice, classes)
    return is_negative_definite(gram)


class BignessVerdict(Report):
    """Closed-form answer for one configuration.

    inequality_lhs, v and v_squared are absent when a degenerate point
    count makes the product vanish (the criterion is then unconditional).
    effective is the configuration's `effective`: whether its cubic
    certifies an effective anticanonical member (None: undecided).
    """

    _fields = __slots__ = ("big", "case", "inequality_lhs", "v", "v_squared", "effective")

    def __init__(self, big: bool, case: str, inequality_lhs: Fraction | None,
                 v: DivisorClass | None, v_squared: Fraction | None, effective: bool | None):
        _set(self, "big", big)
        _set(self, "case", case)
        _set(self, "inequality_lhs", inequality_lhs)
        _set(self, "v", v)
        _set(self, "v_squared", v_squared)
        _set(self, "effective", effective)


def _closed_form(config: PointConfiguration, lattice: PicardLattice) -> BignessVerdict:
    """The verdict from the curve degrees d_i and own point counts a_i: with
    P = prod a_i, v = P*l - sum_i d_i (P/a_i) (the points on curve i alone)
    has v^2 = P^2 (1 - sum d_i^2/a_i).  lattice is config_lattice(config).

    sum d_i^2/a_i is carried as the int numerator num over P, so the
    verdict is num > P and v^2, paired by the lattice, is checked against
    P (P - num); the closed form builds one Fraction, the reported num/P."""
    curves = config.curves
    prod = math.prod(count for _, count in curves)
    if prod == 0:
        return BignessVerdict(True, config.case, None, None, None, config.effective)
    num = sum(d * d * (prod // count) for d, count in curves)
    v = incidence_class(config, prod, [-d * (prod // count) for d, count in curves],
                        [0] * len(config.shared))
    v_sq = lattice.pair(v, v)
    if v_sq != prod * (prod - num):
        raise InvariantError(f"v^2 = {v_sq} disagrees with the closed form for {config}")
    from fractions import Fraction
    return BignessVerdict(num > prod, config.case, Fraction(num, prod), v, v_sq,
                          config.effective)


def classify_anticanonical(config: PointConfiguration) -> BignessVerdict:
    """Closed-form bigness verdict for the anticanonical class: big exactly
    when a curve has no point of its own or sum d_i^2/a_i > 1 over the
    curve degrees d_i and own counts a_i, that is 9/r > 1 for r general
    points, 1/a + 4/b > 1 on a line and a conic, 1/a1 + 1/a2 + 1/a3 > 1 on
    three lines."""
    return _closed_form(config, config_lattice(config))


class CrossCheckReport(NamedTuple):
    verdict: BignessVerdict
    lattice_big: bool
    agrees: bool
    v_orthogonal: bool
    sign_consistent: bool

    @property
    def ok(self) -> bool:
        return self.agrees and self.v_orthogonal and self.sign_consistent


def cross_check(config: PointConfiguration) -> CrossCheckReport:
    """Run the closed-form criterion and the lattice criterion side by side.

    Also confirms that v is orthogonal to every component of the
    distinguished anticanonical member and that the sign of v^2 matches the
    inequality (both vacuous when v is degenerate).
    """
    lattice = config_lattice(config)
    verdict = _closed_form(config, lattice)
    components = list(_components(lattice, config))
    lattice_big = is_big_supported(lattice, components)
    agrees = verdict.big == lattice_big
    v_orthogonal = sign_consistent = True
    if verdict.v is not None:
        v_orthogonal = all(lattice.pair(verdict.v, c) == 0 for c in components)
        diff = 1 - verdict.inequality_lhs
        sign_consistent = (verdict.v_squared > 0, verdict.v_squared == 0) == (diff > 0, diff == 0)
    return CrossCheckReport(verdict, lattice_big, agrees, v_orthogonal, sign_consistent)


class SweepReport(Report):
    _fields = __slots__ = ("line_conic_count", "three_lines_count", "disagreements",
                           "flag_violations")

    def __init__(self, line_conic_count: int, three_lines_count: int,
                 disagreements: tuple[str, ...], flag_violations: tuple[str, ...]):
        _set(self, "line_conic_count", line_conic_count)
        _set(self, "three_lines_count", three_lines_count)
        _set(self, "disagreements", disagreements)
        _set(self, "flag_violations", flag_violations)

    @property
    def clean(self) -> bool:
        return not self.disagreements and not self.flag_violations


def agreement_sweep(max_a: int = 12, max_b: int = 12, max_ai: int = 10) -> SweepReport:
    """Cross-check every configuration up to the given bounds.

    Covers all line/conic configurations with a <= max_a, b <= max_b and
    every choice of blown-up intersection points, and all three-line
    configurations with counts up to max_ai and every intersection flag
    pattern.  Records any disagreement between the two criteria, and any
    group of configurations that differ only in their intersection flags
    (which never carry mathematical weight) whose verdicts differ.  The
    bounds are ints, by operator.index; anything else, or a negative bound,
    raises DomainError.
    """
    max_a, max_b, max_ai = map(_count, ("max_a", "max_b", "max_ai"), (max_a, max_b, max_ai))
    for name, value in (("max_a", max_a), ("max_b", max_b), ("max_ai", max_ai)):
        if value < 0:
            raise DomainError(f"sweep bound {name} must be nonnegative, got {value}")
    disagreements: list[str] = []
    flag_violations: list[str] = []
    counts: list[int] = []
    for model, bounds in ((LineConic, (max_a, max_b)), (ThreeLines, (max_ai,))):
        counts.append(0)
        for label, members in model.groups(*bounds):
            verdicts = set()
            for member, config in members:
                report = cross_check(config)
                if not report.ok:
                    disagreements.append(f"{label} {member}")
                verdicts.add(report.verdict.big)
            counts[-1] += len(members)
            if len(verdicts) != 1:
                flag_violations.append(label)
    return SweepReport(*counts, tuple(disagreements), tuple(flag_violations))
