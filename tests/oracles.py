"""Exact pairing and rational solvers used only by the test oracles.

The package itself never solves or inverts a rational system: the box
searches here bound coordinates through the inverse form, and the
cross-path checks express lattice vectors in a sublattice basis.  Plain
Gauss-Jordan elimination over `fractions.Fraction`, kept independent of
the package's fraction-free core so the oracles share no code with it.
`dot` is the dense pairing u^T G v that the tests check the package's
structured pairings and root norms against.  `inertia` is the signature
of a symmetric form by congruence diagonalization over Fraction, so the
signature checks share no elimination code with `is_negative_definite`,
and `determinant` is a Fraction determinant with row swaps, which the
leading principal minors that the elimination core yields are checked
against.  `box_short_vectors` is the exhaustive box search that
`short_vectors` and `extract_roots` are checked against;
`cauchy_schwarz_negative_classes` and `widened_box_negative_classes` are
the Diophantine searches that `negative_classes` is checked against, and
`raw` writes a class in their (d, m_1..m_r) coordinates.

Also here: the reference closed forms of the bigness verdict, written out
per family in the basis order of `config_lattice`, which the generic
verdict is checked against; `incidence_terms` and `labelled_components`,
the strict transforms and anticanonical components built by looking up
basis labels, which the positional layouts are checked against;
`FractionClass`, the coefficient-by-coefficient Fraction vector that
`DivisorClass` is checked against; the adjunction and
Riemann-Roch counts that the parity tests read off a lattice; and the
``*_from_dict`` readers that invert `bigsurf.serialize` for the round-trip
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt, lcm
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from bigsurf.bigness import BignessVerdict, CrossCheckReport, SweepReport
from bigsurf.enumeration import NegativeClassTable
from bigsurf.picard import (DivisorClass, LineConic, PicardLattice, ThreeLines,
                            WitnessReport, config_lattice)
from bigsurf.roots import RootSystemReport, type_string
from bigsurf.zariski import FamilyParams, ZariskiChecks, ZariskiReport


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


def determinant(a: Sequence[Sequence[int | Fraction]]) -> int | Fraction:
    """Exact determinant of a square matrix by Gaussian elimination over
    Fraction with row swaps; 1 for the empty matrix."""
    rows = [[Fraction(x) for x in r] for r in a]
    n = len(rows)
    total = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            total = -total
        total *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return int(total) if total.denominator == 1 else total


class Inertia(NamedTuple):
    """Signature (p, n, z) of a symmetric bilinear form."""

    positive: int
    negative: int
    zero: int

    @property
    def is_negative_definite(self) -> bool:
        return self.positive == 0 and self.zero == 0


def inertia(g: Sequence[Sequence[int | Fraction]]) -> Inertia:
    """Exact inertia of a symmetric matrix by congruence diagonalization.

    Step k moves a nonzero diagonal entry of the trailing block to (k, k),
    counts its sign, and replaces the block below it by its Schur
    complement.  When the trailing diagonal is all zero but some a_ij is
    not, adding row and column j to row and column i makes a_ii = 2 a_ij.
    Every step is a congruence, so by Sylvester's law of inertia the signs
    of the pivots, and the size of the block left zero, are the signature.
    """
    a = [[Fraction(x) for x in row] for row in g]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("gram matrix must be square")
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix is not symmetric")
    signs = []
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if off is None:
                break
            i, j = off
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            piv = i
        a[k], a[piv] = a[piv], a[k]
        for row in a:
            row[k], row[piv] = row[piv], row[k]
        p = a[k][k]
        signs.append(p > 0)
        for i in range(k + 1, n):
            f = a[i][k] / p
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    pos = sum(signs)
    return Inertia(pos, len(signs) - pos, n - len(signs))



# reference searches -------------------------------------------------------


def box_short_vectors(g: Sequence[Sequence[int | Fraction]],
                      bound: int) -> list[tuple[int, ...]]:
    """Every v with 0 < -v^T G v <= bound on a negative definite G, sorted.

    For a positive definite A = -G and x^T A x <= C every coordinate
    satisfies x_i^2 <= C * (A^-1)_ii, so scanning that box and filtering is
    complete.  G is scaled by the common denominator of its entries and the
    box is scanned with numpy, one block of rows per value of the first
    coordinate; the int64 products are exact for the small forms tested.
    """
    n = len(g)
    if n == 0:
        return []
    ainv = invert_rational([[-x for x in row] for row in g])
    limits = [isqrt(floor(bound * ainv[i][i])) for i in range(n)]
    den = lcm(*(Fraction(x).denominator for row in g for x in row))
    scaled = np.array([[int(Fraction(x) * den) for x in row] for row in g], dtype=np.int64)
    tail = np.array(list(itertools.product(*(range(-m, m + 1) for m in limits[1:]))),
                    dtype=np.int64)
    found = []
    for first in range(-limits[0], limits[0] + 1):
        block = np.hstack([np.full((len(tail), 1), first, dtype=np.int64), tail])
        q = -np.einsum("ij,jk,ik->i", block, scaled, block)
        found.extend(tuple(int(x) for x in row)
                     for row in block[(q > 0) & (q <= bound * den)])
    return sorted(found)


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


def cauchy_schwarz_negative_classes(
        r: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The (d, m_1..m_r) solutions, in lexicographic order, of
    d^2 - sum(m^2) = -1, 3d - sum(m) = 1 (the minus-one classes) and of
    d^2 - sum(m^2) = -2, 3d - sum(m) = 0 (the roots) for 0 <= r <= 8: a
    recursive search over the degrees `_degree_interval` admits, pruned by
    Cauchy-Schwarz on the multiplicities still to be chosen."""
    return _solutions(r, 1, -1), _solutions(r, 0, -2)


def widened_box_negative_classes(
        r: int, max_d: int) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """The same two Diophantine systems as `cauchy_schwarz_negative_classes`,
    solved naively: scan every (d, m_1..m_r) with |d| <= max_d and
    |m_i| <= isqrt(max_d^2 + 2), far outside the derived degree interval.
    A solution has sum(m^2) = d^2 + 1 or d^2 + 2, so the box holds every
    solution of degree at most max_d.  The first multiplicity is looped
    over, so numpy holds (2 isqrt(max_d^2 + 2) + 1)^(r - 1) rows at once."""
    bound = isqrt(max_d * max_d + 2)
    axis = np.arange(-bound, bound + 1, dtype=np.int64)
    # shape (1, 0) when r <= 1: one empty tail
    tail = np.array(list(itertools.product(axis, repeat=max(r - 1, 0))),
                    dtype=np.int64)
    tail_sum = tail.sum(axis=1)
    tail_sq = (tail * tail).sum(axis=1)
    minus_one: set[tuple[int, ...]] = set()
    roots: set[tuple[int, ...]] = set()
    for d in range(-max_d, max_d + 1):
        for first in (axis if r else [0]):
            head = (d, int(first)) if r else (d,)
            total_sum = first + tail_sum
            total_sq = first * first + tail_sq
            for (kpair, square), bucket in (((1, -1), minus_one), ((0, -2), roots)):
                hit = (3 * d - total_sum == kpair) & (d * d - total_sq == square)
                bucket.update(head + tuple(map(int, row)) for row in tail[hit])
    return minus_one, roots


def raw(cls: DivisorClass) -> tuple[int, ...]:
    """(d, m_1..m_r) of the integral class d l - sum(m_i e_i) on blowup_p2(r)."""
    coeffs = cls.integral_coeffs()
    return (coeffs[0], *(-m for m in coeffs[1:]))


# reference class arithmetic ----------------------------------------------


@dataclass(frozen=True)
class FractionClass:
    """A divisor class as a plain tuple of Fractions, one per coordinate:
    the reference `DivisorClass` (int numerators over one denominator) is
    checked against."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[int | Fraction]) -> "FractionClass":
        return FractionClass(tuple(Fraction(v) for v in values))

    def __add__(self, other: "FractionClass") -> "FractionClass":
        return FractionClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "FractionClass") -> "FractionClass":
        return FractionClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "FractionClass":
        return FractionClass(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: int | Fraction) -> "FractionClass":
        return FractionClass(tuple(a * scalar for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def integral_coeffs(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise ValueError(f"class {self.coeffs} is not integral")
        return tuple(c.numerator for c in self.coeffs)


def k_squared(lattice: PicardLattice) -> int:
    """K^2 of the lattice's surface."""
    v = lattice.pair(lattice.canonical, lattice.canonical)
    assert v.denominator == 1
    return v.numerator


def arithmetic_genus(lattice: PicardLattice, c: DivisorClass) -> int:
    """Genus of an integral class by adjunction: 1 + (C^2 + C.K)/2."""
    if not c.is_integral:
        raise ValueError("arithmetic genus needs an integral class")
    val = 1 + Fraction(lattice.pair(c, c) + lattice.pair(c, lattice.canonical), 2)
    assert val.denominator == 1, "adjunction parity violated"
    return val.numerator


def riemann_roch_nef(lattice: PicardLattice, n: DivisorClass) -> int:
    """Section count (N^2 - K.N)/2 + 1 valid for nef classes."""
    if not n.is_integral:
        raise ValueError("needs an integral class")
    val = Fraction(lattice.pair(n, n) - lattice.pair(lattice.canonical, n), 2) + 1
    assert val.denominator == 1
    return val.numerator


# reference closed forms ---------------------------------------------------


def line_conic_closed_form(config: LineConic) -> tuple | None:
    """(inequality, v coefficients, v^2) for a line and a conic with a, b > 0,
    v = ab l - b (points on the line) - 2a (points on the conic); None when
    a or b is 0 (big unconditionally)."""
    a, b = config.a, config.b
    if a * b == 0:
        return None
    lhs = Fraction(1, a) + Fraction(4, b)
    v = [a * b] + [-b] * a + [-2 * a] * b + [0] * config.both
    return lhs, v, (a * b) ** 2 * (1 - lhs)


def three_lines_closed_form(config: ThreeLines) -> tuple | None:
    """(inequality, v coefficients, v^2) for three lines with every a_i > 0,
    v = a1 a2 a3 l - (a1 a2 a3 / a_i)(points on line i); None when some a_i
    is 0 (big unconditionally)."""
    a1, a2, a3 = config.counts
    if a1 * a2 * a3 == 0:
        return None
    lhs = Fraction(1, a1) + Fraction(1, a2) + Fraction(1, a3)
    v = ([a1 * a2 * a3] + [-a2 * a3] * a1 + [-a1 * a3] * a2 + [-a1 * a2] * a3
         + [0] * sum(config.flags))
    return lhs, v, (a1 * a2 * a3) ** 2 * (1 - lhs)


def line_conic_layout(config: LineConic) -> tuple[list[str], list[list[int]]]:
    """Basis labels of a line-conic lattice and the coefficient vectors of
    its anticanonical components: line, conic, then each shared point."""
    labels = (["l"] + [f"e{i}" for i in range(1, config.a + 1)]
              + [f"f{j}" for j in range(1, config.b + 1)]
              + [f"g{k}" for k in range(1, config.both + 1)])

    def curve(degree: int, on: str) -> list[int]:
        return [degree if x == "l" else -int(x[0] in on) for x in labels]

    shared = [[int(x == g) for x in labels] for g in labels if g[0] == "g"]
    return labels, [curve(1, "eg"), curve(2, "fg")] + shared


def three_lines_layout(config: ThreeLines) -> tuple[list[str], list[list[int]]]:
    """Basis labels of a three-lines lattice and the coefficient vectors of
    its anticanonical components: the three lines, then each shared point."""
    shared = [g for g, on in zip(("g12", "g13", "g23"), config.flags) if on]
    labels = (["l"] + [f"e{i}_{j}" for i, n in enumerate(config.counts, start=1)
                       for j in range(1, n + 1)] + shared)

    def line(i: int) -> list[int]:
        return [1 if x == "l" else
                -int(x.startswith(f"e{i}_") or (x[0] == "g" and str(i) in x[1:]))
                for x in labels]

    return labels, [line(i) for i in (1, 2, 3)] + [[int(x == g) for x in labels]
                                                    for g in shared]


# label-built incidences ---------------------------------------------------


def incidence_terms(lattice: PicardLattice, curve: Iterable[tuple[str, int]],
                    points: Iterable[str]) -> list[tuple[int, int]]:
    """Sparse strict transform of a curve of class sum(m * label) passing
    once through each of the named blown-up points: the curve's terms, and
    -1 on the exceptional class of every point, each basis position looked
    up by its label.  The package lays these terms out from basis
    positions; this is the reference they are checked against."""
    index = lattice.index
    return ([(index[label], m) for label, m in curve]
            + [(index[p], -1) for p in points])


def labelled_components(config: LineConic | ThreeLines) -> tuple[DivisorClass, ...]:
    """The anticanonical components of a cubic configuration, built from
    label strings: each curve's strict transform from `incidence_terms` over
    the labels of its own and its shared points, then the basis class of
    each shared point."""
    lattice = config_lattice(config)
    parts = [lattice.class_of(incidence_terms(
                 lattice, [("l", degree)],
                 [f"{prefix}{j}" for j in range(1, count + 1)]
                 + [label for label, on in config.shared if i in on]))
             for i, (degree, prefix, count) in enumerate(config.curves)]
    return tuple(parts + [lattice.basis_class(label) for label, _ in config.shared])


# report readers -----------------------------------------------------------


def parse_frac(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def _opt_parse_frac(text: str | None) -> Fraction | None:
    return None if text is None else parse_frac(text)


def divisor_from_list(values: list[str]) -> DivisorClass:
    return DivisorClass.of(parse_frac(v) for v in values)


def _verdict_from_dict(data: dict[str, Any]) -> BignessVerdict:
    return BignessVerdict(
        big=data["big"],
        case=data["case"],
        inequality_lhs=_opt_parse_frac(data["inequality"]),
        v=None if data["v"] is None else divisor_from_list(data["v"]),
        v_squared=_opt_parse_frac(data["v_squared"]),
        effective=data["effective"],
    )


def classify_from_dict(data: dict[str, Any]) -> tuple[BignessVerdict, str | None]:
    """The verdict and the type label of a classify report."""
    return _verdict_from_dict(data), data["type"]


def cross_check_from_dict(data: dict[str, Any]) -> tuple[CrossCheckReport, str | None]:
    """The cross-check report and the type label of a check report."""
    report = CrossCheckReport(
        verdict=_verdict_from_dict(data),
        lattice_big=data["lattice"],
        agrees=data["agrees"],
        v_orthogonal=data["v_orthogonal"],
        sign_consistent=data["sign_consistent"],
    )
    return report, data["type"]


def roots_from_dict(data: dict[str, Any]) -> tuple[RootSystemReport, list[tuple[int, ...]]]:
    """The root system and the complement basis of a roots report; the
    type and root count it also lists must agree with the root system."""
    report = RootSystemReport(
        roots=tuple(tuple(v) for v in data["roots"]),
        simple_roots=tuple(tuple(v) for v in data["simple_roots"]),
        cartan=tuple(tuple(row) for row in data["cartan"]),
        components=tuple((family, rank) for family, rank in data["components"]),
        graph=tuple(tuple(edge) for edge in data["graph"]),
    )
    if (data["type"] != type_string(report.components)
            or data["root_count"] != len(report.roots)):
        raise ValueError("type or root count disagrees with the listed roots")
    return report, [tuple(v) for v in data["basis"]]


def zariski_report_from_dict(data: dict[str, Any]) -> ZariskiReport:
    params = FamilyParams(data["params"]["n"], data["params"]["k"],
                          tuple(data["params"]["a"]))
    c = data["checks"]
    checks = ZariskiChecks(
        p_dot_sigma_zero=c["p_dot_sigma_zero"],
        p_dot_fibers_zero=c["p_dot_fibers_zero"],
        p_dot_n_zero=c["p_dot_n_zero"],
        n_effective=c["n_effective"],
        n_support_negative_definite=c["n_support_negative_definite"],
        sum_is_minus_canonical=c["sum_is_minus_canonical"],
    )
    return ZariskiReport(
        params=params,
        positive_part=divisor_from_list(data["positive_part"]),
        negative_part=divisor_from_list(data["negative_part"]),
        p_squared=parse_frac(data["p_squared"]),
        checks=checks,
        lc_coefficient=parse_frac(data["lc_coefficient"]),
        log_canonical=data["log_canonical"],
    )


def class_table_from_dict(data: dict[str, Any]) -> NegativeClassTable:
    table = NegativeClassTable(
        r=data["r"],
        minus_one_classes=tuple(divisor_from_list(c)
                                for c in data["minus_one_classes"]),
        minus_two_roots=tuple(divisor_from_list(c)
                              for c in data["minus_two_roots"]),
    )
    if (len(table.minus_one_classes) != data["minus_one_count"]
            or len(table.minus_two_roots) != data["root_count"]):
        raise ValueError("class counts disagree with the listed classes")
    return table


def witness_from_dict(data: dict[str, Any]) -> WitnessReport:
    return WitnessReport(
        example=data["example"],
        holds=data["holds"],
        lhs=divisor_from_list(data["lhs"]),
        big_part=divisor_from_list(data["big_part"]),
        effective_part=divisor_from_list(data["effective_part"]),
        residual=divisor_from_list(data["residual"]),
        n=data["n"],
    )


def sweep_from_dict(data: dict[str, Any]) -> SweepReport:
    report = SweepReport(
        line_conic_count=data["line_conic_count"],
        three_lines_count=data["three_lines_count"],
        disagreements=tuple(data["disagreement_cases"]),
        flag_violations=tuple(data["flag_violation_cases"]),
    )
    if (len(report.disagreements) != data["disagreements"]
            or len(report.flag_violations) != data["flag_violations"]):
        raise ValueError("sweep counts disagree with the listed cases")
    return report
