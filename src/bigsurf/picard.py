"""Picard lattices of rational surface models.

Two families of models are supported, both given by their intersection form
on a fixed basis together with the canonical class:

* the blow-up of the projective plane at r points, with basis
  (hyperplane class, exceptional classes), form diag(1, -1, ..., -1) and
  canonical class -3l + sum(e_i);

* the blow-up of a Hirzebruch surface of degree n at points placed on named
  fibers and on the negative section, with basis (pullback of the negative
  section, fiber class, exceptional classes) and canonical class
  -2*sigma - (n+2)*F + sum of exceptionals.

Points carry no coordinates; a configuration records only the combinatorial
incidence data (which curves each point lies on), which is all the lattice
computations see.  A configuration on a cubic (`LineConic`, `ThreeLines`)
states that data once: `curves` lists each component curve as (degree,
label prefix, number of points on it alone), and `shared` lists each
blown-up point on two components with the indices of those curves.  The
configuration lattice, its basis order (l, then each curve's own points in
curve order, then the shared points) and the anticanonical components are
all derived from that description here, and nowhere else.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, InvariantError

Rational = int | Fraction


_set = object.__setattr__


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields, in constructor order, in `_fields` and
    stores them in `__slots__`; its `__init__` validates the arguments and
    stores each field with `_set`.  Equality (with an instance of the same
    class only), hash, repr and pickling go by the field values, as for a
    frozen dataclass, and assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)  # the field values, read in C

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class DivisorClass(Frozen):
    """A divisor class as a rational coefficient vector in a fixed basis,
    stored as integer numerators `nums` over one common denominator
    `den >= 1`, in lowest terms: gcd(den, *nums) == 1.

    Equal rational vectors therefore compare and hash equal, and an
    integral class has den == 1 and never builds a Fraction: its sums,
    differences and multiples are int arithmetic, and a least common
    multiple is taken only when a denominator exceeds 1.

    Every numerator tuple (and every star-argument) is built from a list,
    never from a generator or a map: CPython allocates a tuple of unknown
    length at length 10 and reallocs it, so each such call moves a block
    from the length-10 free list to the length-rank one, and a long run
    parks 2000 blocks in the free list of every other length below 20.
    """

    _fields = __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int = 1):
        nums = tuple(nums)
        if type(den) is not int or den < 1:
            raise ValueError("den must be an int >= 1")
        if not set(map(type, nums)) <= _INT:
            raise TypeError("numerators must be ints")
        nums, den = _lowest(nums, den)
        _set(self, "nums", nums)
        _set(self, "den", den)

    @staticmethod
    def of(values: Iterable[Rational]) -> "DivisorClass":
        """The class with the given int or Fraction coefficients; a float
        (or any other non-rational entry) raises TypeError."""
        values = tuple(values)
        if set(map(type, values)) <= _INT:
            return _new(values, 1)
        for v in values:
            if not isinstance(v, numbers.Rational):
                raise TypeError(f"coefficient {v!r} is not an int or Fraction")
        exact = [Fraction(v) for v in values]
        # over the lcm of reduced denominators the numerators stay coprime to it
        den = math.lcm(*[int(f.denominator) for f in exact])
        return _new(tuple([int(f.numerator) * (den // int(f.denominator)) for f in exact]), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions (derived, read-only)."""
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def _combine(self, other: "DivisorClass", op) -> "DivisorClass":
        a, b = self.nums, other.nums
        if len(a) != len(b):
            raise ValueError("classes have different lengths")
        da, db = self.den, other.den
        if da == db:
            return _new(*_lowest(tuple(list(map(op, a, b))), da))
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return _new(*_lowest(tuple([op(x * fa, y * fb) for x, y in zip(a, b)]), den))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "DivisorClass":
        return _new(tuple([-x for x in self.nums]), self.den)

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        if isinstance(scalar, int):
            num, den = scalar, self.den
        elif isinstance(scalar, Fraction):
            num, den = scalar.numerator, self.den * scalar.denominator
        else:
            return NotImplemented
        return _new(*_lowest(tuple([x * num for x in self.nums]), den))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def integral_coeffs(self) -> tuple[int, ...]:
        if self.den != 1:
            raise ValueError(f"class {self.coeffs} is not integral")
        return self.nums


_INT = {int}


def _new(nums: tuple[int, ...], den: int) -> DivisorClass:
    """A DivisorClass from int numerators already in lowest terms over den."""
    c = object.__new__(DivisorClass)
    _set(c, "nums", nums)
    _set(c, "den", den)
    return c


def _lowest(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Int numerators over den brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            return tuple([x // g for x in nums]), den // g
    return nums, den


class PlaneBlowup(NamedTuple):
    points: int


class HirzebruchBlowup(NamedTuple):
    n: int
    fiber_specs: tuple[tuple[int, bool], ...]
    extra_on_sigma: int


# a sparse class: (basis index, coefficient) pairs, zero coefficients left out
Terms = Sequence[tuple[int, Rational]]


def sparse_terms(coeffs: Sequence[Rational]) -> list[tuple[int, Rational]]:
    """The nonzero coordinates of a coefficient vector, in index order."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def add_terms(vec: list[Rational], terms: Terms, times: Rational = 1) -> None:
    """vec += times * (the sparse class terms), in place."""
    for i, c in terms:
        vec[i] += times * c


class PicardLattice(Frozen):
    """Intersection lattice of a surface model, with labeled basis.

    The form is stored by its structure, not as a dense matrix: a small
    symmetric head block on the first basis classes, and -1 on the diagonal
    of every later (exceptional) class, with no other nonzero entry.  The
    head is ((1,),) for plane blow-ups (the line class) and ((-n, 1), (1, 0))
    for blow-ups of a degree-n Hirzebruch surface (sigma and F).  Pairing
    therefore costs O(rank), the row G.v of a sparse class costs time
    proportional to its support, and so does the Gram of a few sparse
    classes (`gram_of`).  `gram` is a dense read-only view, built on first
    read.
    """

    _fields = ("head", "labels", "canonical", "model")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached gram and index

    def __init__(self, head: tuple[tuple[int, ...], ...], labels: tuple[str, ...],
                 canonical: DivisorClass, model: PlaneBlowup | HirzebruchBlowup):
        _set(self, "head", head)
        _set(self, "labels", labels)
        _set(self, "canonical", canonical)
        _set(self, "model", model)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Dense Gram matrix of the form; O(rank^2), so only the dense
        consumers read it: the Gram restriction of
        `bigness.orthogonal_complement` and the form it returns as is for
        an empty collection of classes (the whole lattice), and the lift
        G - 2kk^T that `enumeration.negative_classes` hands to
        short_vectors."""
        h, rank = len(self.head), self.rank
        return tuple([tuple([self.head[i][j] if i < h and j < h else -int(i == j)
                             for j in range(rank)])
                      for i in range(rank)])

    @cached_property
    def index(self) -> dict[str, int]:
        """Basis position of each label, read only by `basis_class`."""
        return {label: i for i, label in enumerate(self.labels)}

    def row(self, terms: Terms) -> dict[int, Rational]:
        """G.v for the sparse class v: {j: v.b_j} over the basis classes b_j
        that v meets.  A head term meets the head classes through the head
        block, a tail term only its own class (with sign -1), so the cost is
        O(len(terms))."""
        head = self.head
        h = len(head)
        out: dict[int, Rational] = {}
        for i, c in terms:
            if i < h:
                for j, g in enumerate(head[i]):
                    if g:
                        out[j] = out.get(j, 0) + g * c
            else:
                out[i] = out.get(i, 0) - c
        return out

    def gram_of(self, classes: Sequence[Terms]) -> list[list[Rational]]:
        """The Gram matrix [u.v] of the sparse classes, exact (all ints for
        int coefficients), in O(k^2 h + sum of the term counts) for k
        classes and a head of size h: the head coordinates of each class
        pair through the head block, once per two distinct head parts, and
        each tail index adds -c_u c_v to the entry of every two classes
        u, v that carry it."""
        head = self.head
        h = len(head)
        heads: list[tuple[Rational, ...]] = []
        tails: dict[int, list[tuple[int, Rational]]] = {}
        for u, terms in enumerate(classes):
            x = [0] * h
            for i, c in terms:
                if i < h:
                    x[i] += c
                else:
                    tails.setdefault(i, []).append((u, c))
            heads.append(tuple(x))
        hx = {x: [sum(map(operator.mul, row, x)) for row in head] for x in heads}
        pairings = {x: {y: sum(map(operator.mul, x, hy)) for y, hy in hx.items()}
                    for x in hx}
        gram = [list(map(pairings[x].__getitem__, heads)) for x in heads]
        for carriers in tails.values():
            for u, c in carriers:
                row = gram[u]
                for v, d in carriers:
                    row[v] -= c * d
        return gram

    def pair(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        """Intersection pairing of two classes, in O(rank) through the
        head-plus-tail structure: the int numerators pair through the head
        block and the -I tail, and the sum is divided once by the product
        of the denominators.  Both classes must have exactly rank
        coordinates; any other length raises ValueError."""
        x, y = a.nums, b.nums
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("class length does not match the lattice rank")
        h = len(self.head)
        total = -sum(map(operator.mul, x[h:], y[h:]))
        for xi, row in zip(x, self.head):
            if xi:
                total += xi * sum(map(operator.mul, row, y))
        return Fraction(total, a.den * b.den)

    def basis_class(self, label: str) -> DivisorClass:
        try:
            i = self.index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a basis label") from None
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return _new(tuple(coeffs), 1)

    def class_of(self, terms: Terms) -> DivisorClass:
        """The dense class of a sparse one."""
        coeffs: list[Rational] = [0] * self.rank
        add_terms(coeffs, terms)
        return DivisorClass.of(coeffs)

    @property
    def anticanonical(self) -> DivisorClass:
        return -self.canonical


def _plane_lattice(labels: Sequence[str]) -> PicardLattice:
    rank = len(labels)
    canonical = DivisorClass.of([-3] + [1] * (rank - 1))
    return PicardLattice(((1,),), tuple(labels), canonical, PlaneBlowup(rank - 1))


def _count(name: str, value: object) -> int:
    """value as an int, by operator.index; DomainError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an int, not {value!r}") from None


def _flag(name: str, value: object) -> bool:
    """value itself if it is a bool; DomainError naming it otherwise."""
    if type(value) is not bool:
        raise DomainError(f"{name} must be a bool, not {value!r}")
    return value


def blowup_p2(r: int) -> PicardLattice:
    """Picard lattice of the plane blown up at r points; r is an int, by
    operator.index (anything else raises DomainError)."""
    r = _count("r", r)
    if r < 0:
        raise DomainError("r must be a non-negative integer")
    return _plane_lattice(["l"] + [f"e{i}" for i in range(1, r + 1)])


def blowup_hirzebruch(n: int, fiber_specs: Sequence[tuple[int, bool]],
                      extra_on_sigma: int = 0) -> PicardLattice:
    """Picard lattice of a degree-n Hirzebruch surface blown up at points
    on named fibers and on the negative section.

    fiber_specs gives, per named fiber, the number of points on the fiber
    away from the negative section (an int, by operator.index) and whether
    the intersection point of fiber and section is also blown up (a bool);
    any other count or flag raises DomainError.  extra_on_sigma counts
    additional points on the section away from every named fiber; it and
    n are ints by operator.index too.
    """
    n, extra_on_sigma = _count("n", n), _count("extra_on_sigma", extra_on_sigma)
    if n < 1:
        raise DomainError("n must satisfy n >= 1")
    if extra_on_sigma < 0:
        raise DomainError("extra_on_sigma must be non-negative")
    specs = []
    for off, on in fiber_specs:
        off = _count("points per fiber", off)
        if off < 0:
            raise DomainError("points per fiber must be non-negative")
        specs.append((off, _flag("a fiber's on-section flag", on)))
    labels = ["sigma", "F"]
    for i, (off, on) in enumerate(specs, start=1):
        labels.extend(f"e{i}_{j}" for j in range(1, off + 1))
        if on:
            labels.append(f"e{i}_s")
    labels.extend(f"s{j}" for j in range(1, extra_on_sigma + 1))
    canonical = DivisorClass.of([-2, -(n + 2)] + [1] * (len(labels) - 2))
    return PicardLattice(((-n, 1), (1, 0)), tuple(labels), canonical,
                         HirzebruchBlowup(n, tuple(specs), extra_on_sigma))


def _hirzebruch_model(lattice: PicardLattice) -> HirzebruchBlowup:
    if not isinstance(lattice.model, HirzebruchBlowup):
        raise DomainError("lattice is not a Hirzebruch blow-up model")
    return lattice.model


def strict_terms(lattice: PicardLattice) -> tuple[list[tuple[int, int]],
                                                  list[list[tuple[int, int]]]]:
    """Sparse strict transforms of the negative section and of every named
    fiber, from basis positions: sigma and F come first, then each fiber's
    points in order, then the extra points on sigma, so one running offset
    over the fiber specs places them all in O(rank), with no label built or
    looked up."""
    model = _hirzebruch_model(lattice)
    minus = [(j, -1) for j in range(lattice.rank)]  # -1 on basis class j
    sigma, fibers, pos = [(0, 1)], [], 2
    for off, on in model.fiber_specs:
        terms = [(1, 1)] + minus[pos:pos + off]
        pos += off
        if on:
            terms.append(minus[pos])
            sigma.append(minus[pos])
            pos += 1
        fibers.append(terms)
    return sigma + minus[pos:], fibers


def fiber_strict(lattice: PicardLattice, i: int) -> DivisorClass:
    """Strict transform of the i-th named fiber (1-based): F minus the
    exceptional classes of the points on it, in O(rank)."""
    fibers = strict_terms(lattice)[1]
    if not 1 <= i <= len(fibers):
        raise DomainError(f"fiber index {i} out of range")
    return lattice.class_of(fibers[i - 1])


def sigma_strict(lattice: PicardLattice) -> DivisorClass:
    """Strict transform of the negative section, in O(rank)."""
    return lattice.class_of(strict_terms(lattice)[0])


# point configurations --------------------------------------------------------


class Generic(Frozen):
    """r points in general position in the plane."""

    _fields = __slots__ = ("r",)

    def __init__(self, r: int):
        r = _count("r", r)
        if r < 0:
            raise DomainError("r must be a non-negative integer")
        _set(self, "r", r)


class LineConic(Frozen):
    """Points on a line and a conic: a exclusively on the line, b exclusively
    on the conic, and `both` of the (at most two) intersection points."""

    _fields = __slots__ = ("a", "b", "both")
    case = "ii"

    def __init__(self, a: int, b: int, both: int = 0):
        a, b, both = _count("a", a), _count("b", b), _count("both", both)
        if a < 0 or b < 0:
            raise DomainError("point counts must be non-negative")
        if not 0 <= both <= 2:
            raise DomainError("both must satisfy 0 <= both <= 2")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "both", both)

    @property
    def curves(self) -> tuple[tuple[int, str, int], ...]:
        return ((1, "e", self.a), (2, "f", self.b))

    @property
    def shared(self) -> tuple[tuple[str, tuple[int, int]], ...]:
        return tuple([(f"g{k}", (0, 1)) for k in range(1, self.both + 1)])


class ThreeLines(Frozen):
    """Points on three pairwise distinct, non-concurrent lines: a_i points
    exclusively on line i, plus optionally the pairwise intersections."""

    _fields = __slots__ = ("a1", "a2", "a3", "p12", "p13", "p23")
    case = "iii"

    def __init__(self, a1: int, a2: int, a3: int,
                 p12: bool = False, p13: bool = False, p23: bool = False):
        counts = [_count(name, x) for name, x in (("a1", a1), ("a2", a2), ("a3", a3))]
        if min(counts) < 0:
            raise DomainError("point counts must be non-negative")
        flags = [_flag(name, x) for name, x in (("p12", p12), ("p13", p13), ("p23", p23))]
        for name, value in zip(self._fields, counts + flags):
            _set(self, name, value)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def flags(self) -> tuple[bool, bool, bool]:
        return (self.p12, self.p13, self.p23)

    @property
    def curves(self) -> tuple[tuple[int, str, int], ...]:
        return tuple([(1, f"e{i}_", count) for i, count in enumerate(self.counts, start=1)])

    @property
    def shared(self) -> tuple[tuple[str, tuple[int, int]], ...]:
        points = (("g12", (0, 1)), ("g13", (0, 2)), ("g23", (1, 2)))
        return tuple([point for point, flag in zip(points, self.flags) if flag])


PointConfiguration = Generic | LineConic | ThreeLines


def _layout(curves: Sequence[tuple[int, str, int]]) -> tuple[list[range], int]:
    """Basis positions of config_lattice: each curve's own points as one run,
    in curve order after l at 0, and the first shared point, which follow."""
    runs, start = [], 1
    for _, _, count in curves:
        runs.append(range(start, start + count))
        start += count
    return runs, start


def config_lattice(config: PointConfiguration) -> PicardLattice:
    """Picard lattice of the plane blown up along the configuration, with
    basis labels reflecting the incidence roles of the points: l, then each
    curve's own points in curve order, then the shared points."""
    if isinstance(config, Generic):
        return blowup_p2(config.r)
    curves, labels = config.curves, ["l"]
    for (_, prefix, _), run in zip(curves, _layout(curves)[0]):
        labels.extend(f"{prefix}{j}" for j in range(1, len(run) + 1))
    labels.extend(label for label, _ in config.shared)
    return _plane_lattice(labels)


def incidence_class(config: LineConic | ThreeLines, line: int,
                    own: Sequence[int]) -> DivisorClass:
    """The class line*l + sum_i own[i] * (the points on curve i alone) in the
    basis of config_lattice(config), zero on the shared points.  Reads only
    the point counts, so it builds no labels."""
    coeffs = [line]
    for (_, _, count), c in zip(config.curves, own, strict=True):
        coeffs += [c] * count
    return DivisorClass.of(coeffs + [0] * len(config.shared))


def anticanonical_components(config: PointConfiguration) -> tuple[DivisorClass, ...]:
    """Classes of the components of the distinguished anticanonical member:
    the strict transform of each curve, then the exceptional curve over
    each shared point, from sparse terms at the `_layout` positions with no
    label looked up, in O(rank) per component.  They sum to -K.
    """
    return _components(config_lattice(config), config)


def _components(lattice: PicardLattice, config: PointConfiguration) -> tuple[DivisorClass, ...]:
    """anticanonical_components on the already built config_lattice(config)."""
    if isinstance(config, Generic):
        raise DomainError("generic configurations carry no distinguished anticanonical member")
    curves, shared = config.curves, config.shared
    runs, first = _layout(curves)
    parts = [lattice.class_of([(0, degree)] + [(j, -1) for j in run]
                              + [(j, -1) for j, (_, on) in enumerate(shared, first) if i in on])
             for i, ((degree, _, _), run) in enumerate(zip(curves, runs))]
    parts += [lattice.class_of([(j, 1)]) for j in range(first, first + len(shared))]
    if sum(parts[1:], parts[0]) != lattice.anticanonical:
        raise InvariantError("anticanonical components fail to sum to -K")
    return tuple(parts)


# witness identities ----------------------------------------------------------


class WitnessReport(NamedTuple):
    """Outcome of checking one of the multiple-of-(-K) decompositions."""

    example: str
    holds: bool
    lhs: DivisorClass
    big_part: DivisorClass
    effective_part: DivisorClass
    residual: DivisorClass
    n: int | None = None


def _report(example: str, lhs: list[int], big: list[int], eff: list[int],
            n: int | None = None) -> WitnessReport:
    residual = [x - y - z for x, y, z in zip(lhs, big, eff, strict=True)]
    return WitnessReport(example, not any(residual), DivisorClass.of(lhs),
                         DivisorClass.of(big), DivisorClass.of(eff),
                         DivisorClass.of(residual), n)


def _witness_hirzebruch(n: int, fibers: Sequence[tuple[int, bool]] | None,
                        extra_on_sigma: int) -> WitnessReport:
    if fibers is None:
        fibers = [(1, False)] * (n + 1)
    if len(fibers) != n + 1:
        raise DomainError("exactly n + 1 named fibers are required")
    lattice = blowup_hirzebruch(n, fibers, extra_on_sigma)
    rank = lattice.rank
    lhs = [-n * c for c in lattice.canonical.integral_coeffs()]
    # sigma and F are the first two basis classes
    big = [0] * rank
    big[0], big[1] = 1, n
    eff = [0] * rank
    eff[0] = n - 1
    sigma_terms, fiber_terms = strict_terms(lattice)
    add_terms(eff, sigma_terms, n)
    for terms in fiber_terms:
        add_terms(eff, terms, n)
    return _report("hirzebruch_b", lhs, big, eff, n)


def _witness_conic(n: int) -> WitnessReport:
    # basis (l, e0, e1..en): e0 is the point off the conic, e1..en lie on it
    lattice = _plane_lattice(["l"] + [f"e{i}" for i in range(n + 1)])
    rank = lattice.rank
    lhs = [-n * c for c in lattice.canonical.integral_coeffs()]
    big = [2] + [0] * (rank - 1)
    eff = [0] * rank
    on_conic = [(j, -1) for j in range(2, rank)]
    add_terms(eff, [(0, 2)] + on_conic, n - 1)  # the conic 2l - e1 - ... - en
    for point in on_conic:  # the line l - e0 - ei
        add_terms(eff, [(0, 1), (1, -1), point])
    return _report("conic_c", lhs, big, eff, n)


def _witness_castravet() -> WitnessReport:
    # ten points where five general lines meet: pair (i, j) at 1 + its index in pairs
    pairs = list(combinations(range(1, 6), 2))
    lattice = _plane_lattice(["l"] + [f"e{i}{j}" for i, j in pairs])
    rank = lattice.rank
    lhs = [-2 * c for c in lattice.canonical.integral_coeffs()]
    big = [1] + [0] * (rank - 1)
    eff = [0] * rank
    for k in range(1, 6):  # line k, through the four points on it
        add_terms(eff, [(0, 1)] + [(j, -1) for j, pair in enumerate(pairs, start=1)
                                   if k in pair])
    return _report("castravet_d", lhs, big, eff)


# the request fields each witness example reads
_WITNESS_FIELDS = {"hirzebruch_b": ("n", "fibers", "extra_on_sigma"),
                   "conic_c": ("n",), "castravet_d": ()}


def check_witness_fields(example: str, n: int | None, given: Iterable[str]) -> int | None:
    """DomainError for an unknown example, a missing, non-int or nonpositive
    n where the example reads n, or else the first given field it does not
    read.  Returns n, as an int by operator.index where the example reads it."""
    fields = _WITNESS_FIELDS.get(example)
    if fields is None:
        raise DomainError(f"unknown witness example {example!r}")
    if "n" in fields and n is None:
        raise DomainError(f"{example} requires n")
    if "n" in fields and (n := _count("n", n)) < 1:
        raise DomainError("n must satisfy n >= 1")
    for name in given:
        if name not in fields:
            raise DomainError(f"field witness.{name} does not apply to {example}")
    return n


def verify_witness(example: str, n: int | None = None,
                   fibers: Sequence[tuple[int, bool]] | None = None,
                   extra_on_sigma: int = 0) -> WitnessReport:
    """Check one of the known decompositions of a multiple of -K into a big
    part and an effective part, as an exact class identity.

    The effective part is summed from the sparse incidence terms of the
    strict transforms, in integers, so a check costs time linear in the
    rank; only the four reported classes are built as DivisorClass.

    Placements that break the identity (for instance a point at the meeting
    of the negative section and a named fiber) are reported with the
    nonzero residual class rather than rejected.  An n, fibers or nonzero
    extra_on_sigma that the example does not read raises DomainError.
    """
    n = check_witness_fields(example, n, [
        name for name, value in (("n", n), ("fibers", fibers),
                                 ("extra_on_sigma", extra_on_sigma or None))
        if value is not None])
    if example == "hirzebruch_b":
        return _witness_hirzebruch(n, fibers, extra_on_sigma)
    return _witness_conic(n) if example == "conic_c" else _witness_castravet()
