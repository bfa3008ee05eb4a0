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
computations see.  Every configuration lies on a cubic: a smooth one
(`Generic`, case i), a line and a conic (`LineConic`, ii) or three lines
(`ThreeLines`, iii), each a subclass of `PointConfiguration`.  Each stores
only its counts and flags, and states its incidence data once, as
properties computed from them: `curves` lists each component curve as
(degree, number of points on it alone), `shared` lists each blown-up point
on two components as the pair of those curves' indices, and `effective`
says whether the cubic certifies an effective anticanonical member (None:
undecided).  The configuration lattice, its basis order (l, then each
curve's own points in curve order, then the shared points) and the
anticanonical components are all derived from that description here, and
nowhere else; `incidence_class` lays out every class on that basis.

A model is one class, which `MODELS` maps its request name to; it also
states its `request` fields, root-type triple `arms` and sweep `groups`.
The fourth model, `FamilyParams`, is defined here beside the three.

A lattice is its form: a basis is fixed by its order, which the builders
below state, and no basis class carries a name.

Only `PicardLattice.pair` and `DivisorClass.__mul__` by a non-int scalar
build or test a Fraction, and each imports `fractions` there: importing
this module loads neither `fractions` nor the `decimal` and `numbers`
modules it pulls in.  The `Rational` and `Terms` aliases exist for
annotations only.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, combinations, product
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, InvariantError

if TYPE_CHECKING:  # the aliases appear in annotations only
    from fractions import Fraction

    Rational = int | Fraction
    # a sparse class: (basis index, coefficient) pairs, zero coefficients left out
    Terms = Sequence[tuple[int, Rational]]


_set = object.__setattr__


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields, in constructor order, in `_fields` and
    stores them in `__slots__`; its `__init__` validates the arguments and
    stores each field with `_set`.  Equality (with an instance of the same
    class only), hash, repr and pickling go by the field values, as for a
    frozen dataclass, and assigning or deleting an attribute raises
    AttributeError.  A subclass with no fields is a base that carries
    shared defaults, such as `PointConfiguration`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
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
        else:
            from fractions import Fraction
            if not isinstance(scalar, Fraction):
                return NotImplemented
            num, den = scalar.numerator, self.den * scalar.denominator
        return _new(*_lowest(tuple([x * num for x in self.nums]), den))

    __rmul__ = __mul__

    def integral_coeffs(self) -> tuple[int, ...]:
        if self.den != 1:
            raise ValueError(f"class {self.nums} over {self.den} is not integral")
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


def add_terms(vec: list[Rational], terms: Terms, times: Rational = 1) -> None:
    """vec += times * (the sparse class terms), in place."""
    for i, c in terms:
        vec[i] += times * c


class PicardLattice(Frozen):
    """Intersection lattice of a surface model: its form on `rank` basis
    classes and its canonical class.

    The form is stored by its structure, not as a dense matrix: a small
    symmetric head block on the first basis classes, and -1 on the diagonal
    of every later (exceptional) class, with no other nonzero entry.  The
    head is ((1,),) for plane blow-ups (the line class) and ((-n, 1), (1, 0))
    for blow-ups of a degree-n Hirzebruch surface (sigma and F).  Pairing
    and the row G.x of a class therefore cost O(rank), and the Gram of a
    few sparse classes (`gram_of`) costs time proportional to their
    support.  The dense form is that Gram on the unit classes,
    built where a dense consumer needs it.

    Equality, hash, repr and pickling go by (head, rank, canonical), so two
    models with the same form and canonical class build equal lattices.
    The constructor raises ValueError for a rank that is not a
    non-negative int, a head that is not a symmetric square block of at
    most rank classes, or a canonical class of any length but rank.
    """

    _fields = __slots__ = ("head", "rank", "canonical")

    def __init__(self, head: tuple[tuple[int, ...], ...], rank: int,
                 canonical: DivisorClass):
        if type(rank) is not int or rank < 0:
            raise ValueError("rank must be a non-negative int")
        if len(head) > rank or any(len(row) != len(head) for row in head):
            raise ValueError("head must be a square block of at most rank classes")
        if any(row[j] != head[j][i] for i, row in enumerate(head) for j in range(i)):
            raise ValueError("head must be symmetric")
        if len(canonical.nums) != rank:
            raise ValueError("canonical class length does not match the rank")
        _set(self, "head", head)
        _set(self, "rank", rank)
        _set(self, "canonical", canonical)

    def row(self, x: Sequence[Rational]) -> list[Rational]:
        """G.x for the coefficient vector x: [x.b_j] over the basis classes
        b_j, in O(rank), the head coordinates through the head block and
        each tail coordinate negated.  x must have exactly rank coordinates;
        any other length raises ValueError."""
        if len(x) != self.rank:
            raise ValueError("class length does not match the lattice rank")
        head = self.head
        return [sum(map(operator.mul, row, x)) for row in head] + [-c for c in x[len(head):]]

    def gram_of(self, classes: Sequence[Terms]) -> list[list[Rational]]:
        """The Gram matrix [u.v] of the sparse classes, exact (all ints for
        int coefficients), in O(k^2 h + sum of the term counts) for k
        classes and a head of size h: the head coordinates of each class
        pair through the head block, once per two distinct head parts,
        classes with equal head parts start from copies of one row, a tail
        index carried once adds -c^2 to its class's diagonal entry, and one
        carried more often adds -c_u c_v to every two carriers' entry."""
        head = self.head
        h = len(head)
        heads: list[tuple[Rational, ...]] = []
        once: dict[int, tuple[int, Rational]] = {}
        shared: dict[int, list[tuple[int, Rational]]] = {}
        for u, terms in enumerate(classes):
            x = [0] * h
            for i, c in terms:
                if i < h:
                    x[i] += c
                elif i in once:
                    shared[i] = [once.pop(i), (u, c)]
                elif i in shared:
                    shared[i].append((u, c))
                else:
                    once[i] = (u, c)
            heads.append(tuple(x))
        hx = {x: [sum(map(operator.mul, row, x)) for row in head] for x in heads}
        pairings = {x: {y: sum(map(operator.mul, x, hy)) for y, hy in hx.items()}
                    for x in hx}
        rows = {x: list(map(pairings[x].__getitem__, heads)) for x in hx}
        gram = [rows[x].copy() for x in heads]
        for u, c in once.values():
            gram[u][u] -= c * c
        for carriers in shared.values():
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
        from fractions import Fraction
        return Fraction(total, a.den * b.den)

    @property
    def anticanonical(self) -> DivisorClass:
        return -self.canonical


def _plane_lattice(points: int) -> PicardLattice:
    """The plane blown up at the points, with basis l and then the points."""
    return PicardLattice(((1,),), 1 + points, _new(tuple([-3] + [1] * points), 1))


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


def hirzebruch_model(n: int, fiber_specs: Sequence[tuple[int, bool]],
                     extra_on_sigma: int = 0
                     ) -> tuple[PicardLattice, list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """A degree-n Hirzebruch surface blown up at points on named fibers and
    on the negative section: its Picard lattice, and the sparse strict
    transforms of the section and of every named fiber.

    The basis is sigma, F, then each fiber's points off the section and
    then its point on it, fiber by fiber, then the extra points on the
    section.  fiber_specs gives, per named fiber, the number of points on
    the fiber away from the negative section (an int, by operator.index)
    and whether the intersection point of fiber and section is also blown
    up (a bool); any other count or flag raises DomainError.
    extra_on_sigma counts additional points on the section away from every
    named fiber; it and n are ints by operator.index too.

    One walk over the specs checks each and marks where its fiber's points
    end; each fiber's terms are then a slice of one run of -1 terms, so
    the whole model costs O(rank).
    """
    n, extra_on_sigma = _count("n", n), _count("extra_on_sigma", extra_on_sigma)
    if n < 1:
        raise DomainError("n must satisfy n >= 1")
    if extra_on_sigma < 0:
        raise DomainError("extra_on_sigma must be non-negative")
    ends, on_sigma, pos = [2], [], 2  # a fiber's points end where the next one's start
    for off, on in fiber_specs:
        off = _count("points per fiber", off)
        if off < 0:
            raise DomainError("points per fiber must be non-negative")
        pos += off
        if _flag("a fiber's on-section flag", on):
            on_sigma.append(pos)
            pos += 1
        ends.append(pos)
    rank = pos + extra_on_sigma
    minus = [(j, -1) for j in range(rank)]  # -1 on basis class j
    fibers = [[(1, 1)] + minus[start:end] for start, end in zip(ends, ends[1:])]
    sigma = [(0, 1)] + [minus[j] for j in on_sigma] + minus[pos:]
    canonical = _new(tuple([-2, -(n + 2)] + [1] * (rank - 2)), 1)
    return PicardLattice(((-n, 1), (1, 0)), rank, canonical), sigma, fibers


# models ----------------------------------------------------------------------


class PointConfiguration(Frozen):
    """Base of the point configurations on a cubic: a subclass states its
    `curves`, `case`, `arms` and `request`, and overrides these defaults
    (no point on two curves, an effective cubic) where they differ."""

    __slots__ = ()
    shared: tuple[tuple[int, int], ...] = ()
    effective: bool | None = True


class Generic(PointConfiguration):
    """r points in general position in the plane, all on one smooth cubic:
    one degree-3 curve and nothing shared, so -K is the cubic's strict
    transform, an effective member for r <= 8 and undecided (None) beyond."""

    _fields = __slots__ = ("r",)
    request = (("r", int),)
    case = "i"

    def __init__(self, r: int):
        r = _count("r", r)
        if r < 0:
            raise DomainError("r must be a non-negative integer")
        _set(self, "r", r)

    @property
    def curves(self) -> tuple[tuple[int, int], ...]:
        return ((3, self.r),)

    @property
    def effective(self) -> bool | None:
        return True if self.r <= 8 else None

    @property
    def arms(self) -> tuple[int, int, int]:
        return (2, 3, self.r - 3) if self.r >= 3 else (0, 0, self.r)


class LineConic(PointConfiguration):
    """Points on a line and a conic: a exclusively on the line, b exclusively
    on the conic, and `both` of the (at most two) intersection points."""

    _fields = __slots__ = ("a", "b", "both")
    request = (("a", int), ("b", int), ("both", int, 0))
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
    def curves(self) -> tuple[tuple[int, int], ...]:
        return ((1, self.a), (2, self.b))

    @property
    def shared(self) -> tuple[tuple[int, int], ...]:
        return ((0, 1),) * self.both

    @property
    def arms(self) -> tuple[int, int, int]:
        a, b = self.a, self.b
        return (2, b - 2, a + 1) if a * b else (0, 0, a + b)

    @classmethod
    def groups(cls, max_a: int, max_b: int) -> Iterator[tuple[str, list[tuple[str, LineConic]]]]:
        for a, b in product(range(max_a + 1), range(max_b + 1)):
            yield (f"line_conic a={a} b={b}",
                   [(f"both={both}", cls(a, b, both)) for both in (0, 1, 2)])


class ThreeLines(PointConfiguration):
    """Points on three pairwise distinct, non-concurrent lines: a_i points
    exclusively on line i, plus optionally the pairwise intersections."""

    _fields = __slots__ = ("a1", "a2", "a3", "p12", "p13", "p23")
    request = (("a", (int, 3)), ("intersections", (bool, 3), (False,) * 3))
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

    arms = counts

    @property
    def flags(self) -> tuple[bool, bool, bool]:
        return (self.p12, self.p13, self.p23)

    @property
    def curves(self) -> tuple[tuple[int, int], ...]:
        return ((1, self.a1), (1, self.a2), (1, self.a3))

    @property
    def shared(self) -> tuple[tuple[int, int], ...]:
        """The blown-up pairwise intersections, each once if its flag is set."""
        return ((0, 1),) * self.p12 + ((0, 2),) * self.p13 + ((1, 2),) * self.p23

    @classmethod
    def groups(cls, max_ai: int) -> Iterator[tuple[str, list[tuple[str, ThreeLines]]]]:
        for a1, a2, a3 in product(range(max_ai + 1), repeat=3):
            yield (f"three_lines a=({a1},{a2},{a3})",
                   [(f"flags={flags}", cls(a1, a2, a3, *flags))
                    for flags in product((False, True), repeat=3)])


def _reciprocal_sum(a: Sequence[int]) -> tuple[int, int]:
    """sum(1/a_j) as an int numerator over m = lcm(a), and m."""
    m = math.lcm(*a)
    return sum(m // ai for ai in a), m


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
    """Parameters (n, k, a_1..a_k) of one member of the Hirzebruch family
    whose Zariski decomposition `zariski` computes."""

    _fields = __slots__ = ("n", "k", "a")
    request = (("n", int), ("k", int), ("a", (int, None)))

    def __init__(self, n: int, k: int, a: Sequence[int]):
        n, k, a = _validate_shape(n, k, a)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "a", a)
        s, m = _reciprocal_sum(a)
        if s >= (k - 2) * m:
            raise DomainError("a must satisfy sum(1/a_j) < k - 2")


# request name -> model class, in the order the unknown-model error lists them
MODELS: dict[str, type[Frozen]] = {
    "generic": Generic, "line_conic": LineConic, "three_lines": ThreeLines,
    "hirzebruch_family": FamilyParams}


def config_lattice(config: PointConfiguration) -> PicardLattice:
    """Picard lattice of the plane blown up along the configuration, with
    basis l, then each curve's own points in curve order, then the shared
    points.  It reads only the point counts, so configurations of equal
    rank build equal lattices."""
    return _plane_lattice(sum([count for _, count in config.curves]) + len(config.shared))


def blowup_p2(r: int) -> PicardLattice:
    """Picard lattice of the plane blown up at r points: the lattice of
    Generic(r), so r is an int by operator.index (anything else, or a
    negative r, raises DomainError)."""
    return config_lattice(Generic(r))


def incidence_class(config: PointConfiguration, line: int, own: Sequence[int],
                    shared: Sequence[int]) -> DivisorClass:
    """The class line*l + sum_i own[i] * (each point on curve i alone)
    + sum_p shared[p] * e_p in the basis of config_lattice(config): one
    coefficient per curve and one per shared point, in their orders.  Any
    other number of coefficients raises ValueError."""
    curves = config.curves
    if len(own) != len(curves) or len(shared) != len(config.shared):
        raise ValueError("incidence_class needs one coefficient per curve and per shared point")
    coeffs = [line]
    for (_, count), c in zip(curves, own):
        coeffs += [c] * count
    coeffs += shared
    return DivisorClass(coeffs)


def anticanonical_components(config: PointConfiguration) -> tuple[DivisorClass, ...]:
    """Classes of the components of the distinguished anticanonical member:
    the strict transform of each curve, then the exceptional curve over
    each shared point, each laid out by `incidence_class` in O(rank).  They
    sum to -K; for `Generic` the one component is -K itself.
    """
    return _components(config_lattice(config), config)


def _components(lattice: PicardLattice, config: PointConfiguration) -> tuple[DivisorClass, ...]:
    """anticanonical_components on the already built config_lattice(config)."""
    curves, shared = config.curves, config.shared
    k, s = len(curves), len(shared)
    # -(a bool) is the int -1 or 0: minus each point on curve i
    parts = [incidence_class(config, degree, [-(j == i) for j in range(k)],
                             [-(i in on) for on in shared])
             for i, (degree, _) in enumerate(curves)]
    parts += [incidence_class(config, 0, [0] * k, [int(q == p) for q in range(s)])
              for p in range(s)]
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
    # int lists over den 1: each class is in lowest terms as it stands
    if not len(lhs) == len(big) == len(eff):
        raise ValueError("classes have different lengths")
    residual = list(map(operator.sub, map(operator.sub, lhs, big), eff))
    return WitnessReport(example, not any(residual), _new(tuple(lhs), 1),
                         _new(tuple(big), 1), _new(tuple(eff), 1),
                         _new(tuple(residual), 1), n)


def _witness_hirzebruch(n: int, fibers: Sequence[tuple[int, bool]] | None,
                        extra_on_sigma: int) -> WitnessReport:
    if fibers is None:
        fibers = [(1, False)] * (n + 1)
    if len(fibers) != n + 1:
        raise DomainError("exactly n + 1 named fibers are required")
    lattice, sigma_terms, fiber_terms = hirzebruch_model(n, fibers, extra_on_sigma)
    rank = lattice.rank
    lhs = list(map((-n).__mul__, lattice.canonical.integral_coeffs()))
    # sigma and F are the first two basis classes
    big = [0] * rank
    big[0], big[1] = 1, n
    eff = [0] * rank
    eff[0] = n - 1
    add_terms(eff, chain(sigma_terms, *fiber_terms), n)  # n * (sigma + every fiber)
    return _report("hirzebruch_b", lhs, big, eff, n)


def _witness_conic(n: int) -> WitnessReport:
    # basis (l, e0, e1..en): e0 is the point off the conic, e1..en lie on it
    lattice = _plane_lattice(n + 1)
    rank = lattice.rank
    lhs = list(map((-n).__mul__, lattice.canonical.integral_coeffs()))
    big = [2] + [0] * (rank - 1)
    conic = n - 1  # times the conic 2l - e1 - ... - en
    # plus the n lines l - e0 - ei: their common part n(l - e0), then each
    # ei once, over the run e1..en
    eff = [2 * conic + n, -n] + [-conic - 1] * n
    return _report("conic_c", lhs, big, eff, n)


def _witness_castravet() -> WitnessReport:
    # ten points where five general lines meet: pair (i, j) at 1 + its index in pairs
    pairs = list(combinations(range(1, 6), 2))
    lattice = _plane_lattice(len(pairs))
    rank = lattice.rank
    lhs = list(map((-2).__mul__, lattice.canonical.integral_coeffs()))
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
    fields = _WITNESS_FIELDS.get(example) if isinstance(example, str) else None
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
    hirzebruch_b's section and fibers enter it in one pass; conic_c's conic
    and lines meet the points e1..en with one and the same coefficient, so
    that run is one list product.  The residual is computed either way.

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
